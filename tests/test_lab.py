"""Estimators (reproducibility, union bound, CI scaling), sweeps, and search."""

import math

import numpy as np
import pytest
from scipy.stats import binom

from cubeslicer import (
    Configuration,
    RngSpec,
    SweepCell,
    construction,
    estimate_evasion,
    estimate_glue_sum,
    estimate_linf_tail,
    local_search_slicing,
    make_hyperplane,
    random_unit_configuration,
    sweep,
    verify_slicing,
)
from cubeslicer.errors import DimensionTooLarge
from cubeslicer.lab import _bernoulli_report, _search_replica
from helpers import naive_slicing


def single_axis_config(n=8, t=0.0):
    coeffs = [0.0] * n
    coeffs[0] = 1.0
    return Configuration(n, (make_hyperplane(coeffs, t, "float"),))


class TestEstimateEvasion:
    def test_single_plane_matches_exact_eighth(self):
        per, union = estimate_evasion(single_axis_config(), 200000, RngSpec(1))
        assert per[0].ci95[0] <= 0.125 <= per[0].ci95[1]
        assert union.point_estimate == per[0].point_estimate

    def test_shifted_plane_zero(self):
        per, _ = estimate_evasion(single_axis_config(t=2.0), 20000, RngSpec(2))
        assert per[0].point_estimate == 0.0
        assert per[0].std_error == 0.0

    def test_reproducible_and_thread_invariant(self):
        c = random_unit_configuration(16, 4, RngSpec(3, 1))
        runs = [estimate_evasion(c, 50000, RngSpec(4), threads=t) for t in (1, 4, 8)]
        base_per, base_union = runs[0]
        for per, union in runs[1:]:
            assert [r.point_estimate for r in per] == [r.point_estimate for r in base_per]
            assert union.point_estimate == base_union.point_estimate

    def test_union_at_most_sum_of_planes(self):
        c = random_unit_configuration(12, 5, RngSpec(5, 1))
        per, union = estimate_evasion(c, 40000, RngSpec(6))
        assert union.point_estimate <= sum(r.point_estimate for r in per) + 1e-12
        assert union.ci95[0] <= union.point_estimate <= union.ci95[1]

    def test_ci_shrinks_like_sqrt_samples(self):
        c = single_axis_config()
        small = estimate_evasion(c, 20000, RngSpec(7))[0][0]
        big = estimate_evasion(c, 80000, RngSpec(8))[0][0]
        ratio = big.std_error / small.std_error
        assert 0.4 <= ratio <= 0.6

    @pytest.mark.parametrize("name", ["axis", "middle_layers"])
    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    def test_complete_constructions_catch_every_edge(self, name, mode):
        c = construction(name, 8, kind="float", mode=mode)
        _, union = estimate_evasion(c, 5000, RngSpec(31))
        assert union.point_estimate == 1.0

    def test_rounding_level_sides_count_as_zero(self):
        # 0.1 x0 + 0.2 x1 + 0.3 x2 = 0.6 meets the cube only where x0 = x1 = x2 = 1,
        # so no edge crosses it strictly; the float side value there is a
        # rounding residue that the zero tolerance must call zero
        plane = make_hyperplane([0.1, 0.2, 0.3] + [0.0] * 5, 0.6, "float")
        strict, relaxed = (
            estimate_evasion(Configuration(8, (plane,), mode), 5000, RngSpec(33))[0][0].point_estimate
            for mode in ("strict", "relaxed")
        )
        assert strict == 0.0 < relaxed

    def test_target_bound_shape(self):
        c = random_unit_configuration(16, 4, RngSpec(9, 1))
        per, union = estimate_evasion(c, 1000, RngSpec(9))
        shape = math.sqrt(4) * math.log(16) ** 2 / 16
        assert per[0].target_bound == pytest.approx(shape)
        assert union.target_bound == pytest.approx(min(1.0, 4 * shape))


class TestBernoulliInterval:
    @pytest.mark.parametrize("p", [1e-3, 1e-2])
    @pytest.mark.parametrize("samples", [1000, 10000])
    def test_exact_coverage_at_small_p(self, p, samples):
        counts = np.arange(samples + 1)
        inside = np.array([
            lo <= p <= hi for lo, hi in (_bernoulli_report(int(k), samples, 0, None).ci95 for k in counts)
        ])
        coverage = float(binom.pmf(counts[inside], samples, p).sum())
        assert coverage >= 0.91

    def test_extreme_estimates_get_nondegenerate_intervals(self):
        zero = _bernoulli_report(0, 1000, 0, None)
        assert zero.point_estimate == 0.0 and zero.std_error == 0.0
        assert zero.ci95[0] == 0.0 < zero.ci95[1]
        one = _bernoulli_report(1000, 1000, 0, None)
        assert one.ci95[0] < one.ci95[1] == 1.0


class TestEstimateLinfTail:
    def test_single_plane_exact_zero(self):
        rep = estimate_linf_tail(single_axis_config(), 20000, RngSpec(10))
        assert rep.point_estimate == 0.0
        assert rep.target_bound == 2.0 / 8

    def test_within_bound_at_scale(self):
        c = random_unit_configuration(64, 16, RngSpec(11, 1))
        rep = estimate_linf_tail(c, 100000, RngSpec(12))
        se_cap = math.sqrt(rep.target_bound * (1 - rep.target_bound) / rep.samples)
        assert rep.point_estimate <= rep.target_bound + 4 * se_cap

    def test_thread_invariance(self):
        c = random_unit_configuration(32, 8, RngSpec(13, 1))
        runs = [estimate_linf_tail(c, 30000, RngSpec(14), threads=t) for t in (1, 4)]
        assert runs[0] == runs[1]


class TestEstimateGlueSum:
    def test_single_plane_exact_one(self):
        rep = estimate_glue_sum(single_axis_config(), 0, 0.0, 20000, RngSpec(15))
        assert rep.point_estimate == 1.0
        assert rep.std_error == 0.0

    def test_far_threshold_zero(self):
        rep = estimate_glue_sum(single_axis_config(), 0, 5.0, 5000, RngSpec(16))
        assert rep.point_estimate == 0.0

    def test_default_threshold_is_planes_own(self):
        c = single_axis_config(t=0.0)
        a = estimate_glue_sum(c, 0, None, 5000, RngSpec(17))
        b = estimate_glue_sum(c, 0, 0.0, 5000, RngSpec(17))
        assert a == b

    def test_multi_plane_reports_target(self):
        c = random_unit_configuration(32, 10, RngSpec(18, 1))
        rep = estimate_glue_sum(c, 0, None, 5000, RngSpec(19))
        assert rep.target_bound == pytest.approx(math.sqrt(10) * math.log(32) ** 2)
        assert rep.point_estimate >= 0.0
        assert rep.ci95[0] <= rep.point_estimate <= rep.ci95[1]


class TestSweep:
    def test_single_cell_matches_estimator(self):
        cell = SweepCell(16, 4, "random")
        rows = sweep([cell], 5000, RngSpec(20))
        config = random_unit_configuration(16, 4, RngSpec(20).child(0, 0))
        per, union = estimate_evasion(config, 5000, RngSpec(20).child(0, 1))
        assert rows[0]["point_estimate"] == union.point_estimate
        assert rows[0]["error"] is None

    def test_error_cell_isolated(self):
        rows = sweep(
            [SweepCell(16, 2), SweepCell(16, 0), SweepCell(8, 1)], 2000, RngSpec(21)
        )
        assert rows[0]["error"] is None
        assert "DimensionTooSmall" in rows[1]["error"]
        assert rows[2]["error"] is None

    def test_glue_and_linf_estimators(self):
        for estimator in ("linf_tail", "glue"):
            rows = sweep([SweepCell(16, 4)], 2000, RngSpec(22), estimator=estimator)
            assert rows[0]["error"] is None
            assert rows[0]["estimator"] == estimator

    def test_middle_layers_cells(self):
        rows = sweep([SweepCell(8, 0, "middle_layers")], 2000, RngSpec(23))
        assert rows[0]["error"] is None
        assert rows[0]["m"] == 8


class TestLocalSearch:
    def test_two_dims_one_plane_counting_optimum(self):
        _, rep = local_search_slicing(2, 1, 2000, RngSpec(24))
        assert rep.unsliced_count == 2

    def test_three_dims_three_planes_reaches_zero(self):
        wins = 0
        for seed in range(10):
            _, rep = local_search_slicing(3, 3, 10000, RngSpec(seed))
            wins += rep.unsliced_count == 0
        assert wins >= 9

    def test_report_is_exact_reverification(self):
        config, rep = local_search_slicing(4, 2, 3000, RngSpec(25))
        again = verify_slicing(config)
        assert rep.unsliced_count == again.unsliced_count
        assert rep.per_plane_crossings == again.per_plane_crossings

    def test_replicas_deterministic_across_threads(self):
        a_cfg, a_rep = local_search_slicing(3, 2, 3000, RngSpec(26), replicas=4, threads=1)
        b_cfg, b_rep = local_search_slicing(3, 2, 3000, RngSpec(26), replicas=4, threads=4)
        assert a_cfg == b_cfg
        assert a_rep.unsliced_count == b_rep.unsliced_count

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            local_search_slicing(9, 3, 10, RngSpec(27))

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_replica_energy_is_unsliced_count(self, relaxed):
        # the annealer's incremental energy against the per-edge reference;
        # short runs keep random planes through vertices, where modes differ
        for seed, iters in enumerate((0, 0, 5, 5, 300, 300)):
            gen = np.random.default_rng(seed)
            energy, coeffs, ts = _search_replica(4, 2, iters, gen, 3, relaxed, 50, 2.0, 0.05)
            planes = tuple(make_hyperplane([int(x) for x in row], int(t)) for row, t in zip(coeffs, ts))
            c = Configuration(4, planes, "relaxed" if relaxed else "strict")
            assert energy == naive_slicing(c)[0]

    def test_integer_coefficients_within_range(self):
        config, _ = local_search_slicing(3, 2, 500, RngSpec(28), coeff_range=4)
        for h in config.planes:
            assert all(abs(c) <= 4 and c.denominator == 1 for c in h.coeffs)
            assert abs(h.threshold) <= 4


class TestRandomUnitConfiguration:
    def test_unit_norms(self):
        c = random_unit_configuration(10, 5, RngSpec(29))
        assert c.m == 5 and c.kind == "float"
        for h in c.planes:
            assert abs(h.norm_cache - 1.0) < 1e-12
            assert h.threshold == 0.0

    def test_threshold_spread(self):
        c = random_unit_configuration(10, 5, RngSpec(30), threshold_spread=0.5)
        assert any(h.threshold != 0.0 for h in c.planes)
        assert all(abs(h.threshold) <= 0.5 for h in c.planes)
