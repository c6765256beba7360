"""Estimators (reproducibility, union bound, CI scaling), sweeps, and search."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

import cubeslicer
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
from cubeslicer.errors import DimensionTooLarge, DimensionTooSmall, SlicerError
from cubeslicer.lab import _bernoulli_report, _search_replica, run_estimator
from helpers import naive_slicing, on_main_and_worker_threads


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
        runs = on_main_and_worker_threads(lambda: estimate_evasion(c, 50000, RngSpec(4)), 2)
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


class TestDrawCounts:
    def test_reports_carry_the_bias_rows(self):
        c = random_unit_configuration(16, 4, RngSpec(40))
        per, union = estimate_evasion(c, 20000, RngSpec(41))
        assert (union.bias_rows_drawn, union.bias_rows_accepted) == (20000, 20000)
        assert all(r.bias_rows_drawn == 20000 for r in per)
        glue = estimate_glue_sum(c, 0, None, 3000, RngSpec(42))
        assert (glue.bias_rows_drawn, glue.bias_rows_accepted) == (3000, 3000)
        tail = estimate_linf_tail(c, 3000, RngSpec(43))
        assert (tail.bias_rows_drawn, tail.bias_rows_accepted) == (3000, None)

    def test_redraws_are_counted(self, monkeypatch):
        import cubeslicer.sampler as sampler_mod

        c = random_unit_configuration(6, 8, RngSpec(44))
        monkeypatch.setattr(sampler_mod, "P_MAX", 0.08)
        _, union = estimate_evasion(c, 20000, RngSpec(45))
        glue = estimate_glue_sum(c, 0, None, 20000, RngSpec(45))
        assert union.bias_rows_accepted == glue.bias_rows_accepted == 20000
        # the same chunk streams draw the same biases in both estimators
        assert union.bias_rows_drawn == glue.bias_rows_drawn > 20000

    @pytest.mark.parametrize("what", ["evasion", "glue"])
    def test_every_bias_row_is_drawn_inside_a_conditioned_batch(self, monkeypatch, what):
        # perfbench's tracer counts the bias rows drawn as the rows of
        # sampler.batch_bias calls made inside sampler.batch_bias_conditioned
        # calls; wrapped here the same way, in every module that holds them
        import cubeslicer.lab as lab_mod
        import cubeslicer.sampler as sampler_mod

        stack, batches = [], []

        def wrap(fn):
            def wrapper(setup, gen, count, *rest):
                if fn.__name__ == "batch_bias":
                    batches.append((tuple(stack), count))
                stack.append(fn.__name__)
                try:
                    return fn(setup, gen, count, *rest)
                finally:
                    stack.pop()

            return wrapper

        for name in ("batch_bias", "batch_bias_conditioned"):
            original = getattr(sampler_mod, name)
            for module in (sampler_mod, lab_mod):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrap(original))
        # float middle layers at n = 256: P = p * (1, ..., 1) with |p| up to
        # 0.68; 0.03 rejects about a fifth of the rows
        monkeypatch.setattr(sampler_mod, "P_MAX", 0.03)
        c = construction("middle_layers", 256, kind="float")
        _, rep = run_estimator(what, c, 3000, RngSpec(46))
        assert rep.bias_rows_drawn > rep.bias_rows_accepted == 3000
        assert {where for where, _ in batches} == {("batch_bias_conditioned",)}
        assert sum(rows for _, rows in batches) == rep.bias_rows_drawn


def test_evasion_chunk_memory_is_per_block():
    # A child process runs one full chunk of estimate_evasion at n = 1024,
    # m = 100 in a grandchild and reports its RUSAGE_CHILDREN peak (see
    # test_verifier.test_peak_memory_stays_bounded_at_n20).  Holding the
    # whole chunk (its 16384 x 1210 multipliers, P, the uniforms and U) took
    # about 500 MB, and fresh arrays for each block of 1024 rows about
    # 100 MB.  Blocks drawn into reused buffers, with the vertices drawn and
    # tested in row slices, take about 75 MB.
    src = str(Path(cubeslicer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = (
        "from cubeslicer import RngSpec, estimate_evasion, random_unit_configuration; "
        "c = random_unit_configuration(1024, 100, RngSpec(0)); "
        "estimate_evasion(c, 16384, RngSpec(1))"
    )
    child = (
        "import resource, subprocess, sys\n"
        f"code = subprocess.call([sys.executable, '-c', {run!r}])\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=600)
    code, peak = (int(x) for x in proc.stdout.split())
    assert code == 0, proc.stderr
    peak_mb = peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    assert peak_mb <= 100, f"peak RSS {peak_mb:.0f} MB"


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
        runs = on_main_and_worker_threads(lambda: estimate_linf_tail(c, 30000, RngSpec(14)), 2)
        assert runs[0] == runs[1] == runs[2]


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
        rows = sweep([SweepCell(8, None, "middle_layers")], 2000, RngSpec(23))
        assert rows[0]["error"] is None
        assert rows[0]["m"] == 8

    def test_construction_cell_keeps_its_plane_count(self):
        # the axis planes at n = 8 are 8: cells asking for 3 or 5 of them are
        # errors in their rows, where both once ran the same 8 planes
        cells = [SweepCell(8, 3, "axis"), SweepCell(8, 5, "axis"), SweepCell(8, 8, "axis"), SweepCell(8, None, "axis")]
        rows = sweep(cells, 200, RngSpec(0))
        assert [row["m"] for row in rows] == [3, 5, 8, 8]
        assert rows[0]["error"] == "MalformedInput: construction 'axis' has 8 planes at n = 8, not m = 3"
        assert "MalformedInput" in rows[1]["error"]
        assert rows[2]["error"] is None and rows[3]["error"] is None
        assert "point_estimate" not in rows[0] and rows[2]["point_estimate"] == 1.0

    def test_random_cell_needs_a_plane_count(self):
        rows = sweep([SweepCell(8, None), SweepCell(8, 2)], 200, RngSpec(0))
        assert rows[0]["error"] == "MalformedInput: a random cell needs its plane count m"
        assert rows[1]["error"] is None


class TestRunEstimator:
    def test_each_name_runs_its_estimator(self):
        c = random_unit_configuration(16, 4, RngSpec(50))
        assert run_estimator("evasion", c, 3000, RngSpec(51)) == estimate_evasion(c, 3000, RngSpec(51))
        tail = estimate_linf_tail(c, 3000, RngSpec(52))
        assert run_estimator("linf-tail", c, 3000, RngSpec(52)) == ([], tail)
        assert run_estimator("linf_tail", c, 3000, RngSpec(52)) == ([], tail)
        glue = estimate_glue_sum(c, 2, 0.1, 3000, RngSpec(53))
        assert run_estimator("glue", c, 3000, RngSpec(53), plane_index=2, t=0.1) == ([], glue)

    def test_unknown_name_is_a_slicer_error(self):
        c = random_unit_configuration(16, 4, RngSpec(54))
        with pytest.raises(SlicerError, match="unknown estimator 'glue-sum'"):
            run_estimator("glue-sum", c, 3000, RngSpec(55))
        assert "unknown estimator 'uniform'" in sweep([SweepCell(8, 2)], 100, RngSpec(56), estimator="uniform")[0]["error"]

    def test_estimators_are_looked_up_at_call_time(self, monkeypatch):
        # a wrapper swapped into the module, as a tracer does, sees the call
        calls = []

        def wrapped(*args):
            calls.append(args[1:])
            return estimate_glue_sum(*args)

        monkeypatch.setattr(cubeslicer.lab, "estimate_glue_sum", wrapped)
        sweep([SweepCell(8, 2)], 100, RngSpec(57), estimator="glue")
        assert calls[0][:2] == (0, None)


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
        runs = on_main_and_worker_threads(
            lambda: local_search_slicing(3, 2, 3000, RngSpec(26), replicas=4), 2
        )
        a_cfg, a_rep = runs[0]
        for b_cfg, b_rep in runs[1:]:
            assert a_cfg == b_cfg
            assert a_rep.unsliced_count == b_rep.unsliced_count

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            local_search_slicing(9, 3, 10, RngSpec(27))

    def test_replica_energy_is_unsliced_count(self, monkeypatch):
        # the annealer's incremental energy against the per-edge reference;
        # short runs keep random planes through vertices, whose edges with a
        # zero side do not count as crossed, and an early restart puts fresh
        # planes into the 300-move runs
        monkeypatch.setattr(cubeslicer.lab, "RESTART_AFTER", 50)
        for seed, iters in enumerate((0, 0, 5, 5, 300, 300)):
            gen = np.random.default_rng(seed)
            energy, rows = _search_replica(4, 2, iters, gen, 3)
            planes = tuple(make_hyperplane([int(x) for x in row[:-1]], int(row[-1])) for row in rows)
            assert energy == naive_slicing(Configuration(4, planes))[0]

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
            assert abs(math.hypot(*h.coeffs) - 1.0) < 1e-12
            assert h.threshold == 0.0

    def test_zero_dimension_refused(self):
        # a direction in no dimensions has norm 0 and could never be redrawn
        for m in (0, 2):
            with pytest.raises(DimensionTooSmall):
                random_unit_configuration(0, m, RngSpec(31))
