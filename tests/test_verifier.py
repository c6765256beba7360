"""Exhaustive slicing verification against the per-edge reference sweep."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeslicer import (
    Configuration,
    construction,
    crossing_counts,
    make_hyperplane,
    max_crossings_bound,
    verify_slicing,
)
from cubeslicer.errors import DimensionTooLarge
from helpers import naive_slicing, random_rational_config

F = Fraction


class TestMaxCrossingsBound:
    def test_values(self):
        assert max_crossings_bound(2) == 2
        assert max_crossings_bound(4) == 12
        assert max_crossings_bound(5) == 30

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            max_crossings_bound(0)


class TestCrossingCounts:
    def test_axis_plane_in_q4(self):
        c = Configuration(4, construction("axis", 4).planes[:1])
        assert crossing_counts(c) == (8,)

    def test_middle_layer_central_plane_q4(self):
        c = construction("middle_layers", 4)
        counts = crossing_counts(c)
        # central thresholds +-1 each meet the full central layer: 2 * C(4,2)
        by_threshold = {h.threshold: cnt for h, cnt in zip(c.planes, counts)}
        assert by_threshold[F(-1)] == 12
        assert by_threshold[F(1)] == 12

    def test_random_planes_respect_bound_q5(self):
        gen = np.random.default_rng(73)
        for _ in range(100):
            c = random_rational_config(gen, 5, 1)
            counts = crossing_counts(c)
            assert counts[0] <= 30

    def test_central_plane_saturates_even_dims(self):
        for n in (2, 4, 6, 8, 10, 12):
            c = construction("middle_layers", n)
            assert max(crossing_counts(c)) == max_crossings_bound(n)


class TestVerifySlicing:
    def test_axis_5_complete(self):
        assert verify_slicing(construction("axis", 5)).unsliced_count == 0

    def test_axis_5_minus_one_plane(self):
        full = construction("axis", 5)
        c = Configuration(5, full.planes[:-1])
        rep = verify_slicing(c)
        assert rep.unsliced_count == 16
        assert all(e.axis == 4 for e in rep.unsliced_sample)
        assert len(rep.unsliced_sample) == 16

    def test_middle_layers_4_complete(self):
        rep = verify_slicing(construction("middle_layers", 4))
        assert rep.unsliced_count == 0
        assert rep.total_edges == 32

    def test_empty_configuration(self):
        rep = verify_slicing(Configuration(3, ()))
        assert rep.unsliced_count == rep.total_edges == 12
        assert rep.per_plane_crossings == ()

    def test_matches_naive_reference(self):
        gen = np.random.default_rng(79)
        for n in (2, 3, 4, 5):
            for _ in range(25):
                m = int(gen.integers(1, 4))
                mode = "strict" if gen.random() < 0.5 else "relaxed"
                c = random_rational_config(gen, n, m, mode=mode)
                rep = verify_slicing(c)
                unsliced, counts = naive_slicing(c)
                assert rep.unsliced_count == unsliced
                assert list(rep.per_plane_crossings) == counts

    def test_matches_naive_on_float_configs(self):
        gen = np.random.default_rng(83)
        for _ in range(25):
            n = int(gen.integers(2, 6))
            rows = gen.standard_normal((2, n))
            planes = tuple(
                make_hyperplane(r.tolist(), float(gen.uniform(-1, 1)), "float") for r in rows
            )
            c = Configuration(n, planes)
            rep = verify_slicing(c)
            unsliced, counts = naive_slicing(c)
            assert rep.unsliced_count == unsliced
            assert list(rep.per_plane_crossings) == counts

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_naive_on_float_planes_with_zero_sides(self, data):
        # small-integer float planes put vertices exactly on planes, so the
        # zero-tolerance branch decides both modes
        n = data.draw(st.integers(1, 5), label="n")
        ints = st.integers(-2, 2)
        planes = []
        for _ in range(data.draw(st.integers(1, 3), label="m")):
            row = data.draw(st.lists(ints, min_size=n, max_size=n).filter(any), label="coeffs")
            planes.append(make_hyperplane([float(x) for x in row], float(data.draw(ints, label="t")), "float"))
        for mode in ("strict", "relaxed"):
            c = Configuration(n, tuple(planes), mode)
            rep = verify_slicing(c)
            unsliced, counts = naive_slicing(c)
            assert rep.unsliced_count == unsliced
            assert list(rep.per_plane_crossings) == counts

    def test_relaxed_never_leaves_more_unsliced(self):
        gen = np.random.default_rng(89)
        for _ in range(40):
            n = int(gen.integers(2, 6))
            m = int(gen.integers(1, 4))
            # integer coefficients make endpoint-on-plane cases common
            planes = []
            for _ in range(m):
                row = gen.integers(-3, 4, size=n)
                if not row.any():
                    row[0] = 1
                planes.append(make_hyperplane([int(x) for x in row], int(gen.integers(-2, 3))))
            strict = Configuration(n, tuple(planes), "strict")
            relaxed = Configuration(n, tuple(planes), "relaxed")
            assert verify_slicing(relaxed).unsliced_count <= verify_slicing(strict).unsliced_count

    def test_relaxed_mode_counts_touched_edges(self):
        # a plane through the weight-1 level of Q_4 touches 16 edges, above
        # the strict-mode counting bound of 12; strict crossing sees none
        plane = make_hyperplane([1, 1, 1, 1], 2)
        strict = verify_slicing(Configuration(4, (plane,), "strict"))
        relaxed = verify_slicing(Configuration(4, (plane,), "relaxed"))
        assert strict.per_plane_crossings == (0,)
        assert relaxed.per_plane_crossings == (16,)

    def test_thread_count_does_not_change_report(self):
        gen = np.random.default_rng(97)
        for _ in range(5):
            c = random_rational_config(gen, 6, 3)
            reports = [verify_slicing(c, threads=t) for t in (1, 4, 8)]
            for rep in reports[1:]:
                assert rep.unsliced_count == reports[0].unsliced_count
                assert rep.per_plane_crossings == reports[0].per_plane_crossings
                assert rep.unsliced_sample == reports[0].unsliced_sample

    def test_huge_rationals_use_object_fallback(self):
        # denominators whose lcm pushes scaled integers past the int64 guard
        primes = [999999937, 999999893, 999999883]
        coeffs = [F(1, p) for p in primes]
        c = Configuration(3, (make_hyperplane(coeffs, F(1, 999999797)),))
        rep = verify_slicing(c)
        unsliced, counts = naive_slicing(c)
        assert rep.unsliced_count == unsliced
        assert list(rep.per_plane_crossings) == counts

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            verify_slicing(Configuration(29, ()))

    def test_elapsed_recorded(self):
        rep = verify_slicing(construction("axis", 4))
        assert rep.elapsed_ms >= 0.0
        assert rep.complete
