"""Exhaustive slicing verification against the per-edge reference sweep."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubeslicer
from cubeslicer import (
    Configuration,
    config_from_json_dict,
    construction,
    crossing_counts,
    edge_crosses,
    iter_edges,
    make_hyperplane,
    max_crossings_bound,
    verify_slicing,
)
from cubeslicer.core import Edge, Vertex, crossing_bits, side_bits
from cubeslicer import verifier
from cubeslicer.errors import DimensionTooLarge, NonFiniteScalar
from helpers import naive_slicing, on_main_and_worker_threads, random_rational_config

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
        # one call on the calling thread and two at once on worker threads,
        # on exact, float and relaxed configs at n = 18 (two superblocks);
        # the relaxed one leaves over 100 edges unsliced, so the capped
        # samples are compared too
        float_planes = construction("middle_layers", 18, kind="float").planes
        configs = [
            construction("middle_layers", 18),
            Configuration(18, float_planes),
            Configuration(18, float_planes[2:-2], "relaxed"),
        ]
        for c, sample_size in zip(configs, (0, 0, 100)):
            reports = on_main_and_worker_threads(lambda: verify_slicing(c), 2)
            assert len(reports[0].unsliced_sample) == sample_size
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

    def test_float_sides_near_the_double_limit(self):
        # 2 * (l1(v) + |t|) = 1.6e308 is a double: every side is finite
        c = Configuration(2, (make_hyperplane([4e307, 4e307], 0.0, "float"),))
        unsliced, counts = naive_slicing(c)
        rep = verify_slicing(c)
        assert (rep.unsliced_count, list(rep.per_plane_crossings)) == (unsliced, counts)
        # past it a side value or an offset would be infinite
        with pytest.raises(NonFiniteScalar):
            verify_slicing(Configuration(2, (make_hyperplane([4e307, 4e307], 1e308, "float"),)))

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            verify_slicing(Configuration(29, ()))

    def test_tiny_float_coefficients_still_slice(self):
        # the two axis planes of Q_2 with coefficients 1e-13: every side value
        # is +-1e-13, far above the plane's own tolerance of 1e-25
        c = config_from_json_dict(
            {"n": 2, "planes": [{"coeffs": [1e-13, 0.0], "threshold": 0.0}, {"coeffs": [0.0, 1e-13], "threshold": 0.0}]}
        )
        rep = verify_slicing(c)
        assert rep.complete
        assert rep.per_plane_crossings == (2, 2)

    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    def test_float_report_is_scale_invariant(self, mode):
        # small integer planes put vertices on planes; scaling by a power of
        # two is exact, so sides and tolerances scale together
        gen = np.random.default_rng(113)
        rows = gen.integers(-2, 3, size=(4, 7))
        rows[:, 0] = 1
        ts = gen.integers(-2, 3, size=4)
        reports = []
        for scale in (1.0, 2.0**-40):
            planes = tuple(make_hyperplane([scale * float(x) for x in r], scale * float(t), "float") for r, t in zip(rows, ts))
            c = Configuration(7, planes, mode)
            reports.append(verify_slicing(c))
        assert reports[0].unsliced_count > 0
        for field in ("unsliced_count", "unsliced_sample", "per_plane_crossings"):
            assert getattr(reports[1], field) == getattr(reports[0], field)
        assert (reports[0].unsliced_count, list(reports[0].per_plane_crossings)) == naive_slicing(c)

    def test_elapsed_recorded(self):
        rep = verify_slicing(construction("axis", 4))
        assert rep.elapsed_ms >= 0.0
        assert rep.complete


def _first_unsliced(c, cap=100):
    """The first `cap` unsliced edges in iter_edges order, by the scalar predicate."""
    out = []
    for e in iter_edges(c.n):
        if not any(edge_crosses(h, e, c.mode) for h in c.planes):
            out.append(e)
            if len(out) == cap:
                break
    return out


def _axis_planes(n, axes, kind="exact"):
    planes = []
    for k in axes:
        coeffs = [0] * n
        coeffs[k] = 1
        planes.append(make_hyperplane(coeffs, 0, kind))
    return planes


def _set_bits(monkeypatch, block, pack):
    # the packing needs whole-word blocks, or one block per superblock
    assert block >= min(pack, 6)
    monkeypatch.setattr(verifier, "_BLOCK_BITS", block)
    monkeypatch.setattr(verifier, "_PACK_BITS", pack)


def _check_bits(monkeypatch, c, pairs):
    """Every (block, pack) bit pair against the per-edge reference."""
    unsliced, counts = naive_slicing(c)
    first = _first_unsliced(c)
    for bits in pairs:
        _set_bits(monkeypatch, *bits)
        rep = verify_slicing(c)
        assert rep.unsliced_count == unsliced, bits
        assert list(rep.per_plane_crossings) == counts, bits
        assert list(rep.unsliced_sample) == first, bits


class TestBlockedSweep:
    """Small blocks and superblocks put n = 3..8 over many of each, so the
    high-axis partner superblocks, the pairing of superblocks across bit B,
    the packing of several blocks into one superblock's words and the
    per-superblock edge offsets all run against the per-edge reference."""

    # (block bits b, pack bits B), with b >= 6 or b = B as the packing needs:
    # B = b (one block per superblock, under a word at b < 6), two blocks per
    # superblock with a packed and a high axis (n = 8), B - b = 2, and
    # B = 9 >= n (one superblock)
    PAIRS = ((1, 1), (3, 3), (5, 5), (6, 7), (6, 8), (6, 9))

    def _check(self, monkeypatch, c):
        _check_bits(monkeypatch, c, self.PAIRS)

    def test_random_exact_configs(self, monkeypatch):
        gen = np.random.default_rng(101)
        for n in range(3, 9):
            for mode in ("strict", "relaxed"):
                m = int(gen.integers(1, 4))
                self._check(monkeypatch, random_rational_config(gen, n, m, mode=mode))

    def test_random_float_configs(self, monkeypatch):
        gen = np.random.default_rng(103)
        for n in range(3, 9):
            rows = gen.standard_normal((2, n))
            planes = tuple(make_hyperplane(r.tolist(), float(gen.uniform(-1, 1)), "float") for r in rows)
            self._check(monkeypatch, Configuration(n, planes))

    def test_relaxed_configs_with_zero_sides(self, monkeypatch):
        # small integer planes put vertices on planes, in both arithmetic kinds
        gen = np.random.default_rng(107)
        for n in range(3, 9):
            for kind in ("exact", "float"):
                planes = []
                for _ in range(int(gen.integers(1, 4))):
                    row = gen.integers(-2, 3, size=n)
                    if not row.any():
                        row[0] = 1
                    cast = int if kind == "exact" else float
                    planes.append(make_hyperplane([cast(x) for x in row], cast(gen.integers(-2, 3)), kind))
                self._check(monkeypatch, Configuration(n, tuple(planes), "relaxed"))

    def test_huge_rationals_object_fallback(self, monkeypatch):
        primes = [999999937, 999999893, 999999883, 999999867, 999999863]
        coeffs = [F(1, p) for p in primes]
        plane = make_hyperplane(coeffs, F(1, 999999797))
        assert verifier._plane_stack(Configuration(5, (plane,)))[0].dtype == object
        self._check(monkeypatch, Configuration(5, (plane,)))

    def test_empty_configuration_and_n1(self, monkeypatch):
        self._check(monkeypatch, Configuration(6, ()))
        self._check(monkeypatch, Configuration(1, ()))
        self._check(monkeypatch, construction("axis", 1))

    @pytest.mark.parametrize("kind", ["exact", "float"])
    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    def test_zero_sides_in_some_blocks_only(self, monkeypatch, kind, mode):
        # 2*x_{n-1} + x_0 + x_1 = 2 has zero sides only where x_{n-1} = +1,
        # so the blocks below that half have none and the high-axis partners
        # of theirs do; x_0 + x_2 = 1 has none anywhere.  The sweep skips
        # the nonzero class exactly where no plane has a zero side.
        cast = int if kind == "exact" else float
        for n in range(3, 9):
            rows = [[1, 1] + [0] * (n - 3) + [2], [1, 0, 1] + [0] * (n - 3)]
            planes = [make_hyperplane([cast(x) for x in row], cast(t), kind) for row, t in zip(rows, (2, 1))]
            self._check(monkeypatch, Configuration(n, tuple(planes), mode))

    @pytest.mark.parametrize(
        "n, unsliced_axes",
        [
            (8, (0, 1, 2)),  # more than 100 unsliced low-axis edges
            (8, (5, 6, 7)),  # low axes all sliced, more than 100 on high axes
            (7, (1, 4, 6)),  # 64 per axis: at (b, B) = (5, 5) the sample runs
                             # from word-internal axes into a high one
            (7, (2, 3, 5)),
            (8, (7,)),  # one high axis: at (b, B) = (6, 7) its sample spans both words of a superblock
        ],
    )
    def test_capped_sample_spans_low_and_high_axes(self, monkeypatch, n, unsliced_axes):
        planes = _axis_planes(n, [k for k in range(n) if k not in unsliced_axes])
        # one more plane makes the unsliced pattern inside each axis irregular
        planes.append(make_hyperplane([1, -2, 3, 1, -1, 2, -3, 1][:n], 1))
        c = Configuration(n, tuple(planes))
        unsliced, _ = naive_slicing(c)
        assert unsliced > 100
        self._check(monkeypatch, c)

    def test_one_pass_per_axis_and_superblock(self, monkeypatch):
        # (b, B) = (6, 8) at n = 10: four superblocks of four word-sized
        # blocks each.  Every axis pass, high axes included, crosses whole
        # superblocks: B passes in each superblock, and each high axis in the
        # half of the superblocks that hold its base vertices.
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return crossing_bits(*args, **kwargs)

        n, B = 10, 8
        c = random_rational_config(np.random.default_rng(131), n, 3)
        unsliced, counts = naive_slicing(c)
        _set_bits(monkeypatch, 6, B)
        monkeypatch.setattr(verifier, "crossing_bits", counting)
        rep = verify_slicing(c)
        assert len(calls) == (B << (n - B)) + ((n - B) << (n - B - 1)) == 36
        assert rep.unsliced_count == unsliced and list(rep.per_plane_crossings) == counts
        assert list(rep.unsliced_sample) == _first_unsliced(c)

    def test_one_classification_per_superblock_and_high_axis_above_B(self, monkeypatch):
        # (b, B) = (6, 8) at n = 10, with the plane sum(x) = 0, which has
        # zero sides in every block and every partner block, so no block
        # skips its nonzero class.  Every superblock classifies its base
        # sides, and each high axis k > B its partners' in the half of the
        # superblocks that hold its base vertices.  Axis B classifies none:
        # superblock 2t + 1's base classes are the partners of 2t's.
        calls = []
        classify = verifier._classify

        def counting(*args, **kwargs):
            calls.append(1)
            return classify(*args, **kwargs)

        n, B = 10, 8
        gen = np.random.default_rng(137)
        planes = random_rational_config(gen, n, 2).planes + (make_hyperplane([1] * n, 0),)
        c = Configuration(n, planes)
        unsliced, counts = naive_slicing(c)
        _set_bits(monkeypatch, 6, B)
        monkeypatch.setattr(verifier, "_classify", counting)
        rep = verify_slicing(c)
        blocks = 1 << (B - 6)
        assert len(calls) == blocks * ((1 << (n - B)) + ((n - B - 1) << (n - B - 1))) == blocks * 6
        assert rep.unsliced_count == unsliced and list(rep.per_plane_crossings) == counts
        assert list(rep.unsliced_sample) == _first_unsliced(c)


class TestWordBoundaryBlocks:
    """Blocks and superblocks of 2^4 .. 2^8 vertices put the packed sweep on
    both sides of the 64-bit word: one partly filled word (word-internal
    axes only), one full word, two words paired by the first word-apart
    axis, and superblocks of two and four one-word blocks, with high axes
    above them, against the per-edge reference."""

    PAIRS = ((4, 4), (5, 5), (6, 6), (7, 7), (6, 7), (6, 8))

    @pytest.mark.parametrize("n", range(6, 10))
    def test_random_configs(self, monkeypatch, n):
        gen = np.random.default_rng(109 + n)
        configs = [random_rational_config(gen, n, int(gen.integers(1, 4)), mode=mode) for mode in ("strict", "relaxed")]
        for kind in ("exact", "float"):
            # small integer planes put vertices on planes and leave many edges unsliced
            cast = int if kind == "exact" else float
            planes = []
            for _ in range(2):
                row = gen.integers(-2, 3, size=n)
                if not row.any():
                    row[0] = 1
                planes.append(make_hyperplane([cast(x) for x in row], cast(gen.integers(-2, 3)), kind))
            configs += [Configuration(n, tuple(planes), mode) for mode in ("strict", "relaxed")]
        for c in configs:
            _check_bits(monkeypatch, c, self.PAIRS)


# planes whose high coefficients +-2^53 make float sides depend on the order
# of their additions; every side is even
_BIG = 2.0**53
_BIG_ROWS = [
    [1, 2, -1, 3, 1, -2, _BIG, -_BIG],
    [3, -1, 1, 1, 2, 2, -_BIG, _BIG],
    [1, 1, 1, 1, 1, 1, 2, 2],
    [2, -3, 1, 1, -1, 2, _BIG / 2, -_BIG / 2],
]


def _census(c, b):
    """c's report by brute force over the 2^n vertices: every vertex has the
    one side low[lo] + off[h] of _side_tables at block bits b, classified by
    side_bits, and every edge is decided by crossing_bits on its endpoints'
    classes.  Returns the unsliced count, the per-plane counts and the first
    100 unsliced edges in iter_edges order."""
    n, m = c.n, c.m
    coeffs, thresholds, tol = verifier._plane_stack(c)
    ordered, rank, off = verifier._side_tables(coeffs, thresholds, b)
    low = np.take_along_axis(ordered, rank.astype(np.intp), axis=1)
    side = (low[:, None, :] + off[:, :, None]).reshape(m, 1 << n)
    pos, nz = side_bits(side, None if tol is None else tol[:, None])
    masks = np.arange(1 << n)
    counts = np.zeros(m, dtype=np.int64)
    unsliced = []
    for k in range(n):
        base = masks[(masks >> k) & 1 == 0]
        top = base | 1 << k
        cross = crossing_bits(pos[:, base], nz[:, base], pos[:, top], nz[:, top], c.mode == "relaxed")
        counts += cross.sum(axis=1)
        unsliced += [Edge(Vertex(n, int(u)), k) for u in base[~cross.any(axis=0)]]
    return len(unsliced), counts.tolist(), unsliced[:100]


class TestOneSidePerVertex:
    """The report against a census in which every vertex has one side, its
    own low + off, at each of TestBlockedSweep's (block, pack) bit pairs: a
    high-axis partner takes the class the same vertex takes as a base.  On
    the 2^53 planes float sides round with the split of the coordinates at
    b, and the per-edge reference sums them in another order still, so the
    census, not naive_slicing, is their reference."""

    def _check(self, monkeypatch, c):
        for block, pack in TestBlockedSweep.PAIRS:
            _set_bits(monkeypatch, block, pack)
            rep = verify_slicing(c)
            got = (rep.unsliced_count, list(rep.per_plane_crossings), list(rep.unsliced_sample))
            assert got == _census(c, min(c.n, pack, block)), (block, pack)

    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    @pytest.mark.parametrize("threshold", [0.0, -18013.5, 18014.0])
    def test_planes_at_2_to_53(self, monkeypatch, mode, threshold):
        # the zero tolerance 1e-12 * l1(v) of the first two planes is about
        # 18014.4, so thresholds near it put sides on both sides of it.  A
        # partner side summed as (low + off) + 2*v_k rounds low + off to a
        # multiple of 4 near 2^54 and can leave the class of the same vertex
        # summed as its own low + off.
        planes = tuple(make_hyperplane(row, threshold, "float") for row in _BIG_ROWS)
        self._check(monkeypatch, Configuration(8, planes, mode))

    def test_random_exact_configs(self, monkeypatch):
        gen = np.random.default_rng(149)
        for n in range(3, 9):
            for mode in ("strict", "relaxed"):
                self._check(monkeypatch, random_rational_config(gen, n, int(gen.integers(1, 4)), mode=mode))

    def test_random_float_configs(self, monkeypatch):
        # normal planes, and small integer ones with exact zero sides
        gen = np.random.default_rng(151)
        for n in range(3, 9):
            rows = [gen.standard_normal(n), gen.integers(-2, 3, size=n) | np.eye(1, n, dtype=int)[0]]
            planes = tuple(make_hyperplane([float(x) for x in r], float(gen.integers(-2, 3)), "float") for r in rows)
            for mode in ("strict", "relaxed"):
                self._check(monkeypatch, Configuration(n, planes, mode))


def _check_rank_classes(coeffs, thresholds, tol, pairs):
    """The packed classes from ranks and cuts against side_bits + packbits on
    the per-vertex sides low + off, block by block, for each superblock's
    blocks and its high-axis partners' blocks, each at its own offset, at
    each (block, pack) bit pair."""
    m, n = coeffs.shape
    tol = None if tol is None else tol[:, None, None]
    for block, pack in pairs:
        B = min(n, pack)
        b = min(B, block)
        ordered, rank, off = verifier._side_tables(coeffs, thresholds, b)
        low = 2 * verifier._subset_sums(coeffs[:, :b]) - coeffs.sum(axis=1)[:, None] - thresholds[:, None]
        assert (np.take_along_axis(ordered, rank.astype(np.intp), axis=1) == low).all()
        off = off.reshape(m, 1 << (n - B), 1 << (B - b))
        for sb in range(1 << (n - B)):
            supers = [sb] + [sb | 1 << (k - B) for k in range(B + 1, n) if not (sb >> (k - B)) & 1]
            cuts = verifier._cuts(ordered, off[:, supers], tol)
            assert cuts.dtype == np.int16 and cuts.shape == (2, *off[:, supers].shape)
            for a, s in enumerate(supers):
                for i in range(1 << (B - b)):
                    side = low[:, None, :] + off[:, s, i, None, None]
                    classes = [x.reshape(m, -1) for x in side_bits(side, tol)]
                    want = [np.packbits(x, axis=-1) for x in classes]
                    cut = cuts[:, :, a, i]
                    out = np.empty((2, m, 1 << b), dtype=bool)
                    got = [np.packbits(x, axis=-1) for x in verifier._classify(rank, cut, False, out)]
                    for w, g in zip(want, got):
                        assert np.array_equal(w, g), ((block, pack), sb, s, i)
                    # equal cuts on every plane: no zero side, and the
                    # nonzero class is left uncomputed
                    zero_free = bool((cut[0] == cut[1]).all())
                    pos, nz = verifier._classify(rank, cut, zero_free, out)
                    assert (nz is None) == zero_free == bool(classes[1].all())
                    assert np.array_equal(np.packbits(pos, axis=-1), want[0])


class TestSubsetSums:
    """The doubling recursion against a sum over each mask's set bits, in
    increasing bit order, as the recursion adds them."""

    @staticmethod
    def _brute(cs):
        m, d = cs.shape
        out = np.empty((m, 1 << d), dtype=cs.dtype)
        for mask in range(1 << d):
            total = np.zeros(m, dtype=cs.dtype)
            for i in range(d):
                if (mask >> i) & 1:
                    total = total + cs[:, i]
            out[:, mask] = total
        return out

    @pytest.mark.parametrize("d", range(7))
    @pytest.mark.parametrize("kind", ["int64", "float", "object"])
    def test_against_sum_over_masks(self, kind, d):
        gen = np.random.default_rng(300 + d)
        if kind == "int64":
            cs = gen.integers(-(1 << 40), 1 << 40, size=(3, d))
        elif kind == "float":
            cs = gen.standard_normal((3, d)) * 2.0 ** gen.integers(-60, 60, size=(3, d))
        else:
            # beyond int64, as the object stack holds after clearing denominators
            cs = np.array([[int(x) * 10**30 + 7 for x in row] for row in gen.integers(-99, 100, size=(3, d))],
                          dtype=object).reshape(3, d)
        got = verifier._subset_sums(cs)
        assert got.dtype == cs.dtype and got.shape == (3, 1 << d)
        assert np.array_equal(got, self._brute(cs))


class TestRankClasses:
    """Ranks and cuts classify every block exactly as side_bits does on the
    per-vertex sides, bit for bit after packing."""

    PAIRS = TestBlockedSweep.PAIRS + TestWordBoundaryBlocks.PAIRS

    def _check(self, c):
        coeffs, thresholds, tol = verifier._plane_stack(c)
        _check_rank_classes(coeffs, thresholds, tol, self.PAIRS)

    def test_exact_int64(self):
        gen = np.random.default_rng(211)
        for n in (7, 9):
            c = random_rational_config(gen, n, 3)
            assert verifier._plane_stack(c)[0].dtype == np.int64
            self._check(c)

    def test_exact_object(self):
        primes = [999999937, 999999893, 999999883, 999999867, 999999863, 999999797, 999999761, 999999757]
        planes = [make_hyperplane([F(1, p) for p in primes], F(1, 999999751)),
                  make_hyperplane([F(s, p) for s, p in zip([1, -1, 2, -3, 1, 1, -2, 5], primes)], 0)]
        c = Configuration(8, tuple(planes))
        assert verifier._plane_stack(c)[0].dtype == object
        self._check(c)

    def test_float(self):
        gen = np.random.default_rng(223)
        planes = [make_hyperplane(r.tolist(), float(gen.uniform(-1, 1)), "float") for r in gen.standard_normal((3, 9))]
        self._check(Configuration(9, tuple(planes)))

    @pytest.mark.parametrize("kind", ["exact", "float"])
    def test_relaxed_with_zero_sides(self, kind):
        gen = np.random.default_rng(227)
        cast = int if kind == "exact" else float
        # the identity rows keep every plane nonzero
        rows = gen.integers(-2, 3, size=(3, 8)) | np.eye(3, 8, dtype=int)
        planes = [make_hyperplane([cast(x) for x in row], cast(t), kind) for row, t in zip(rows, gen.integers(-2, 3, size=3))]
        self._check(Configuration(8, tuple(planes), "relaxed"))

    def test_float_sides_on_the_tolerance_and_one_ulp_inside(self):
        # even integer sides, with a tolerance of 2 (sides +-2 on it) and one
        # ulp above 2 (sides +-2 one ulp inside).  The high coefficients
        # +-2^53 make the order of the additions matter: a partner block's
        # side is its own low + off, where the base side plus 2*v_k would
        # round the low part away.
        coeffs = np.array(_BIG_ROWS)
        thresholds = np.zeros(4)
        sides = 2 * verifier._subset_sums(coeffs) - coeffs.sum(axis=1)[:, None]
        assert ((sides == 2).any(axis=1) & (sides == -2).any(axis=1)).all()
        for tol in (2.0, np.nextafter(2.0, 3.0)):
            _check_rank_classes(coeffs, thresholds, np.full(4, tol), self.PAIRS)


@pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
@pytest.mark.parametrize("calls", [1, 2])
def test_peak_memory_stays_bounded_at_n20(calls):
    # A child process runs the verification in a grandchild and reports its
    # RUSAGE_CHILDREN peak, which covers only that grandchild.  (A process's
    # own peak starts at the RSS of the process it was forked from, here the
    # whole test session.)  Exact middle layers at n = 20: their 20 full side
    # arrays alone would take 168 MB.  Two calls in a row keep the same bound,
    # so nothing a sweep allocates outlives it.
    src = str(Path(cubeslicer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    verify = (
        "import sys; from cubeslicer import construction, verify_slicing; "
        "c = construction('middle_layers', 20); "
        f"sys.exit(0 if all([verify_slicing(c).complete for _ in range({calls})]) else 3)"
    )
    child = (
        "import resource, subprocess, sys\n"
        f"code = subprocess.call([sys.executable, '-c', {verify!r}])\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=600)
    code, peak = (int(x) for x in proc.stdout.split())
    assert code == 0, proc.stderr
    peak_mb = peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    assert peak_mb <= 120, f"peak RSS {peak_mb:.0f} MB"
