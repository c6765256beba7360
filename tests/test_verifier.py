"""Exhaustive slicing verification against the per-edge reference sweep."""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
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
from cubeslicer.core import side_bits
from cubeslicer import verifier
from cubeslicer.errors import DimensionTooLarge, NonFiniteScalar
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
    monkeypatch.setattr(verifier, "_BLOCK_BITS", block)
    monkeypatch.setattr(verifier, "_PACK_BITS", pack)


def _check_bits(monkeypatch, c, pairs, threads):
    """Every (block, pack) bit pair and thread count against the per-edge reference."""
    unsliced, counts = naive_slicing(c)
    first = _first_unsliced(c)
    for bits in pairs:
        _set_bits(monkeypatch, *bits)
        for t in threads:
            rep = verify_slicing(c, threads=t)
            assert rep.unsliced_count == unsliced, (bits, t)
            assert list(rep.per_plane_crossings) == counts, (bits, t)
            assert list(rep.unsliced_sample) == first, (bits, t)


class TestBlockedSweep:
    """Small blocks and superblocks put n = 3..8 over many of each, so the
    high-axis endpoint identity, the packing of several blocks into one
    superblock's words, the per-superblock edge offsets and the run merge
    all run against the per-edge reference."""

    # (block bits b, pack bits B): B = b (one block per superblock), B - b >= 2,
    # b < 6 <= B (several blocks share a word), and B = 9 >= n (one superblock)
    PAIRS = ((1, 1), (3, 3), (2, 5), (1, 6), (3, 7), (2, 9))

    def _check(self, monkeypatch, c, threads=(1,)):
        _check_bits(monkeypatch, c, self.PAIRS, threads)

    def test_random_exact_configs(self, monkeypatch):
        gen = np.random.default_rng(101)
        for n in range(3, 9):
            for mode in ("strict", "relaxed"):
                m = int(gen.integers(1, 4))
                self._check(monkeypatch, random_rational_config(gen, n, m, mode=mode), threads=(1, 2, 3))

    def test_random_float_configs(self, monkeypatch):
        gen = np.random.default_rng(103)
        for n in range(3, 9):
            rows = gen.standard_normal((2, n))
            planes = tuple(make_hyperplane(r.tolist(), float(gen.uniform(-1, 1)), "float") for r in rows)
            self._check(monkeypatch, Configuration(n, planes), threads=(1, 2, 3))

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
        self._check(monkeypatch, Configuration(6, ()), threads=(1, 2, 3))
        self._check(monkeypatch, Configuration(1, ()), threads=(1, 2))
        self._check(monkeypatch, construction("axis", 1), threads=(1, 2))

    @pytest.mark.parametrize(
        "n, unsliced_axes",
        [
            (8, (0, 1, 2)),  # more than 100 unsliced low-axis edges
            (8, (5, 6, 7)),  # low axes all sliced, more than 100 on high axes
            (7, (1, 4, 6)),  # 64 per axis: at (b, B) = (2, 5) the sample runs
                             # from a low axis through a packed one into a high one
            (7, (2, 3, 5)),
            (8, (7,)),  # one high axis: at (b, B) = (3, 7) its sample spans both words of a superblock
        ],
    )
    def test_capped_sample_spans_low_and_high_axes(self, monkeypatch, n, unsliced_axes):
        planes = _axis_planes(n, [k for k in range(n) if k not in unsliced_axes])
        # one more plane makes the unsliced pattern inside each axis irregular
        planes.append(make_hyperplane([1, -2, 3, 1, -1, 2, -3, 1][:n], 1))
        c = Configuration(n, tuple(planes))
        unsliced, _ = naive_slicing(c)
        assert unsliced > 100
        self._check(monkeypatch, c, threads=(1, 2, 3))

    def test_worker_count_capped_by_threads_and_blocks(self, monkeypatch):
        seen = []

        class RecordingExecutor(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                seen.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(verifier, "ThreadPoolExecutor", RecordingExecutor)
        c = construction("axis", 6)
        _set_bits(monkeypatch, 1, 5)
        verify_slicing(c, threads=64)  # 2 superblocks of 16 blocks
        _set_bits(monkeypatch, 1, 1)
        verify_slicing(c, threads=3)  # 32 superblocks of one block
        _set_bits(monkeypatch, 1, 3)
        verify_slicing(c, threads=16)  # 8 superblocks
        _set_bits(monkeypatch, 1, 6)
        verify_slicing(c, threads=4)  # 1 superblock of 32 blocks: no pool
        assert seen == [2, 3, 8]


class TestWordBoundaryBlocks:
    """Blocks and superblocks of 2^4 .. 2^8 vertices put the packed sweep on
    both sides of the 64-bit word: one partly filled word (word-internal
    axes only), one full word, two words paired by the first word-apart
    axis, and blocks of part of a word packed into whole ones, with high
    axes above them, against the per-edge reference."""

    PAIRS = ((4, 4), (5, 5), (6, 6), (7, 7), (4, 6), (5, 8), (6, 8))

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
            _check_bits(monkeypatch, c, self.PAIRS, (1, 2))


def _check_rank_classes(coeffs, thresholds, tol, pairs):
    """The packed classes from ranks and cuts against side_bits + packbits on
    the per-vertex sides (low + off, then + 2*v_k), unit by unit, for the
    base sides and every high-axis partner, at each (block, pack) bit pair."""
    n = coeffs.shape[1]
    tol = None if tol is None else tol[:, None, None]
    for block, pack in pairs:
        B = min(n, pack)
        b = min(B, block)
        u = max(b, min(B, 6))
        ordered, rank, off, shifts = verifier._side_tables(coeffs, thresholds, b)
        low = 2 * verifier._subset_sums(coeffs[:, :b]) - coeffs.sum(axis=1)[:, None] - thresholds[:, None]
        assert (np.take_along_axis(ordered, rank.astype(np.intp), axis=1) == low).all()
        for sb in range(1 << (n - B)):
            axes = [k for k in range(B, n) if not (sb >> (k - B)) & 1]
            h = sb << (B - b)
            cuts = verifier._cuts(ordered, off[:, h : h + (1 << (B - b))], shifts[:, [0] + [k + 1 for k in axes]], tol)
            assert cuts.dtype == np.int16
            for slot in range(1 << (B - u)):
                blocks = slice(slot << (u - b), (slot + 1) << (u - b))
                base = low[:, None, :] + off[:, h:][:, blocks, None]
                for a, k in enumerate([None] + axes):
                    side = base if k is None else base + 2 * coeffs[:, k, None, None]
                    want = [np.packbits(x.reshape(len(low), -1), axis=-1) for x in side_bits(side, tol)]
                    out = np.empty((2, len(low), side[0].size), dtype=bool)
                    got = [np.packbits(x, axis=-1) for x in verifier._classify(rank, cuts[:, :, a, blocks], out)]
                    for w, g in zip(want, got):
                        assert np.array_equal(w, g), ((block, pack), sb, slot, k)


class TestRankClasses:
    """Ranks and cuts classify every unit exactly as side_bits does on the
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
        # +-2^53 make the order of the additions matter: (low + off) + 2*v_k
        # rounds the low part away where low + (off + 2*v_k) keeps it.
        big = 2.0**53
        coeffs = np.array([
            [1, 2, -1, 3, 1, -2, big, -big],
            [3, -1, 1, 1, 2, 2, -big, big],
            [1, 1, 1, 1, 1, 1, 2, 2],
            [2, -3, 1, 1, -1, 2, big / 2, -big / 2],
        ])
        thresholds = np.zeros(4)
        sides = 2 * verifier._subset_sums(coeffs) - coeffs.sum(axis=1)[:, None]
        assert ((sides == 2).any(axis=1) & (sides == -2).any(axis=1)).all()
        for tol in (2.0, np.nextafter(2.0, 3.0)):
            _check_rank_classes(coeffs, thresholds, np.full(4, tol), self.PAIRS)


@pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
@pytest.mark.parametrize("threads", [1, 2])
def test_peak_memory_stays_bounded_at_n20(threads):
    # A child process runs the verification in a grandchild and reports its
    # RUSAGE_CHILDREN peak, which covers only that grandchild.  (A process's
    # own peak starts at the RSS of the process it was forked from, here the
    # whole test session.)  Exact middle layers at n = 20: their 20 full side
    # arrays alone would take 168 MB.  Each thread holds its own buffers.
    src = str(Path(cubeslicer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    verify = (
        "import sys; from cubeslicer import construction, verify_slicing; "
        f"sys.exit(0 if verify_slicing(construction('middle_layers', 20), threads={threads}).complete else 3)"
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
