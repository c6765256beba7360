"""The exact concentration oracle and the anti-concentration bound checks."""

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubeslicer import (
    LinearFormSpec,
    RngSpec,
    anticonc,
    group_bound_check,
    group_bound_r,
    hoeffding_check,
    levy_q,
    levy_scaling_check,
    linear_form_atoms,
    littlewood_check,
    sperner_bound,
)
from cubeslicer.errors import (
    BiasOutOfRange,
    BiasTooLarge,
    DimensionMismatch,
    DimensionTooLargeForOracle,
    NegativeAlpha,
    NonFiniteScalar,
)
from helpers import (
    blockwise_sum_runs,
    direct_window_concentration,
    enumerate_atoms_exact,
    enumerated_float_atoms,
    mixture_atoms_exact,
    reference_float_atoms,
    whole_array_levy_q,
)

F = Fraction


def random_exact_form(gen, n, max_bias=F(1, 2)):
    v = tuple(F(int(a), int(b)) for a, b in zip(gen.integers(-8, 9, n), gen.integers(1, 9, n)))
    denom = max_bias.denominator * 4
    top = int(max_bias * denom)
    p = tuple(F(int(x), denom) for x in gen.integers(-top, top + 1, size=n))
    return LinearFormSpec(v, p)


class TestLinearFormAtoms:
    def test_two_ones_unbiased(self):
        d = linear_form_atoms(LinearFormSpec((1, 1), (0, 0)))
        assert d.values == (F(-2), F(0), F(2))
        assert d.probs == (F(1, 4), F(1, 2), F(1, 4))
        assert d.exact and d.total_mass == 1

    def test_single_biased(self):
        d = linear_form_atoms(LinearFormSpec((1,), (F(1, 2),)))
        assert d.values == (F(-1), F(1))
        assert d.probs == (F(1, 4), F(3, 4))

    def test_zero_vector_single_atom(self):
        d = linear_form_atoms(LinearFormSpec((0, 0), (F(1, 3), F(-1, 5))))
        assert d.values == (F(0),)
        assert d.probs == (F(1),)

    def test_matches_sign_vector_enumeration(self):
        gen = np.random.default_rng(19)
        for _ in range(30):
            n = int(gen.integers(1, 9))
            s = random_exact_form(gen, n, max_bias=F(1))
            d = linear_form_atoms(s)
            assert list(zip(d.values, d.probs)) == enumerate_atoms_exact(s.v, s.p)

    def test_float_matches_exact(self):
        gen = np.random.default_rng(23)
        for _ in range(20):
            n = int(gen.integers(1, 9))
            s = random_exact_form(gen, n, max_bias=F(1, 2))
            exact = linear_form_atoms(s)
            fl = linear_form_atoms(LinearFormSpec(tuple(map(float, s.v)), tuple(map(float, s.p))))
            assert not fl.exact
            assert len(fl) == len(exact)
            for fv, fp, ev, ep in zip(fl.values, fl.probs, exact.values, exact.probs):
                assert abs(fv - float(ev)) <= 1e-12 * max(1.0, abs(fv))
                assert abs(fp - float(ep)) <= 1e-12

    def test_probability_mass_one(self):
        gen = np.random.default_rng(29)
        for _ in range(10):
            n = int(gen.integers(1, 12))
            v = tuple(gen.uniform(-2, 2, n).tolist())
            p = tuple(gen.uniform(-1, 1, n).tolist())
            d = linear_form_atoms(LinearFormSpec(v, p))
            assert abs(d.total_mass - 1.0) <= 1e-12
            assert all(b > a for a, b in zip(d.values, d.values[1:]))

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLargeForOracle):
            linear_form_atoms(LinearFormSpec((1,) * 23, (0,) * 23))

    def test_spec_validation(self):
        with pytest.raises(DimensionMismatch):
            LinearFormSpec((1, 2), (0,))
        with pytest.raises(BiasOutOfRange):
            LinearFormSpec((1,), (F(3, 2),))

    def test_float_l1_overflow_refused(self):
        # every atom lies within l1(v); exact kind has no such limit
        with pytest.raises(NonFiniteScalar):
            LinearFormSpec((1e308, 1e308), (0.0, 0.0))
        assert LinearFormSpec((4e307, 4e307), (0.0, 0.0)).kind == "float"
        assert levy_q(linear_form_atoms(LinearFormSpec((10**308, 10**308), (0, 0))), 1) == F(1, 2)


# tie-heavy float entries: many signed sums coincide exactly or nearly
TIE_POOL = (0.1, 0.2, 0.3, 0.5, 1.0, 3.0)
BIASES = st.one_of(
    st.sampled_from((-1.0, -0.5, 0.0, 0.1, 0.25, 0.5, 1.0)),
    st.floats(-1.0, 1.0, allow_nan=False),
)


class TestFloatAtomsBitwise:
    """The float atoms are bitwise those of the plain per-step merge, drop
    and fold in helpers.reference_float_atoms.  Against the law of all 2^n
    sign vectors, summed in another order, the values are bitwise equal and
    the masses within 2e-15 relative."""

    @staticmethod
    def assert_bitwise_equal(v, p):
        d = linear_form_atoms(LinearFormSpec(tuple(v), tuple(p)))
        ref_values, ref_probs = reference_float_atoms(v, p)
        assert d.values.tobytes() == ref_values.tobytes()
        assert d.probs.tobytes() == ref_probs.tobytes()
        enum_values, enum_probs = enumerated_float_atoms(v, p)
        assert d.values.tobytes() == enum_values.tobytes()
        assert np.all(np.abs(d.probs - enum_probs) <= 2e-15 * enum_probs)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_tie_heavy(self, data):
        n = data.draw(st.integers(1, 12))
        v = data.draw(st.lists(st.sampled_from(TIE_POOL + tuple(-x for x in TIE_POOL)), min_size=n, max_size=n))
        p = data.draw(st.lists(BIASES, min_size=n, max_size=n))
        self.assert_bitwise_equal(v, p)

    def test_tie_free(self):
        gen = np.random.default_rng(73)
        for n in (1, 5, 10, 14, 16, 18):
            self.assert_bitwise_equal(gen.standard_normal(n).tolist(), gen.uniform(-0.5, 0.5, n).tolist())

    def test_fold_across_blocks(self):
        # the pairs (c, c + 1e-14) give exact ties, merged as the doubling
        # makes them, and runs of near-equal atoms that fold: 116490 of the
        # 2^18 sums stay distinct, compared in two fold blocks, and fold
        # into 3^9 atoms, across the block edge too
        gen = np.random.default_rng(1106)
        v = [x for c in gen.standard_normal(9).tolist() for x in (c, c + 1e-14)]
        p = gen.uniform(-0.5, 0.5, 18).tolist()
        values, _ = anticonc._sorted_atoms(tuple(v), tuple(p))
        assert anticonc._FOLD_BLOCK < values.size < 1 << 18
        assert len(linear_form_atoms(LinearFormSpec(tuple(v), tuple(p)))) == 3**9
        self.assert_bitwise_equal(v, p)

    def test_middle_layer(self):
        gen = np.random.default_rng(1107)
        for n in (8, 16):
            self.assert_bitwise_equal([1.0] * n, gen.uniform(-0.5, 0.5, n).tolist())

    def test_rounding_tie(self):
        # rounding makes distinct partial sums equal within one shifted copy
        # (-0.2 - 0.1 and -0.20000000000000004 - 0.1 both give
        # -0.30000000000000004), which a merge orders by their earlier
        # values, not by sign vector
        self.assert_bitwise_equal([0.1] * 5, [-1.0, -1.0, 0.1, 0.0, 0.0])

    def test_below_unit_scale(self):
        # the fold floor min(1, l1(v)) scales with v: no two of these atoms
        # are within 1e-12 of each other relative to l1(v) = 3e-13
        d = linear_form_atoms(LinearFormSpec((1e-13,) * 3, (0.0,) * 3))
        assert len(d) == 4
        assert d.probs.tolist() == [0.125, 0.375, 0.375, 0.125]
        self.assert_bitwise_equal([1e-13, -2e-13, 5e-14], [0.1, -0.3, 0.0])


@pytest.mark.parametrize("block", (2, 3, 8))
class TestFloatAtomsAcrossBlockEdges:
    """TestFloatAtomsBitwise's checks with merge and fold blocks of 2, 3 and 8
    atoms, so co-ranks, exact-tie runs and fold runs meet block edges and
    runs longer than a block widen it."""

    @staticmethod
    def assert_bitwise_equal(block, v, p):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(anticonc, "_FOLD_BLOCK", block)
            TestFloatAtomsBitwise.assert_bitwise_equal(v, p)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_tie_heavy(self, block, data):
        n = data.draw(st.integers(1, 9))
        v = data.draw(st.lists(st.sampled_from(TIE_POOL + tuple(-x for x in TIE_POOL)), min_size=n, max_size=n))
        p = data.draw(st.lists(BIASES, min_size=n, max_size=n))
        self.assert_bitwise_equal(block, v, p)

    def test_tie_free(self, block):
        gen = np.random.default_rng(73)
        for n in (1, 2, 5, 10):
            self.assert_bitwise_equal(block, gen.standard_normal(n).tolist(), gen.uniform(-0.5, 0.5, n).tolist())

    def test_fold_across_blocks(self, block):
        gen = np.random.default_rng(1106)
        v = [x for c in gen.standard_normal(5).tolist() for x in (c, c + 1e-14)]
        p = gen.uniform(-0.5, 0.5, 10).tolist()
        assert len(linear_form_atoms(LinearFormSpec(tuple(v), tuple(p)))) == 3**5
        self.assert_bitwise_equal(block, v, p)

    def test_rounding_tie(self, block):
        self.assert_bitwise_equal(block, [0.1] * 5, [-1.0, -1.0, 0.1, 0.0, 0.0])

    def test_tie_run_across_block_edge(self, block):
        # runs of three or more equal values, made of -v_i and +v_i atoms,
        # cross block edges: a co-rank that put the +v_i atom of a tie first
        # would sum such a run's masses in another order
        self.assert_bitwise_equal(block, [0.2, 0.1, -0.5, -0.1, -0.2, -0.2, -0.2],
                                  [-0.7, 0.0, 0.0, 0.1, -0.5, -0.7, 0.5])

    def test_runs_longer_than_a_block(self, block):
        # 11 equal coefficients: each merge pairs every atom with an equal
        # one; then 1 with tiny steps: two fold runs of 2^8 atoms each
        gen = np.random.default_rng(1109)
        self.assert_bitwise_equal(block, [1.0] * 11, gen.uniform(-0.5, 0.5, 11).tolist())
        self.assert_bitwise_equal(block, [1.0] + [1e-15 * 2**i for i in range(8)], [0.25] * 9)

    def test_zero_probabilities(self, block):
        gen = np.random.default_rng(1110)
        p = [1.0, -1.0, 0.3, 1.0, 0.0, -0.2, -1.0, 0.5]
        self.assert_bitwise_equal(block, gen.standard_normal(8).tolist(), p)

    @pytest.mark.parametrize("order", (1, -1))
    def test_powers_of_two(self, block, order):
        # forwards every +v_i atom comes after every -v_i atom; reversed the
        # two shifted runs interleave atom by atom
        gen = np.random.default_rng(1111)
        self.assert_bitwise_equal(block, [2.0**i for i in range(10)][::order], gen.uniform(-0.5, 0.5, 10).tolist())

    @pytest.mark.parametrize("law", ("normal", "powers_of_two", "exact_tie", "fold", "ties_after_the_switch"))
    def test_reservation(self, block, law):
        # more atoms than one block: the first doubling past it reserves
        # room for every coordinate left and the later levels work on a
        # prefix of it; 2^0..2^6 and then four 1s: each 1 doubles the
        # 128 + j atoms and the ties shrink them to 129 + j
        gen = np.random.default_rng(1113)
        n = 11
        v = gen.standard_normal(n)
        if law == "powers_of_two":
            v = 2.0 ** np.arange(n)
        elif law == "exact_tie":
            v[1] = v[0]
        elif law == "fold":
            v[1] = v[0] + 1e-14
        elif law == "ties_after_the_switch":
            v = np.array([2.0**i for i in range(7)] + [1.0] * 4)
        p = gen.uniform(-0.5, 0.5, n).tolist()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(anticonc, "_FOLD_BLOCK", block)
            values, _ = anticonc._sorted_atoms(tuple(v.tolist()), tuple(p))
        assert values.size == (132 if law == "ties_after_the_switch" else 3 << (n - 2) if law == "exact_tie" else 1 << n)
        assert values.base.size >= values.size > block
        self.assert_bitwise_equal(block, v.tolist(), p)


def spaced_atoms(gaps, start=-10.0):
    """Sorted atoms from their gaps, with masses that tell the summation
    orders of a run apart."""
    values = start + np.concatenate(([0.0], np.cumsum(gaps)))
    return values, np.random.default_rng(1114).uniform(0.1, 1.0, values.size)


@pytest.mark.parametrize("block", (2, 3, 8))
class TestSumRunsSkipsClearBlocks:
    """anticonc._sum_runs only moves a block whose gaps, and the gap to the
    next atom, all exceed the widest tolerance in it; the sums must be the
    bits of helpers.blockwise_sum_runs, which builds every block's heads."""

    @staticmethod
    def assert_matches(block, values, probs, rtol, floor):
        expected_values, expected_probs = blockwise_sum_runs(values, probs, rtol, floor, block)
        values, probs = values.copy(), probs.copy()
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            mp.setattr(anticonc, "_FOLD_BLOCK", block)
            size = anticonc._sum_runs(values, probs, rtol, floor)
        assert values[:size].tobytes() == expected_values.tobytes()
        assert probs[:size].tobytes() == expected_probs.tobytes()
        return size

    @staticmethod
    def run_at(gaps, index, tie):
        # atoms index and index + 1 an exact tie or a near-equal pair
        gaps = np.array(gaps, dtype=float)
        gaps[index] = 0.0 if tie else 1e-14
        return gaps

    @pytest.mark.parametrize("tie", (True, False))
    def test_pair_straddling_a_block_edge(self, block, tie):
        values, probs = spaced_atoms(self.run_at([1.0] * (8 * block), block - 1, tie))
        for rtol, floor in ((0.0, 0.0), (anticonc.MERGE_RTOL, 1.0)):
            size = self.assert_matches(block, values, probs, rtol, floor)
            assert size == values.size - (tie or rtol > 0)

    @pytest.mark.parametrize("tie", (True, False))
    def test_one_run_inside_a_clear_block(self, block, tie):
        gaps = self.run_at([1.0] * (8 * block), 4 * block, tie)
        gaps[4 * block + 1] = 0.0 if tie else 1e-14  # a run of three atoms
        values, probs = spaced_atoms(gaps)
        for rtol, floor in ((0.0, 0.0), (anticonc.MERGE_RTOL, 1.0)):
            size = self.assert_matches(block, values, probs, rtol, floor)
            assert size == values.size - 2 * (tie or rtol > 0)

    def test_clear_blocks_after_compaction(self, block):
        # a tie in the first block, then clear blocks that must move down
        values, probs = spaced_atoms(self.run_at([0.5] * (10 * block), 0, True))
        for rtol, floor in ((0.0, 0.0), (anticonc.MERGE_RTOL, 1.0)):
            assert self.assert_matches(block, values, probs, rtol, floor) == values.size - 1

    def test_atoms_beyond_half_the_double_range(self, block):
        # the gap from -9e307 to 9e307 overflows to inf, inside a block or
        # across a block edge depending on the block size; nothing may warn
        big = 9e307 * (1.0 + 0.1 * np.arange(8))
        values = np.concatenate((-big[::-1], big))
        values[1], values[-2] = values[0], values[-1] * (1 - 1e-14)
        probs = np.random.default_rng(1115).uniform(0.1, 1.0, values.size)
        for rtol, floor in ((0.0, 0.0), (anticonc.MERGE_RTOL, 1.0)):
            self.assert_matches(block, values, probs, rtol, floor)

    @settings(max_examples=40, deadline=None)
    @given(gaps=st.lists(st.sampled_from((0.0, 1e-14, 1e-3, 1.0, 2.0**-40)), min_size=0, max_size=60))
    def test_random_runs(self, block, gaps):
        values, probs = spaced_atoms(gaps, start=-0.5)
        for rtol, floor in ((0.0, 0.0), (anticonc.MERGE_RTOL, 1.0), (anticonc.MERGE_RTOL, 1e-3)):
            self.assert_matches(block, values, probs, rtol, floor)


@st.composite
def form_and_alpha(draw, entries, biases):
    """(v, p, alpha) with alpha 0, a gap between two atoms, half such a gap
    (an atom on the window's open end) or a free value."""
    n = draw(st.integers(1, 6))
    v = draw(st.lists(entries, min_size=n, max_size=n))
    p = draw(st.lists(biases, min_size=n, max_size=n))
    values = [x for x, _ in enumerate_atoms_exact(v, p)]
    gaps = sorted({b - a for a, b in itertools.combinations(values, 2)}) or [Fraction(1)]
    alpha = draw(st.one_of(
        st.just(Fraction(0)),
        st.sampled_from(gaps),
        st.sampled_from(gaps).map(lambda g: g / 2),
        st.fractions(0, 8, max_denominator=12),
    ))
    return v, p, alpha


class TestLevyQProperties:
    @settings(max_examples=200, deadline=None)
    @given(case=form_and_alpha(
        st.fractions(-4, 4, max_denominator=9), st.fractions(-1, 1, max_denominator=9)))
    def test_exact_matches_direct_window_sum(self, case):
        v, p, alpha = case
        d = linear_form_atoms(LinearFormSpec(tuple(v), tuple(p)))
        q = levy_q(d, alpha)
        assert q == direct_window_concentration(enumerate_atoms_exact(v, p), alpha)
        if alpha > 0:
            assert q >= max(d.probs)

    # dyadic entries and alphas keep every float sum and window end exact,
    # so only the probabilities carry rounding
    @settings(max_examples=200, deadline=None)
    @given(case=form_and_alpha(
        st.integers(-32, 32).map(lambda k: Fraction(k, 8)), st.fractions(-1, 1, max_denominator=9)))
    # its window mass, a difference of cumulative sums, rounds below the atom's own mass
    @example(case=([F(1, 8), F(0)], [F(1, 6), F(0)], F(1, 8)))
    def test_float_matches_direct_window_sum(self, case):
        v, p, alpha = case
        fv, fp = tuple(map(float, v)), tuple(map(float, p))
        d = linear_form_atoms(LinearFormSpec(fv, fp))
        q = levy_q(d, float(alpha))
        expected = direct_window_concentration(enumerate_atoms_exact(fv, fp), alpha)
        assert abs(q - float(expected)) <= 1e-12
        if alpha > 0:
            assert q >= d.probs.max()


def dyadic_law(n, block):
    # dyadic entries keep every atom and difference of atoms exact, so
    # alpha = (value_j - value_i) / 2 puts anchor i's window end exactly on
    # atom j; j is chosen at block edges and inside blocks
    gen = np.random.default_rng(1000 + n)
    v = (gen.integers(1, 1 << 20, size=n) * gen.choice([-1, 1], size=n) / (1 << 20)).tolist()
    p = gen.uniform(-0.5, 0.5, size=n).tolist()
    d = linear_form_atoms(LinearFormSpec(tuple(v), tuple(p)))
    vals = d.points
    assert len(d) > 2 * block
    alphas = [0.0, 0.5, 3.0]
    for i in (0, 1, block - 1, block, block + 7):
        for j in (block, 2 * block, block + 1, 2 * block - 1, i + 1, len(d) - 1):
            if i < j < len(d):
                alphas.append((vals[j] - vals[i]) / 2)
    return d, alphas


def bimodal_law(block):
    # one coordinate 2^10 against the rest below 1: two clusters of atoms,
    # each with light blocks at its edges and a heavy middle, the heavier
    # cluster on top; windows within a cluster and spanning the gap
    gen = np.random.default_rng(1101)
    n = 16
    v = [1024.0] + (gen.integers(1, 1 << 12, size=n - 1) / (1 << 16)).tolist()
    p = [0.25] + gen.uniform(-0.5, 0.5, size=n - 1).tolist()
    d = linear_form_atoms(LinearFormSpec(tuple(v), tuple(p)))
    return d, [1e-3, 0.01, 0.1, 0.5, 1023.0, 1024.0, 1025.0]


def flat_law(block):
    # v_i = 2^-i with p = 0: evenly spaced atoms of mass exactly 2^-n, so
    # every full block has the same bound and every window of one width the
    # same mass; alpha = block * step / 2 ends each block's windows on the
    # next block's first atom
    n = 15
    d = linear_form_atoms(LinearFormSpec(tuple(2.0 ** -i for i in range(n)), (0.0,) * n))
    assert np.all(d.probs == 2.0 ** -n)
    step = d.points[1] - d.points[0]
    return d, [step / 2, 3 * step, block * step / 2, block * step, (block + 1) * step]


def skewed_law(block):
    # the same atoms with every p_i = 0.9: atom masses grow steeply to the
    # right, so the last atom within a block's bound can outweigh all the
    # block's anchors, and a bound that left it out would prune the winner
    n = 15
    d = linear_form_atoms(LinearFormSpec(tuple(2.0 ** -i for i in range(n)), (0.9,) * n))
    span = d.points[-1] - d.points[0]
    return d, [span / 2 ** k for k in range(1, 13)]


def normal_law(seed):
    gen = np.random.default_rng(seed)
    v = gen.standard_normal(14)
    return linear_form_atoms(LinearFormSpec(tuple(v), tuple(gen.uniform(-0.5, 0.5, 14)))), v


def zero_alpha_law(block):
    return normal_law(1102)[0], [0.0]


def beyond_l1_law(block):
    d, v = normal_law(1103)
    l1 = float(np.abs(v).sum())
    return d, [l1, 2 * l1]


def long_span_law(n):
    # v_0 = 100 with p_0 = -0.99 against n - 1 normal entries: a heavy and a
    # light copy of one cluster, 200 apart.  A window 200 + s wide anchored
    # in the heavy copy's sparse lower tail ends in the light copy's dense
    # middle, so a block of anchors there has its window ends spread over
    # far more atoms than it holds; at n = 20 and s = 3 it holds the best
    # window
    gen = np.random.default_rng(1113)
    rest = gen.standard_normal(n - 1)
    p = [-0.99] + gen.uniform(-0.5, 0.5, n - 1).tolist()
    d = linear_form_atoms(LinearFormSpec((100.0, *rest.tolist()), tuple(p)))
    sd = float(np.sqrt(rest @ rest))
    return d, [100.0 + s * sd / 2 for s in (1.0, 2.0, 3.0, 4.0)]


def one_atom_tail_law(block):
    # v = (1, 2, ..., 2^9, 1): the 1025 even values from -1024 to 1024, so
    # blocks of 4, 8, 64 or 512 anchors leave the top atom alone in the last
    # block; with every p_i = 0.9 that atom is the heaviest, and narrow
    # windows win there
    n = 11
    d = linear_form_atoms(LinearFormSpec((*(2.0 ** i for i in range(n - 1)), 1.0), (0.9,) * n))
    assert len(d) == 1025 and len(d) % block == 1
    return d, [0.5, 1.0, 1.5, 3.0, 1023.0, 1024.0, 1025.0]


def visit_spans(monkeypatch):
    """The window-end offsets that each visit's prefix sums reach, recorded
    from anticonc._prefix_sums.  Its first call is the checkpoint pass, and
    each visit then calls it for its window ends and for its anchors; only
    the window ends are recorded."""
    spans = []
    calls = itertools.count()
    whole = anticonc._prefix_sums

    def recorded(probs, start, prefix, at, buf):
        if next(calls) % 2:
            spans.append(int(at[-1]))
        return whole(probs, start, prefix, at, buf)

    monkeypatch.setattr(anticonc, "_prefix_sums", recorded)
    return spans


class TestLevyQBlockScan:
    """The float window scan searches each block's window ends in a slice
    and sums prefixes from checkpoints in chunks; it must give the bits of
    one searchsorted over every window with one cumulative sum."""

    @pytest.mark.parametrize("n", [14, 15, 16])
    def test_matches_whole_array_scan(self, n):
        d, alphas = dyadic_law(n, anticonc._SCAN_BLOCK)
        for alpha in alphas:
            assert levy_q(d, alpha) == whole_array_levy_q(d.points, d.probs, alpha)

    # The scan visits blocks by decreasing bound on their window masses and
    # stops at the first bound that cannot beat the best mass; these laws
    # have many blocks and put the winning window where pruning could miss it.

    @staticmethod
    def assert_matches(d, alphas):
        assert len(d) > 2 * anticonc._SCAN_BLOCK
        for alpha in alphas:
            q = levy_q(d, alpha)
            expected = whole_array_levy_q(d.points, d.probs, alpha)
            assert type(q) is float and q == expected, alpha

    def test_bimodal_law(self):
        self.assert_matches(*bimodal_law(anticonc._SCAN_BLOCK))

    def test_flat_law_shares_block_bounds(self):
        self.assert_matches(*flat_law(anticonc._SCAN_BLOCK))

    def test_evenly_spaced_skewed_law(self):
        self.assert_matches(*skewed_law(anticonc._SCAN_BLOCK))

    def test_zero_alpha(self):
        d, alphas = zero_alpha_law(anticonc._SCAN_BLOCK)
        self.assert_matches(d, alphas)
        assert levy_q(d, 0.0) == 0.0

    def test_alpha_beyond_l1_holds_every_atom(self):
        d, alphas = beyond_l1_law(anticonc._SCAN_BLOCK)
        self.assert_matches(d, alphas)
        assert levy_q(d, alphas[1]) == float(np.cumsum(d.probs)[-1])

    def test_one_atom_last_block(self):
        d, alphas = one_atom_tail_law(anticonc._SCAN_BLOCK)
        self.assert_matches(d, alphas)
        assert levy_q(d, 0.5) == d.probs[-1] == d.probs.max()

    def test_window_ends_on_block_edges(self):
        # dyadic atoms: alpha = (value_j - value_i) / 2 ends anchor i's window
        # exactly on atom j, here the first or last atom of a block
        gen = np.random.default_rng(1104)
        n = 16
        v = (gen.integers(1, 1 << 20, size=n) * gen.choice([-1, 1], size=n) / (1 << 20)).tolist()
        d = linear_form_atoms(LinearFormSpec(tuple(v), tuple(gen.uniform(-0.5, 0.5, n).tolist())))
        vals, block = d.points, anticonc._SCAN_BLOCK
        edges = [k * block + e for k in range(1, len(d) // block) for e in (-1, 0)]
        alphas = [(vals[j] - vals[i]) / 2 for i in (0, block, 3 * block - 1) for j in edges if j > i]
        self.assert_matches(d, alphas)

    # The same laws with blocks of 4, 8 or 64 anchors and chunks of 16 or 64
    # sums, so marks, bounds and chunk edges fall everywhere in the scan; a
    # block of 64 anchors sums their prefixes over several chunks of 16.
    LAWS = {
        "dyadic": lambda block: dyadic_law(14, block),
        "bimodal": bimodal_law,
        "flat": flat_law,
        "skewed": skewed_law,
        "zero_alpha": zero_alpha_law,
        "beyond_l1": beyond_l1_law,
        "long_span": lambda block: long_span_law(12),
        "one_atom_tail": one_atom_tail_law,
    }

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("scan_block,fold_block", [(4, 16), (8, 64), (64, 16)])
    def test_small_blocks_and_chunks(self, monkeypatch, scan_block, fold_block, law):
        d, alphas = self.LAWS[law](scan_block)
        monkeypatch.setattr(anticonc, "_SCAN_BLOCK", scan_block)
        monkeypatch.setattr(anticonc, "_FOLD_BLOCK", fold_block)
        spans = visit_spans(monkeypatch)
        self.assert_matches(d, alphas)
        if law == "long_span":
            # some visited block sums its window ends over several chunks
            assert max(spans) > fold_block


class TestOracleMemory:
    @pytest.mark.parametrize("case", ("normal", "powers_of_two", "exact_tie", "fold"))
    def test_float_builder_peak(self, case):
        # the doubling reserves one pair of arrays and merges into them block
        # by block, and the tie merge and the fold compact them in place, so
        # at n = 20 the builder holds its two result arrays plus one block:
        # 2.25, 2.25, 1.75 and 2.25 arrays of 2^n doubles; tracemalloc counts
        # the whole reservation, 2^n atoms for the fold case's 3 * 2^(n-2)
        gen = np.random.default_rng(1112)
        n = 20
        v = gen.standard_normal(n)
        if case == "powers_of_two":
            v = 2.0 ** np.arange(n)
        elif case == "exact_tie":
            v[1] = v[0]
        elif case == "fold":
            v[1] = v[0] + 1e-14
        spec = LinearFormSpec(tuple(v.tolist()), tuple(gen.uniform(-0.5, 0.5, n)))
        tracemalloc.start()
        try:
            d = linear_form_atoms(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(d) == (1 << n if case in ("normal", "powers_of_two") else 3 << (n - 2))
        assert peak <= 2.3 * 8 * (1 << n)

    def test_float_oracle_peak(self):
        # the builder works in place and the window scan keeps prefix sums
        # only at checkpoints and in one chunk of _FOLD_BLOCK + 1, so at
        # n = 20 the builder sets the peak, 2.25 arrays of 2^n doubles, and
        # the scan adds 0.08 arrays to the atoms
        gen = np.random.default_rng(1105)
        n = 20
        spec = LinearFormSpec(tuple(gen.standard_normal(n)), tuple(gen.uniform(-0.5, 0.5, n)))
        tracemalloc.start()
        try:
            d = linear_form_atoms(spec)
            held, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            levy_q(d, 0.5)
            _, scan_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(d) == 1 << n
        assert max(build_peak, scan_peak) <= 2.3 * 8 * (1 << n)
        assert scan_peak - held <= 0.15 * 8 * (1 << n)

    def test_long_span_scan_peak(self, monkeypatch):
        # the best window's block sums its window ends over about 180k atoms,
        # several chunks of _FOLD_BLOCK; at n = 20 the scan still adds at most
        # 0.15 arrays of 2^n doubles to the atoms
        n = 20
        d, alphas = long_span_law(n)
        spans = visit_spans(monkeypatch)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            levy_q(d, alphas[2])
            _, scan_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(spans) > 2 * anticonc._FOLD_BLOCK
        assert scan_peak - held <= 0.15 * 8 * (1 << n)

    def test_middle_layer_peak(self):
        # ties are merged as the doubling makes them, so the middle-layer law
        # never holds more than n + 1 atoms
        gen = np.random.default_rng(1108)
        n = 20
        spec = LinearFormSpec((1.0,) * n, tuple(gen.uniform(-0.5, 0.5, n)))
        tracemalloc.start()
        try:
            d = linear_form_atoms(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(d) == n + 1
        assert peak < 1 << 20


class TestLevyQ:
    def test_hand_values(self):
        d = linear_form_atoms(LinearFormSpec((1, 1), (0, 0)))
        assert levy_q(d, 1) == F(1, 2)
        assert levy_q(d, F(3, 2)) == F(3, 4)
        assert levy_q(d, 0) == 0

    def test_float_window_below_rounding_step_holds_its_atom(self):
        # 2*alpha = 1 is below the spacing of doubles near 1e20, so every
        # value + 2*alpha rounds to the value itself
        d = linear_form_atoms(LinearFormSpec((1e20, 1e20, 1e20), (0.0, 0.0, 0.0)))
        assert levy_q(d, 0.5) == 0.375 == d.probs.max()
        assert levy_q(d, 0.0) == 0.0
        assert levy_q(linear_form_atoms(LinearFormSpec((10**20,) * 3, (0,) * 3)), F(1, 2)) == F(3, 8)

    def test_negative_alpha(self):
        d = linear_form_atoms(LinearFormSpec((1,), (0,)))
        with pytest.raises(NegativeAlpha):
            levy_q(d, -1)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", ["exact", "float"])
    def test_non_finite_alpha(self, monkeypatch, kind, alpha):
        cast = int if kind == "exact" else float
        s = LinearFormSpec(tuple(cast(x) for x in (1, 2, 3)), tuple(cast(0) for _ in range(3)))
        with pytest.raises(NonFiniteScalar):
            levy_q(linear_form_atoms(s), alpha)

        def no_atoms(_):
            raise AssertionError("atoms built for a non-finite alpha")

        monkeypatch.setattr(anticonc, "linear_form_atoms", no_atoms)
        with pytest.raises(NonFiniteScalar):
            anticonc.small_ball(s, alpha)

    def test_monotone_and_saturates(self):
        gen = np.random.default_rng(37)
        for _ in range(20):
            n = int(gen.integers(1, 8))
            s = random_exact_form(gen, n, max_bias=F(1))
            d = linear_form_atoms(s)
            alphas = sorted(F(int(a), 8) for a in gen.integers(0, 64, size=6))
            qs = [levy_q(d, a) for a in alphas]
            assert all(b >= a for a, b in zip(qs, qs[1:]))
            width = d.values[-1] - d.values[0]
            assert levy_q(d, width + 1) == 1

    def test_against_direct_window_sum(self):
        gen = np.random.default_rng(41)
        for _ in range(25):
            n = int(gen.integers(1, 8))
            s = random_exact_form(gen, n, max_bias=F(1))
            d = linear_form_atoms(s)
            atoms = list(zip(d.values, d.probs))
            for a in (F(1, 8), F(1, 2), F(1), F(2)):
                assert levy_q(d, a) == direct_window_concentration(atoms, a)

    def test_no_interval_beats_supremum(self):
        gen = np.random.default_rng(43)
        for _ in range(15):
            n = int(gen.integers(1, 7))
            s = random_exact_form(gen, n, max_bias=F(1))
            d = linear_form_atoms(s)
            alpha = F(int(gen.integers(1, 16)), 8)
            q = levy_q(d, alpha)
            for _ in range(40):
                t = F(int(gen.integers(-64, 65)), 16)
                mass = sum(pr for val, pr in zip(d.values, d.probs) if abs(val - t) < alpha)
                assert mass <= q

    def test_float_mode_matches_exact(self):
        # tie-free alphas: an atom exactly on the open-window boundary is
        # excluded in exact arithmetic but float rounding may flip it, so the
        # offset keeps window edges away from every rational atom gap
        gen = np.random.default_rng(47)
        tiny = F(1, 1 << 40)
        for _ in range(20):
            n = int(gen.integers(1, 9))
            s = random_exact_form(gen, n, max_bias=F(1, 2))
            d_exact = linear_form_atoms(s)
            d_float = linear_form_atoms(
                LinearFormSpec(tuple(map(float, s.v)), tuple(map(float, s.p)))
            )
            alpha = F(int(gen.integers(0, 32)), 16) + tiny
            assert abs(levy_q(d_float, float(alpha)) - float(levy_q(d_exact, alpha))) <= 1e-9


class TestLevyScaling:
    def test_hand_example(self):
        d = linear_form_atoms(LinearFormSpec((1, 1), (0, 0)))
        lhs, rhs, ok = levy_scaling_check(d, 1, 2)
        assert (lhs, rhs, ok) == (F(3, 4), F(1), True)

    def test_k_one_trivial(self):
        d = linear_form_atoms(LinearFormSpec((1, 2), (0, 0)))
        lhs, rhs, ok = levy_scaling_check(d, F(1, 2), 1)
        assert lhs == rhs and ok

    def test_random_sweep(self):
        gen = np.random.default_rng(53)
        for _ in range(150):
            n = int(gen.integers(1, 11))
            s = random_exact_form(gen, n, max_bias=F(1))
            d = linear_form_atoms(s)
            alpha = F(int(gen.integers(0, 32)), 16)
            k = int(gen.integers(1, 6))
            _, _, ok = levy_scaling_check(d, alpha, k)
            assert ok


class TestSperner:
    def test_values(self):
        assert sperner_bound(2) == F(1, 2)
        assert sperner_bound(4) == F(3, 8)
        assert sperner_bound(1) == F(1, 2)

    def test_tight_for_all_ones(self):
        for a in range(1, 17):
            d = linear_form_atoms(LinearFormSpec((1,) * a, (0,) * a))
            assert levy_q(d, 1) == sperner_bound(a)


class TestLittlewood:
    def test_two_ones(self):
        a, q, ratio = littlewood_check(LinearFormSpec((1, 1), (0, 0)), 1)
        assert (a, q) == (2, F(1, 2))
        assert abs(ratio - math.sqrt(2) / 2) < 1e-12

    def test_biased_single(self):
        a, q, ratio = littlewood_check(LinearFormSpec((1,), (F(1, 2),)), 1)
        assert (a, q, ratio) == (1, F(3, 4), 0.75)

    def test_four_ones(self):
        a, q, _ = littlewood_check(LinearFormSpec((1, 1, 1, 1), (0, 0, 0, 0)), 1)
        assert (a, q) == (4, F(3, 8))
        assert q == sperner_bound(4)

    def test_below_unit_scale_keeps_sperner(self):
        # the atoms -2e-13, 0 and 2e-13 stay apart: q = 1/2, not 1
        a, q, _ = littlewood_check(LinearFormSpec((1e-13, 1e-13), (0.0, 0.0)), 1e-13)
        assert (a, q) == (2, 0.5)

    def test_bias_cap(self):
        with pytest.raises(BiasTooLarge):
            littlewood_check(LinearFormSpec((1,), (F(3, 5),)), 1)

    def test_unbiased_sweep_stays_under_sperner(self):
        gen = np.random.default_rng(59)
        for _ in range(50):
            n = int(gen.integers(1, 11))
            v = tuple(F(int(x), 4) for x in gen.integers(-12, 13, n))
            if all(x == 0 for x in v):
                continue
            alpha = F(int(gen.integers(1, 9)), 8)
            a, q, ratio = littlewood_check(LinearFormSpec(v, (0,) * n), alpha)
            if a >= 1:
                assert q <= sperner_bound(a)
                assert ratio <= 1.0 + 1e-12


def dyadic_vector(scales):
    return tuple(F(1, 1 << i) for i in range(scales))


class TestGroupBound:
    def test_ten_scale_example(self):
        v = dyadic_vector(10)
        # ten qualifying scales, 2*ln(8) ~ 4.159, so r = 2
        assert group_bound_r(v, F(1, 1 << 10), 8) == 2

    def test_large_alpha_gives_zero(self):
        assert group_bound_r((1, F(1, 2)), F(3, 4), 8) == 0

    def test_monotone_in_scale_count(self):
        alpha = F(1, 1 << 20)
        last = 0
        for s in range(1, 16):
            r = group_bound_r(dyadic_vector(s), alpha, 8)
            assert r >= last
            last = r

    def test_single_scale_ratio_at_most_one(self):
        s = LinearFormSpec((1, 1, 1), (0, 0, 0))
        r, q, ratio = group_bound_check(s, F(1, 2), 8)
        assert r == 0
        assert ratio == float(q) <= 1.0

    def test_long_dyadic_vector_beats_short_prefix(self):
        alpha = F(1, 1 << 13)
        long = LinearFormSpec(dyadic_vector(12), (0,) * 12)
        short = LinearFormSpec(dyadic_vector(2), (0, 0))
        q_long = levy_q(linear_form_atoms(long), alpha)
        q_short = levy_q(linear_form_atoms(short), alpha)
        assert q_long < q_short

    def test_r_non_increasing_in_alpha(self):
        v = dyadic_vector(12)
        alphas = [F(1, 1 << 13), F(1, 1 << 9), F(1, 1 << 5), F(1, 2), F(2)]
        rs = [group_bound_r(v, a, 8) for a in alphas]
        assert all(b <= a for a, b in zip(rs, rs[1:]))

    def test_bias_cap(self):
        with pytest.raises(BiasTooLarge):
            group_bound_check(LinearFormSpec((1,), (F(2, 3),)), 1, 8)

    def test_alpha_checked_as_levy_q_checks_it(self):
        # NaN and infinities compare false against every scale, and a
        # negative alpha counts every scale
        v = [0.5, 0.25, 0.125, 1 / 16]
        assert group_bound_r(v, 0.01, 2) == 2
        for alpha in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteScalar):
                group_bound_r(v, alpha, 2)
        for alpha in (-1, F(-1, 2), -1.0):
            with pytest.raises(NegativeAlpha):
                group_bound_r(v, alpha, 2)


class TestHoeffding:
    def test_bound_value(self):
        emp, bound = hoeffding_check(
            LinearFormSpec((1.0,), (0.0,)), 2.0, 1000, RngSpec(1)
        )
        assert abs(bound - 2 * math.exp(-2)) < 1e-15
        assert emp <= bound

    def test_normalized_ones(self):
        n = 64
        v = tuple([1.0 / 8.0] * n)
        emp, bound = hoeffding_check(LinearFormSpec(v, (0.0,) * n), 3.0, 100000, RngSpec(2))
        assert abs(bound - 2 * math.exp(-4.5)) < 1e-15
        assert emp <= bound + 4 * math.sqrt(max(emp, 1e-9) / 100000)

    def test_mean_is_inner_product(self):
        gen = np.random.default_rng(61)
        v = gen.uniform(-1, 1, 12)
        p = gen.uniform(-0.9, 0.9, 12)
        s = LinearFormSpec(tuple(v.tolist()), tuple(p.tolist()))
        g = RngSpec(3).generator()
        X = np.where(g.random((50000, 12)) < (1 + p) / 2, 1.0, -1.0) @ v
        se = X.std() / math.sqrt(50000)
        assert abs(X.mean() - float(v @ p)) <= 4 * se

    def test_random_sweep(self):
        gen = np.random.default_rng(67)
        for trial in range(8):
            n = int(gen.integers(2, 20))
            v = tuple(gen.uniform(-1, 1, n).tolist())
            p = tuple(gen.uniform(-0.5, 0.5, n).tolist())
            for sigma in (1.0, 2.0, 3.0):
                emp, bound = hoeffding_check(LinearFormSpec(v, p), sigma, 20000, RngSpec(trial, 7))
                assert emp <= bound + 4 * math.sqrt(max(emp * (1 - emp), 1e-9) / 20000)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
    def test_sigma_must_be_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive"):
            hoeffding_check(LinearFormSpec((1.0, 1.0), (0.0, 0.0)), sigma, 100, RngSpec(1))

    def test_fixed_seed_is_pinned(self):
        # captured when the vertices were drawn 16384 rows at a time; several
        # row slices (3276 rows at n = 40) draw the same words
        gen = np.random.default_rng(19)
        v = tuple(gen.standard_normal(40).tolist())
        p = tuple(gen.uniform(-0.5, 0.5, 40).tolist())
        assert hoeffding_check(LinearFormSpec(v, p), 1.5, 40000, RngSpec(3)) == (0.12195, 0.6493049347166995)


class TestMixtureRealization:
    def test_random_instances_match_exactly(self):
        gen = np.random.default_rng(71)
        for _ in range(12):
            n = int(gen.integers(1, 9))
            v = tuple(F(int(a), int(b)) for a, b in zip(gen.integers(-6, 7, n), gen.integers(1, 7, n)))
            p = [F(0)] * n
            for i in gen.choice(n, size=min(n, 4), replace=False):
                p[i] = F(int(gen.integers(-4, 5)), 8)
            d = linear_form_atoms(LinearFormSpec(v, tuple(p)))
            assert list(zip(d.values, d.probs)) == mixture_atoms_exact(v, p)
