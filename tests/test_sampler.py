"""Bias samplers, the biased product distribution, and the evasive edge."""

import math

import numpy as np
import pytest
from scipy import stats

import cubeslicer.sampler as sampler_mod
from cubeslicer import (
    Configuration,
    Edge,
    RngSpec,
    Vertex,
    make_hyperplane,
    sample_bias,
    sample_bias_conditioned,
    sample_bias_simple,
    sample_evasive_edge,
    sample_mu,
)
from cubeslicer.errors import BiasOutOfRange, DimensionTooSmall, RetriesExhausted
from cubeslicer.sampler import (
    BiasVector,
    batch_bias,
    batch_bias_conditioned,
    batch_evasive_edges,
    batch_mu,
    bias_setup,
    row_max_abs,
)
from cubeslicer.lab import SweepCell, sweep
from helpers import dyadic_terms, whole_chunk_bias_conditioned, whole_chunk_evasive_edges, whole_chunk_mu


def single_axis_config(n=8):
    coeffs = [0.0] * n
    coeffs[0] = 1.0
    return Configuration(n, (make_hyperplane(coeffs, 0.0, "float"),))


def random_unit_config(gen, n, m):
    rows = gen.standard_normal((m, n))
    rows /= np.sqrt((rows * rows).sum(axis=1))[:, None]
    return Configuration(n, tuple(make_hyperplane(r.tolist(), 0.0, "float") for r in rows))


class TestRngSpec:
    def test_same_spec_same_stream(self):
        a = RngSpec(123, 4).generator().uniform(size=10)
        b = RngSpec(123, 4).generator().uniform(size=10)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngSpec(123, 0).generator().uniform(size=10)
        b = RngSpec(123, 1).generator().uniform(size=10)
        assert not np.array_equal(a, b)

    def test_children_are_nested_streams(self):
        child = RngSpec(9, 2).child(5)
        assert child.spawn_key() == (2, 5)
        again = RngSpec(9, 2).child(5)
        assert np.array_equal(child.generator().uniform(size=4), again.generator().uniform(size=4))


class TestSampleBias:
    def test_single_plane_support_and_range(self):
        c = single_axis_config(8)
        cap = 1.0 / (10.0 * math.sqrt(math.log(8)))
        for seed in range(50):
            bv = sample_bias(c, RngSpec(seed))
            assert np.all(bv.p[1:] == 0.0)
            assert abs(bv.p[0]) <= cap
            assert bv.conditioned is False
            assert set(bv.draws) == {(0, 0)}

    def test_single_plane_moments(self):
        # P_1 = alpha / (10 sqrt(ln 8)): mean 0, variance 1/(300 ln 8)
        c = single_axis_config(8)
        setup = bias_setup(c)
        P = batch_bias(setup, RngSpec(1001).generator(), 100000)
        target_var = 1.0 / (300.0 * math.log(8))
        se_mean = math.sqrt(target_var / 100000)
        assert abs(P[:, 0].mean()) <= 4 * se_mean
        assert abs(P[:, 0].var() - target_var) <= 0.02 * target_var

    def test_mean_zero_all_coordinates(self):
        gen = np.random.default_rng(5)
        c = random_unit_config(gen, 16, 4)
        P = batch_bias(bias_setup(c), RngSpec(17).generator(), 100000)
        sd = P.std(axis=0)
        assert np.all(np.abs(P.mean(axis=0)) <= 4 * sd / math.sqrt(100000) + 1e-12)

    def test_hard_norm_bound_and_alpha_range(self):
        gen = np.random.default_rng(6)
        c = random_unit_config(gen, 12, 3)
        setup = bias_setup(c)
        bound = len(setup.keys) / (10.0 * math.sqrt(c.m * math.log(c.n)))
        for seed in range(100):
            bv = sample_bias(c, RngSpec(seed, 3))
            assert np.max(np.abs(bv.p)) <= bound + 1e-12
            assert all(abs(a) <= 1.0 for a in bv.draws.values())

    def test_draw_keys_ordered_by_plane_then_scale(self):
        gen = np.random.default_rng(8)
        c = random_unit_config(gen, 10, 3)
        bv = sample_bias(c, RngSpec(0))
        keys = list(bv.draws)
        assert keys == sorted(keys)
        assert {ell for ell, _ in keys} == {0, 1, 2}

    def test_dimension_guards(self):
        with pytest.raises(DimensionTooSmall):
            sample_bias(Configuration(1, (make_hyperplane([1.0], 0.0, "float"),)), RngSpec(0))
        with pytest.raises(DimensionTooSmall):
            sample_bias(Configuration(4, ()), RngSpec(0))

    def test_unnormalizable_plane(self):
        from fractions import Fraction

        from cubeslicer.errors import UnnormalizedPlane

        huge = Configuration(2, (make_hyperplane([Fraction(10**400), 1], 0),))
        with pytest.raises(UnnormalizedPlane):
            sample_bias(huge, RngSpec(0))

    def test_scale_is_paper_constant(self):
        # one plane, one dyadic term of weight 1 on coordinate 0, so p[0] is
        # the multiplier times the paper's damping 1/(10 sqrt(m ln n)), m = 1
        c = single_axis_config(8)
        for seed in range(20):
            bv = sample_bias(c, RngSpec(seed))
            assert bv.p[0] == bv.draws[(0, 0)] * (1.0 / (10.0 * math.sqrt(math.log(8))))
            assert bv.p[0] == pytest.approx(bv.draws[(0, 0)] / (10.0 * math.sqrt(math.log(8))), rel=1e-15)

    def test_determinism(self):
        gen = np.random.default_rng(10)
        c = random_unit_config(gen, 9, 2)
        a = sample_bias(c, RngSpec(77, 5))
        b = sample_bias(c, RngSpec(77, 5))
        assert np.array_equal(a.p, b.p)
        assert a.draws == b.draws


class TestSampleBiasConditioned:
    def test_single_plane_never_rejects(self, monkeypatch):
        monkeypatch.setattr(sampler_mod, "MAX_RETRIES", 0)
        c = single_axis_config(8)
        bv = sample_bias_conditioned(c, RngSpec(5))
        assert bv.conditioned
        assert np.max(np.abs(bv.p)) <= 0.5

    def test_norm_bound_always_holds(self):
        gen = np.random.default_rng(11)
        c = random_unit_config(gen, 6, 8)
        for seed in range(200):
            bv = sample_bias_conditioned(c, RngSpec(seed, 9))
            assert np.max(np.abs(bv.p)) <= 0.5
            assert bv.conditioned

    def test_retries_exhausted(self, monkeypatch):
        c = single_axis_config(8)

        def always_reject(config, rng):
            return BiasVector(np.ones(config.n), {}, conditioned=False)

        monkeypatch.setattr(sampler_mod, "sample_bias", always_reject)
        monkeypatch.setattr(sampler_mod, "MAX_RETRIES", 0)
        with pytest.raises(RetriesExhausted, match="no acceptance within 0 retries"):
            sample_bias_conditioned(c, RngSpec(0))

    @pytest.mark.parametrize("max_retries", [0, 2])
    def test_batch_rejection_draws_once_per_check(self, monkeypatch, max_retries):
        setup = bias_setup(single_axis_config(8))
        calls = []

        def always_reject(setup, gen, count):
            calls.append(count)
            return np.ones((count, 8))

        monkeypatch.setattr(sampler_mod, "batch_bias", always_reject)
        monkeypatch.setattr(sampler_mod, "MAX_RETRIES", max_retries)
        with pytest.raises(RetriesExhausted, match=f"no acceptance within {max_retries} retries"):
            sampler_mod.batch_bias_conditioned(setup, RngSpec(0).generator(), 3)
        assert calls == [3] * (max_retries + 1)
        calls.clear()
        with pytest.raises(RetriesExhausted, match=f"no acceptance within {max_retries} retries"):
            sample_evasive_edge(single_axis_config(8), RngSpec(0))
        assert calls == [1] * (max_retries + 1)

    def test_each_row_maximum_is_taken_once_per_draw(self, monkeypatch):
        # row_max_abs sees the first draw once and then only the redrawn
        # rows, so the rows it sees are the bias rows drawn
        setup = bias_setup(random_unit_config(np.random.default_rng(1), 40, 6))
        monkeypatch.setattr(sampler_mod, "P_MAX", _rejecting_p_max(setup, 0.3))
        seen = []

        def counting(P):
            seen.append(len(P))
            return row_max_abs(P)

        monkeypatch.setattr(sampler_mod, "row_max_abs", counting)
        for count in (1, 100, 3000):
            seen.clear()
            _, drawn = batch_bias_conditioned(setup, RngSpec(count).generator(), count)
            assert seen[0] == count
            assert sum(seen) == drawn
        assert drawn > 3000 and len(seen) > 2

    def test_rejection_rate_within_tail_bound(self):
        # the max-norm tail must stay below 2/n plus sampling noise
        gen = np.random.default_rng(12)
        c = random_unit_config(gen, 64, 16)
        P = batch_bias(bias_setup(c), RngSpec(404).generator(), 100000)
        rate = float(np.mean(np.abs(P).max(axis=1) > 0.5))
        bound = 2.0 / 64
        se = math.sqrt(bound * (1 - bound) / 100000)
        assert rate <= bound + 3 * se


class TestSampleBiasSimple:
    def test_orthonormal_axes_give_uniform_coordinates(self):
        n = 6
        planes = tuple(
            make_hyperplane([1.0 if i == j else 0.0 for i in range(n)], 0.0, "float")
            for j in range(n)
        )
        c = Configuration(n, planes)
        bv = sample_bias_simple(c, RngSpec(21))
        alphas = [bv.draws[(ell, None)] for ell in range(n)]
        assert np.allclose(bv.p, alphas)
        assert not bv.clamped

    def test_all_ones_plane_variance_third(self):
        n = 16
        c = Configuration(n, (make_hyperplane([1.0 / math.sqrt(n)] * n, 0.0, "float"),))
        gen = RngSpec(31).generator()
        samples = np.array([sample_bias_simple(c, gen).p for _ in range(20000)])
        assert abs(samples[:, 0].var() - 1.0 / 3.0) < 0.02

    def test_mean_zero(self):
        gen = np.random.default_rng(13)
        c = random_unit_config(gen, 8, 3)
        g = RngSpec(41).generator()
        samples = np.array([sample_bias_simple(c, g).p for _ in range(20000)])
        assert np.all(np.abs(samples.mean(axis=0)) < 0.03)

    def test_clamping_flagged(self):
        # two identical planes: P_1 = sqrt(n/2) * (a1 + a2) exceeds 1 often
        n = 8
        e1 = [1.0] + [0.0] * (n - 1)
        c = Configuration(n, (make_hyperplane(e1, 0.0, "float"), make_hyperplane(e1, 0.0, "float")))
        gen = RngSpec(51).generator()
        flags = [sample_bias_simple(c, gen) for _ in range(200)]
        assert any(bv.clamped for bv in flags)
        assert all(np.max(np.abs(bv.p)) <= 1.0 for bv in flags)


class TestSampleMu:
    def test_sure_all_ones(self):
        v = sample_mu([1.0] * 5, RngSpec(0))
        assert v.coords() == (1, 1, 1, 1, 1)
        v = sample_mu([-1.0] * 5, RngSpec(0))
        assert v.coords() == (-1, -1, -1, -1, -1)

    def test_uniform_at_zero_bias(self):
        gen = RngSpec(61).generator()
        tot = np.zeros(6)
        for _ in range(20000):
            tot += sample_mu(np.zeros(6), gen).coords()
        assert np.all(np.abs(tot / 20000) < 4 / math.sqrt(20000) + 1e-9)

    def test_half_bias_frequency(self):
        gen = RngSpec(71).generator()
        hits = sum(sample_mu([0.5], gen).coord(0) == 1 for _ in range(100000))
        se = math.sqrt(0.75 * 0.25 / 100000)
        assert abs(hits / 100000 - 0.75) <= 4 * se

    def test_moments_match_bias(self):
        gen = np.random.default_rng(14)
        p = gen.uniform(-1, 1, size=10)
        X = batch_mu(np.tile(p, (100000, 1)), RngSpec(81).generator()).astype(np.float64)
        assert np.all(np.abs(X.mean(axis=0) - p) <= 4 * np.sqrt((1 - p**2) / 100000) + 1e-9)
        assert np.all(np.abs(X.var(axis=0) - (1 - p**2)) <= 0.05)

    def test_bias_out_of_range(self):
        with pytest.raises(BiasOutOfRange):
            sample_mu([1.1], RngSpec(0))

    @pytest.mark.parametrize("bad", [math.nan, -math.nan, math.inf])
    def test_non_finite_bias_out_of_range(self, bad):
        # NaN compares False with 1.0, so a max-based check let it through
        with pytest.raises(BiasOutOfRange):
            sample_mu([bad, 0.0], RngSpec(1))


class TestSampleEvasiveEdge:
    def test_axis_marginal_uniform(self):
        c = single_axis_config(8)
        gen = RngSpec(91).generator()
        counts = np.zeros(8, dtype=int)
        for _ in range(100000):
            counts[sample_evasive_edge(c, gen).axis] += 1
        assert stats.chisquare(counts).pvalue > 0.001

    def test_single_plane_crossing_probability(self):
        # edge crosses x_1 = 0 iff its axis is 1: probability exactly 1/8
        from cubeslicer import edge_crosses

        c = single_axis_config(8)
        gen = RngSpec(101).generator()
        n_draws = 20000
        hits = 0
        for _ in range(n_draws):
            e = sample_evasive_edge(c, gen)
            crossed = edge_crosses(c.planes[0], e, "strict")
            assert crossed == (e.axis == 0)
            hits += crossed
        se = math.sqrt(0.125 * 0.875 / n_draws)
        assert abs(hits / n_draws - 0.125) <= 4 * se

    def test_shifted_plane_never_crossed(self):
        from cubeslicer import edge_crosses

        coeffs = [1.0] + [0.0] * 7
        c = Configuration(8, (make_hyperplane(coeffs, 2.0, "float"),))
        gen = RngSpec(111).generator()
        assert not any(
            edge_crosses(c.planes[0], sample_evasive_edge(c, gen), "strict") for _ in range(2000)
        )

    def test_determinism(self):
        gen = np.random.default_rng(15)
        c = random_unit_config(gen, 10, 4)
        e1 = sample_evasive_edge(c, RngSpec(5, 6))
        e2 = sample_evasive_edge(c, RngSpec(5, 6))
        assert e1 == e2


def scalar_reference_edge(c, gen):
    """The evasive edge drawn with the scalar forms of every draw: a (K,)
    multiplier vector per attempt, one random(n) row and one integers(n)."""
    setup = bias_setup(c)
    while True:
        alphas = gen.uniform(-1.0, 1.0, size=len(setup.keys))
        p = setup.scale * (alphas @ dyadic_terms(setup.V)[1])
        if np.max(np.abs(p)) <= 0.5:
            break
    ups = gen.random(c.n) < (1.0 + p) / 2.0
    mask = sum(1 << i for i, up in enumerate(ups) if up)
    return Edge(Vertex(c.n, mask), int(gen.integers(c.n)))


class TestBatchOfOne:
    # the redraws are exercised in TestBlockedDraws with a lowered P_MAX
    CASES = [(2, 1), (6, 8), (9, 3), (40, 6), (256, 12)]

    @pytest.mark.parametrize("n,m", CASES)
    def test_scalar_samplers_are_row_zero_of_a_batch(self, n, m):
        c = random_unit_config(np.random.default_rng(n * 100 + m), n, m)
        setup = bias_setup(c)
        for seed in range(25):
            U, k, drawn = batch_evasive_edges(setup, RngSpec(seed).generator(), 1)
            assert drawn >= 1
            assert U.shape == (1, n) and k.shape == (1,)
            edge = sample_evasive_edge(c, RngSpec(seed))
            assert edge == Edge(Vertex.from_signs(U[0].tolist()), int(k[0]))
            p = sample_bias(c, RngSpec(seed, 1)).p
            row = batch_mu(p[None, :], RngSpec(seed, 2).generator())[0]
            assert sample_mu(p, RngSpec(seed, 2)) == Vertex.from_signs(row.tolist())

    @pytest.mark.parametrize("n,m", CASES)
    def test_batch_of_one_consumes_the_scalar_stream(self, n, m):
        # a shared generator: any difference in how many numbers a draw takes
        # would shift every later edge
        c = random_unit_config(np.random.default_rng(n * 100 + m), n, m)
        gen, ref_gen = RngSpec(7, n).generator(), RngSpec(7, n).generator()
        for _ in range(40):
            assert sample_evasive_edge(c, gen) == scalar_reference_edge(c, ref_gen)
        assert gen.random() == ref_gen.random()


class TestStreamAccounting:
    """The fact about numpy's stream that the batch draws' docstrings state."""

    def test_uniform_and_random_take_one_word_per_double(self):
        gen, ref = RngSpec(3).generator(), RngSpec(3).generator()
        gen.uniform(-1.0, 1.0, size=(3, 5))
        gen.random((2, 7))
        ref.bit_generator.advance(15 + 14)
        assert gen.bit_generator.state == ref.bit_generator.state


def _same_state(a, b):
    """Equal bit generator states (MT19937 keeps an array in its state)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


def _rejecting_p_max(setup, share):
    """A threshold that rejects about `share` of the rows."""
    P = batch_bias(setup, RngSpec(99).generator(), 4000)
    return float(np.quantile(np.abs(P).max(axis=1), 1.0 - share))


class TestBlockedDraws:
    """The batch draws against the whole-chunk draws of tests/helpers.py:
    same P, U, k and x bit for bit, same rows drawn, same end state of the
    caller's generator, with the vertices drawn on row slices of 64, 100 or
    1024 rows.  A lowered P_MAX makes rows fail, so redraws (also in later
    rounds) run."""

    CONFIGS = [(6, 8), (9, 3), (40, 6), (64, 16)]
    COUNTS = [1, 100, 1024, 3000]

    def _check_edges(self, c, count, make_gen):
        setup = bias_setup(c)
        gen, ref, bias_gen = make_gen(), make_gen(), make_gen()
        for g in (gen, ref, bias_gen):
            g.integers(c.n)  # a buffered 32-bit half on entry, as in the `sample` loop
        P, _ = batch_bias_conditioned(setup, bias_gen, count)
        U, k, drawn = batch_evasive_edges(setup, gen, count)
        P_ref, U_ref, k_ref, rounds = whole_chunk_evasive_edges(setup, ref, count)
        assert U.dtype == U_ref.dtype and k.dtype == k_ref.dtype
        assert np.array_equal(U, U_ref) and np.array_equal(k, k_ref)
        assert _same_state(gen.bit_generator.state, ref.bit_generator.state)
        assert drawn == count + sum(rounds)
        assert np.array_equal(P, P_ref)
        return P, rounds

    @pytest.mark.parametrize("slice_rows", [1024, 100, 64])
    @pytest.mark.parametrize("n,m", CONFIGS)
    def test_evasive_edges_match_the_whole_chunk(self, monkeypatch, slice_rows, n, m):
        monkeypatch.setattr(sampler_mod, "SLICE_CELLS", slice_rows * n)
        c = random_unit_config(np.random.default_rng(n * 100 + m), n, m)
        setup = bias_setup(c)
        for count in self.COUNTS:
            _, rounds = self._check_edges(c, count, RngSpec(count, 1).generator)
            assert not rounds
        monkeypatch.setattr(sampler_mod, "P_MAX", _rejecting_p_max(setup, 0.3))
        later_rounds = 0
        for count in self.COUNTS:
            P, rounds = self._check_edges(c, count, RngSpec(count, 1).generator)
            assert np.abs(P).max() <= sampler_mod.P_MAX
            later_rounds += len(rounds) >= 2
        assert later_rounds >= 2

    def test_any_bit_generator(self, monkeypatch):
        # nothing positions a copy of the generator, so any bit generator serves
        c = random_unit_config(np.random.default_rng(7), 40, 6)
        monkeypatch.setattr(sampler_mod, "P_MAX", _rejecting_p_max(bias_setup(c), 0.3))
        _, rounds = self._check_edges(c, 3000, lambda: np.random.Generator(np.random.MT19937(1)))
        assert len(rounds) >= 2

    @pytest.mark.parametrize("slice_rows", [1024, 64])
    def test_mu_after_the_bias_blocks_matches_the_whole_chunk(self, monkeypatch, slice_rows):
        # the glue estimator's draw: a conditioned batch, then mu on its row slices
        monkeypatch.setattr(sampler_mod, "SLICE_CELLS", slice_rows * 40)
        c = random_unit_config(np.random.default_rng(1), 40, 6)
        setup = bias_setup(c)
        monkeypatch.setattr(sampler_mod, "P_MAX", _rejecting_p_max(setup, 0.3))
        count = 3000
        gen, ref = RngSpec(8).generator(), RngSpec(8).generator()
        P, drawn = batch_bias_conditioned(setup, gen, count)
        x = batch_mu(P, gen)
        P_ref, rounds = whole_chunk_bias_conditioned(setup, ref, count)
        assert len(rounds) >= 2
        assert np.array_equal(P, P_ref)
        assert np.array_equal(x, whole_chunk_mu(P_ref, ref))
        assert drawn == count + sum(rounds)
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_rejections_possible_but_absent(self):
        # scale * sum_j |W_ji| > 1/2 allows a rejection, but none happens here
        c = random_unit_config(np.random.default_rng(2), 4, 200)
        setup = bias_setup(c)
        assert setup.scale * np.abs(dyadic_terms(setup.V)[1]).sum(axis=0).max() > sampler_mod.P_MAX
        _, rounds = self._check_edges(c, 3000, RngSpec(3, 1).generator)
        assert not rounds

    def test_exhausted_retries_raise_before_any_block(self, monkeypatch):
        monkeypatch.setattr(sampler_mod, "P_MAX", 0.0)
        monkeypatch.setattr(sampler_mod, "MAX_RETRIES", 2)
        setup = bias_setup(random_unit_config(np.random.default_rng(4), 6, 2))
        for count in (3, 3000):
            with pytest.raises(RetriesExhausted):
                batch_bias_conditioned(setup, RngSpec(0).generator(), count)


class TestDyadicTerms:
    def test_matches_the_dense_rows_built_one_by_one(self):
        from cubeslicer import decomp

        V = np.random.default_rng(5).standard_normal((7, 300))
        V *= 2.0 ** -np.random.default_rng(6).integers(0, 12, size=V.shape)
        # zeros (no row), exact powers of two (scale boundaries), entries
        # above 1 (negative scales) and a subnormal
        V[:, ::7] = 0.0
        V[0, 1:6] = [0.5, -1.0, 2.0, 0.25, -4.0]
        V[1, 1] = 5e-324
        V[2, 1:3] = [3.0, -1024.5]
        keys, W = dyadic_terms(V)
        rows = []
        for ell in range(V.shape[0]):
            d = decomp.binary_decompose([float(x) for x in V[ell]])
            for j in sorted(d.parts):
                idx, vals = d.parts[j]
                w = np.zeros(V.shape[1])
                w[list(idx)] = np.ldexp(np.array(vals), j)
                rows.append(w)
        assert W.shape == (len(keys), V.shape[1]) and W.dtype == np.float64
        assert np.array_equal(W, np.array(rows))
        assert W.flags.c_contiguous


def scaled_config(n, seed):
    """Four planes with zero coefficients: a Gaussian one with a third of its
    entries zero, one whose entries span 2^0 to 2^-59 and a subnormal, an
    axis plane, and one with entries above 1."""
    gen = np.random.default_rng(seed)
    rows = gen.standard_normal((4, n))
    rows[0, ::3] = 0.0
    rows[1] = np.ldexp(np.sign(rows[1]), -(np.arange(n) % 60))
    rows[1, 1::5] = 0.0
    rows[1, 2] = 5e-324
    rows[2] = 0.0
    rows[2, n // 2] = 1.0
    rows[3] *= 2.0 ** gen.integers(0, 12, size=n)
    return Configuration(n, tuple(make_hyperplane(r.tolist(), 0.0, "float") for r in rows))


class TestBlockedProduct:
    """batch_bias and sample_bias, which multiply the multipliers (in row
    slices with one column block) through column blocks of the compact
    terms, against one product of all multipliers with the dense term
    matrix: the same P bit for bit and the same end state of the generator."""

    # n = 1032 and 2056 have uneven column blocks (512 + 520, 704 + 704 + 648)
    CASES = [(64, 8), (256, 40), (1024, 100), (1032, 10), (2056, 12)]

    @staticmethod
    def counts(setup):
        # small batches, one row either side of one and of two slices (of an
        # estimator chunk where a slice is longer), and a short last chunk
        step = min(sampler_mod.product_slices(setup, 1 << 14)[0].stop, 1024)
        around = [k * step + d for k in (1, 2) for d in (-1, 0, 1)]
        return sorted({1, *range(2, 10), 63, 64, 65, *around, 1000, 1024})

    @staticmethod
    def one_product(setup, count, seed):
        gen = RngSpec(seed).generator()
        A = gen.uniform(-1.0, 1.0, size=(count, len(setup.keys)))
        return setup.scale * (A @ dyadic_terms(setup.V)[1]), gen

    def _compare(self, setup, count, seed=0):
        gen = RngSpec(seed).generator()
        P = batch_bias(setup, gen, count)
        P_ref, ref = self.one_product(setup, count, seed)
        assert gen.bit_generator.state == ref.bit_generator.state
        return P, P_ref

    @pytest.mark.parametrize("n,m", CASES)
    def test_batches_match_one_product(self, n, m):
        setup = bias_setup(random_unit_config(np.random.default_rng(n + m), n, m))
        for count in self.counts(setup):
            P, P_ref = self._compare(setup, count, count)
            assert np.array_equal(P, P_ref), count

    @pytest.mark.parametrize("n", [256, 1032])
    def test_zero_coefficients_and_many_scales(self, n):
        setup = bias_setup(scaled_config(n, 1))
        assert len(setup.keys) > 60
        for count in self.counts(setup):
            P, P_ref = self._compare(setup, count, count)
            assert np.array_equal(P, P_ref), count

    @pytest.mark.parametrize("n,m", [(1025, 10), (2049, 12)])
    def test_ragged_widths(self, n, m):
        # the last n mod 8 columns fall outside a full column tile of the
        # BLAS kernel; their summation order follows how the kernel groups
        # the rows, which differs between BLAS thread counts for the one
        # product too, so they are compared up to rounding
        setup = bias_setup(random_unit_config(np.random.default_rng(n + m), n, m))
        tiled = n - n % 8
        for count in self.counts(setup):
            P, P_ref = self._compare(setup, count, count)
            assert np.array_equal(P[:, :tiled], P_ref[:, :tiled]), count
            np.testing.assert_allclose(P, P_ref, rtol=0.0, atol=1e-15 * setup.scale * len(setup.keys))

    @pytest.mark.parametrize("n,m", [(64, 8), (1032, 10), (2056, 12)])
    def test_sample_bias_matches_one_product(self, n, m):
        c = random_unit_config(np.random.default_rng(n + m), n, m)
        setup = bias_setup(c)
        for seed in range(5):
            gen, ref = RngSpec(seed).generator(), RngSpec(seed).generator()
            bv = sample_bias(c, gen)
            alphas = ref.uniform(-1.0, 1.0, size=len(setup.keys))
            assert np.array_equal(bv.p, setup.scale * (alphas @ dyadic_terms(setup.V)[1]))
            # the recorded multipliers are the reference's, bit for bit
            assert np.array_equal(np.array(list(bv.draws.values())), alphas)
            assert list(bv.draws) == setup.keys
            assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", [2, 64, 1024, 1025, 2049, 3000, 16384, 16385])
    def test_column_blocks(self, n):
        blocks = sampler_mod.column_blocks(n)
        assert len(blocks) == -(-n // sampler_mod.BLOCK_COLS)
        assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
        assert blocks[0].start == 0 and blocks[-1].stop == n
        widths = [b.stop - b.start for b in blocks]
        assert max(widths) <= sampler_mod.BLOCK_COLS and max(widths) - min(widths) <= 128
        assert all(b.start % 64 == 0 for b in blocks)

    @pytest.mark.parametrize("n", [256, 1032, 2056])
    def test_blocks_are_the_dense_columns(self, n):
        setup = bias_setup(scaled_config(n, 2))
        W = dyadic_terms(setup.V)[1]
        assert (setup.block is None) == (n > sampler_mod.BLOCK_COLS)
        assert setup.term_rows.dtype == np.int32 and setup.term_vals.dtype == np.float64
        assert setup.term_rows.shape == setup.term_vals.shape == setup.V.shape
        for _ in range(2):  # one buffer serves every block, cleared in between
            blocks = [(cols, block.copy()) for cols, block in sampler_mod.term_blocks(setup)]
            assert np.array_equal(np.hstack([block for _, block in blocks]), W)
            expected = [slice(None)] if n <= sampler_mod.BLOCK_COLS else sampler_mod.column_blocks(n)
            assert [cols for cols, _ in blocks] == expected

    def test_product_slices(self):
        setup = bias_setup(random_unit_config(np.random.default_rng(0), 1024, 100))
        parts = sampler_mod.product_slices(setup, 1024)
        sizes = [part.stop - part.start for part in parts]
        assert sizes == [192, 192, 192, 192, 256]
        assert sampler_mod.product_slices(setup, 383) == [slice(0, 383)]
        # a small product is not sliced: 3000 rows of n = 4 take one slice
        small = bias_setup(random_unit_config(np.random.default_rng(2), 4, 200))
        assert sampler_mod.product_slices(small, 3000) == [slice(0, 3000)]
        # with several column blocks the batch is one slice, built per block once
        wide = bias_setup(random_unit_config(np.random.default_rng(3), 1032, 10))
        assert sampler_mod.product_slices(wide, 1024) == [slice(0, 1024)]


class TestBiasSetupCache:
    def test_equal_configs_hash_once_and_share_the_setup(self):
        rows = np.random.default_rng(3).standard_normal((4, 64)).tolist()
        a = Configuration(64, tuple(make_hyperplane(r, 0.0, "float") for r in rows))
        b = Configuration(64, tuple(make_hyperplane(r, 0.0, "float") for r in rows))
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.n, a.planes, a.mode))
        assert a != Configuration(64, a.planes, "relaxed")
        setup = bias_setup(a)
        assert bias_setup(a) is setup
        assert bias_setup(b) is setup

    def test_a_sweep_keeps_one_setup(self):
        bias_setup.cache_clear()
        rows = sweep([SweepCell(8, 2), SweepCell(12, 3)], 200, RngSpec(0))
        assert [row["error"] for row in rows] == [None, None]
        assert bias_setup.cache_info().currsize == 1
