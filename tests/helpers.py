"""Shared test utilities: random exact planes and independent brute-force oracles.

The oracles here deliberately avoid the library's fast paths: the slicing
oracle loops edge_crosses over every edge, the atom oracle enumerates all
2^n sign vectors with itertools, and the concentration oracle sums window
masses with a plain double loop.  reference_float_atoms and
whole_array_levy_q are the float oracle's arithmetic written the plain way,
for bitwise comparison; enumerated_float_atoms is the float law from all
2^n sign vectors, a second reference whose values match bit for bit and
whose masses are summed in another order.  blockwise_sum_runs is the
oracle's in-place run sum with a heads array and np.add.reduceat for every
block, the reference for the one that skips blocks holding no run.  The whole_chunk_* draws are the
sampler's batch draws with every array of the batch in memory at once and
the dense dyadic term matrix (dyadic_terms, built from
sampler.compact_terms), for bitwise comparison with the sliced and blocked
draws.  on_main_and_worker_threads runs one
call on the calling thread and on concurrent worker threads, so that a
fixed-seed result can be checked independent of the thread it runs on.
"""

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

import cubeslicer.sampler as sampler_mod
from cubeslicer import Configuration, edge_crosses, iter_edges, make_hyperplane


def random_rational_plane(gen, n, lim=9):
    """A random exact plane with numerators/denominators bounded by lim."""
    while True:
        nums = gen.integers(-lim, lim + 1, size=n)
        if nums.any():
            break
    dens = gen.integers(1, lim + 1, size=n)
    coeffs = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
    t = Fraction(int(gen.integers(-lim, lim + 1)), int(gen.integers(1, lim + 1)))
    return make_hyperplane(coeffs, t, "exact")


def random_rational_config(gen, n, m, mode="strict", lim=9):
    return Configuration(n, tuple(random_rational_plane(gen, n, lim) for _ in range(m)), mode)


def naive_slicing(config):
    """Reference slicing sweep: the per-edge predicate looped over everything."""
    counts = [0] * config.m
    unsliced = 0
    for e in iter_edges(config.n):
        hit = False
        for ell, h in enumerate(config.planes):
            if edge_crosses(h, e, config.mode):
                counts[ell] += 1
                hit = True
        if not hit:
            unsliced += 1
    return unsliced, counts


def enumerate_atoms_exact(v, p):
    """Law of sum_i x_i * v_i by enumerating all sign vectors (Fractions).

    Coordinates with v_i = 0 never change the value and their sign
    probabilities sum to one, so they are dropped before enumerating.
    """
    pairs = [(Fraction(x), Fraction(q)) for x, q in zip(v, p) if Fraction(x) != 0]
    law = {}
    for signs in itertools.product((-1, 1), repeat=len(pairs)):
        pr = Fraction(1)
        for s, (_, pi) in zip(signs, pairs):
            pr *= (1 + pi) / 2 if s == 1 else (1 - pi) / 2
        if pr == 0:
            continue
        val = sum(s * vi for s, (vi, _) in zip(signs, pairs))
        law[val] = law.get(val, Fraction(0)) + pr
    if not law:
        law[Fraction(0)] = Fraction(1)
    return sorted(law.items())


def mixture_atoms_exact(v, p):
    """Law of the biased linear form realized as a mixture of unbiased ones.

    Each coordinate with p_i != 0 is independently zeroed with probability
    |p_i| and compensated by the constant offset v_i * sign(p_i); conditioned
    on the zeroing pattern, the remaining form is unbiased.
    """
    v = [Fraction(x) for x in v]
    p = [Fraction(x) for x in p]
    biased = [i for i, pi in enumerate(p) if pi != 0]
    law = {}
    for bits in itertools.product((0, 1), repeat=len(biased)):
        weight = Fraction(1)
        offset = Fraction(0)
        vv = list(v)
        for b, i in zip(bits, biased):
            if b:
                weight *= abs(p[i])
                offset += v[i] * (1 if p[i] > 0 else -1)
                vv[i] = Fraction(0)
            else:
                weight *= 1 - abs(p[i])
        if weight == 0:
            continue
        for val, pr in enumerate_atoms_exact(vv, [0] * len(v)):
            key = val + offset
            law[key] = law.get(key, Fraction(0)) + weight * pr
    return sorted(law.items())


def direct_window_concentration(atoms, alpha):
    """sup_t Pr[|X - t| < alpha] for atomic X by direct window-mass summation."""
    alpha = Fraction(alpha)
    best = Fraction(0)
    for vi, _ in atoms:
        mass = sum(pr for val, pr in atoms if vi <= val < vi + 2 * alpha)
        best = max(best, mass)
    return best


def reference_float_atoms(v, p, rtol=1e-12):
    """Float atoms by a plain per-step merge, then a drop and a fold.

    Per coordinate the sorted values shifted by -v_i and by +v_i are
    concatenated (the +v_i half second) with probabilities times
    (1 -+ p_i)/2, stably sorted, and each run of equal values is summed
    into one atom.  Then zero-probability atoms are dropped and neighbours
    are folded as in _drop_and_fold.
    """
    values = np.zeros(1)
    probs = np.ones(1)
    for vi, pi in zip(v, p):
        values = np.concatenate([values - vi, values + vi])
        probs = np.concatenate([probs * ((1.0 - pi) / 2.0), probs * ((1.0 + pi) / 2.0)])
        order = np.argsort(values, kind="stable")
        values, probs = values[order], probs[order]
        starts = np.flatnonzero(np.concatenate([[True], values[1:] != values[:-1]]))
        values, probs = values[starts], np.add.reduceat(probs, starts)
    return _drop_and_fold(values, probs, v, rtol)


def enumerated_float_atoms(v, p, rtol=1e-12):
    """Float atoms from all 2^n sign vectors: whole-array doubling with no
    merge, one stable sort, then the drop and fold of _drop_and_fold."""
    values = np.zeros(1)
    probs = np.ones(1)
    for vi, pi in zip(v, p):
        values = np.concatenate([values - vi, values + vi])
        probs = np.concatenate([probs * ((1.0 - pi) / 2.0), probs * ((1.0 + pi) / 2.0)])
    order = np.argsort(values, kind="stable")
    return _drop_and_fold(values[order], probs[order], v, rtol)


def _drop_and_fold(values, probs, v, rtol):
    """Sorted atoms without their zero-probability ones, and with runs whose
    neighbouring gaps are within rtol * max(min(1, l1(v)), |value|) folded
    into their first value with summed mass."""
    keep = probs > 0.0
    values, probs = values[keep], probs[keep]
    if values.size < 2:
        return values, probs
    floor = min(1.0, math.fsum(abs(x) for x in v))
    gap = values[1:] - values[:-1]
    tol = rtol * np.maximum(floor, np.maximum(np.abs(values[1:]), np.abs(values[:-1])))
    starts = np.concatenate([[0], np.flatnonzero(gap > tol) + 1])
    return values[starts], np.add.reduceat(probs, starts)


def blockwise_sum_runs(values, probs, rtol, floor, block):
    """Copies of sorted atoms with each run summed into its first value, as
    anticonc._sum_runs sums them, but with a heads array and np.add.reduceat
    for every block of `block` atoms.  A run's neighbours a <= b lie within
    rtol * max(floor, -a, b); a block's last run opens the next block, which
    widens until it holds a whole run."""
    values, probs = values.copy(), probs.copy()
    size_out = lo = 0
    width = block
    while lo < values.size:
        hi = min(lo + width, values.size)
        a, b = values[lo:hi - 1], values[lo + 1:hi]
        heads = np.ones(hi - lo, dtype=bool)
        with np.errstate(over="ignore"):
            np.greater(b - a, np.maximum(np.maximum(-a, b), floor) * rtol, out=heads[1:])
        starts = np.flatnonzero(heads)
        end = starts[-1] if hi < values.size else hi - lo
        starts = starts[starts < end]
        width = block if end else 2 * width
        top = size_out + starts.size
        if top < lo + end:
            values[size_out:top] = values[lo:lo + end][starts]
            probs[size_out:top] = np.add.reduceat(probs[lo:lo + end], starts)
        size_out, lo = top, lo + end
    return values[:size_out], probs[:size_out]


def whole_array_levy_q(values, probs, alpha):
    """Float Q(alpha) by one np.searchsorted over every window at once."""
    cum = np.concatenate([[0.0], np.cumsum(probs)])
    ends = np.searchsorted(values, values + 2.0 * alpha, side="left")
    masses = cum[ends] - cum[:-1]
    return float(max(masses.max(), probs.max())) if alpha > 0 else float(masses.max())


def dyadic_terms(V):
    """The keys and the dense K x n term matrix W of sampler.compact_terms,
    so that a bias is scale * alphas @ W: the reference the blocked product
    is checked against."""
    keys, term_rows, term_vals = sampler_mod.compact_terms(V)
    W = np.zeros((len(keys), V.shape[1]), dtype=np.float64)
    W[term_rows, np.arange(V.shape[1])] = term_vals
    return keys, W


def whole_chunk_bias_conditioned(setup, gen, count):
    """Conditioned biases of count rows in one product with the dense term
    matrix, rejected rows redrawn round by round from gen; returns (P, rows
    redrawn in each round)."""
    K = len(setup.keys)
    W = dyadic_terms(setup.V)[1]
    P = setup.scale * (gen.uniform(-1.0, 1.0, size=(count, K)) @ W)
    rounds = []
    for attempt in range(sampler_mod.MAX_RETRIES + 1):
        bad = np.flatnonzero(np.abs(P).max(axis=1) > sampler_mod.P_MAX)
        if bad.size == 0:
            return P, rounds
        if attempt < sampler_mod.MAX_RETRIES:
            P[bad] = setup.scale * (gen.uniform(-1.0, 1.0, size=(bad.size, K)) @ W)
            rounds.append(bad.size)
    raise AssertionError("no acceptance")


def whole_chunk_mu(P, gen):
    return np.where(gen.random(P.shape) < (1.0 + P) / 2.0, 1, -1).astype(np.int8)


def whole_chunk_evasive_edges(setup, gen, count):
    """(P, U, k, rows redrawn in each round) of one whole-chunk evasive-edge draw."""
    P, rounds = whole_chunk_bias_conditioned(setup, gen, count)
    U = whole_chunk_mu(P, gen)
    return P, U, gen.integers(setup.V.shape[1], size=count), rounds


def on_main_and_worker_threads(call, workers):
    """call() once on the calling thread, then on `workers` threads at once;
    a fixed-seed result may depend on neither the thread nor its neighbours."""
    with ThreadPoolExecutor(workers) as pool:
        return [call()] + list(pool.map(lambda _: call(), range(workers)))
