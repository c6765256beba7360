"""Biased linear forms, the exact Levy concentration oracle, and the
anti-concentration bound checks (Sperner / Littlewood-Offord, dyadic-scale
decay, Hoeffding tails).

The oracle represents the full law of X = <v, x> with x from the biased
product distribution as a finite list of (value, probability) atoms, built
by exhausting all 2^n sign vectors; its dimension cap keeps that affordable.
Each kind keeps its atoms in the form its own arithmetic uses: float atoms
stay float64 arrays from enumeration to window scan, and exact atoms are
Python integers over two common denominators (lcm of v's denominators for
the values, product of 2*den(p_i) for the probabilities), so no step does
per-atom Fraction arithmetic.

Float atoms are built sorted and in place: each coordinate doubles the atoms
in one pair of arrays, merging the two shifted runs into them back to front,
a co-ranked block at a time.  The arrays grow by resize while the atoms fit
in one block; past it they are one np.empty reservation for every coordinate
left, resident only where the merge writes.  Runs of equal, then of
near-equal, values are summed block by block, and a block holding no run is
only moved, so at n = 22 the builder holds its 64 MB of atoms plus one
block.  The window scan searches each block of sorted window ends in a
short slice, and visits the blocks by decreasing upper bound on their
window masses, stopping at the first block whose bound cannot beat the best
mass found.  It never holds the 2^n cumulative sums: one chunked pass keeps
them at each block's first atom and at each bound, and a visited block sums
its own from there, so at n = 22 the scan adds about 1 MiB to the atoms and
the builder sets the peak.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence, Union

import numpy as np

from . import decomp
from .core import EXACT, FLOAT, as_scalars, scalar_kind
from .errors import (
    BiasOutOfRange,
    BiasTooLarge,
    BoundViolation,
    DimensionMismatch,
    DimensionTooLargeForOracle,
    DimensionTooSmall,
    NegativeAlpha,
    NonFiniteScalar,
)
from .sampler import as_generator, batch_mu, row_slices

ORACLE_MAX_DIM = 22
MERGE_RTOL = 1e-12
_SCAN_BLOCK = 1 << 9
_FOLD_BLOCK = 1 << 16

Number = Union[Fraction, float, int]


@dataclass(frozen=True)
class LinearFormSpec:
    """The random variable <v, x> where x has independent +-1 coordinates
    with means p.  Entries are normalized by core.as_scalars to the
    core.scalar_kind of all of v and p: all Fractions or all finite floats."""

    v: tuple
    p: tuple

    def __post_init__(self):
        if len(self.v) != len(self.p):
            raise DimensionMismatch("v and p must have equal lengths")
        if len(self.v) == 0:
            raise DimensionMismatch("empty linear form")
        kind = scalar_kind([*self.v, *self.p])
        object.__setattr__(self, "v", as_scalars(self.v, kind))
        object.__setattr__(self, "p", as_scalars(self.p, kind))
        if max(abs(x) for x in self.p) > 1:
            raise BiasOutOfRange("bias entries must lie in [-1, 1]")
        # every atom lies in [-l1(v), l1(v)]; beyond a double the float atoms
        # would be infinite and the oracle's answer meaningless
        if kind == FLOAT and not math.isfinite(sum(abs(x) for x in self.v)):
            raise NonFiniteScalar("l1(v) overflows a double; use exact mode")

    @property
    def kind(self) -> str:
        return EXACT if isinstance(self.v[0], Fraction) else FLOAT

    @property
    def n(self) -> int:
        return len(self.v)


@dataclass(frozen=True, eq=False)
class AtomDistribution:
    """A finite law as strictly increasing values with positive probabilities,
    kept in the form its kind's arithmetic uses.

    Float kind: `points` and `weights` are the float64 arrays of values and
    probabilities themselves.  They may be prefix views of a larger
    reservation that is resident only where written: tracemalloc counts the
    whole reservation, resident memory only the atoms.  Exact kind: `points`
    are Python ints V_i and `weights` Python ints W_i with value_i = V_i /
    scale and prob_i = W_i / denom, where scale is the lcm of v's
    denominators and denom the product of 2*den(p_i); `values` and `probs`
    rebuild the Fractions when read."""

    points: Sequence
    weights: Sequence
    exact: bool
    total_mass: Number
    scale: int = 1
    denom: int = 1

    @property
    def values(self) -> Sequence:
        if self.exact:
            return tuple(Fraction(x, self.scale) for x in self.points)
        return self.points

    @property
    def probs(self) -> Sequence:
        if self.exact:
            return tuple(Fraction(w, self.denom) for w in self.weights)
        return self.weights

    def __len__(self) -> int:
        return len(self.points)


def _atoms_exact(v: tuple, p: tuple) -> AtomDistribution:
    # Coordinate-by-coordinate convolution on integers with equal values
    # merged at every step: values scaled by L = lcm(den v_i), weights over
    # D = prod(2*den p_i), since (1 +- p_i)/2 = (den p_i +- num p_i) / (2*den p_i).
    # Exact arithmetic makes this identical to enumerating all 2^n sign
    # vectors and merging afterwards.
    scale = math.lcm(*(vi.denominator for vi in v))
    law = {0: 1}
    denom = 1
    for vi, pi in zip(v, p):
        step = vi.numerator * (scale // vi.denominator)
        up = pi.denominator + pi.numerator
        down = pi.denominator - pi.numerator
        denom *= 2 * pi.denominator
        new: dict[int, int] = {}
        for val, w in law.items():
            if up:
                key = val + step
                new[key] = new.get(key, 0) + w * up
            if down:
                key = val - step
                new[key] = new.get(key, 0) + w * down
        law = new
    points = sorted(law)
    weights = [law[x] for x in points]
    if sum(weights) != denom:
        raise BoundViolation(f"exact atom masses sum to {Fraction(sum(weights), denom)}, not 1")
    return AtomDistribution(points, weights, True, Fraction(1), scale, denom)


def _sorted_atoms(v: tuple, p: tuple) -> tuple[np.ndarray, np.ndarray]:
    # Sorted doubling in place: coordinate i doubles the atoms and fills the
    # arrays from the back, _FOLD_BLOCK at a time, with the stable merge of the
    # atoms shifted by -v_i (first on ties) and by +v_i: a block's sources,
    # found by co-rank, lie below its end, and one stable argsort of the two
    # short runs orders it.  Summing equal values keeps the 2^n sign vectors'
    # values: they get the same arithmetic.  While the atoms fit in one block
    # both arrays grow by resize.  The first doubling past a block reserves
    # room for every coordinate left, half << (n - i) atoms, with np.empty,
    # which the kernel backs only where it is written: no level pays a
    # resize's zero fill, and each works on a prefix of the reservation.
    values = np.zeros(1)
    probs = np.ones(1)
    size = 1
    for i, (vi, pi) in enumerate(zip(v, p)):
        half, size = size, 2 * size
        if values.size < size <= _FOLD_BLOCK:
            values.resize(size, refcheck=False)
            probs.resize(size, refcheck=False)
        elif values.size < size:
            room = half << (len(v) - i)
            reserved = np.empty(room), np.empty(room)
            reserved[0][:half], reserved[1][:half] = values[:half], probs[:half]
            values, probs = reserved
        hi, a_hi, tied = size, half, False
        both, weights = np.empty((2, min(size, _FOLD_BLOCK)))
        while hi > 0:
            lo = max(hi - _FOLD_BLOCK, 0)
            # -v_i atom j comes before +v_i atom lo - j - 1 iff it is not larger
            a_lo = bisect_left(range(half), True, max(0, lo - half), min(lo, half),
                               key=lambda j: values[j] - vi > values[lo - j - 1] + vi)
            mid, width = a_hi - a_lo, hi - lo
            np.subtract(values[a_lo:a_hi], vi, out=both[:mid])
            np.add(values[lo - a_lo:hi - a_hi], vi, out=both[mid:width])
            np.multiply(probs[a_lo:a_hi], (1.0 - pi) / 2.0, out=weights[:mid])
            np.multiply(probs[lo - a_lo:hi - a_hi], (1.0 + pi) / 2.0, out=weights[mid:width])
            order = np.argsort(both[:width], kind="stable")
            np.take(both, order, out=values[lo:hi], mode="clip")
            np.take(weights, order, out=probs[lo:hi], mode="clip")
            run = values[lo:min(hi + 1, size)]  # the block and the first atom after it
            tied = tied or bool(np.any(run[1:] == run[:-1]))
            hi, a_hi = lo, a_lo
        del both, weights, order  # before the next level allocates its own
        if tied:
            size = _sum_runs(values[:size], probs[:size], 0.0)
    return values[:size], probs[:size]


def _sum_runs(values: np.ndarray, probs: np.ndarray, rtol: float, floor: float = 0.0) -> int:
    # Sums each run of sorted atoms into its first value in place and returns
    # the number of atoms left, at the front of both arrays.  A run's
    # neighbours a <= b lie within rtol * max(floor, |a|, |b|) = rtol *
    # max(floor, -a, b); rtol = 0 gives the runs of equal values.  No pair of
    # a block and the atom after it has a wider tolerance than rtol *
    # max(floor, -values[lo], values[hi]), so a block whose gaps all exceed
    # that holds no run and is only moved down.  Otherwise a block's last run
    # opens the next block, which widens until it holds a whole run, so
    # np.add.reduceat sums every run whole.
    size_out = lo = 0
    width = _FOLD_BLOCK
    while lo < values.size:
        hi = min(lo + width, values.size)
        span = values[lo:hi + 1]
        with np.errstate(over="ignore"):  # atoms beyond +-9e307 may be an infinite gap apart
            gaps = span[1:] - span[:-1]
            if gaps.min(initial=math.inf) > max(floor, -span[0], span[-1]) * rtol:
                if size_out < lo:
                    values[size_out:size_out + hi - lo] = values[lo:hi]
                    probs[size_out:size_out + hi - lo] = probs[lo:hi]
                size_out, lo = size_out + hi - lo, hi
                continue
            heads = np.ones(hi - lo, dtype=bool)
            a, b = span[:hi - lo - 1], span[1:hi - lo]
            np.greater(gaps[:hi - lo - 1], np.maximum(np.maximum(-a, b), floor) * rtol, out=heads[1:])
        starts = np.flatnonzero(heads)
        end = starts[-1] if hi < values.size else hi - lo
        starts = starts[starts < end]
        width = _FOLD_BLOCK if end else 2 * width
        top = size_out + starts.size
        if top < lo + end:
            values[size_out:top] = values[lo:lo + end][starts]
            probs[size_out:top] = np.add.reduceat(probs[lo:lo + end], starts)
        size_out, lo = top, lo + end
    return size_out


def _atoms_float(v: tuple, p: tuple) -> AtomDistribution:
    values, probs = _sorted_atoms(v, p)
    if not probs.all():  # a bias of +-1 leaves zero-probability atoms
        values, probs = values[probs > 0.0], probs[probs > 0.0]
    # fold near-equal neighbours; the floor min(1, l1(v)) keeps it scale-invariant
    size = _sum_runs(values, probs, MERGE_RTOL, min(1.0, math.fsum(map(abs, v))))
    values, probs = values[:size], probs[:size]
    mass = float(probs.sum())
    if not abs(mass - 1.0) <= 1e-12:
        raise BoundViolation(f"float atom masses sum to {mass!r}, not 1")
    return AtomDistribution(values, probs, False, mass)


def linear_form_atoms(s: LinearFormSpec) -> AtomDistribution:
    """The exact law of the biased linear form, one atom per distinct value."""
    if s.n > ORACLE_MAX_DIM:
        raise DimensionTooLargeForOracle(f"oracle capped at n <= {ORACLE_MAX_DIM}, got {s.n}")
    if s.kind == EXACT:
        return _atoms_exact(s.v, s.p)
    return _atoms_float(s.v, s.p)


def _check_alpha(alpha) -> None:
    # ints and Fractions are finite; a NaN passes every comparison's guard
    if not isinstance(alpha, (int, Fraction)) and not math.isfinite(alpha):
        raise NonFiniteScalar(f"alpha must be finite, got {alpha}")
    if alpha < 0:
        raise NegativeAlpha(f"alpha must be >= 0, got {alpha}")


def levy_q(d: AtomDistribution, alpha) -> Number:
    """Concentration Q(alpha, X) = sup_t Pr[|X - t| < alpha].

    For a finite atomic law the supremum over open length-2*alpha windows is
    attained by windows anchored just below an atom: if the lowest atom
    captured by (t-alpha, t+alpha) is value_i, then the window's mass is at
    most the mass of [value_i, value_i + 2*alpha), and pushing t toward
    value_i + alpha realizes that mass in the limit.  So scanning the
    half-open windows [value_i, value_i + 2*alpha) is exact.  At alpha = 0
    every window is empty and Q is 0, with no scan.  For alpha > 0 a window
    always holds its anchor atom, so a float Q is at least the
    largest atom's mass, even where value_i + 2*alpha rounds to value_i or
    a difference of cumulative sums rounds below that mass.
    """
    _check_alpha(alpha)
    if alpha == 0:
        return Fraction(0) if d.exact else 0.0
    if d.exact:
        # value_j < value_i + 2*alpha  <=>  V_j*den(alpha) < V_i*den(alpha) + 2*num(alpha)*scale
        alpha = Fraction(alpha)
        width = 2 * alpha.numerator * d.scale
        keys = [x * alpha.denominator for x in d.points]
        cum = list(accumulate(d.weights, initial=0))
        best = max(cum[bisect_left(keys, key + width, i)] - cum[i] for i, key in enumerate(keys))
        return Fraction(best, d.denom)
    # Windows in blocks of _SCAN_BLOCK anchors.  Window ends grow with their
    # anchors, so a block's ends lie between those of its first anchor and of
    # the next block's first anchor; only that slice of vals is searched.
    # The prefix sums cum[i] = probs[0] + ... + probs[i - 1] are never held
    # whole: one pass keeps them at each block's first anchor (marks) and at
    # each bound and finds the largest atom mass, and a visit sums its
    # anchors' from its mark and its window ends' from its first bound, both
    # by _prefix_sums, _FOLD_BLOCK at a time, so no buffer grows with the
    # windows' reach or the block's length, and any pair of blocks works.  cum
    # is non-decreasing and a rounded difference is monotone in both
    # arguments, so no window mass of block k exceeds its computed
    # ub[k] = cum[bounds[k + 1]] - cum[lo].  Blocks are visited by decreasing
    # ub, and once ub[k] <= best no later block can raise the maximum.
    vals, probs = d.points, d.weights
    width = 2.0 * float(alpha)
    firsts = np.arange(0, vals.size, _SCAN_BLOCK)
    bounds = np.append(np.searchsorted(vals, vals[firsts] + width, side="left"), vals.size)
    buf = np.empty(_FOLD_BLOCK + 1)
    checkpoints = np.sort(np.concatenate((firsts, bounds)))
    sums, top = _prefix_sums(probs, 0, 0.0, checkpoints, buf)
    marks = sums[np.searchsorted(checkpoints, firsts)]
    ends_at = sums[np.searchsorted(checkpoints, bounds)]
    ub = ends_at[1:] - marks
    best = 0.0
    for k in np.argsort(ub)[::-1]:  # only the visited blocks' entries are read
        if ub[k] <= best:
            break
        lo, first, last = int(firsts[k]), int(bounds[k]), int(bounds[k + 1])
        hi = min(lo + _SCAN_BLOCK, vals.size)
        ends = np.searchsorted(vals[first:last], vals[lo:hi] + width, side="left")
        masses = _prefix_sums(probs, first, ends_at[k], ends, buf)[0]
        masses -= _prefix_sums(probs, lo, marks[k], np.arange(hi - lo), buf)[0]
        best = max(best, float(masses.max()))
    return max(best, top)


def _prefix_sums(probs: np.ndarray, start: int, prefix: float, at: np.ndarray,
                 buf: np.ndarray) -> tuple[np.ndarray, float]:
    # The prefix sums probs[0] + ... + probs[start + j - 1] at the sorted
    # offsets j in at, from prefix, the sum before start, and the largest of the
    # probs summed (taken while each chunk is in cache: a second pass over the
    # 2^22 atoms of n = 22 took about 7 ms).  probs[start:] is summed in chunks
    # of buf.size - 1, each chunk's sum carried into the next in buf[0];
    # np.cumsum adds in sequence, so these are the bits of one cumulative sum
    # over all of probs.
    out = np.empty(at.size)
    lo = i = 0
    top = 0.0
    stop = int(at[-1])
    buf[0] = prefix
    while True:
        hi = min(lo + buf.size - 1, stop)
        run = buf[:hi - lo + 1]
        run[1:] = probs[start + lo:start + hi]
        top = max(top, float(run[1:].max(initial=0.0)))
        np.cumsum(run, out=run)
        j = at.size if hi == stop else int(np.searchsorted(at, hi, side="right"))
        np.take(run, at[i:j] - lo, out=out[i:j], mode="clip")
        if j == at.size:
            return out, top
        buf[0], lo, i = run[-1], hi, j


def levy_scaling_check(d: AtomDistribution, alpha, k: int) -> tuple[Number, Number, bool]:
    """Evaluate Q(k*alpha) against k*Q(alpha); the first never exceeds the second."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    lhs = levy_q(d, k * alpha)
    rhs = k * levy_q(d, alpha)
    return lhs, rhs, float(lhs) <= float(rhs) + 1e-12


def sperner_bound(a: int) -> Fraction:
    """Largest antichain fraction of an a-dimensional subcube: C(a, floor(a/2)) / 2^a."""
    if a < 1:
        raise ValueError("a must be >= 1")
    return Fraction(math.comb(a, a // 2), 1 << a)


def _require_small_bias(s: LinearFormSpec) -> None:
    # Fraction-vs-float comparison is exact in Python, so one test covers both kinds.
    if max(abs(x) for x in s.p) > 0.5:
        raise BiasTooLarge("bound checks require max |p_i| <= 1/2")


def small_ball(s: LinearFormSpec, alpha) -> tuple[int, Number, float, Fraction | None]:
    """The small-ball numbers of X = <v, x>: a = #{i : |v_i| >= alpha},
    q = Q(alpha, X), ratio = q*sqrt(a) and the Sperner bound
    C(a, floor(a/2)) / 2^a (None when a = 0)."""
    _check_alpha(alpha)
    q = levy_q(linear_form_atoms(s), alpha)
    a = sum(1 for vi in s.v if abs(vi) >= alpha)
    return a, q, float(q) * math.sqrt(a), sperner_bound(a) if a >= 1 else None


def littlewood_check(s: LinearFormSpec, alpha) -> tuple[int, Number, float]:
    """Small-ball check: a = #{i : |v_i| >= alpha}, q = Q(alpha, X), ratio = q*sqrt(a).

    In the unbiased case (p = 0) the exact Sperner bound applies and is
    checked, raising BoundViolation: q <= C(a, floor(a/2)) / 2^a <= 1/sqrt(a).
    Biased cases are report-only because the universal constant is not
    pinned down.
    """
    _require_small_bias(s)
    a, q, ratio, bound = small_ball(s, alpha)
    if bound is not None and all(pi == 0 for pi in s.p):
        within = q <= bound if s.kind == EXACT else float(q) <= float(bound) + 1e-12
        if not (within and ratio <= 1.0 + 1e-12):
            raise BoundViolation(f"Q(alpha, X) = {q} breaks the Sperner bound {bound} (a = {a})")
    return a, q, ratio


def group_bound_r(v: Sequence, alpha, n: int) -> int:
    """Largest integer r >= 0 such that at least 2*r*ln(n) dyadic scales j of v
    satisfy 2^(-j-1) >= alpha."""
    _check_alpha(alpha)
    if n < 2:
        raise DimensionTooSmall("scale count bound needs n >= 2")
    d = decomp.binary_decompose(list(v))
    # Fraction comparisons are exact against Fraction, int and float alpha alike
    count = sum(1 for j in d.parts if decomp._pow2(j + 1) >= alpha)
    return int(count / (2.0 * math.log(n)))


def group_bound_check(s: LinearFormSpec, alpha, n: int) -> tuple[int, Number, float]:
    """Report q = Q(alpha, X) against the 2^-r scale-decay shape: returns
    (r, q, q * 2^r).  The constant hidden in the decay bound is unknown, so
    the ratio is reported rather than asserted."""
    _require_small_bias(s)
    r = group_bound_r(s.v, alpha, n)
    q = levy_q(linear_form_atoms(s), alpha)
    return r, q, float(q) * math.ldexp(1.0, r)


def hoeffding_check(s: LinearFormSpec, sigma: float, samples: int, rng) -> tuple[float, float]:
    """Empirical two-sided tail Pr[|X - <v,p>| > sigma*||v||_2] against the
    Hoeffding bound 2*exp(-sigma^2/2); raises BoundViolation unless the
    empirical frequency stays within four standard errors of the bound."""
    if not sigma > 0:  # NaN too
        raise ValueError("sigma must be positive")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    gen = as_generator(rng)
    v = np.array([float(x) for x in s.v])
    p = np.array([float(x) for x in s.p])
    mean = float(v @ p)
    dev = sigma * math.sqrt(float(v @ v))
    P = np.broadcast_to(p, (samples, v.size))
    count = 0
    for part in row_slices(*P.shape):
        x = batch_mu(P[part], gen).astype(np.float64)
        count += int(np.count_nonzero(np.abs(x @ v - mean) > dev))
    emp = count / samples
    bound = 2.0 * math.exp(-sigma * sigma / 2.0)
    se = math.sqrt(emp * (1.0 - emp) / samples)
    if not emp <= bound + 4.0 * se:
        raise BoundViolation(f"empirical tail {emp!r} exceeds the Hoeffding bound {bound!r} + 4 SE")
    return emp, bound
