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

Float atoms are built already sorted: each coordinate doubles the sorted
atoms into two shifted sorted runs and merges them.  Their order is the
stable order of the sign vectors' enumeration, which a merge keeps only
while the values have no exact tie; on the first tie the atoms are
enumerated again in sign-vector order and stably sorted once.  Either way
the merge order is held as int32 indices, and near-equal neighbours are
compared in blocks, so the fold's one full-length temporary is a boolean
per atom.  The window scan searches each block of sorted window ends in a
short slice, and visits the blocks by decreasing upper bound on their
window masses, stopping at the first block whose bound cannot beat the best
mass found.
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
from .core import EXACT, FLOAT, as_scalar, scalar_kind
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
from .sampler import as_generator, batch_mu

ORACLE_MAX_DIM = 22
MERGE_RTOL = 1e-12
_SCAN_BLOCK = 1 << 12
_FOLD_BLOCK = 1 << 16

Number = Union[Fraction, float, int]


@dataclass(frozen=True)
class LinearFormSpec:
    """The random variable <v, x> where x has independent +-1 coordinates
    with means p.  Entries are normalized by core.as_scalar to the
    core.scalar_kind of all of v and p: all Fractions or all finite floats."""

    v: tuple
    p: tuple

    def __post_init__(self):
        if len(self.v) != len(self.p):
            raise DimensionMismatch("v and p must have equal lengths")
        if len(self.v) == 0:
            raise DimensionMismatch("empty linear form")
        kind = scalar_kind([*self.v, *self.p])
        object.__setattr__(self, "v", tuple(as_scalar(x, kind) for x in self.v))
        object.__setattr__(self, "p", tuple(as_scalar(x, kind) for x in self.p))
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
    probabilities themselves.  Exact kind: `points` are Python ints V_i and
    `weights` Python ints W_i with value_i = V_i / scale and prob_i =
    W_i / denom, where scale is the lcm of v's denominators and denom the
    product of 2*den(p_i); `values` and `probs` rebuild the Fractions when
    read."""

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


def _enumerated_atoms(v: tuple, p: tuple) -> tuple[np.ndarray, np.ndarray]:
    # Doubling enumeration over sign vectors in place, then one stable sort:
    # after coordinate i the first 2^(i+1) entries hold all partial sums and
    # their probabilities, the -v_i half first and the +v_i half at offset 2^i.
    size = 1 << len(v)
    values = np.empty(size, dtype=np.float64)
    probs = np.empty(size, dtype=np.float64)
    values[0] = 0.0
    probs[0] = 1.0
    half = 1
    for vi, pi in zip(v, p):
        up = (1.0 + pi) / 2.0
        down = (1.0 - pi) / 2.0
        low, high = slice(0, half), slice(half, 2 * half)
        np.add(values[low], vi, out=values[high])
        np.subtract(values[low], vi, out=values[low])
        np.multiply(probs[low], up, out=probs[high])
        np.multiply(probs[low], down, out=probs[low])
        half *= 2
    order = np.argsort(values, kind="stable").astype(np.int32)
    values = values[order]
    probs = probs[order]
    return values, probs


def _sorted_atoms(v: tuple, p: tuple) -> tuple[np.ndarray, np.ndarray] | None:
    # Sorted doubling: after coordinate i the atoms are the stable merge of
    # the sorted atoms shifted by -v_i (first) and by +v_i, which a stable
    # argsort of the two concatenated sorted runs does as one linear merge.
    # Each value and probability is _enumerated_atoms', made by the same
    # operations.  While the values are strictly increasing their order is
    # the only sorted one; a merge breaks an exact tie by earlier values, not
    # by sign vector, so the first tie returns None.  A tie never goes away,
    # as equal values get the same arithmetic from then on.
    values = np.zeros(1)
    probs = np.ones(1)
    for vi, pi in zip(v, p):
        half = values.size
        both = np.empty(2 * half)
        np.subtract(values, vi, out=both[:half])
        np.add(values, vi, out=both[half:])
        # each del frees a temporary before the next one is made.  The order
        # is kept as int32 (every index is below 2^ORACLE_MAX_DIM), half the
        # size of argsort's intp result, and numpy gathers with it in buffered
        # chunks, making no intp copy; at n = 22 the last step's float arrays
        # are 32 MB and its order 16 MB
        del values
        order = np.argsort(both, kind="stable").astype(np.int32)
        values = both[order]
        del both
        if np.any(values[1:] == values[:-1]):
            return None
        weights = np.empty(2 * half)
        np.multiply(probs, (1.0 - pi) / 2.0, out=weights[:half])
        np.multiply(probs, (1.0 + pi) / 2.0, out=weights[half:])
        del probs
        probs = weights[order]
        del weights, order
    return values, probs


def _atoms_float(v: tuple, p: tuple) -> AtomDistribution:
    # The atoms in the stable order of the sign vectors' enumeration: by
    # sorted doubling, or after an exact tie by enumerating and one stable sort
    values, probs = _sorted_atoms(v, p) or _enumerated_atoms(v, p)
    keep = probs > 0.0
    if not keep.all():
        values = values[keep]
        probs = probs[keep]
    del keep
    # fold runs of sorted neighbours a <= b with b - a within
    # MERGE_RTOL * max(floor, |a|, |b|), where max(|a|, |b|) = max(-a, b);
    # the floor min(1, l1(v)) keeps the fold scale-invariant below l1(v) = 1.
    # Neighbours are compared _FOLD_BLOCK at a time, so the gap and tolerance
    # temporaries stay small.
    if values.size > 1:
        floor = min(1.0, math.fsum(map(abs, v)))
        heads = np.empty(values.size, dtype=bool)
        heads[0] = True
        for lo in range(0, values.size - 1, _FOLD_BLOCK):
            hi = min(lo + _FOLD_BLOCK, values.size - 1)
            a, b = values[lo:hi], values[lo + 1:hi + 1]
            # atoms beyond +-9e307 may be an infinite gap apart, never folded
            with np.errstate(over="ignore"):
                gap = b - a
            tol = np.negative(a)
            np.maximum(tol, b, out=tol)
            np.maximum(tol, floor, out=tol)
            tol *= MERGE_RTOL
            np.greater(gap, tol, out=heads[lo + 1:hi + 1])
        if not heads.all():
            starts = np.flatnonzero(heads)
            values = values[starts]
            probs = np.add.reduceat(probs, starts)
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
    if alpha < 0:
        raise NegativeAlpha(f"alpha must be >= 0, got {alpha}")
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
    # cum is non-decreasing and a rounded difference is monotone in both
    # arguments, so no window mass of block k exceeds its computed
    # ub[k] = cum[bounds[k + 1]] - cum[lo].  Blocks are visited by decreasing
    # ub, and once ub[k] <= best no later block can raise the maximum.
    vals, probs = d.points, d.weights
    width = 2.0 * float(alpha)
    cum = np.empty(vals.size + 1, dtype=np.float64)
    cum[0] = 0.0
    np.cumsum(probs, out=cum[1:])
    firsts = np.arange(0, vals.size, _SCAN_BLOCK)
    bounds = np.append(np.searchsorted(vals, vals[firsts] + width, side="left"), vals.size)
    ub = cum[bounds[1:]] - cum[firsts]
    visit = np.argsort(ub)[::-1].tolist()
    ub, firsts, bounds = ub.tolist(), firsts.tolist(), bounds.tolist()
    best = 0.0
    for k in visit:
        if ub[k] <= best:
            break
        lo = firsts[k]
        hi = min(lo + _SCAN_BLOCK, vals.size)
        ends = np.searchsorted(vals[bounds[k]:bounds[k + 1]], vals[lo:hi] + width, side="left")
        ends += bounds[k]
        masses = cum[ends]
        masses -= cum[lo:hi]
        best = max(best, float(masses.max()))
    return max(best, float(probs.max()))


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


def littlewood_check(s: LinearFormSpec, alpha) -> tuple[int, Number, float]:
    """Small-ball check: a = #{i : |v_i| >= alpha}, q = Q(alpha, X), ratio = q*sqrt(a).

    In the unbiased case (p = 0) the exact Sperner bound applies and is
    checked, raising BoundViolation: q <= C(a, floor(a/2)) / 2^a <= 1/sqrt(a).
    Biased cases are report-only because the universal constant is not
    pinned down.
    """
    _require_small_bias(s)
    if alpha < 0:
        raise NegativeAlpha(f"alpha must be >= 0, got {alpha}")
    d = linear_form_atoms(s)
    a = sum(1 for vi in s.v if abs(vi) >= alpha)
    q = levy_q(d, alpha)
    ratio = float(q) * math.sqrt(a)
    if a >= 1 and all(pi == 0 for pi in s.p):
        bound = sperner_bound(a)
        within = q <= bound if s.kind == EXACT else float(q) <= float(bound) + 1e-12
        if not (within and ratio <= 1.0 + 1e-12):
            raise BoundViolation(f"Q(alpha, X) = {q} breaks the Sperner bound {bound} (a = {a})")
    return a, q, ratio


def group_bound_r(v: Sequence, alpha, n: int) -> int:
    """Largest integer r >= 0 such that at least 2*r*ln(n) dyadic scales j of v
    satisfy 2^(-j-1) >= alpha."""
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


_HOEFFDING_CHUNK = 1 << 14


def hoeffding_check(s: LinearFormSpec, sigma: float, samples: int, rng) -> tuple[float, float]:
    """Empirical two-sided tail Pr[|X - <v,p>| > sigma*||v||_2] against the
    Hoeffding bound 2*exp(-sigma^2/2); raises BoundViolation unless the
    empirical frequency stays within four standard errors of the bound."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    gen = as_generator(rng)
    v = np.array([float(x) for x in s.v])
    p = np.array([float(x) for x in s.p])
    mean = float(v @ p)
    dev = sigma * math.sqrt(float(v @ v))
    count = 0
    left = samples
    while left > 0:
        b = min(left, _HOEFFDING_CHUNK)
        x = batch_mu(np.broadcast_to(p, (b, v.size)), gen).astype(np.float64)
        count += int(np.count_nonzero(np.abs(x @ v - mean) > dev))
        left -= b
    emp = count / samples
    bound = 2.0 * math.exp(-sigma * sigma / 2.0)
    se = math.sqrt(emp * (1.0 - emp) / samples)
    if not emp <= bound + 4.0 * se:
        raise BoundViolation(f"empirical tail {emp!r} exceeds the Hoeffding bound {bound!r} + 4 SE")
    return emp, bound
