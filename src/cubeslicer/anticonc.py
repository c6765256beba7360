"""Biased linear forms, the exact Levy concentration oracle, and the
anti-concentration bound checks (Sperner / Littlewood-Offord, dyadic-scale
decay, Hoeffding tails).

The oracle represents the full law of X = <v, x> with x from the biased
product distribution as a finite list of (value, probability) atoms, built
by exhausting all 2^n sign vectors; its dimension cap keeps that affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from . import decomp
from .core import EXACT, FLOAT
from .errors import (
    BiasOutOfRange,
    BiasTooLarge,
    BoundViolation,
    DimensionMismatch,
    DimensionTooLargeForOracle,
    DimensionTooSmall,
    NegativeAlpha,
    NonFiniteEntry,
)
from .sampler import as_generator

ORACLE_MAX_DIM = 22
MERGE_RTOL = 1e-12

Number = Union[Fraction, float, int]


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) or isinstance(x, str)


def _to_exact(x) -> Fraction:
    return Fraction(x)


@dataclass(frozen=True)
class LinearFormSpec:
    """The random variable <v, x> where x has independent +-1 coordinates
    with means p.  Entries are normalized to all-Fraction (exact kind) when
    every input is an integer, Fraction, or "p/q" string, else to floats."""

    v: tuple
    p: tuple

    def __post_init__(self):
        if len(self.v) != len(self.p):
            raise DimensionMismatch("v and p must have equal lengths")
        if len(self.v) == 0:
            raise DimensionMismatch("empty linear form")
        if all(_is_exact(x) for x in self.v) and all(_is_exact(x) for x in self.p):
            v = tuple(_to_exact(x) for x in self.v)
            p = tuple(_to_exact(x) for x in self.p)
        else:
            v = tuple(float(Fraction(x)) if isinstance(x, str) else float(x) for x in self.v)
            p = tuple(float(Fraction(x)) if isinstance(x, str) else float(x) for x in self.p)
            if not all(math.isfinite(x) for x in v + p):
                raise NonFiniteEntry("linear form entries must be finite")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "p", p)
        if max(abs(x) for x in self.p) > 1:
            raise BiasOutOfRange("bias entries must lie in [-1, 1]")

    @property
    def kind(self) -> str:
        return EXACT if isinstance(self.v[0], Fraction) else FLOAT

    @property
    def n(self) -> int:
        return len(self.v)


@dataclass(frozen=True, eq=False)
class AtomDistribution:
    """A finite law as strictly increasing values with positive probabilities."""

    values: tuple
    probs: tuple
    exact: bool
    total_mass: Number

    def __len__(self) -> int:
        return len(self.values)


def _atoms_exact(v: tuple, p: tuple) -> AtomDistribution:
    # Coordinate-by-coordinate convolution with equal values merged at every
    # step; exact arithmetic makes this identical to enumerating all 2^n
    # sign vectors and merging afterwards.
    law = {Fraction(0): Fraction(1)}
    for vi, pi in zip(v, p):
        up = (1 + pi) / 2
        down = (1 - pi) / 2
        new: dict[Fraction, Fraction] = {}
        for val, pr in law.items():
            if up:
                key = val + vi
                new[key] = new.get(key, Fraction(0)) + pr * up
            if down:
                key = val - vi
                new[key] = new.get(key, Fraction(0)) + pr * down
        law = new
    items = sorted(law.items())
    values = tuple(val for val, _ in items)
    probs = tuple(pr for _, pr in items)
    mass = sum(probs)
    if mass != 1:
        raise BoundViolation(f"exact atom masses sum to {mass}, not 1")
    return AtomDistribution(values, probs, True, mass)


def _atoms_float(v: tuple, p: tuple) -> AtomDistribution:
    # Doubling enumeration over sign vectors: after coordinate i the arrays
    # hold all 2^(i+1) partial sums and their probabilities.
    values = np.zeros(1, dtype=np.float64)
    probs = np.ones(1, dtype=np.float64)
    for vi, pi in zip(v, p):
        up = (1.0 + pi) / 2.0
        down = (1.0 - pi) / 2.0
        values = np.concatenate([values - vi, values + vi])
        probs = np.concatenate([probs * down, probs * up])
    order = np.argsort(values, kind="stable")
    values = values[order]
    probs = probs[order]
    keep = probs > 0.0
    values = values[keep]
    probs = probs[keep]
    # fold runs of values equal within relative tolerance (sort then fold:
    # deterministic regardless of any internal parallelism)
    if values.size > 1:
        gap = values[1:] - values[:-1]
        tol = MERGE_RTOL * np.maximum(1.0, np.maximum(np.abs(values[1:]), np.abs(values[:-1])))
        starts = np.concatenate([[0], np.flatnonzero(gap > tol) + 1])
        merged_vals = values[starts]
        merged_probs = np.add.reduceat(probs, starts)
    else:
        merged_vals = values
        merged_probs = probs
    mass = float(merged_probs.sum())
    if not abs(mass - 1.0) <= 1e-12:
        raise BoundViolation(f"float atom masses sum to {mass!r}, not 1")
    return AtomDistribution(tuple(merged_vals.tolist()), tuple(merged_probs.tolist()), False, mass)


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
    half-open windows [value_i, value_i + 2*alpha) is exact.
    """
    if alpha < 0:
        raise NegativeAlpha(f"alpha must be >= 0, got {alpha}")
    if d.exact:
        a2 = 2 * Fraction(alpha)
        vals = d.values
        cum = [Fraction(0)]
        for pr in d.probs:
            cum.append(cum[-1] + pr)
        best = Fraction(0)
        hi = 0
        for i, v in enumerate(vals):
            if hi < i:
                hi = i
            top = v + a2
            while hi < len(vals) and vals[hi] < top:
                hi += 1
            mass = cum[hi] - cum[i]
            if mass > best:
                best = mass
        return best
    vals = np.asarray(d.values, dtype=np.float64)
    probs = np.asarray(d.probs, dtype=np.float64)
    cum = np.concatenate([[0.0], np.cumsum(probs)])
    ends = np.searchsorted(vals, vals + 2.0 * float(alpha), side="left")
    masses = cum[ends] - cum[: len(vals)]
    return float(masses.max()) if masses.size else 0.0


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
    if isinstance(alpha, (Fraction, int)):
        count = sum(1 for j in d.parts if decomp._pow2(j + 1) >= alpha)
    else:
        count = sum(1 for j in d.parts if math.ldexp(1.0, -j - 1) >= alpha)
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
        x = np.where(gen.random((b, v.size)) < (1.0 + p) / 2.0, 1.0, -1.0)
        count += int(np.count_nonzero(np.abs(x @ v - mean) > dev))
        left -= b
    emp = count / samples
    bound = 2.0 * math.exp(-sigma * sigma / 2.0)
    se = math.sqrt(emp * (1.0 - emp) / samples)
    if not emp <= bound + 4.0 * se:
        raise BoundViolation(f"empirical tail {emp!r} exceeds the Hoeffding bound {bound!r} + 4 SE")
    return emp, bound
