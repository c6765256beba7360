"""Exhaustive verification that a configuration slices every edge of the n-cube.

Per plane, the dot products over all 2^n vertices are built by a doubling
recursion over coordinates (one flip adds or removes 2*v_k, the incremental
Gray-walk identity).  Each edge is visited once in canonical form: the base
vertex has coordinate -1 on the edge axis.  Exact-kind planes are scaled to
integers by clearing denominators; the int64 fast path falls back to
arbitrary-precision object arrays when scaled magnitudes approach 2^63, so
exact verification never overflows.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    EXACT,
    RELAXED,
    STRICT,
    Configuration,
    Edge,
    Hyperplane,
    Vertex,
    canonical_base,
    sign_pair_crossings,
    total_edges,
    zero_tolerance,
)
from .errors import BoundViolation, DimensionTooLarge

VERIFY_MAX_DIM = 28
_SAMPLE_CAP = 100
_INT64_GUARD = 1 << 62


@dataclass(frozen=True)
class SlicingReport:
    """Outcome of an exhaustive edge sweep against a configuration."""

    n: int
    m: int
    total_edges: int
    unsliced_count: int
    unsliced_sample: tuple[Edge, ...]
    per_plane_crossings: tuple[int, ...]
    elapsed_ms: float

    @property
    def complete(self) -> bool:
        return self.unsliced_count == 0


def max_crossings_bound(n: int) -> int:
    """Counting bound: one hyperplane dissects at most ceil(n/2) * C(n, ceil(n/2)) edges."""
    if n < 1:
        raise ValueError("n must be >= 1")
    half = (n + 1) // 2
    return half * math.comb(n, half)


def _int_plane(h: Hyperplane) -> tuple[np.ndarray, int, int]:
    """Clear denominators: integer coefficients plus integer threshold.

    The magnitude bound covers every intermediate of the doubling recursion
    (2 * partial sums) as well as the final side values; above the int64
    guard the arrays fall back to arbitrary-precision Python integers.
    """
    den = math.lcm(*(c.denominator for c in h.coeffs), h.threshold.denominator)
    cs = [int(c * den) for c in h.coeffs]
    t = int(h.threshold * den)
    bound = 2 * (sum(abs(c) for c in cs) + abs(t))
    arr = np.array(cs, dtype=np.int64 if bound < _INT64_GUARD else object)
    return arr, t, bound


def _side_values(h: Hyperplane) -> tuple[np.ndarray, float | None]:
    """(<v, u> - t) over all 2^n vertices (mask order) plus the float zero tolerance."""
    if h.kind == EXACT:
        cs, t, _ = _int_plane(h)
        tol = None
    else:
        cs = np.array(h.coeffs, dtype=np.float64)
        t = h.threshold
        tol = zero_tolerance(cs, t)
    # S[mask] = sum of coefficients over set bits; dot = 2S - sum(coeffs)
    s = np.zeros(1, dtype=cs.dtype)
    for i in range(h.n):
        s = np.concatenate([s, s + cs[i]])
    return 2 * s - cs.sum() - t, tol


def verify_slicing(c: Configuration, threads: int = 1) -> SlicingReport:
    """Test every edge of the n-cube against every plane under c.mode.

    Deterministic and independent of the thread count: the vertex space is
    partitioned by edge axis, per-axis partial counts are integers, and the
    merge folds axes in order.
    """
    n = c.n
    if n > VERIFY_MAX_DIM:
        raise DimensionTooLarge(f"exhaustive verification capped at n <= {VERIFY_MAX_DIM}")
    start = time.perf_counter()
    relaxed = c.mode == RELAXED
    sides = [_side_values(h) for h in c.planes]

    def axis_task(k: int):
        # cube[high, bit k, low]: the canonical axis-k edge with compressed
        # index high * 2^k + low joins cube[high, 0, low] and cube[high, 1, low],
        # so the C-order flat index of `crossed` is the compressed index
        counts = [0] * c.m
        crossed = np.zeros((1 << (n - 1 - k), 1 << k), dtype=bool)
        for ell, (side, tol) in enumerate(sides):
            cube = side.reshape(-1, 2, 1 << k)
            cross = sign_pair_crossings(cube[:, 0, :], cube[:, 1, :], tol, relaxed)
            counts[ell] = int(np.count_nonzero(cross))
            crossed |= cross
        missing = np.flatnonzero(~crossed)
        bases = canonical_base(k, missing[:_SAMPLE_CAP])
        return counts, int(missing.size), [Edge(Vertex(n, int(b)), k) for b in bases]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            per_axis = list(ex.map(axis_task, range(n)))
    else:
        per_axis = [axis_task(k) for k in range(n)]

    per_plane = [0] * c.m
    unsliced = 0
    sample: list[Edge] = []
    for counts, miss, edges in per_axis:
        for ell in range(c.m):
            per_plane[ell] += counts[ell]
        unsliced += miss
        if len(sample) < _SAMPLE_CAP:
            sample.extend(edges[: _SAMPLE_CAP - len(sample)])

    elapsed = (time.perf_counter() - start) * 1000.0
    return SlicingReport(
        n=n,
        m=c.m,
        total_edges=total_edges(n),
        unsliced_count=unsliced,
        unsliced_sample=tuple(sample),
        per_plane_crossings=tuple(per_plane),
        elapsed_ms=elapsed,
    )


def crossing_counts(c: Configuration, threads: int = 1) -> tuple[int, ...]:
    """Edges crossed per plane.  In strict mode every count is checked
    against the counting bound (BoundViolation otherwise); relaxed mode can
    exceed it (a plane through a weight level touches every incident edge),
    so no check there."""
    report = verify_slicing(c, threads=threads)
    if c.mode == STRICT:
        bound = max_crossings_bound(c.n)
        if any(cnt > bound for cnt in report.per_plane_crossings):
            raise BoundViolation(f"crossings {report.per_plane_crossings} exceed the counting bound {bound}")
    return report.per_plane_crossings
