"""Exhaustive verification that a configuration slices every edge of the n-cube.

The sweep is blocked: each vertex mask splits into its low b bits and its
high n - b bits (b = min(n, _BLOCK_BITS)), and one block holds the 2^b
vertices that share a high part.  A vertex's side value <v, u> - t is a
low-part table entry plus a per-block offset; both tables come from the
doubling recursion over coordinates (one flip adds or removes 2*v_k), so a
block costs one addition per plane and vertex.  Edges along low axes k < b
join two vertices of the same block.  On a high axis k >= b, only blocks
whose high bit k - b is clear hold base vertices, and the other endpoint's
side is the base side plus 2*v_k (the endpoint identity), so no partner
block is built.  Memory is O(m * 2^b) per worker plus the m * 2^(n-b)
offsets.

Each edge is visited once in canonical form: the base vertex has coordinate
-1 on the edge axis.  Exact-kind planes are scaled to integers by clearing
denominators; the int64 fast path falls back to arbitrary-precision object
arrays when scaled magnitudes approach 2^63, so exact verification never
overflows.
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
_BLOCK_BITS = 13
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


def _int_plane(h: Hyperplane) -> tuple[list[int], int]:
    """Clear denominators: integer coefficients plus integer threshold."""
    den = math.lcm(*(c.denominator for c in h.coeffs), h.threshold.denominator)
    return [int(c * den) for c in h.coeffs], int(h.threshold * den)


def _plane_stack(c: Configuration) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The planes as an (m, n) coefficient array, m thresholds and m float
    zero tolerances (None in exact arithmetic).

    Exact planes are int64 when 2 * (l1(v) + |t|) stays below the guard for
    every plane.  That bound covers every intermediate of the sweep (the
    doubled partial sums, the offsets, 2 * v_k and every side value);
    otherwise the stack holds arbitrary-precision Python integers.
    """
    if c.kind == EXACT:
        rows = [_int_plane(h) for h in c.planes]
        fits = all(2 * (sum(abs(x) for x in cs) + abs(t)) < _INT64_GUARD for cs, t in rows)
        dtype = np.int64 if fits else object
        coeffs = np.array([cs for cs, _ in rows], dtype=dtype).reshape(c.m, c.n)
        return coeffs, np.array([t for _, t in rows], dtype=dtype), None
    coeffs = np.array([h.coeffs for h in c.planes], dtype=np.float64).reshape(c.m, c.n)
    thresholds = np.array([h.threshold for h in c.planes], dtype=np.float64)
    return coeffs, thresholds, zero_tolerance(coeffs, thresholds)


def _subset_sums(cs: np.ndarray) -> np.ndarray:
    """(m, d) coefficients -> (m, 2^d): each row's sum over the set bits of
    every mask, by the doubling recursion."""
    s = np.zeros((cs.shape[0], 1), dtype=cs.dtype)
    for i in range(cs.shape[1]):
        s = np.concatenate([s, s + cs[:, i : i + 1]], axis=1)
    return s


def verify_slicing(c: Configuration, threads: int = 1) -> SlicingReport:
    """Test every edge of the n-cube against every plane under c.mode.

    Deterministic and independent of the thread count: the blocks are split
    into contiguous runs, per-run counts are integers, and the merge folds
    the runs in block order.
    """
    n, m = c.n, c.m
    if n > VERIFY_MAX_DIM:
        raise DimensionTooLarge(f"exhaustive verification capped at n <= {VERIFY_MAX_DIM}")
    start = time.perf_counter()
    relaxed = c.mode == RELAXED
    b = min(n, _BLOCK_BITS)
    coeffs, thresholds, tol = _plane_stack(c)
    # side(h * 2^b + lo) = low[:, lo] + off[:, h], with low = 2*S_low - sum(v) - t
    # and off = 2*S_high for the subset sums S of the low and the high coefficients
    low = 2 * _subset_sums(coeffs[:, :b]) - coeffs.sum(axis=1)[:, None] - thresholds[:, None]
    off = 2 * _subset_sums(coeffs[:, b:])
    twice = 2 * coeffs
    tol_low, tol_high = (None, None) if tol is None else (tol[:, None, None], tol[:, None])

    def sweep_run(first: int, stop: int):
        # per-plane crossings, unsliced count and, per axis, the first
        # _SAMPLE_CAP unsliced compressed indices of blocks first..stop-1
        counts = [0] * m
        unsliced = 0
        samples: list[list[int]] = [[] for _ in range(n)]
        for h in range(first, stop):
            side = low + off[:, h : h + 1]
            for k in range(n):
                if k < b:
                    # halves[:, high, bit k, low]: the block's canonical axis-k
                    # edge with index high * 2^k + low joins [..., 0, low] and
                    # [..., 1, low], and the block's edges follow the 2^(b-1)
                    # edges of the blocks before it
                    halves = side.reshape(m, 1 << (b - 1 - k), 2, 1 << k)
                    cross = sign_pair_crossings(halves[:, :, 0, :], halves[:, :, 1, :], tol_low, relaxed)
                    first_edge = h << (b - 1)
                else:
                    j = k - b
                    if (h >> j) & 1:
                        continue
                    cross = sign_pair_crossings(side, side + twice[:, k : k + 1], tol_high, relaxed)
                    # h with bit j removed, times 2^b: the block's first edge index
                    first_edge = (((h >> (j + 1)) << j) | (h & ((1 << j) - 1))) << b
                for ell, plane_cross in enumerate(cross):
                    counts[ell] += int(np.count_nonzero(plane_cross))
                hit = cross.any(axis=0)
                missing = hit.size - int(np.count_nonzero(hit))
                if missing:
                    unsliced += missing
                    room = _SAMPLE_CAP - len(samples[k])
                    if room > 0:
                        samples[k].extend((np.flatnonzero(~hit)[:room] + first_edge).tolist())
        return counts, unsliced, samples

    nblocks = 1 << (n - b)
    runs = max(1, min(threads, nblocks))
    cuts = [nblocks * r // runs for r in range(runs + 1)]
    if runs > 1:
        with ThreadPoolExecutor(max_workers=runs) as ex:
            results = list(ex.map(sweep_run, cuts[:-1], cuts[1:]))
    else:
        results = [sweep_run(0, nblocks)]

    per_plane = tuple(sum(col) for col in zip(*(counts for counts, _, _ in results)))
    sample: list[Edge] = []
    for k in range(n):
        comps = [comp for _, _, samples in results for comp in samples[k]]
        sample += [Edge(Vertex(n, canonical_base(k, comp)), k) for comp in comps[: _SAMPLE_CAP - len(sample)]]

    elapsed = (time.perf_counter() - start) * 1000.0
    return SlicingReport(
        n=n,
        m=m,
        total_edges=total_edges(n),
        unsliced_count=sum(unsliced for _, unsliced, _ in results),
        unsliced_sample=tuple(sample),
        per_plane_crossings=per_plane,
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
