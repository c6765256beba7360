"""Exhaustive verification that a configuration slices every edge of the n-cube.

The sweep is blocked twice over the bits of the vertex mask.  A block holds
the 2^b vertices that share their high n - b bits (b = min(n, _BLOCK_BITS)),
and a superblock the 2^B vertices that share their high n - B bits
(B = min(n, _PACK_BITS), b <= B), that is 2^(B-b) consecutive blocks.  A
vertex's side value <v, u> - t is a low-part table entry plus a per-block
offset; both tables come from the doubling recursion over coordinates (one
flip adds or removes 2*v_k).

Sides are classified by rank, never vertex by vertex.  Each plane's low-part
table is sorted once per run, and every low vertex keeps its int16 rank in
that order.  Within a block the side is low + off for one offset off, and
the classes of core.side_bits (positive, nonzero: the one zero rule) are
monotone in low, floats included, since rounding is monotone.  So a block's
positive sides are a suffix of the sorted order and its negative sides a
prefix, and two cuts per plane and block, found by a binary search that
evaluates side_bits on the sorted table, classify all of its vertices by
int16 compares of the ranks.  The classes are bit-packed into the
superblock's 64-bit words, vertex lo at bit lo % 64 of word lo // 64.  The
crossing rule (core.crossing_bits) then runs in three kinds of pass:
- a word-internal axis k < 6 pairs each word with itself shifted right by
  2^k, under the mask of the positions whose bit k is clear;
- a packed axis 6 <= k < B pairs the superblock's words 2^(k-6) apart;
- on a high axis k >= B, only superblocks whose bit k - B is clear hold
  base vertices, and the other endpoint's side is the base side plus 2*v_k
  (the endpoint identity).  (low + off) + 2*v_k is monotone in low as
  well, so its cuts come from the same search; its classes are packed one
  block at a time, and no partner superblock is built.
The cuts of a superblock's blocks, for its base sides and each high axis
whose bit is clear, are searched together, so a worker holds at most
2 * m * (n - B + 1) * 2^(B-b) cuts at a time.  Per-plane counts are
popcounts, the union is an OR over planes, and the unsliced bits are
unpacked to edge indices only while the sample has room.  Blocks of fewer
than 64 vertices (b < 6) are classified a word at a time, and a superblock
of fewer than 64 (B < 6) fills one word in part.

Thread runs split the superblocks.  Each worker allocates its buffers once
and every pass writes into them: a block's two boolean classes (2 * m * 2^b
bytes) and four word arrays of m * 2^(B-6) words (the superblock's two
classes and two for the partners of a pass), about m * (2 * 2^b + 2^(B-1))
bytes per worker (1.7 MB at m = 21, b = 13, B = 17).  All workers share the
sorted low-part tables (m * 2^b scalars), the ranks (m * 2^b int16) and the
m * 2^(n-b) offsets.

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
    crossing_bits,
    side_bits,
    total_edges,
    zero_tolerance,
)
from .errors import BoundViolation, DimensionTooLarge, NonFiniteScalar

VERIFY_MAX_DIM = 28
_SAMPLE_CAP = 100
_BLOCK_BITS = 13
_PACK_BITS = 17
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
    otherwise the stack holds arbitrary-precision Python integers.  Float
    planes need the same bound to be a finite double (NonFiniteScalar
    otherwise).
    """
    if c.kind == EXACT:
        rows = [_int_plane(h) for h in c.planes]
        fits = all(2 * (sum(abs(x) for x in cs) + abs(t)) < _INT64_GUARD for cs, t in rows)
        dtype = np.int64 if fits else object
        coeffs = np.array([cs for cs, _ in rows], dtype=dtype).reshape(c.m, c.n)
        return coeffs, np.array([t for _, t in rows], dtype=dtype), None
    # the int64 guard's float twin: past it a side value, an offset or 2 * v_k
    # is infinite, and inf - inf sides are NaN
    if not all(math.isfinite(2 * (sum(abs(x) for x in h.coeffs) + abs(h.threshold))) for h in c.planes):
        raise NonFiniteScalar("2 * (l1(v) + |t|) overflows a double; use exact mode")
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


def _side_tables(coeffs, thresholds, b: int):
    """The sweep's side tables for blocks of 2^b vertices.

    side(h * 2^b + lo) = low[:, lo] + off[:, h], with low = 2*S_low - sum(v) - t
    and off = 2*S_high for the subset sums S of the low and the high
    coefficients.  Returns each plane's low sides in sorted order, the int16
    rank of every low vertex in that order (a stable argsort; ranks stay
    below 2^b <= 2^13), off, and the shifts: column 0 adds nothing (the
    base side) and column k + 1 adds 2 * v_k (the partner across axis k).
    """
    # off first: its doubling transients are the largest at n > 2b, and the
    # sort's would add to them
    off = 2 * _subset_sums(coeffs[:, b:])
    low = 2 * _subset_sums(coeffs[:, :b]) - coeffs.sum(axis=1)[:, None] - thresholds[:, None]
    order = np.argsort(low, axis=1, kind="stable")
    rank = np.empty(low.shape, dtype=np.int16)
    np.put_along_axis(rank, order, np.arange(low.shape[1], dtype=np.int16)[None, :], axis=1)
    shifts = np.concatenate([np.zeros_like(coeffs[:, :1]), 2 * coeffs], axis=1)
    return np.take_along_axis(low, order, axis=1), rank, off, shifts


def _cuts(ordered, offsets, shifts, tol):
    """Where each block's classes change in the sorted low order.

    For block offsets o = offsets[:, i] and shifts w = shifts[:, a], a
    vertex's side is (low + o) + w, and side_bits' classes of it are
    monotone in low (float rounding is monotone too): the positive sides
    are a suffix of the sorted order and the negative ones a prefix.
    cut[0, :, a, i] counts the sides that are not positive and cut[1, :, a, i]
    the negative ones, each found by a binary search that evaluates
    side_bits on the sweep's own arithmetic.  Returns int16 of shape
    (2, m, shifts, blocks); tol is None or broadcasts against (m, 1, 1).
    """
    m, size = ordered.shape
    flat = ordered.reshape(-1)
    # the searches run on flat indices, from each plane's first entry
    first = np.arange(0, m * size, size)[:, None, None]
    cut = np.broadcast_to(first, (2, m, shifts.shape[1], offsets.shape[1])).copy()
    o, w = offsets[:, None, :], shifts[:, :, None]
    # binary lifting: steps size/2 .. 1 leave cut at min(count, size - 1),
    # and one more probe at cut itself settles count = size
    for step in [size >> i for i in range(1, size.bit_length())] + [1]:
        side = flat.take(cut + (step - 1))
        side += o
        side += w
        before, nz = side_bits(side, tol)
        np.invert(before, out=before)
        before[1] &= nz[1]
        np.add(cut, step, out=cut, where=before)
    cut -= first
    return cut.astype(np.int16)


def _classify(rank, cut, out):
    """(positive, nonzero) of the blocks whose cuts are cut[:, :, i], from
    the low vertices' ranks, into out (2, m, blocks * 2^b): positive is
    rank >= cut[0], negative is rank < cut[1]."""
    (m, size), blocks = rank.shape, cut.shape[-1]
    pos, nz = out.reshape(2, m, blocks, size)
    np.greater_equal(rank[:, None, :], cut[0, :, :, None], out=pos)
    np.less(rank[:, None, :], cut[1, :, :, None], out=nz)
    nz |= pos
    return out


def _clear_bit_mask(k: int) -> int:
    """The positions 0..63 whose bit k is clear, as a 64-bit word."""
    return sum(1 << p for p in range(64) if not (p >> k) & 1)


def verify_slicing(c: Configuration, threads: int = 1) -> SlicingReport:
    """Test every edge of the n-cube against every plane under c.mode.

    Deterministic and independent of the thread count: the superblocks are
    split into contiguous runs, per-run counts are integers, and the merge
    folds the runs in superblock order.
    """
    n, m = c.n, c.m
    if n > VERIFY_MAX_DIM:
        raise DimensionTooLarge(f"exhaustive verification capped at n <= {VERIFY_MAX_DIM}")
    start = time.perf_counter()
    relaxed = c.mode == RELAXED
    B = min(n, _PACK_BITS)
    b = min(B, _BLOCK_BITS)
    # a unit is what one classification covers: one block, or the blocks that
    # share one word when blocks are shorter than 64 vertices
    u = max(b, min(B, 6))
    coeffs, thresholds, tol = _plane_stack(c)
    ordered, rank, off, shifts = _side_tables(coeffs, thresholds, b)
    tol = None if tol is None else tol[:, None, None]
    words, unit_words = 1 << max(0, B - 6), 1 << max(0, u - 6)
    unit_bytes = 1 << max(0, u - 3)
    # the word bits that are superblock positions (all of them unless
    # B < 6), and for a word-internal axis k < 6 those whose bit k is
    # clear: the base vertices of the axis-k edges
    valid = (1 << (1 << B)) - 1 if B < 6 else (1 << 64) - 1
    bases = [np.uint64(_clear_bit_mask(k) & valid) for k in range(min(B, 6))]
    valid = np.uint64(valid)

    def sweep_run(first: int, stop: int):
        # per-plane crossings, unsliced count and, per axis, the first
        # _SAMPLE_CAP unsliced compressed indices of superblocks first..stop-1
        counts = np.zeros(m, dtype=np.int64)
        unsliced = 0
        samples: list[list[int]] = [[] for _ in range(n)]
        # every buffer is allocated once per run; the passes write in place
        classes = np.empty((2, m, 1 << u), dtype=bool)
        pos, nz = np.zeros((2, m, words), dtype=np.uint64)
        unit_pos, unit_nz = np.zeros((2, m, unit_words), dtype=np.uint64)
        # flat, so that the half-size cross words of a word-pair pass are a
        # contiguous prefix
        shifted_pos, shifted_nz = np.empty((2, m * words), dtype=np.uint64)
        ones = np.empty(m * words, dtype=np.uint8)
        miss = np.empty(words, dtype=np.uint64)

        def pack(cut, pw, nw, slot):
            # classify one unit's blocks by their cuts into words slot*unit_words.. of pw, nw
            at = slot * unit_words * 8
            for x, dst in zip(_classify(rank, cut, classes), (pw, nw)):
                dst.view(np.uint8)[:, at : at + unit_bytes] = np.packbits(x, axis=-1, bitorder="little")

        def tally(k, cross, todo, first_edge):
            nonlocal counts, unsliced
            size = cross.shape[-1]
            popcounts = np.bitwise_count(cross, out=ones[: m * size].reshape(m, size))
            counts += popcounts.sum(axis=-1, dtype=np.int64)
            lost = np.bitwise_or.reduce(cross, axis=0, out=miss[:size])
            np.invert(lost, out=lost)
            lost &= todo
            missing = int(np.bitwise_count(lost).sum())
            if missing:
                unsliced += missing
                room = _SAMPLE_CAP - len(samples[k])
                if room > 0:
                    at = np.flatnonzero(np.unpackbits(lost.view(np.uint8), bitorder="little"))[:room]
                    if k < min(B, 6):
                        # word position -> index among the axis-k edges
                        at = ((at >> (k + 1)) << k) | (at & ((1 << k) - 1))
                    samples[k].extend((at + first_edge).tolist())

        for sb in range(first, stop):
            # the cuts of the superblock's blocks: column 0 for the base sides,
            # then one per high axis k >= B whose bit k - B is clear (only
            # those superblocks hold base vertices of axis k, and the other
            # endpoint's side is the base side plus 2*v_k, the endpoint identity)
            axes = [k for k in range(B, n) if not (sb >> (k - B)) & 1]
            h = sb << (B - b)
            cuts = _cuts(ordered, off[:, h : h + (1 << (B - b))], shifts[:, [0] + [k + 1 for k in axes]], tol)
            for slot in range(1 << (B - u)):
                blocks = cuts[..., slot << (u - b) : (slot + 1) << (u - b)]
                pack(blocks[:, :, 0], pos, nz, slot)
                for a, k in enumerate(axes, 1):
                    j = k - B
                    pack(blocks[:, :, a], unit_pos, unit_nz, 0)
                    here = slice(slot * unit_words, (slot + 1) * unit_words)
                    cross = crossing_bits(pos[:, here], nz[:, here], unit_pos, unit_nz, relaxed, out=unit_pos)
                    # sb with bit j removed, times 2^B, plus the unit's offset
                    first_edge = ((((sb >> (j + 1)) << j) | (sb & ((1 << j) - 1))) << B) + (slot << u)
                    tally(k, cross, valid, first_edge)
            for k in range(B):
                if k < 6:
                    # the partner of position p is p + 2^k in the same word
                    pw = np.right_shift(pos, 1 << k, out=shifted_pos.reshape(m, words))
                    nw = np.right_shift(nz, 1 << k, out=shifted_nz.reshape(m, words))
                    cross = crossing_bits(pos, nz, pw, nw, relaxed, out=pw)
                    cross &= bases[k]
                    tally(k, cross, bases[k], sb << (B - 1))
                else:
                    # words[:, high, bit k, low]: the axis-k edges of word
                    # high * 2^(k-6) + low, in compressed order, join
                    # [..., 0, low] and [..., 1, low]
                    pairs = (m, 1 << (B - 1 - k), 2, 1 << (k - 6))
                    p, z = pos.reshape(pairs), nz.reshape(pairs)
                    out = shifted_pos[: m * words // 2].reshape(m, pairs[1], pairs[3])
                    crossing_bits(p[:, :, 0], z[:, :, 0], p[:, :, 1], z[:, :, 1], relaxed, out=out)
                    tally(k, out.reshape(m, words // 2), valid, sb << (B - 1))
        return counts, unsliced, samples

    nsuper = 1 << (n - B)
    runs = max(1, min(threads, nsuper))
    cuts = [nsuper * r // runs for r in range(runs + 1)]
    if runs > 1:
        with ThreadPoolExecutor(max_workers=runs) as ex:
            results = list(ex.map(sweep_run, cuts[:-1], cuts[1:]))
    else:
        results = [sweep_run(0, nsuper)]

    per_plane = tuple(int(x) for x in sum(counts for counts, _, _ in results))
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
