"""Exhaustive verification that a configuration slices every edge of the n-cube.

The sweep is blocked twice over the bits of the vertex mask.  A block holds
the 2^b vertices that share their high n - b bits (b = min(n, _BLOCK_BITS)),
and a superblock the 2^B vertices that share their high n - B bits
(B = min(n, _PACK_BITS), b <= B), that is 2^(B-b) consecutive blocks.  A
vertex's side value <v, u> - t is a low-part table entry plus its block's
offset, low + off, both tables from the doubling recursion over
coordinates.  Every vertex the sweep classifies, as a base or as a
partner, has that one side value, in float arithmetic too.

Sides are classified by rank, never vertex by vertex.  Each plane's low-part
table is sorted once per sweep, and every low vertex keeps its int16 rank in
that order.  Within a block the side is low + off for one offset off, and
the classes of core.side_bits (positive, nonzero: the one zero rule) are
monotone in low, floats included, since rounding is monotone.  So a block's
positive sides are a suffix of the sorted order and its negative sides a
prefix, and two cuts per plane and block, found by a binary search that
evaluates side_bits on the sorted table, classify all of its vertices by
int16 compares of the ranks (_classify).  cut[0] counts a plane's
non-positive sides and cut[1] its negative ones, so where they agree on
every plane no side of the block is zero: only its positive class is
computed, and its nonzero words are the packed all-ones block (2^b one
bits, the bits past them clear when b < 3, as in any packed block).  The
classes are bit-packed into the superblock's 64-bit words, vertex lo at
bit lo % 64 of word lo // 64.  The crossing rule (core.crossing_bits) then
runs in four kinds of pass:
- a word-internal axis k < 6 pairs each word with itself shifted right by
  2^k, under the mask of the positions whose bit k is clear;
- a packed axis 6 <= k < B pairs the superblock's words 2^(k-6) apart;
- axis B pairs superblocks 2t and 2t + 1, which differ in bit B alone:
  the two pack their classes into different pairs of word arrays, so the
  even one's classes are still there as the odd one's partners;
- on a high axis k > B, only superblocks sb whose bit k - B is clear hold
  base vertices, and the partners are the vertices of superblock
  sb | 2^(k-B), classified by their own blocks' cuts and packed for the
  whole superblock into the partner words, idle until the word-internal
  passes.
The cuts of a superblock's blocks and of its high-axis partners' blocks
are searched together, one search per superblock, so the sweep holds at
most 2 * m * max(1, n - B) * 2^(B-b) cuts at a time.  Per-plane counts are
popcounts, the union is an OR over planes, and the unsliced bits are
unpacked to edge indices only while the sample has room, and only up to
the word that holds the last one it keeps.  Every axis tallies its edges
in increasing order.  Since _BLOCK_BITS >= 6, a block fills whole words
unless it is the whole superblock (b = B = n < 6), which then fills one
word in part.

The superblocks are swept in order on the calling thread.  The sweep's
buffers are allocated once and every pass writes into them: a block's two
boolean classes (2 * m * 2^b bytes) and two pairs of word arrays of
m * 2^(B-6) words each, about m * (2 * 2^b + 2^(B-1)) bytes (1.7 MB at
m = 21, b = 13, B = 17).  A superblock packs its two classes into the pair
of its parity and uses the other for the partners of its passes, so an
even superblock's classes outlive its own passes, into its odd
neighbour's axis-B pass.  They sit next to the sorted low-part tables
(m * 2^b scalars), the ranks (m * 2^b int16) and the m * 2^(n-b) offsets.

Each edge is visited once in canonical form: the base vertex has coordinate
-1 on the edge axis.  Exact-kind planes are scaled to integers by clearing
denominators; the int64 fast path falls back to arbitrary-precision object
arrays when scaled magnitudes approach 2^63, so exact verification never
overflows.
"""

from __future__ import annotations

import math
import time
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
# the packing needs _BLOCK_BITS >= 6 (see the module docstring)
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
    doubled partial sums, the offsets and every side value);
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
    # the int64 guard's float twin: past it a side value or an offset is
    # infinite, and inf - inf sides are NaN
    if not all(math.isfinite(2 * (sum(abs(x) for x in h.coeffs) + abs(h.threshold))) for h in c.planes):
        raise NonFiniteScalar("2 * (l1(v) + |t|) overflows a double; use exact mode")
    coeffs = np.array([h.coeffs for h in c.planes], dtype=np.float64).reshape(c.m, c.n)
    thresholds = np.array([h.threshold for h in c.planes], dtype=np.float64)
    return coeffs, thresholds, zero_tolerance(coeffs, thresholds)


def _subset_sums(cs: np.ndarray) -> np.ndarray:
    """(m, d) coefficients -> (m, 2^d): each row's sum over the set bits of
    every mask, by the doubling recursion: mask 2^i + j sums to mask j's sum
    plus cs[:, i], written into the one result array."""
    m, d = cs.shape
    s = np.empty((m, 1 << d), dtype=cs.dtype)
    s[:, 0] = 0
    for i in range(d):
        np.add(s[:, : 1 << i], cs[:, i : i + 1], out=s[:, 1 << i : 2 << i])
    return s


def _side_tables(coeffs, thresholds, b: int):
    """The sweep's side tables for blocks of 2^b vertices.

    side(h * 2^b + lo) = low[:, lo] + off[:, h], with low = 2*S_low - sum(v) - t
    and off = 2*S_high for the subset sums S of the low and the high
    coefficients: the one side value of every vertex.  Returns each plane's
    low sides in sorted order, the int16 rank of every low vertex in that
    order (a stable argsort; ranks stay below 2^b <= 2^13) and off.
    """
    # off first: it is the largest table at n > 2b, and the sort's index
    # array would add to it
    off = _subset_sums(coeffs[:, b:])
    off *= 2
    # in place, in the order 2*S_low - sum(v) - t, so float sides keep their bits
    low = _subset_sums(coeffs[:, :b])
    low *= 2
    low -= coeffs.sum(axis=1)[:, None]
    low -= thresholds[:, None]
    order = np.argsort(low, axis=1, kind="stable")
    rank = np.empty(low.shape, dtype=np.int16)
    np.put_along_axis(rank, order, np.arange(low.shape[1], dtype=np.int16)[None, :], axis=1)
    # sort low in place, row by row through one row buffer
    row = np.empty(low.shape[1], dtype=low.dtype)
    for sides, idx in zip(low, order):
        np.take(sides, idx, out=row)
        sides[:] = row
    return low, rank, off


def _cuts(ordered, offsets, tol):
    """Where each block's classes change in the sorted low order.

    offsets is (m, superblocks, blocks): a vertex of the block with offset
    o = offsets[:, s, i] has the side low + o, and side_bits' classes of it
    are monotone in low (float rounding is monotone too): the positive
    sides are a suffix of the sorted order and the negative ones a prefix.
    cut[0, :, s, i] counts the sides that are not positive and
    cut[1, :, s, i] the negative ones, each found by a binary search that
    evaluates side_bits on the sweep's own arithmetic.  Returns int16 of
    shape (2, *offsets.shape); tol is None or broadcasts against (m, 1, 1).
    """
    m, size = ordered.shape
    flat = ordered.reshape(-1)
    # the searches run on flat indices, from each plane's first entry
    first = np.arange(0, m * size, size)[:, None, None]
    cut = np.broadcast_to(first, (2, *offsets.shape)).copy()
    # binary lifting: steps size/2 .. 1 leave cut at min(count, size - 1),
    # and one more probe at cut itself settles count = size
    for step in [size >> i for i in range(1, size.bit_length())] + [1]:
        side = flat.take(cut + (step - 1))
        side += offsets
        before, nz = side_bits(side, tol)
        np.invert(before, out=before)
        before[1] &= nz[1]
        np.add(cut, step, out=cut, where=before)
    cut -= first
    return cut.astype(np.int16)


def _classify(rank, cut, zero_free, out):
    """(positive, nonzero) of the block whose cuts are cut (2, m), from the
    low vertices' ranks, into out (2, m, 2^b): positive is rank >= cut[0],
    negative is rank < cut[1].  A zero_free block (cut[0] == cut[1] on every
    plane) has no zero side, so its nonzero class is all ones and comes back
    as None, not computed."""
    pos, nz = out
    np.greater_equal(rank, cut[0, :, None], out=pos)
    if zero_free:
        return pos, None
    np.less(rank, cut[1, :, None], out=nz)
    nz |= pos
    return pos, nz


def _clear_bit_mask(k: int) -> int:
    """The positions 0..63 whose bit k is clear, as a 64-bit word."""
    return sum(1 << p for p in range(64) if not (p >> k) & 1)


def verify_slicing(c: Configuration) -> SlicingReport:
    """Test every edge of the n-cube against every plane under c.mode.

    Deterministic: the superblocks are swept in order on the calling thread.
    """
    n, m = c.n, c.m
    if n > VERIFY_MAX_DIM:
        raise DimensionTooLarge(f"exhaustive verification capped at n <= {VERIFY_MAX_DIM}")
    start = time.perf_counter()
    relaxed = c.mode == RELAXED
    B = min(n, _PACK_BITS)
    b = min(B, _BLOCK_BITS)
    coeffs, thresholds, tol = _plane_stack(c)
    ordered, rank, off = _side_tables(coeffs, thresholds, b)
    # the offsets of superblock sb's blocks are off[:, sb]
    off = off.reshape(m, 1 << (n - B), 1 << (B - b))
    tol = None if tol is None else tol[:, None, None]
    words, block_bytes = 1 << max(0, B - 6), 1 << max(0, b - 3)
    # the word bits that are superblock positions (all of them unless
    # B < 6), and for a word-internal axis k < 6 those whose bit k is
    # clear: the base vertices of the axis-k edges
    valid = (1 << (1 << B)) - 1 if B < 6 else (1 << 64) - 1
    bases = [np.uint64(_clear_bit_mask(k) & valid) for k in range(min(B, 6))]
    valid = np.uint64(valid)
    # per-plane crossings, unsliced count and, per axis, the first
    # _SAMPLE_CAP unsliced compressed indices
    counts = np.zeros(m, dtype=np.int64)
    unsliced = 0
    samples: list[list[int]] = [[] for _ in range(n)]
    # the buffers every pass writes into: a block's classes, two pairs of
    # superblock words, the popcounts and the lost words.  Superblock sb
    # packs its classes into pair sb % 2 and uses the other pair for its
    # partners.  The words start zeroed and no pass sets a bit past the
    # superblock's 2^B (pack fills part of a word if B < 6).
    classes = np.empty((2, m, 1 << b), dtype=bool)
    packed = np.zeros((2, 2, m, words), dtype=np.uint64)
    # the packed nonzero class of a block without zero sides: 2^b one bits,
    # the bits past them (b < 3) clear as in any packed block
    all_nonzero = np.packbits(np.ones(1 << b, dtype=bool), bitorder="little")
    ones = np.empty(m * words, dtype=np.uint8)
    miss = np.empty(words, dtype=np.uint64)

    def pack(cut, pw, nw):
        # classify the superblock's blocks by their cuts (2, m, 2^(B-b)),
        # one block at a time, into the words of pw, nw; a nonzero class
        # left uncomputed (None) is the packed all-ones block
        pw, nw = pw.view(np.uint8), nw.view(np.uint8)
        zero_free = (cut[0] == cut[1]).all(axis=0)
        for i in range(1 << (B - b)):
            at = slice(i * block_bytes, (i + 1) * block_bytes)
            for x, dst in zip(_classify(rank, cut[..., i], zero_free[i], classes), (pw, nw)):
                dst[:, at] = all_nonzero if x is None else np.packbits(x, axis=-1, bitorder="little")

    def tally(k, cross, todo, first_edge):
        nonlocal counts, unsliced
        size = cross.shape[-1]
        popcounts = np.bitwise_count(cross, out=ones[: m * size].reshape(m, size))
        counts += popcounts.sum(axis=-1, dtype=np.int64)
        lost = np.bitwise_or.reduce(cross, axis=0, out=miss[:size])
        np.invert(lost, out=lost)
        lost &= todo
        bits = np.bitwise_count(lost)
        missing = int(bits.sum())
        if missing:
            unsliced += missing
            room = _SAMPLE_CAP - len(samples[k])
            if room > 0:
                # unpack the words up to the one that holds the room-th lost bit
                end = int(np.searchsorted(np.cumsum(bits), room)) + 1
                at = np.flatnonzero(np.unpackbits(lost[:end].view(np.uint8), bitorder="little"))[:room]
                if k < min(B, 6):
                    # word position -> index among the axis-k edges
                    at = ((at >> (k + 1)) << k) | (at & ((1 << k) - 1))
                samples[k].extend((at + first_edge).tolist())

    for sb in range(1 << (n - B)):
        # the cuts of the blocks of sb, then of each partner superblock
        # sb | 2^(k-B) for a high axis k > B whose bit k - B is clear in sb
        # (only those superblocks hold base vertices of axis k), every
        # block by its own offsets
        axes = [k for k in range(B + 1, n) if not (sb >> (k - B)) & 1]
        cuts = _cuts(ordered, off[:, [sb] + [sb | 1 << (k - B) for k in axes]], tol)
        (pos, nz), (partner_pos, partner_nz) = packed[sb & 1], packed[~sb & 1]
        pack(cuts[:, :, 0], pos, nz)
        if sb & 1:
            # axis B: superblocks sb - 1 and sb differ in bit B alone, so
            # the partner words still hold the partner classes, sb - 1's
            cross = crossing_bits(pos, nz, partner_pos, partner_nz, relaxed, out=partner_pos)
            tally(B, cross, valid, (sb >> 1) << B)
        for a, k in enumerate(axes, 1):
            # the partner words are idle until the word-internal passes
            pack(cuts[:, :, a], partner_pos, partner_nz)
            cross = crossing_bits(pos, nz, partner_pos, partner_nz, relaxed, out=partner_pos)
            j = k - B
            # sb with bit j removed, times 2^B
            tally(k, cross, valid, (((sb >> (j + 1)) << j) | (sb & ((1 << j) - 1))) << B)
        for k in range(B):
            if k < 6:
                # the partner of position p is p + 2^k in the same word
                pw = np.right_shift(pos, 1 << k, out=partner_pos)
                nw = np.right_shift(nz, 1 << k, out=partner_nz)
                cross = crossing_bits(pos, nz, pw, nw, relaxed, out=pw)
                cross &= bases[k]
                tally(k, cross, bases[k], sb << (B - 1))
            else:
                # words[:, high, bit k, low]: the axis-k edges of word
                # high * 2^(k-6) + low, in compressed order, join
                # [..., 0, low] and [..., 1, low]
                pairs = (m, 1 << (B - 1 - k), 2, 1 << (k - 6))
                p, z = pos.reshape(pairs), nz.reshape(pairs)
                # the half-size cross words: a contiguous prefix of partner_pos
                out = partner_pos.reshape(-1)[: m * words // 2].reshape(m, pairs[1], pairs[3])
                crossing_bits(p[:, :, 0], z[:, :, 0], p[:, :, 1], z[:, :, 1], relaxed, out=out)
                tally(k, out.reshape(m, words // 2), valid, sb << (B - 1))

    sample: list[Edge] = []
    for k in range(n):
        sample += [Edge(Vertex(n, canonical_base(k, comp)), k) for comp in samples[k][: _SAMPLE_CAP - len(sample)]]

    elapsed = (time.perf_counter() - start) * 1000.0
    return SlicingReport(
        n=n,
        m=m,
        total_edges=total_edges(n),
        unsliced_count=unsliced,
        unsliced_sample=tuple(sample),
        per_plane_crossings=tuple(int(x) for x in counts),
        elapsed_ms=elapsed,
    )


def crossing_counts(c: Configuration) -> tuple[int, ...]:
    """Edges crossed per plane.  In strict mode every count is checked
    against the counting bound (BoundViolation otherwise); relaxed mode can
    exceed it (a plane through a weight level touches every incident edge),
    so no check there."""
    report = verify_slicing(c)
    if c.mode == STRICT:
        bound = max_crossings_bound(c.n)
        if any(cnt > bound for cnt in report.per_plane_crossings):
            raise BoundViolation(f"crossings {report.per_plane_crossings} exceed the counting bound {bound}")
    return report.per_plane_crossings
