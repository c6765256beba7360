"""Random bias vectors, the biased product distribution on cube vertices,
and the evasive-edge sampler.

Every sampler is a deterministic function of an RngSpec: the same
(seed, stream) reproduces the same draw sequence.  The batch helpers, which
the Monte Carlo estimators call, are the one implementation of each law:
sample_bias, sample_mu and sample_evasive_edge are batch-of-one draws
through them on the same random stream.  The bias is damped by the
paper's constant 1/(10 sqrt(m ln n)).

A batch is drawn in stream order from one generator: the multipliers of its
rows, the redraws of its rejected rows, its vertices' uniforms, then its
axes.  The estimators draw one batch per chunk of lab.CHUNK rows, each on
its own substream, so memory is per chunk.  A batch holds its biases P
(rows x n) and row slices of the rest: batch_mu draws the uniforms in row
slices, and with n <= BLOCK_COLS batch_bias draws the multipliers in row
slices too (at n = 1024, m = 100, at most 256 x 1213 of them, 2.5 MB).

The dyadic terms are stored compactly, per plane and column the term row
(int32) and its value, 12 m n bytes, and multiplied through dense K x b
column blocks of b <= BLOCK_COLS columns.  When one block covers n, the
set-up builds it once; with several, a batch keeps its multipliers (K <= n
on the paper's diagonal from n = 8192, so no more than P) and builds each
block once.  At n = 16384, m = 100 a dense K x n matrix would take 220 MB
(the run peaks at 290 MB); a batch there spends about 10-20 % more in its
products than one dense product does, plus about 2 ms per block to build
and clear it.

P is the one product of all multipliers with the dense matrix, bit for bit
with OpenBLAS 0.3.31 (numpy 2.4, a 2-core AVX-512 Xeon) at every n that is
a multiple of 8, but for batches of a few rows on several blocks: column
blocks start at multiples of 64 and product slices hold multiples of 192
rows, so every element keeps the kernel and the summation order it has in
the one product.  A few-row batch differs
in the last bit where a block's product falls under OpenBLAS's small-matrix
size (10^6 multiply-adds) and the one product does not, as at n = 2048,
K = 397, 2 rows.  At other n the last bit may differ in the last n mod 8
columns, and for one row where OpenBLAS splits its gemv between threads; the
one product's own bits there differ between one and two BLAS threads.  P
enters the estimates only through comparisons with uniform draws, which a
last-bit change flips with probability about 1e-16 each.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import Configuration, Edge, Vertex
from .errors import (
    BiasOutOfRange,
    BoundViolation,
    DimensionTooSmall,
    RetriesExhausted,
    UnnormalizedPlane,
)

# Cells per row slice of a batch, for the mu draw and the work on its
# vertices: the uniforms and a float copy of a slice hold about 1 MB at any n
# (128 rows at n = 1024).  Slices of 2^16 cells ran slower at n = 1024, and
# slices of 2^20 cells held more.
SLICE_CELLS = 1 << 17
# A slice of the bias product is a whole multiple of PRODUCT_ROWS rows and
# at least PRODUCT_WORK multiply-adds.  On a 2-core AVX-512 Xeon a
# (rows x K) @ (K x 1024) product ran 10-15 % slower at 128-256 rows than at
# 1024, and 1.5-2.6x slower at the 12-77 rows of 2^17 cells at K = 1700 to
# 10733.  OpenBLAS takes another kernel below 10^6 multiply-adds, and past
# the last full column tile it groups rows by 24, so other slices round some
# elements otherwise.
PRODUCT_ROWS = 192
PRODUCT_WORK = 1 << 24
# Columns per dense block of dyadic terms, at most; one block covers
# n <= BLOCK_COLS.
BLOCK_COLS = 1024
# The conditioned bias accepts a draw when max|P_i| <= P_MAX; it redraws a row
# at most MAX_RETRIES times, a safety cap (acceptance is >= 1 - 2/n likely).
P_MAX = 0.5
MAX_RETRIES = 1000


@dataclass(frozen=True)
class RngSpec:
    """Reproducible stream address: a 64-bit seed plus a substream index.

    Substreams (and their children) are realized as SeedSequence spawn keys,
    so distinct (seed, stream) pairs give statistically independent streams.
    """

    seed: int
    stream: Union[int, tuple[int, ...]] = 0

    def spawn_key(self) -> tuple[int, ...]:
        return self.stream if isinstance(self.stream, tuple) else (self.stream,)

    def child(self, *key: int) -> "RngSpec":
        return RngSpec(self.seed, self.spawn_key() + key)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key())
        return np.random.default_rng(seq)


def as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngSpec):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngSpec or numpy Generator, got {type(rng).__name__}")


@dataclass(frozen=True, eq=False)
class BiasVector:
    """A realization of the random bias P in [-1,1]^n.

    draws records the underlying uniform multipliers keyed by
    (plane index, scale index); the simple variant uses scale index None.
    conditioned marks acceptance under the max|P_i| <= 1/2 rejection step;
    clamped marks that the simple variant exceeded [-1,1] and was clipped.
    """

    p: np.ndarray
    draws: dict
    conditioned: bool = False
    clamped: bool = False


def normalized_float_planes(c: Configuration) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm float copies of the planes: (m x n coefficient matrix, thresholds).

    Crossing is invariant under positive scaling, so sampling against the
    normalized copy agrees with the stored planes.  Before the norm is taken,
    each row is scaled by the power of two that puts its largest |coefficient|
    in [1/2, 1), so the squares neither overflow nor underflow at any scale;
    the scaling is exact and leaves the quotients' bits as they are.  Only a
    plane whose unit-norm copy does not fit a double, such as tiny
    coefficients with a large threshold, is refused.
    """
    try:
        V = np.array([h.coeffs for h in c.planes], dtype=np.float64)
        t = np.array([h.threshold for h in c.planes], dtype=np.float64)
    except OverflowError as exc:
        raise UnnormalizedPlane("plane does not fit float range") from exc
    if not (np.all(np.isfinite(V)) and np.all(np.isfinite(t))):
        raise UnnormalizedPlane("plane does not fit float range")
    shift = np.frexp(np.abs(V).max(axis=1))[1]
    V = np.ldexp(V, -shift[:, None])
    norms = np.sqrt(np.einsum("ij,ij->i", V, V))
    if not np.all(norms > 0.0):
        raise UnnormalizedPlane("plane with zero float norm")
    V /= norms[:, None]
    with np.errstate(over="ignore"):
        t = np.ldexp(t / norms, -shift)
    if not np.all(np.isfinite(t)):
        raise UnnormalizedPlane("threshold of the unit-norm plane does not fit float range")
    renorm = np.sqrt(np.einsum("ij,ij->i", V, V))
    if np.max(np.abs(renorm - 1.0)) > 1e-12:
        raise UnnormalizedPlane("normalization failed to reach unit length")
    return V, t


def _entry_scales(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero coordinates of v, their scales and the sorted distinct
    scales.  The scale is decomp.scale_index on the whole row: with
    |x| = mant * 2^exp, mant in [1/2, 1), it is 1 - exp where mant = 1/2 and
    -exp otherwise."""
    col = np.flatnonzero(v)
    mant, exp = np.frexp(np.abs(v[col]))
    j = np.where(mant == 0.5, 1 - exp, -exp)
    lo = j.min(initial=0)
    return col, j, lo + np.flatnonzero(np.bincount(j - lo))


def compact_terms(V: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """The per-(plane, scale) rows 2^j * v_l^(j), ordered by plane then scale,
    stored compactly: (keys, term_rows, term_vals), where term_rows[l, i]
    (int32) is the term row that coordinate i of plane l lies in and
    term_vals[l, i] its value there.  A zero coordinate lies in the plane's
    first term row with value 0, so every plane writes one cell per column.

    Scaling by 2^j puts every nonzero entry of a row into (1/2, 1].  The
    terms of different planes are different rows, so each term row and
    column holds at most one value.
    """
    term_rows = np.empty(V.shape, dtype=np.int32)
    term_vals = np.zeros(V.shape, dtype=np.float64)
    keys: list[tuple[int, int]] = []
    for ell, v in enumerate(V):
        col, j, js = _entry_scales(v)
        term_rows[ell] = len(keys)
        term_rows[ell, col] = len(keys) + np.searchsorted(js, j)
        term_vals[ell, col] = np.ldexp(v[col], j)
        keys.extend((ell, int(s)) for s in js)
    return keys, term_rows, term_vals


def _scatter(block: np.ndarray, term_rows: np.ndarray, cols: slice, values) -> None:
    """Set the cells of block (K x width) that columns cols of the compact
    terms occupy to values."""
    block[term_rows[:, cols], np.arange(block.shape[1])] = values


def column_blocks(n: int) -> list[slice]:
    """range(n) in order, as the fewest slices of at most BLOCK_COLS columns,
    of near-equal widths in whole multiples of 64 but the last."""
    count = -(-n // BLOCK_COLS)
    units = -(-n // 64)
    ends = [64 * (i * units // count) for i in range(1, count)] + [n]
    return [slice(lo, hi) for lo, hi in zip([0, *ends], ends)]


def _check_dims(c: Configuration) -> None:
    if c.n < 2:
        raise DimensionTooSmall("bias sampler needs n >= 2 (log n must be positive)")
    if c.m < 1:
        raise DimensionTooSmall("bias sampler needs m >= 1")


def sample_bias(c: Configuration, rng) -> BiasVector:
    """Draw the dyadic random bias

        P = (1 / (10 sqrt(m ln n))) * sum_l sum_j alpha_{lj} 2^j v_l^(j)

    with alpha_{lj} independent uniform on [-1,1] over the unit-norm float
    copies of the planes: the batch draw of one row, kept in BiasVector.draws.
    """
    setup = bias_setup(c)
    P, alphas = _draw_bias(setup, as_generator(rng), 1)
    return BiasVector(P[0], dict(zip(setup.keys, alphas[0].tolist())), conditioned=False)


def sample_bias_conditioned(c: Configuration, rng) -> BiasVector:
    """Rejection-sample the dyadic bias until max|P_i| <= P_MAX = 1/2.

    Rejection reproduces the conditional law exactly; the acceptance
    probability is at least 1 - 2/n, so the expected number of retries is
    tiny.  MAX_RETRIES counts re-draws after the first attempt.
    """
    gen = as_generator(rng)
    for _ in range(MAX_RETRIES + 1):
        bv = sample_bias(c, gen)
        if row_max_abs(bv.p) <= P_MAX:
            return dataclasses.replace(bv, conditioned=True)
    raise RetriesExhausted(f"no acceptance within {MAX_RETRIES} retries")


def sample_bias_simple(c: Configuration, rng) -> BiasVector:
    """Overview-mode bias P = sum_l alpha_l sqrt(n/m) v_l (no dyadic split,
    no damping).  Carries no max-norm guarantee: entries outside [-1,1] are
    clipped and the clamped flag is set."""
    gen = as_generator(rng)
    setup = bias_setup(c)
    alphas = gen.uniform(-1.0, 1.0, size=c.m)
    raw = math.sqrt(c.n / c.m) * (alphas @ setup.V)
    clamped = bool(np.any(np.abs(raw) > 1.0))
    draws = {(ell, None): a for ell, a in enumerate(alphas.tolist())}
    return BiasVector(np.clip(raw, -1.0, 1.0), draws, conditioned=False, clamped=clamped)


def sample_mu(p, rng) -> Vertex:
    """One vertex from the product distribution with coordinate means p:
    Pr[z_i = +1] = (1 + p_i) / 2, independently."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise BiasOutOfRange("bias must be a nonempty vector")
    if not np.all(np.abs(arr) <= 1.0):  # NaN fails the test too
        raise BiasOutOfRange("bias entries must lie in [-1, 1]")
    return Vertex.from_signs(batch_mu(arr[None, :], as_generator(rng))[0].tolist())


def sample_evasive_edge(c: Configuration, rng) -> Edge:
    """The evasive random edge (U, k): U from the product distribution with
    conditioned bias P, and k a uniform axis independent of U given P."""
    U, k, _ = batch_evasive_edges(bias_setup(c), as_generator(rng), 1)
    return Edge(Vertex.from_signs(U[0].tolist()), int(k[0]))


# ---------------------------------------------------------------------------
# Batch helpers (vectorized across samples): the one implementation of each
# law.  sample_mu and sample_evasive_edge above are batch-of-one views.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BiasSetup:
    """Normalized planes and their compact dyadic terms (see compact_terms)
    for batch work; block is the dense K x n term matrix when one column
    block covers n, else None."""

    V: np.ndarray
    t: np.ndarray
    keys: list
    term_rows: np.ndarray
    term_vals: np.ndarray
    scale: float
    block: np.ndarray | None


@functools.lru_cache(maxsize=1)
def bias_setup(c: Configuration) -> BiasSetup:
    # Configurations are frozen and hashable, so the setup (normalization +
    # dyadic split) is computed once per config; arrays are treated read-only.
    # One entry: callers work on one config at a time, and a sweep would
    # otherwise keep every cell's setup alive.
    _check_dims(c)
    V, t = normalized_float_planes(c)
    keys, term_rows, term_vals = compact_terms(V)
    block = None
    if c.n <= BLOCK_COLS:
        block = np.zeros((len(keys), c.n), dtype=np.float64)
        _scatter(block, term_rows, slice(None), term_vals)
    scale = 1.0 / (10.0 * math.sqrt(c.m * math.log(c.n)))
    return BiasSetup(V, t, keys, term_rows, term_vals, scale, block)


def term_blocks(setup: BiasSetup):
    """(columns, dense K x width term block) pairs over column_blocks(n), in
    order: the set-up's one block, or each block built in turn in one reused
    buffer, which holds a block only until the next pair is asked for."""
    if setup.block is not None:
        yield slice(None), setup.block
        return
    blocks = column_blocks(setup.V.shape[1])
    buf = np.zeros((len(setup.keys), max(cols.stop - cols.start for cols in blocks)), dtype=np.float64)
    for cols in blocks:
        block = buf[:, : cols.stop - cols.start]
        _scatter(block, setup.term_rows, cols, setup.term_vals[:, cols])
        yield cols, block
        _scatter(block, setup.term_rows, cols, 0.0)


def row_max_abs(P: np.ndarray) -> np.ndarray:
    """max_i |P_i| of each row of P (of P itself when it is one vector),
    exactly and without a temporary the size of P."""
    return np.maximum(P.max(axis=-1), -P.min(axis=-1))


def product_slices(setup: BiasSetup, count: int) -> list[slice]:
    """The row slices of a count-row bias product.  With one column block,
    about SLICE_CELLS cells of multipliers, in whole multiples of
    PRODUCT_ROWS rows and of PRODUCT_WORK multiply-adds; a short remainder
    joins the last slice, so only a whole small batch is a small product.
    With several blocks, one slice, so that each block is built once."""
    if setup.block is None:
        return [slice(0, count)]
    K, n = setup.block.shape
    quantum = PRODUCT_ROWS * max(1, -(-PRODUCT_WORK // (PRODUCT_ROWS * K * n)))
    return row_slices(count, K, quantum)


def batch_bias(setup: BiasSetup, gen: np.random.Generator, count: int) -> np.ndarray:
    """count unconditioned biases; row r's multipliers are words r*K to
    (r+1)*K of gen's stream (K terms), drawn as uniform(-1, 1) draws them,
    slice by slice of product_slices(setup, count), and multiplied through
    each column block."""
    return _draw_bias(setup, gen, count)[0]


def _draw_bias(setup: BiasSetup, gen: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """batch_bias's draw, as (P, the multipliers of its last row slice)."""
    parts = product_slices(setup, count)
    A = np.empty((max(part.stop - part.start for part in parts), len(setup.keys)))
    P = np.empty((count, setup.V.shape[1]))
    for part in parts:
        alphas = A[: part.stop - part.start]
        gen.random(out=alphas)
        alphas *= 2.0
        alphas -= 1.0
        for cols, W in term_blocks(setup):
            np.matmul(alphas, W, out=P[part, cols])
    P *= setup.scale
    return P, alphas


def batch_bias_conditioned(setup: BiasSetup, gen: np.random.Generator, count: int) -> tuple[np.ndarray, int]:
    """count biases conditioned on max|P_i| <= P_MAX, as (P, bias rows drawn).

    Row r's multipliers are words r*K on of gen's stream; the rows above
    P_MAX are redrawn, round by round, from word count*K on, so on return gen
    stands after the last redraw, where a mu draw starts.  Each row's max|P_i|
    is taken once per draw of the row."""
    P = batch_bias(setup, gen, count)
    top = row_max_abs(P)
    drawn = count
    for attempt in range(MAX_RETRIES + 1):
        bad = np.flatnonzero(top > P_MAX)
        if bad.size == 0:
            break
        if attempt == MAX_RETRIES:
            raise RetriesExhausted(f"no acceptance within {MAX_RETRIES} retries")
        P[bad] = batch_bias(setup, gen, bad.size)
        top[bad] = row_max_abs(P[bad])
        drawn += bad.size
    if top.max() > P_MAX:
        raise BoundViolation(f"an accepted bias row exceeds {P_MAX}")
    return P, drawn


def batch_mu(P: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """int8 rows of +-1 vertices drawn coordinate-wise with means P (one row
    per sample); row r's uniforms are words r*n to (r+1)*n of gen's stream.
    The uniforms are drawn on row_slices of P, so they hold one slice."""
    U = np.empty(P.shape, dtype=np.int8)
    for part in row_slices(*P.shape):
        thr = P[part] + 1.0
        thr *= 0.5
        U[part] = gen.random(thr.shape) < thr
    U *= 2
    U -= 1
    return U


def row_slices(rows: int, width: int, quantum: int = 1) -> list[slice]:
    """range(rows) in order, as slices of about SLICE_CELLS cells of rows
    `width` wide, in whole multiples of quantum rows; a short remainder
    joins the last slice."""
    step = quantum * max(1, SLICE_CELLS // (width * quantum))
    ends = [*range(step, rows - step + 1, step), rows]
    return [slice(lo, hi) for lo, hi in zip([0, *ends], ends)]


def batch_evasive_edges(
    setup: BiasSetup, gen: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """count evasive edges as (U, k, bias rows drawn): +-1 rows U drawn with
    conditioned biases, and axes k uniform on range(n).

    The stream is that of batch_bias_conditioned, then U's uniforms (row by
    row), then the axes."""
    P, drawn = batch_bias_conditioned(setup, gen, count)
    return batch_mu(P, gen), gen.integers(P.shape[1], size=count), drawn
