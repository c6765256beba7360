"""Random bias vectors, the biased product distribution on cube vertices,
and the evasive-edge sampler.

Every sampler is a deterministic function of an RngSpec: the same
(seed, stream) reproduces the same draw sequence.  The batch helpers, which
the Monte Carlo estimators call, are the one implementation of each law:
sample_mu and sample_evasive_edge are batch-of-one draws through them and
consume the same random stream.  The bias is damped by the paper's constant
1/(10 sqrt(m ln n)).

A batch is drawn in stream order from one generator: the multipliers of its
rows, the redraws of its rejected rows, its vertices' uniforms, then its
axes.  The estimators draw one batch per chunk of lab.CHUNK rows, each on
its own substream, so memory is per chunk; batch_mu draws on row slices
of its batch, so the uniforms hold one slice.
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
    normalized copy agrees with the stored planes.
    """
    if c.m < 1:
        raise DimensionTooSmall("sampling needs at least one plane")
    try:
        V = np.array([[float(x) for x in h.coeffs] for h in c.planes], dtype=np.float64)
        t = np.array([float(h.threshold) for h in c.planes], dtype=np.float64)
    except OverflowError as exc:
        raise UnnormalizedPlane("plane does not fit float range") from exc
    if not (np.all(np.isfinite(V)) and np.all(np.isfinite(t))):
        raise UnnormalizedPlane("plane does not fit float range")
    norms = np.sqrt(np.einsum("ij,ij->i", V, V))
    if not np.all(norms > 0.0):
        raise UnnormalizedPlane("plane with zero float norm")
    V /= norms[:, None]
    t /= norms
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


def dyadic_terms(V: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Per-(plane, scale) rows 2^j * v_l^(j), ordered by plane then scale.

    Scaling by 2^j puts every nonzero entry of a row into (1/2, 1].  Each
    plane is split twice, once to size W and once to fill it, so no
    temporary is larger than one plane.
    """
    scales = [_entry_scales(v)[2] for v in V]
    keys = [(ell, int(j)) for ell, js in enumerate(scales) for j in js]
    W = np.zeros((len(keys), V.shape[1]), dtype=np.float64)
    first = 0
    for v, js in zip(V, scales):
        col, j, _ = _entry_scales(v)
        W[first + np.searchsorted(js, j), col] = np.ldexp(v[col], j)
        first += len(js)
    return keys, W


def _check_dims(c: Configuration) -> None:
    if c.n < 2:
        raise DimensionTooSmall("bias sampler needs n >= 2 (log n must be positive)")
    if c.m < 1:
        raise DimensionTooSmall("bias sampler needs m >= 1")


def sample_bias(c: Configuration, rng) -> BiasVector:
    """Draw the dyadic random bias

        P = (1 / (10 sqrt(m ln n))) * sum_l sum_j alpha_{lj} 2^j v_l^(j)

    with alpha_{lj} independent uniform on [-1,1] over the unit-norm float
    copies of the planes.  The draw is recorded in BiasVector.draws.
    """
    # The one draw that keeps its multipliers.  The batch draws return only P:
    # keeping alphas there would hold a (rows x K) float array per batch
    # (1024 x 1210, ~10 MB, at n=1024, m=100) for every estimator chunk.
    gen = as_generator(rng)
    setup = bias_setup(c)
    alphas = gen.uniform(-1.0, 1.0, size=len(setup.keys))
    p = setup.scale * (alphas @ setup.W)
    return BiasVector(p, dict(zip(setup.keys, alphas.tolist())), conditioned=False)


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
    if np.max(np.abs(arr)) > 1.0:
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
    """Precomputed normalized planes and dyadic term matrix for batch work."""

    V: np.ndarray
    t: np.ndarray
    keys: list
    W: np.ndarray
    scale: float


@functools.lru_cache(maxsize=1)
def bias_setup(c: Configuration) -> BiasSetup:
    # Configurations are frozen and hashable, so the setup (normalization +
    # dyadic split) is computed once per config; arrays are treated read-only.
    # One entry: callers work on one config at a time, and a sweep would
    # otherwise keep every cell's setup alive.
    _check_dims(c)
    V, t = normalized_float_planes(c)
    keys, W = dyadic_terms(V)
    scale = 1.0 / (10.0 * math.sqrt(c.m * math.log(c.n)))
    return BiasSetup(V, t, keys, W, scale)


def row_max_abs(P: np.ndarray) -> np.ndarray:
    """max_i |P_i| of each row of P (of P itself when it is one vector),
    exactly and without a temporary the size of P."""
    return np.maximum(P.max(axis=-1), -P.min(axis=-1))


def batch_bias(setup: BiasSetup, gen: np.random.Generator, count: int) -> np.ndarray:
    """count unconditioned biases in one product; row r's multipliers are
    words r*K to (r+1)*K of gen's stream (K terms)."""
    P = gen.uniform(-1.0, 1.0, size=(count, len(setup.keys))) @ setup.W
    P *= setup.scale
    return P


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
    The uniforms are drawn on row_slices(P), so they hold one slice."""
    U = np.empty(P.shape, dtype=np.int8)
    for part in row_slices(P):
        thr = P[part] + 1.0
        thr *= 0.5
        U[part] = gen.random(thr.shape) < thr
    U *= 2
    U -= 1
    return U


def row_slices(P: np.ndarray) -> list[slice]:
    """P's rows in order, as slices of about SLICE_CELLS cells each."""
    step = max(1, SLICE_CELLS // P.shape[1])
    return [slice(lo, lo + step) for lo in range(0, len(P), step)]


def batch_evasive_edges(
    setup: BiasSetup, gen: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """count evasive edges as (U, k, bias rows drawn): +-1 rows U drawn with
    conditioned biases, and axes k uniform on range(n).

    The stream is that of batch_bias_conditioned, then U's uniforms (row by
    row), then the axes."""
    P, drawn = batch_bias_conditioned(setup, gen, count)
    return batch_mu(P, gen), gen.integers(P.shape[1], size=count), drawn
