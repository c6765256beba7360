"""Monte Carlo estimators for the probabilistic claims and a simulated-annealing
search for small slicing configurations.

Estimators split the sample budget into fixed-size chunks, give every chunk
its own substream (child of the caller's RngSpec), and fold integer partial
counts in chunk order, so a report depends only on the seed.  The chunks
run in order on the calling thread: OpenBLAS already runs the bias product
on every core, and a second Python worker only slowed the estimators.
_fold_chunks does this for every estimator, which supplies only the counts
of one chunk.  A chunk is one sampler batch of at most CHUNK rows, so memory
is per chunk; its int8 vertices are tested in row slices
(sampler.row_slices), so their float copies and side values hold one slice.
run_estimator picks an estimator by name, for the CLI and for sweep.  The
search's replicas also run in order: its numpy calls are short and would
take turns on the interpreter lock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import (
    EXACT,
    RELAXED,
    Configuration,
    canonical_base,
    construction,
    crossing_bits,
    make_hyperplane,
    side_bits,
    sign_pair_crossings,
    zero_tolerance,
)
from . import sampler
from .errors import DimensionTooLarge, DimensionTooSmall, MalformedInput, SlicerError
from .sampler import (
    RngSpec,
    as_generator,
    batch_bias,
    batch_bias_conditioned,
    batch_evasive_edges,
    batch_mu,
    bias_setup,
    row_max_abs,
    row_slices,
)
from .verifier import SlicingReport, verify_slicing

# Rows per chunk of an estimate, each chunk one batch on its own substream: a
# chunk's biases hold 8 MB and its multipliers 2.5 MB at n = 1024, m = 100.
CHUNK = 1 << 10
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class EstimateReport:
    """A Monte Carlo point estimate with its 95% interval (Wilson score for
    frequencies, normal approximation for means)."""

    point_estimate: float
    std_error: float
    ci95: tuple[float, float]
    samples: int
    seed: int
    target_bound: float | None = None
    # bias rows drawn (accepted ones plus redraws) and accepted; they go to
    # the run manifest, never into results
    bias_rows_drawn: int | None = None
    bias_rows_accepted: int | None = None

    def cells(self) -> list:
        """The values of REPORT_COLUMNS, the table columns of an estimate."""
        return [self.point_estimate, self.std_error, *self.ci95, self.target_bound]


REPORT_COLUMNS = ("point_estimate", "std_error", "ci95_low", "ci95_high", "target_bound")


def _bernoulli_report(count: int, samples: int, seed: int, target: float | None) -> EstimateReport:
    p = count / samples
    se = math.sqrt(p * (1.0 - p) / samples)
    # Wilson score interval: valid at small p and nondegenerate at p = 0; it
    # always contains p, so min/max below only absorb rounding at p = 0 or 1
    z2n = _Z95 * _Z95 / samples
    center = (p + z2n / 2.0) / (1.0 + z2n)
    half = _Z95 * math.sqrt(p * (1.0 - p) / samples + z2n / (4.0 * samples)) / (1.0 + z2n)
    ci = (max(0.0, min(p, center - half)), min(1.0, max(p, center + half)))
    return EstimateReport(p, se, ci, samples, seed, target)


def _mean_report(total: int, total_sq: int, samples: int, seed: int, target: float | None) -> EstimateReport:
    mean = total / samples
    if samples > 1:
        var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
        se = math.sqrt(var / samples)
    else:
        se = 0.0
    return EstimateReport(mean, se, (mean - _Z95 * se, mean + _Z95 * se), samples, seed, target)


def _require_spec(rng) -> RngSpec:
    if not isinstance(rng, RngSpec):
        raise TypeError("estimators need an RngSpec so chunk substreams are well-defined")
    return rng


def _fold_chunks(rng, samples: int, fold: Callable[[np.random.Generator, int], list]) -> list[int]:
    """Run fold(gen, rows) on chunks of CHUNK rows, each with its own
    substream, and sum the chunks' lists of counts column by column in
    chunk order."""
    spec = _require_spec(rng)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    full, rest = divmod(samples, CHUNK)
    sizes = [CHUNK] * full + ([rest] if rest else [])
    parts = [fold(spec.child(i).generator(), rows) for i, rows in enumerate(sizes)]
    return [sum(map(int, column)) for column in zip(*parts)]


def estimate_evasion(c: Configuration, samples: int, rng) -> tuple[list[EstimateReport], EstimateReport]:
    """Frequency with which the evasive random edge crosses each plane, plus
    the union frequency Pr[some plane is crossed].  Crossing is evaluated on
    the unit-norm float copies under c.mode."""
    setup = bias_setup(c)
    tol = zero_tolerance(setup.V, setup.t)
    relaxed = c.mode == RELAXED

    def crossings(U: np.ndarray, k: np.ndarray) -> np.ndarray:
        # one slice's (edge, plane) crossing flags; the float copy of U and
        # the side values are freed before the next slice is tested
        X = U.astype(np.float64)
        # side values at the endpoints U and U with coordinate k flipped
        s0 = X @ setup.V.T - setup.t
        s1 = s0 - 2.0 * X[np.arange(len(k)), k][:, None] * setup.V.T[k]
        return sign_pair_crossings(s0, s1, tol, relaxed)

    def fold(gen: np.random.Generator, rows: int) -> list:
        U, k, drawn = batch_evasive_edges(setup, gen, rows)
        per_plane = np.zeros(c.m, dtype=np.int64)
        union = 0
        for part in row_slices(*U.shape):
            cross = crossings(U[part], k[part])
            per_plane += cross.sum(axis=0)
            union += int(cross.any(axis=1).sum())
        return [*per_plane, union, drawn]

    *per_plane, union, drawn = _fold_chunks(rng, samples, fold)
    rows = {"bias_rows_drawn": drawn, "bias_rows_accepted": samples}
    shape = math.sqrt(c.m) * math.log(c.n) ** 2 / c.n
    reports = [
        replace(_bernoulli_report(cnt, samples, rng.seed, shape), **rows) for cnt in per_plane
    ]
    union_report = _bernoulli_report(union, samples, rng.seed, min(1.0, c.m * shape))
    return reports, replace(union_report, **rows)


def estimate_linf_tail(c: Configuration, samples: int, rng) -> EstimateReport:
    """Frequency of max|P_i| > sampler.P_MAX = 1/2 under the unconditioned
    dyadic bias; the target bound is 2/n."""
    setup = bias_setup(c)

    def fold(gen: np.random.Generator, rows: int) -> list:
        return [np.count_nonzero(row_max_abs(batch_bias(setup, gen, rows)) > sampler.P_MAX)]

    (count,) = _fold_chunks(rng, samples, fold)
    return replace(_bernoulli_report(count, samples, rng.seed, 2.0 / c.n), bias_rows_drawn=samples)


def estimate_glue_sum(c: Configuration, plane_index: int, t: float | None, samples: int, rng) -> EstimateReport:
    """Monte Carlo estimate of sum_k Pr[|<v,x> - t| < 2|v_k|] for one plane's
    unit-norm copy v, with x drawn from the conditioned-bias product
    distribution.  Each sample contributes the count of qualifying axes k
    (the sum and the expectation commute), which lowers the variance
    relative to per-axis estimation at equal cost."""
    if not 0 <= plane_index < c.m:
        raise SlicerError(f"plane index {plane_index} out of range for m={c.m}")
    setup = bias_setup(c)
    v = setup.V[plane_index]
    tval = setup.t[plane_index] if t is None else float(t)
    gates = 2.0 * np.abs(v)

    def fold(gen: np.random.Generator, rows: int) -> list:
        P, drawn = batch_bias_conditioned(setup, gen, rows)
        x = batch_mu(P, gen)
        total = total_sq = 0
        for part in row_slices(*x.shape):
            # per sample, the count of axes k with |<v,x> - t| < 2|v_k|
            s = x[part].astype(np.float64) @ v - tval
            cnt = (np.abs(s)[:, None] < gates).sum(axis=1)
            total += int(cnt.sum())
            total_sq += int((cnt * cnt).sum())
        return [total, total_sq, drawn]

    total, total_sq, drawn = _fold_chunks(rng, samples, fold)
    target = math.sqrt(c.m) * math.log(c.n) ** 2
    report = _mean_report(total, total_sq, samples, rng.seed, target)
    return replace(report, bias_rows_drawn=drawn, bias_rows_accepted=samples)


def run_estimator(
    name: str,
    config: Configuration,
    samples: int,
    rng,
    plane_index: int = 0,
    t: float | None = None,
) -> tuple[list[EstimateReport], EstimateReport]:
    """Run the estimator called `name` (evasion, linf-tail or glue; `_` may
    stand for `-`) as (per-plane reports, summary report).  Only evasion has
    per-plane reports; plane_index and t are glue's."""
    key = name.replace("_", "-")
    if key == "evasion":
        return estimate_evasion(config, samples, rng)
    if key == "linf-tail":
        return [], estimate_linf_tail(config, samples, rng)
    if key == "glue":
        return [], estimate_glue_sum(config, plane_index, t, samples, rng)
    raise SlicerError(f"unknown estimator {name!r}")


def random_unit_configuration(n: int, m: int, rng) -> Configuration:
    """m random unit-norm float planes (Gaussian directions) through the origin."""
    if n < 1:
        # a direction in no dimensions has norm 0, and the redraw would never end
        raise DimensionTooSmall(f"random planes need n >= 1, got {n}")
    gen = as_generator(rng)
    planes = []
    for _ in range(m):
        norm = 0.0
        while norm == 0.0:
            row = gen.standard_normal(n)
            norm = math.sqrt(float(row @ row))
        row /= norm
        planes.append(make_hyperplane(row.tolist(), 0.0, "float"))
    return Configuration(n, tuple(planes))


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: dimension, plane count, and how to build the planes.
    A construction has its own plane count: m = None takes it, and an m
    that differs from it is a MalformedInput in the cell's row."""

    n: int
    m: int | None
    construction: str = "random"


def sweep(cells: Sequence[SweepCell], samples: int, rng, estimator: str = "evasion") -> list[dict]:
    """Run one estimator over a grid of configurations.

    Per-cell failures are recorded in the row's `error` field and the sweep
    continues.  Cell i derives its config stream from child(i, 0) and its
    estimation stream from child(i, 1)."""
    spec = _require_spec(rng)
    rows: list[dict] = []
    for idx, cell in enumerate(cells):
        row: dict = {
            "n": cell.n,
            "m": cell.m,
            "construction": cell.construction,
            "estimator": estimator,
            "samples": samples,
        }
        try:
            if cell.construction == "random":
                if cell.m is None:
                    raise MalformedInput("a random cell needs its plane count m")
                config = random_unit_configuration(cell.n, cell.m, spec.child(idx, 0))
            else:
                config = construction(cell.construction, cell.n, kind="float")
                if cell.m not in (None, config.m):
                    raise MalformedInput(
                        f"construction {cell.construction!r} has {config.m} planes at n = {cell.n}, not m = {cell.m}")
                row["m"] = config.m
            per_plane, rep = run_estimator(estimator, config, samples, spec.child(idx, 1))
            row.update(zip(REPORT_COLUMNS, rep.cells()))
            if per_plane:
                row["max_plane_estimate"] = max(r.point_estimate for r in per_plane)
            row["error"] = None
        except SlicerError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Simulated-annealing search for small slicing configurations.
# Integer coefficients keep the objective exact.
# ---------------------------------------------------------------------------

SEARCH_MAX_DIM = 8
# annealing schedule: restart after this many accepted moves without a new
# best; cool geometrically from T0 to T_END
RESTART_AFTER = 1000
T0 = 2.0
T_END = 0.05


def _edge_tables(n: int):
    """The vertices with a -1 column, so table @ [coeffs, t] is the side values,
    and the (2, edges) vertex indices of each edge's base and partner."""
    verts = np.array(
        [[1 if (mask >> i) & 1 else -1 for i in range(n)] + [-1] for mask in range(1 << n)],
        dtype=np.int64,
    )
    comp = np.arange(1 << (n - 1))
    bases = np.array([canonical_base(k, comp) for k in range(n)])
    return verts, np.stack([bases, bases | (1 << np.arange(n))[:, None]]).reshape(2, -1)


def _plane_edge_mask(tables, plane: np.ndarray) -> np.ndarray:
    # the sides of the plane [coeffs, t] are classified once, at both ends
    verts, ends = tables
    pos, nz = side_bits((verts @ plane)[ends])
    return crossing_bits(pos[0], nz[0], pos[1], nz[1])


def _random_plane(gen: np.random.Generator, n: int, coeff_range: int) -> np.ndarray:
    while True:
        row = gen.integers(-coeff_range, coeff_range + 1, size=n, dtype=np.int64)
        if row.any():
            return np.append(row, gen.integers(-coeff_range, coeff_range + 1))


def _search_replica(n: int, m: int, iters: int, gen: np.random.Generator, coeff_range: int):
    """One annealing run: (best energy, its planes as int64 rows [coeffs, t])."""
    tables = _edge_tables(n)
    edges_total = n << (n - 1)

    def fresh_state():
        planes = np.array([_random_plane(gen, n, coeff_range) for _ in range(m)])
        masks = np.array([_plane_edge_mask(tables, row) for row in planes])
        cover = masks.sum(axis=0)
        return planes, masks, cover, edges_total - int(np.count_nonzero(cover))

    planes, masks, cover, energy = fresh_state()
    best = (energy, planes.copy())
    gamma = (T_END / T0) ** (1.0 / max(iters, 1))
    temp = T0
    stagnant = 0

    for _ in range(iters):
        if best[0] == 0:
            break
        ell = int(gen.integers(m))
        move = gen.random()
        new_plane = planes[ell].copy()
        if move < 0.9:
            # coefficient i < n or the threshold i = n: a step, or a fresh value
            i = n if 0.5 <= move < 0.75 else int(gen.integers(n))
            if move < 0.75:
                step = 1 if gen.random() < 0.5 else -1
                value = min(max(int(new_plane[i]) + step, -coeff_range), coeff_range)
            else:
                value = int(gen.integers(-coeff_range, coeff_range + 1))
            new_plane[i] = value
            if value == 0 and i < n and not new_plane[:n].any():
                temp = max(temp * gamma, T_END)
                continue
        else:
            new_plane = _random_plane(gen, n, coeff_range)

        new_mask = _plane_edge_mask(tables, new_plane)
        new_cover = cover - masks[ell] + new_mask
        new_energy = edges_total - int(np.count_nonzero(new_cover))
        delta = new_energy - energy
        if delta <= 0 or gen.random() < math.exp(-delta / temp):
            planes[ell] = new_plane
            masks[ell] = new_mask
            cover = new_cover
            energy = new_energy
            if energy < best[0]:
                best = (energy, planes.copy())
                stagnant = 0
            else:
                stagnant += 1
            if stagnant >= RESTART_AFTER:
                planes, masks, cover, energy = fresh_state()
                temp = T0
                stagnant = 0
        temp = max(temp * gamma, T_END)

    return best


def local_search_slicing(
    n: int,
    m: int,
    iters: int,
    rng,
    *,
    coeff_range: int = 8,
    replicas: int = 1,
) -> tuple[Configuration, SlicingReport]:
    """Anneal integer-coefficient planes toward a complete slicing of the
    n-cube, minimizing the unsliced-edge count.  The returned report comes
    from an exact re-verification of the best configuration, so the reported
    objective is never better than the truth.

    The objective counts strict crossings: under the relaxed notion
    a single plane through two opposite vertices of the square already
    touches all four edges, so the counting-bound optimum only constrains
    the strict objective."""
    if n > SEARCH_MAX_DIM:
        raise DimensionTooLarge(f"search objective is exhaustive; capped at n <= {SEARCH_MAX_DIM}")
    spec = _require_spec(rng)
    results = [_search_replica(n, m, iters, spec.child(r).generator(), coeff_range) for r in range(replicas)]
    # deterministic best-of: ties broken by replica index
    best_idx = min(range(len(results)), key=lambda i: (results[i][0], i))
    planes = tuple(
        make_hyperplane([int(x) for x in row[:n]], int(row[n]), EXACT) for row in results[best_idx][1]
    )
    config = Configuration(n, planes)
    report = verify_slicing(config)
    return config, report
