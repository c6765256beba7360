"""Monte Carlo estimators for the probabilistic claims and a simulated-annealing
search for small slicing configurations.

Estimators split the sample budget into fixed-size chunks, give every chunk
its own substream (child of the caller's RngSpec), and fold integer partial
counts in chunk order - so reports are byte-identical for any thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    EXACT,
    RELAXED,
    STRICT,
    Configuration,
    canonical_base,
    make_hyperplane,
    sign_pair_crossings,
    zero_tolerance,
)
from .errors import DimensionTooLarge, SlicerError
from .sampler import (
    RngSpec,
    batch_bias,
    batch_bias_conditioned,
    batch_mu,
    bias_setup,
)
from .verifier import SlicingReport, verify_slicing

CHUNK = 1 << 14
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


def _chunk_sizes(samples: int) -> list[int]:
    if samples < 1:
        raise ValueError("samples must be >= 1")
    full, rest = divmod(samples, CHUNK)
    return [CHUNK] * full + ([rest] if rest else [])


def _run_ordered(fn: Callable[[int], object], count: int, threads: int) -> list:
    if threads > 1 and count > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, range(count)))
    return [fn(i) for i in range(count)]


def _require_spec(rng) -> RngSpec:
    if not isinstance(rng, RngSpec):
        raise TypeError("estimators need an RngSpec so chunk substreams are well-defined")
    return rng


def estimate_evasion(
    c: Configuration,
    samples: int,
    rng,
    threads: int = 1,
    *,
    max_retries: int = 1000,
    log_base: float = math.e,
    damping: float = 10.0,
) -> tuple[list[EstimateReport], EstimateReport]:
    """Frequency with which the evasive random edge crosses each plane, plus
    the union frequency Pr[some plane is crossed].  Crossing is evaluated on
    the unit-norm float copies under c.mode."""
    spec = _require_spec(rng)
    setup = bias_setup(c, log_base=log_base, damping=damping)
    tol = zero_tolerance(setup.V, setup.t)
    relaxed = c.mode == RELAXED
    sizes = _chunk_sizes(samples)

    def chunk(i: int):
        gen = spec.child(i).generator()
        P = batch_bias_conditioned(setup, gen, sizes[i], max_retries)
        U = batch_mu(P, gen).astype(np.float64)
        k = gen.integers(c.n, size=sizes[i])
        # side values at the endpoints U and U with coordinate k flipped
        s0 = U @ setup.V.T - setup.t
        s1 = s0 - 2.0 * U[np.arange(sizes[i]), k][:, None] * setup.V.T[k]
        cross = sign_pair_crossings(s0, s1, tol, relaxed)
        return cross.sum(axis=0), int(cross.any(axis=1).sum())

    parts = _run_ordered(chunk, len(sizes), threads)
    per_plane = [0] * c.m
    union = 0
    for counts, u in parts:
        for ell in range(c.m):
            per_plane[ell] += int(counts[ell])
        union += u
    shape = math.sqrt(c.m) * math.log(c.n) ** 2 / c.n
    reports = [
        _bernoulli_report(cnt, samples, spec.seed, shape) for cnt in per_plane
    ]
    union_report = _bernoulli_report(union, samples, spec.seed, min(1.0, c.m * shape))
    return reports, union_report


def estimate_linf_tail(
    c: Configuration,
    samples: int,
    rng,
    threads: int = 1,
    *,
    log_base: float = math.e,
    damping: float = 10.0,
) -> EstimateReport:
    """Frequency of max|P_i| > 1/2 under the unconditioned dyadic bias;
    the target bound is 2/n."""
    spec = _require_spec(rng)
    setup = bias_setup(c, log_base=log_base, damping=damping)
    sizes = _chunk_sizes(samples)

    def chunk(i: int) -> int:
        gen = spec.child(i).generator()
        P = batch_bias(setup, gen, sizes[i])
        return int(np.count_nonzero(np.abs(P).max(axis=1) > 0.5))

    count = sum(_run_ordered(chunk, len(sizes), threads))
    return _bernoulli_report(count, samples, spec.seed, 2.0 / c.n)


def estimate_glue_sum(
    c: Configuration,
    plane_index: int,
    t: float | None,
    samples: int,
    rng,
    threads: int = 1,
    *,
    max_retries: int = 1000,
    log_base: float = math.e,
    damping: float = 10.0,
) -> EstimateReport:
    """Monte Carlo estimate of sum_k Pr[|<v,x> - t| < 2|v_k|] for one plane's
    unit-norm copy v, with x drawn from the conditioned-bias product
    distribution.  Each sample contributes the count of qualifying axes k
    (the sum and the expectation commute), which lowers the variance
    relative to per-axis estimation at equal cost."""
    spec = _require_spec(rng)
    if not 0 <= plane_index < c.m:
        raise SlicerError(f"plane index {plane_index} out of range for m={c.m}")
    setup = bias_setup(c, log_base=log_base, damping=damping)
    v = setup.V[plane_index]
    tval = setup.t[plane_index] if t is None else float(t)
    gates = 2.0 * np.abs(v)
    sizes = _chunk_sizes(samples)

    def chunk(i: int) -> tuple[int, int]:
        gen = spec.child(i).generator()
        P = batch_bias_conditioned(setup, gen, sizes[i], max_retries)
        x = batch_mu(P, gen).astype(np.float64)
        s = x @ v - tval
        cnt = (np.abs(s)[:, None] < gates).sum(axis=1)
        return int(cnt.sum()), int((cnt * cnt).sum())

    parts = _run_ordered(chunk, len(sizes), threads)
    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    target = math.sqrt(c.m) * math.log(c.n) ** 2
    return _mean_report(total, total_sq, samples, spec.seed, target)


def random_unit_configuration(
    n: int, m: int, rng, mode: str = STRICT, threshold_spread: float = 0.0
) -> Configuration:
    """m random unit-norm float planes (Gaussian directions); thresholds are 0
    or uniform on [-spread, spread]."""
    if isinstance(rng, RngSpec):
        gen = rng.generator()
    else:
        gen = rng
    planes = []
    for _ in range(m):
        row = gen.standard_normal(n)
        norm = math.sqrt(float(row @ row))
        while norm == 0.0:
            row = gen.standard_normal(n)
            norm = math.sqrt(float(row @ row))
        row /= norm
        t = float(gen.uniform(-threshold_spread, threshold_spread)) if threshold_spread else 0.0
        planes.append(make_hyperplane(row.tolist(), t, "float"))
    return Configuration(n, tuple(planes), mode)


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: dimension, plane count, and how to build the planes."""

    n: int
    m: int
    construction: str = "random"


def sweep(
    cells: Sequence[SweepCell],
    samples: int,
    rng,
    threads: int = 1,
    estimator: str = "evasion",
) -> list[dict]:
    """Run one estimator over a grid of configurations.

    Per-cell failures are recorded in the row's `error` field and the sweep
    continues.  Cell i derives its config stream from child(i, 0) and its
    estimation stream from child(i, 1)."""
    from .core import construction as build_construction

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
                config = random_unit_configuration(cell.n, cell.m, spec.child(idx, 0))
            else:
                config = build_construction(cell.construction, cell.n, kind="float")
                row["m"] = config.m
            est_rng = spec.child(idx, 1)
            if estimator == "evasion":
                per_plane, union = estimate_evasion(config, samples, est_rng, threads)
                row.update(
                    point_estimate=union.point_estimate,
                    std_error=union.std_error,
                    ci95_low=union.ci95[0],
                    ci95_high=union.ci95[1],
                    target_bound=union.target_bound,
                    max_plane_estimate=max(r.point_estimate for r in per_plane),
                )
            elif estimator == "linf_tail":
                rep = estimate_linf_tail(config, samples, est_rng, threads)
                row.update(
                    point_estimate=rep.point_estimate,
                    std_error=rep.std_error,
                    ci95_low=rep.ci95[0],
                    ci95_high=rep.ci95[1],
                    target_bound=rep.target_bound,
                )
            elif estimator == "glue":
                rep = estimate_glue_sum(config, 0, None, samples, est_rng, threads)
                row.update(
                    point_estimate=rep.point_estimate,
                    std_error=rep.std_error,
                    ci95_low=rep.ci95[0],
                    ci95_high=rep.ci95[1],
                    target_bound=rep.target_bound,
                )
            else:
                raise SlicerError(f"unknown estimator {estimator!r}")
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


@dataclass
class SearchState:
    """Mutable annealing state for one replica."""

    coeffs: np.ndarray  # (m, n) int64
    thresholds: np.ndarray  # (m,) int64
    objective: int
    temperature: float
    iteration: int


def _edge_tables(n: int):
    verts = np.array(
        [[1 if (mask >> i) & 1 else -1 for i in range(n)] for mask in range(1 << n)],
        dtype=np.int64,
    )
    comp = np.arange(1 << (n - 1))
    bases = np.array([canonical_base(k, comp) for k in range(n)])
    return verts, bases, bases | (1 << np.arange(n))[:, None]


def _plane_edge_mask(tables, coeffs: np.ndarray, t: int, relaxed: bool) -> np.ndarray:
    verts, bases, partners = tables
    side = verts @ coeffs - t
    return sign_pair_crossings(side[bases], side[partners], None, relaxed).reshape(-1)


def _random_plane(gen: np.random.Generator, n: int, coeff_range: int):
    while True:
        row = gen.integers(-coeff_range, coeff_range + 1, size=n, dtype=np.int64)
        if np.any(row):
            return row, int(gen.integers(-coeff_range, coeff_range + 1))


def _search_replica(
    n: int,
    m: int,
    iters: int,
    gen: np.random.Generator,
    coeff_range: int,
    relaxed: bool,
    restart_after: int,
    t0: float,
    t_end: float,
):
    tables = _edge_tables(n)
    edges_total = n << (n - 1)

    def fresh_state():
        coeffs = np.empty((m, n), dtype=np.int64)
        ts = np.empty(m, dtype=np.int64)
        for ell in range(m):
            coeffs[ell], ts[ell] = _random_plane(gen, n, coeff_range)
        masks = np.array([_plane_edge_mask(tables, coeffs[ell], int(ts[ell]), relaxed) for ell in range(m)])
        cover = masks.sum(axis=0)
        return coeffs, ts, masks, cover, edges_total - int(np.count_nonzero(cover))

    coeffs, ts, masks, cover, energy = fresh_state()
    best = (energy, coeffs.copy(), ts.copy())
    gamma = (t_end / t0) ** (1.0 / max(iters, 1))
    temp = t0
    stagnant = 0

    for _ in range(iters):
        if best[0] == 0:
            break
        ell = int(gen.integers(m))
        move = gen.random()
        new_row = coeffs[ell].copy()
        new_t = int(ts[ell])
        if move < 0.5:
            i = int(gen.integers(n))
            step = 1 if gen.random() < 0.5 else -1
            new_row[i] = np.clip(new_row[i] + step, -coeff_range, coeff_range)
            if not np.any(new_row):
                temp = max(temp * gamma, t_end)
                continue
        elif move < 0.75:
            step = 1 if gen.random() < 0.5 else -1
            new_t = int(np.clip(new_t + step, -coeff_range, coeff_range))
        elif move < 0.9:
            i = int(gen.integers(n))
            new_row[i] = int(gen.integers(-coeff_range, coeff_range + 1))
            if not np.any(new_row):
                temp = max(temp * gamma, t_end)
                continue
        else:
            new_row, new_t = _random_plane(gen, n, coeff_range)

        new_mask = _plane_edge_mask(tables, new_row, new_t, relaxed)
        new_cover = cover - masks[ell] + new_mask
        new_energy = edges_total - int(np.count_nonzero(new_cover))
        delta = new_energy - energy
        if delta <= 0 or gen.random() < math.exp(-delta / temp):
            coeffs[ell] = new_row
            ts[ell] = new_t
            masks[ell] = new_mask
            cover = new_cover
            energy = new_energy
            if energy < best[0]:
                best = (energy, coeffs.copy(), ts.copy())
                stagnant = 0
            else:
                stagnant += 1
            if stagnant >= restart_after:
                coeffs, ts, masks, cover, energy = fresh_state()
                temp = t0
                stagnant = 0
        temp = max(temp * gamma, t_end)

    return best


def local_search_slicing(
    n: int,
    m: int,
    iters: int,
    rng,
    *,
    coeff_range: int = 8,
    replicas: int = 1,
    threads: int = 1,
    mode: str = STRICT,
    restart_after: int = 1000,
    t0: float = 2.0,
    t_end: float = 0.05,
) -> tuple[Configuration, SlicingReport]:
    """Anneal integer-coefficient planes toward a complete slicing of the
    n-cube, minimizing the unsliced-edge count.  The returned report comes
    from an exact re-verification of the best configuration, so the reported
    objective is never better than the truth.

    The default objective counts strict crossings: under the relaxed notion
    a single plane through two opposite vertices of the square already
    touches all four edges, so the counting-bound optimum only constrains
    the strict objective."""
    if n > SEARCH_MAX_DIM:
        raise DimensionTooLarge(f"search objective is exhaustive; capped at n <= {SEARCH_MAX_DIM}")
    spec = _require_spec(rng)
    relaxed = mode == RELAXED

    def replica(r: int):
        gen = spec.child(r).generator()
        return _search_replica(n, m, iters, gen, coeff_range, relaxed, restart_after, t0, t_end)

    results = _run_ordered(replica, replicas, threads)
    # deterministic best-of: ties broken by replica index
    best_idx = min(range(len(results)), key=lambda i: (results[i][0], i))
    _, best_coeffs, best_ts = results[best_idx]

    planes = tuple(
        make_hyperplane([int(x) for x in best_coeffs[ell]], int(best_ts[ell]), EXACT)
        for ell in range(m)
    )
    config = Configuration(n, planes, mode)
    report = verify_slicing(config)
    return config, report
