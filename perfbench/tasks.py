"""Benchmark tasks: input generation, command lines and output checks.

Every task is one `cubeslicer` command line, run in-process through
`cubeslicer.cli.dispatch`.  Its inputs come from a variant index in
[0, POOL): the runner maps (workload seed, repetition) to a variant, so one
run never repeats an input and the same seed always gives the same inputs.

Checks use this file's own arithmetic (generating-function crossing counts,
brute-force re-verification, float recomputation) plus the golden values in
references.json.  Exact tasks must reproduce the reference bytes; Monte Carlo
tasks and the float oracle are compared within stated tolerances, so a change
of float summation order or of RNG consumption does not count as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

POOL = 24  # input variants per task; a run executes each task at most POOL times

# Monte Carlo comparisons allow this many standard deviations of the
# difference between two independent estimates.
STAT_SIGMAS = 5.0
FLOAT_RTOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    name: str
    verify_exact_n: int
    verify_float_n: int
    relaxed_n: int
    relaxed_m: int
    evasion: tuple[int, int, int]  # (n, m, samples)
    glue: tuple[int, int, int]  # (n, m, samples)
    sample: tuple[int, int, int]  # (n, m, count)
    bias: tuple[int, int, int]  # (n, m, count)
    search: tuple[int, int, int, int]  # (n, m, iters, replicas)
    qfunc_float_n: int
    qfunc_exact_n: int


FULL = Sizes("full", 21, 20, 20, 8, (1024, 100, 100_000), (256, 40, 100_000), (256, 40, 2000),
             (256, 12, 800), (6, 6, 20_000, 2), 22, 14)
TINY = Sizes("tiny", 8, 8, 8, 4, (64, 8, 2000), (32, 4, 2000), (32, 4, 50), (32, 3, 100), (4, 4, 500, 2),
             10, 8)
SIZES = {s.name: s for s in (FULL, TINY)}

# Round order per workload.  The largest task goes last, so a round cut short
# by the deadline still samples the small ones.
WORKLOADS = {
    "verify": ("verify_relaxed", "verify_float", "verify_exact", "verify_exact_t2"),
    "lab": ("glue", "sample", "bias", "search", "evasion"),
    "oracle": ("qfunc_exact", "qfunc_float"),
}

# Checked without references.json: verify_exact_t2 against verify_exact's
# bytes, bias against the law of the dyadic bias.
UNREFERENCED = {"verify_exact_t2", "bias"}
EXACT_TASKS = {"verify_relaxed", "verify_float", "verify_exact", "verify_exact_t2", "search", "qfunc_exact"}


@dataclass
class Job:
    """One prepared command line plus what its checks need to know."""

    task: str
    variant: int
    argv: list[str]
    expect_code: int
    context: dict = field(default_factory=dict)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(family: int, variant: int) -> np.random.Generator:
    return np.random.default_rng([family, variant])


def _token(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


# --------------------------------------------------------------------------
# Input generation
# --------------------------------------------------------------------------


def _middle_layers_skeleton(n: int, variant: int):
    """The middle-layers slicing moved by a random cube automorphism.

    Flipping coordinate signs maps the cube onto itself, so the plane
    sum_i sigma_i x_i = t crosses exactly the edges sum_i x_i = t crosses.
    Returns the generator (for per-plane scales) and the integer planes
    (coefficients, threshold) in shuffled file order.
    """
    rng = _rng(1, variant)
    sigma = [int(s) for s in rng.choice([-1, 1], size=n)]
    order = [int(k) for k in rng.permutation(n)]
    return rng, [(sigma, n - 2 * k - 1) for k in order]


def _prepare_verify_exact(task: str, variant: int, sizes: Sizes, workdir: Path) -> Job:
    n = sizes.verify_exact_n
    rng, skeleton = _middle_layers_skeleton(n, variant)
    planes = []
    for coeffs, t in skeleton:
        scale = Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        planes.append({"coeffs": [_token(c * scale) for c in coeffs], "threshold": _token(t * scale)})
    path = _write(workdir / f"mid-exact-{n}-{variant}.json", {"n": n, "mode": "strict", "planes": planes})
    threads = "2" if task == "verify_exact_t2" else "1"
    return Job(task, variant, ["verify", "--config", path, "--threads", threads], 0,
               {"n": n, "relaxed": False, "planes": skeleton, "complete": True})


def _prepare_verify_float(task: str, variant: int, sizes: Sizes, workdir: Path) -> Job:
    n = sizes.verify_float_n
    rng, skeleton = _middle_layers_skeleton(n, variant)
    planes = []
    for coeffs, t in skeleton:
        scale = float(rng.uniform(0.5, 2.0)) / math.sqrt(n)
        planes.append({"coeffs": [c * scale for c in coeffs], "threshold": float(t * scale)})
    path = _write(workdir / f"mid-float-{n}-{variant}.json", {"n": n, "mode": "strict", "planes": planes})
    return Job(task, variant, ["verify", "--config", path, "--threads", "1"], 0,
               {"n": n, "relaxed": False, "planes": skeleton, "complete": True})


def _integer_planes(rng: np.random.Generator, n: int, m: int, bound: int):
    planes = []
    while len(planes) < m:
        row = [int(x) for x in rng.integers(-bound, bound + 1, size=n)]
        t = int(rng.integers(-bound, bound + 1))
        if any(row):
            planes.append((row, t))
    return planes


def _prepare_verify_relaxed(task: str, variant: int, sizes: Sizes, workdir: Path) -> Job:
    n, m = sizes.relaxed_n, sizes.relaxed_m
    skeleton = _integer_planes(_rng(2, variant), n, m, 8)
    doc = {"n": n, "mode": "relaxed", "planes": [{"coeffs": c, "threshold": t} for c, t in skeleton]}
    path = _write(workdir / f"relaxed-{n}-{m}-{variant}.json", doc)
    return Job(task, variant, ["verify", "--config", path, "--threads", "1"], 1,
               {"n": n, "relaxed": True, "planes": skeleton, "complete": False})


def _prepare_estimate(task: str, variant: int, sizes: Sizes, workdir: Path) -> Job:
    n, m, samples = sizes.evasion if task == "evasion" else sizes.glue
    what = "evasion" if task == "evasion" else "glue"
    argv = ["estimate", what, "--n", str(n), "--m", str(m), "--samples", str(samples),
            "--seed", str(variant), "--threads", "1"]
    return Job(task, variant, argv, 0, {"n": n, "m": m, "samples": samples})


def _prepare_sample(task: str, variant: int, sizes: Sizes, workdir: Path) -> Job:
    n, m, count = sizes.sample
    rng = _rng(3, variant)
    V = rng.standard_normal((m, n))
    V /= np.sqrt((V * V).sum(axis=1))[:, None]
    doc = {"n": n, "mode": "strict",
           "planes": [{"coeffs": row.tolist(), "threshold": 0.0} for row in V]}
    path = _write(workdir / f"sample-{n}-{m}-{variant}.json", doc)
    argv = ["sample", "--config", path, "--count", str(count), "--emit", "edges",
            "--seed", str(variant), "--threads", "1"]
    return Job(task, variant, argv, 0, {"n": n, "count": count, "V": V})


def _prepare_bias(task: str, variant: int, sizes: Sizes, workdir: Path) -> Job:
    # Dense planes whose entry magnitudes spread over five binary orders, so
    # each plane splits into about six scales of many coordinates each.  With
    # fewer dyadic terms than coordinates and no term supported on a handful
    # of coordinates, the term matrix is well conditioned and the check can
    # solve for every draw's multipliers.
    n, m, count = sizes.bias
    rng = _rng(6, variant)
    V = rng.choice([-1.0, 1.0], size=(m, n)) * rng.uniform(1.0, 2.0, size=(m, n)) \
        * 2.0 ** -rng.integers(0, 5, size=(m, n))
    V /= np.sqrt(np.einsum("ij,ij->i", V, V))[:, None]
    doc = {"n": n, "mode": "strict",
           "planes": [{"coeffs": row.tolist(), "threshold": 0.0} for row in V]}
    path = _write(workdir / f"bias-{n}-{m}-{variant}.json", doc)
    argv = ["sample", "--config", path, "--count", str(count), "--emit", "bias",
            "--seed", str(variant), "--threads", "1"]
    return Job(task, variant, argv, 0, {"n": n, "m": m, "count": count, "V": V})


def _prepare_search(task: str, variant: int, sizes: Sizes, workdir: Path) -> Job:
    n, m, iters, replicas = sizes.search
    argv = ["search", "--n", str(n), "--m", str(m), "--iters", str(iters),
            "--replicas", str(replicas), "--seed", str(variant), "--threads", "1"]
    return Job(task, variant, argv, 0, {"n": n, "m": m, "coeff_range": 8})


def _prepare_qfunc_float(task: str, variant: int, sizes: Sizes, workdir: Path) -> Job:
    n = sizes.qfunc_float_n
    rng = _rng(4, variant)
    v = [float(x) for x in rng.standard_normal(n)]
    p = [float(x) for x in rng.uniform(-0.5, 0.5, n)]
    argv = ["qfunc", "--v=" + ",".join(map(repr, v)), "--p=" + ",".join(map(repr, p)),
            "--alpha", "1/2", "--mode", "float"]
    return Job(task, variant, argv, 0, {"v": v, "p": p, "alpha": Fraction(1, 2)})


def _prepare_qfunc_exact(task: str, variant: int, sizes: Sizes, workdir: Path) -> Job:
    # Every variant has the same cost: v_i = a_i / 3^k_i with k a permutation
    # of 1..n and 3 not dividing a_i, so all 2^n signed sums differ (the
    # highest power of 3 in a difference cannot cancel) and there are exactly
    # 2^n atoms; the bias magnitudes are a permuted fixed list, so the
    # probability denominators are the same in every variant.
    n = sizes.qfunc_exact_n
    rng = _rng(5, variant)
    v = []
    for k in rng.permutation(n):
        a = 3 * int(rng.integers(0, 20)) + int(rng.integers(1, 3))
        v.append(Fraction(int(rng.choice([-1, 1])) * a, 3 ** (int(k) + 1)))
    p = [Fraction(int(rng.choice([-1, 1])) * (1 + int(k) % 5), 10) for k in rng.permutation(n)]
    argv = ["qfunc", "--v=" + ",".join(str(x) for x in v), "--p=" + ",".join(str(x) for x in p),
            "--alpha", "1", "--mode", "exact"]
    return Job(task, variant, argv, 0, {"v": v, "p": p, "alpha": Fraction(1)})


_PREPARE = {
    "verify_exact": _prepare_verify_exact,
    "verify_exact_t2": _prepare_verify_exact,
    "verify_float": _prepare_verify_float,
    "verify_relaxed": _prepare_verify_relaxed,
    "evasion": _prepare_estimate,
    "glue": _prepare_estimate,
    "sample": _prepare_sample,
    "bias": _prepare_bias,
    "search": _prepare_search,
    "qfunc_float": _prepare_qfunc_float,
    "qfunc_exact": _prepare_qfunc_exact,
}


def prepare(task: str, variant: int, sizes: Sizes, workdir: Path) -> Job:
    return _PREPARE[task](task, variant, sizes, workdir)


# --------------------------------------------------------------------------
# Independent arithmetic used by the checks
# --------------------------------------------------------------------------


def counting_bound(n: int) -> int:
    """ceil(n/2) * C(n, ceil(n/2)): the most edges one plane can cut strictly."""
    half = (n + 1) // 2
    return half * math.comb(n, half)


def _cross(s0: np.ndarray, s1: np.ndarray, relaxed: bool) -> np.ndarray:
    z0, z1 = s0 == 0, s1 == 0
    cross = ~(z0 | z1) & ((s0 > 0) != (s1 > 0))
    return cross | (z0 != z1) if relaxed else cross


def plane_crossings(coeffs: list[int], t: int, relaxed: bool) -> int:
    """Edges one integer plane crosses, by generating functions.

    For axis k the other coordinates contribute a = sum_{i != k} c_i y_i; the
    count of sign vectors y giving each a is the coefficient list of
    prod_{i != k} (z^c_i + z^-c_i).  The edge is crossed iff the endpoint
    sides a - c_k - t and a + c_k - t are.  No 2^n enumeration is involved.
    """
    total = 0
    for k, ck in enumerate(coeffs):
        others = coeffs[:k] + coeffs[k + 1:]
        span = sum(abs(c) for c in others)
        dist = np.zeros(2 * span + 1, dtype=np.int64)
        dist[span] = 1
        for c in others:
            if c:
                c = abs(c)
                dist = np.concatenate([dist[c:], np.zeros(c, np.int64)]) + \
                    np.concatenate([np.zeros(c, np.int64), dist[:-c]])
            else:
                dist = 2 * dist
        a = np.arange(-span, span + 1)
        total += int(dist[_cross(a - ck - t, a + ck - t, relaxed)].sum())
    return total


def brute_force_report(n: int, planes, relaxed: bool, cap: int = 100) -> dict:
    """Per-plane counts, unsliced count and the first `cap` unsliced edges
    (axis-major, then by base index with the axis bit removed), by
    enumerating every edge."""
    masks = np.arange(1 << n)
    X = ((masks[:, None] >> np.arange(n)) & 1) * 2 - 1
    sides = [X @ np.array(c, dtype=np.int64) - t for c, t in planes]
    comp = np.arange(1 << (n - 1))
    per_plane = [0] * len(planes)
    unsliced = 0
    sample = []
    for k in range(n):
        base = ((comp >> k) << (k + 1)) | (comp & ((1 << k) - 1))
        crossed = np.zeros(comp.size, dtype=bool)
        for ell, s in enumerate(sides):
            cross = _cross(s[base], s[base | (1 << k)], relaxed)
            per_plane[ell] += int(cross.sum())
            crossed |= cross
        missing = base[~crossed]
        unsliced += int(missing.size)
        for b in missing[: max(0, cap - len(sample))]:
            sample.append({"axis": k, "base_signs": [int(x) for x in X[b]]})
    return {"per_plane": per_plane, "unsliced": unsliced, "sample": sample}


def _float_window_bounds(v, p, alpha: float) -> tuple[float, float]:
    """Bounds (lo, hi) on Q(alpha, X) from a float enumeration of the 2^n
    sign vectors.  Windows shorter than 2*alpha bound Q from below, windows
    longer than 2*alpha anchored at every atom bound it from above; the
    margin delta absorbs float rounding of the atom values."""
    vals = np.zeros(1)
    probs = np.ones(1)
    for vi, pi in zip(v, p):
        vi, pi = float(vi), float(pi)
        vals = np.concatenate([vals - vi, vals + vi])
        probs = np.concatenate([probs * (1 - pi) / 2, probs * (1 + pi) / 2])
    order = np.argsort(vals)
    vals, probs = vals[order], probs[order]
    cum = np.concatenate([[0.0], np.cumsum(probs)])
    delta = 1e-9 * max(1.0, float(np.abs(vals).max()))
    lo_start = np.searchsorted(vals, vals - delta, side="left")
    lo = cum[np.searchsorted(vals, vals + 2 * alpha - 2 * delta, side="left")] - cum[lo_start]
    hi = cum[np.searchsorted(vals, vals + 2 * alpha + delta, side="left")] - cum[lo_start]
    return float(lo.max()), float(hi.max())


def _stat_close(value: float, ref: float, samples: int) -> bool:
    """Two independent frequency estimates of one probability agree within
    STAT_SIGMAS standard deviations of their difference."""
    var = max(ref * (1.0 - ref), 1.0 / samples) / samples
    return abs(value - ref) <= STAT_SIGMAS * math.sqrt(2.0 * var)


def _near(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# --------------------------------------------------------------------------
# Checks: each returns a list of problems (empty when the output is right)
# --------------------------------------------------------------------------


def _check_verify(job: Job, text: str, ref) -> list[str]:
    ctx = job.context
    n, planes, relaxed = ctx["n"], ctx["planes"], ctx["relaxed"]
    out = json.loads(text)
    problems = []
    expect = {"n": n, "m": len(planes), "mode": "relaxed" if relaxed else "strict",
              "total_edges": n << (n - 1)}
    for key, want in expect.items():
        if out.get(key) != want:
            problems.append(f"{key}={out.get(key)!r}, expected {want!r}")
    counts = [plane_crossings(c, t, relaxed) for c, t in planes]
    if out["per_plane_crossings"] != counts:
        problems.append("per-plane crossings differ from the generating-function counts")
    if not relaxed and any(c > counting_bound(n) for c in out["per_plane_crossings"]):
        problems.append("a strict per-plane count exceeds the counting bound")
    unsliced = out["unsliced_count"]
    if out["complete"] != (unsliced == 0):
        problems.append("complete flag disagrees with unsliced_count")
    if ctx["complete"] and unsliced != 0:
        problems.append(f"middle-layers slicing reported {unsliced} unsliced edges")
    if len(out["unsliced_sample"]) != min(100, unsliced):
        problems.append("unsliced sample has the wrong length")
    if n <= 12:
        brute = brute_force_report(n, planes, relaxed)
        if unsliced != brute["unsliced"] or out["unsliced_sample"] != brute["sample"]:
            problems.append("unsliced edges differ from brute-force enumeration")
    else:
        for e in out["unsliced_sample"]:
            x = e["base_signs"]
            k = e["axis"]
            for c, t in planes:
                s0 = sum(ci * xi for ci, xi in zip(c, x)) - t
                s1 = s0 - 2 * c[k] * x[k]
                if _cross(np.array(s0), np.array(s1), relaxed):
                    problems.append(f"sampled unsliced edge on axis {k} is crossed")
                    break
    if ref is not None and sha256(text) != ref["sha256"]:
        problems.append("result bytes differ from the reference")
    return problems


def _check_search(job: Job, text: str, ref) -> list[str]:
    ctx = job.context
    n, m = ctx["n"], ctx["m"]
    out = json.loads(text)
    problems = []
    report = out["report"]
    if out["objective"] != report["unsliced_count"]:
        problems.append("objective differs from the report's unsliced_count")
    cfg = out["config"]
    planes = [(p["coeffs"], p["threshold"]) for p in cfg["planes"]]
    if cfg["n"] != n or len(planes) != m:
        problems.append("returned configuration has the wrong shape")
        return problems
    bound = ctx["coeff_range"]
    if any(not isinstance(x, int) or abs(x) > bound for c, t in planes for x in c + [t]):
        problems.append("coefficients outside the integer search range")
    brute = brute_force_report(n, planes, relaxed=False)
    if report["per_plane_crossings"] != brute["per_plane"] or report["unsliced_count"] != brute["unsliced"] \
            or report["unsliced_sample"] != brute["sample"]:
        problems.append("report differs from brute-force re-verification")
    if any(c > counting_bound(n) for c in report["per_plane_crossings"]):
        problems.append("a strict per-plane count exceeds the counting bound")
    if ref is not None and sha256(text) != ref["sha256"]:
        problems.append("result bytes differ from the reference")
    return problems


def _check_qfunc_common(job: Job, out: dict) -> list[str]:
    ctx = job.context
    a = sum(1 for x in ctx["v"] if abs(x) >= ctx["alpha"])
    problems = []
    if out["a"] != a:
        problems.append(f"a={out['a']}, expected {a}")
    if a >= 1 and Fraction(out["sperner"]) != Fraction(math.comb(a, a // 2), 1 << a):
        problems.append("sperner bound differs")
    q = float(Fraction(out["q"])) if isinstance(out["q"], str) else float(out["q"])
    if not 0.0 < q <= 1.0 + 1e-12:
        problems.append(f"q={q} outside (0, 1]")
    if not _near(out["ratio"], q * math.sqrt(a), 1e-12):
        problems.append("ratio differs from q * sqrt(a)")
    if len(ctx["v"]) <= 16:
        lo, hi = _float_window_bounds(ctx["v"], ctx["p"], float(ctx["alpha"]))
        if not lo - 1e-9 <= q <= hi + 1e-9:
            problems.append(f"q={q} outside the enumerated bounds [{lo}, {hi}]")
    return problems


def _check_qfunc_exact(job: Job, text: str, ref) -> list[str]:
    problems = _check_qfunc_common(job, json.loads(text))
    if ref is not None and sha256(text) != ref["sha256"]:
        problems.append("result bytes differ from the reference")
    return problems


def _check_qfunc_float(job: Job, text: str, ref) -> list[str]:
    out = json.loads(text)
    problems = _check_qfunc_common(job, out)
    if ref is not None and not _near(out["q"], ref["q"], FLOAT_RTOL):
        problems.append(f"q={out['q']!r} differs from the reference {ref['q']!r}")
    return problems


def _check_bernoulli(rep: dict, samples: int) -> list[str]:
    p = rep["point_estimate"]
    problems = []
    if rep["samples"] != samples or not 0.0 <= p <= 1.0:
        problems.append("estimate has the wrong sample count or leaves [0, 1]")
    elif abs(p * samples - round(p * samples)) > 1e-6:
        problems.append("estimate is not a count over the samples")
    if not rep["ci95"][0] <= p <= rep["ci95"][1]:
        problems.append("ci95 does not contain the estimate")
    return problems


def _check_evasion(job: Job, text: str, ref) -> list[str]:
    ctx = job.context
    n, m, samples = ctx["n"], ctx["m"], ctx["samples"]
    out = json.loads(text)
    problems = []
    if (out["estimator"], out["n"], out["m"], out["samples"]) != ("evasion", n, m, samples) \
            or len(out["per_plane"]) != m:
        return ["report header or plane count is wrong"]
    for rep in out["per_plane"] + [out["union"]]:
        problems += _check_bernoulli(rep, samples)
    planes = [r["point_estimate"] for r in out["per_plane"]]
    union = out["union"]["point_estimate"]
    if not max(planes) - 1e-15 <= union <= min(1.0, sum(planes)) + 1e-12:
        problems.append("union estimate outside [max plane, sum of planes]")
    shape = math.sqrt(m) * math.log(n) ** 2 / n
    if not _near(out["per_plane"][0]["target_bound"], shape, 1e-12):
        problems.append("per-plane target bound differs from sqrt(m) log^2 n / n")
    if ref is not None:
        if not _stat_close(union, ref["union"], samples):
            problems.append(f"union {union} differs from the reference {ref['union']}")
        bad = sum(not _stat_close(x, r, samples) for x, r in zip(planes, ref["per_plane"]))
        if bad:
            problems.append(f"{bad} per-plane estimates differ from the references")
    return problems


def _check_glue(job: Job, text: str, ref) -> list[str]:
    ctx = job.context
    n, m, samples = ctx["n"], ctx["m"], ctx["samples"]
    out = json.loads(text)
    if (out["estimator"], out["n"], out["m"], out["samples"]) != ("glue_sum", n, m, samples):
        return ["report header is wrong"]
    mean, se = out["point_estimate"], out["std_error"]
    problems = []
    if not 0.0 <= mean <= n:
        problems.append(f"glue sum {mean} outside [0, n]")
    if not (_near(out["ci95"][0], mean - 1.959963984540054 * se, 1e-9)
            and _near(out["ci95"][1], mean + 1.959963984540054 * se, 1e-9)):
        problems.append("ci95 is not the normal interval around the mean")
    if not _near(out["target_bound"], math.sqrt(m) * math.log(n) ** 2, 1e-12):
        problems.append("target bound differs from sqrt(m) log^2 n")
    if ref is not None:
        tol = STAT_SIGMAS * math.sqrt(se * se + ref["std_error"] ** 2)
        if abs(mean - ref["point_estimate"]) > tol:
            problems.append(f"glue sum {mean} differs from the reference {ref['point_estimate']}")
    return problems


def _json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def sample_statistics(job: Job, edges: list[dict]) -> dict:
    """Share of sampled edges that some plane crosses, and the mean axis."""
    U = np.array([e["base_signs"] for e in edges], dtype=np.float64)
    k = np.array([e["axis"] for e in edges])
    V = job.context["V"]
    s0 = U @ V.T
    s1 = s0 - 2.0 * (U[np.arange(len(k)), k])[:, None] * V.T[k]
    tol = 1e-9
    cross = (np.abs(s0) > tol) & (np.abs(s1) > tol) & ((s0 > 0) != (s1 > 0))
    return {"crossed": float(cross.any(axis=1).mean()), "mean_axis": float(k.mean())}


def _check_sample(job: Job, text: str, ref) -> list[str]:
    n, count = job.context["n"], job.context["count"]
    edges = _json_lines(text)
    if len(edges) != count:
        return [f"{len(edges)} sample lines, expected {count}"]
    if any(not 0 <= e["axis"] < n or len(e["base_signs"]) != n
           or any(x not in (-1, 1) for x in e["base_signs"]) for e in edges):
        return ["malformed sampled edge"]
    stats = sample_statistics(job, edges)
    problems = []
    sd_axis = math.sqrt((n * n - 1) / 12.0 / count)
    if abs(stats["mean_axis"] - (n - 1) / 2.0) > STAT_SIGMAS * sd_axis:
        problems.append(f"mean axis {stats['mean_axis']} is not uniform over {n} axes")
    if ref is not None and not _stat_close(stats["crossed"], ref["crossed"], count):
        problems.append(f"crossed share {stats['crossed']} differs from the reference {ref['crossed']}")
    return problems


def dyadic_term_matrix(V: np.ndarray) -> np.ndarray:
    """Rows 2^j v^(j): for each plane v, its entries with |v_i| in
    (2^(-j-1), 2^(-j)], scaled by 2^j, one row per scale j that occurs."""
    rows = []
    for v in V:
        mant, exp = np.frexp(np.abs(v))
        j = np.where(mant == 0.5, 1 - exp, -exp)
        for scale in np.unique(j[v != 0]):
            rows.append(np.where((j == scale) & (v != 0), np.ldexp(v, scale), 0.0))
    return np.array(rows)


def _check_bias(job: Job, text: str, ref) -> list[str]:
    """Every draw must be P = s * alpha @ W with W the dyadic term matrix of
    the unit-norm planes, s = 1 / (10 sqrt(m ln n)) and alpha in [-1, 1]^K;
    the multipliers of all draws together must look uniform on [-1, 1].

    With fewer terms K than coordinates n, W has full row rank and alpha is
    recovered by least squares.  At these sizes max|P_i| > 1/2 is tens of
    standard deviations out, so conditioning rejects no draw and the
    multipliers keep their uniform law.  A bias that is zero, rescaled, not
    split by scale or drawn from another law fails the residual, the range or
    the Kolmogorov-Smirnov test (sqrt(N) D > 3 has probability about 3e-8
    under the uniform law).
    """
    n, m, count = job.context["n"], job.context["m"], job.context["count"]
    lines = _json_lines(text)
    if len(lines) != count:
        return [f"{len(lines)} bias lines, expected {count}"]
    if any(len(b["p"]) != n or b["conditioned"] is not True or b["clamped"] is not False for b in lines):
        return ["malformed bias line"]
    P = np.array([b["p"] for b in lines], dtype=np.float64)
    problems = []
    if np.abs(P).max() > 0.5:
        problems.append("a conditioned bias has an entry above 1/2")
    W = dyadic_term_matrix(job.context["V"])
    s = 1.0 / (10.0 * math.sqrt(m * math.log(n)))
    alpha = np.linalg.lstsq(W.T, P.T / s, rcond=None)[0].T
    residual = np.abs(s * alpha @ W - P).max()
    if not residual <= 1e-9 * max(np.abs(P).max(), 1e-300):
        problems.append(f"bias is not a combination of the dyadic terms (residual {residual:.3g})")
    if np.abs(alpha).max() > 1.0 + 1e-9:
        problems.append(f"a multiplier has magnitude {np.abs(alpha).max():.6g} > 1")
    a = np.sort(alpha.ravel())
    cdf = (a + 1.0) / 2.0
    ranks = np.arange(a.size)
    ks = math.sqrt(a.size) * max(((ranks + 1) / a.size - cdf).max(), (cdf - ranks / a.size).max())
    if ks > 3.0:
        problems.append(f"multipliers are not uniform on [-1, 1] (sqrt(N) D = {ks:.3g})")
    return problems


_CHECK = {
    "verify_exact": _check_verify,
    "verify_exact_t2": _check_verify,
    "verify_float": _check_verify,
    "verify_relaxed": _check_verify,
    "evasion": _check_evasion,
    "glue": _check_glue,
    "sample": _check_sample,
    "bias": _check_bias,
    "search": _check_search,
    "qfunc_float": _check_qfunc_float,
    "qfunc_exact": _check_qfunc_exact,
}


def check(job: Job, code: int, text: str, ref) -> list[str]:
    """Problems with one task's exit code and stdout; empty means correct."""
    if code != job.expect_code:
        return [f"exit code {code}, expected {job.expect_code}"]
    try:
        return _CHECK[job.task](job, text, ref)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def reference_entry(job: Job, text: str) -> dict:
    """What references.json records for one (task, variant)."""
    if job.task in EXACT_TASKS:
        return {"sha256": sha256(text)}
    out = None if job.task == "sample" else json.loads(text)
    if job.task == "evasion":
        return {"union": out["union"]["point_estimate"],
                "per_plane": [r["point_estimate"] for r in out["per_plane"]]}
    if job.task == "glue":
        return {"point_estimate": out["point_estimate"], "std_error": out["std_error"]}
    if job.task == "sample":
        return {"crossed": sample_statistics(job, _json_lines(text))["crossed"]}
    return {"q": out["q"]}
