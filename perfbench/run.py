"""cubeslicer benchmark: whole CLI commands, timed in-process, one workload per process.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client: the next command starts when
the previous one has returned.  A command is one `cubeslicer.cli.dispatch(argv)`
call with stdout captured, exactly what a user would type.  Inputs come from
the seed and the repetition index (see tasks.py), every output is checked,
and the last line of stdout is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
The lines before it print the environment, every per-task median with its
sample count, and the check results; the same report is written to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 8  # extra set-ups in fresh interpreters; setup_s is the median with the run's own
WORKLOAD_NAMES = ("verify", "lab", "oracle")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_threads() -> None:
    # Must run before numpy loads: BLAS reads these once.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(_nproc())
    os.environ.pop("SLICER_THREADS", None)  # every command passes --threads explicitly


# --------------------------------------------------------------------------
# Environment block
# --------------------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Ask the loaded OpenBLAS for its thread count."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(args) -> dict:
    import hashlib
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cubeslicer").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "sizes": args.sizes,
    }


# --------------------------------------------------------------------------
# Set-up and task execution
# --------------------------------------------------------------------------


def variant(seed: int, rep: int, pool: int) -> int:
    return (seed + rep) % pool


class Bench:
    """Everything a run needs after set-up: the CLI, the task module, references."""

    def __init__(self, workload: str, seed: int, sizes_name: str, workdir: Path):
        sys.path.insert(0, str(ROOT / "src"))
        import cubeslicer.cli
        import cubeslicer.sampler
        import tasks

        self.cli = cubeslicer.cli
        # the lru_cache handle, taken before any tracing wrapper replaces it
        self._clear_bias_cache = cubeslicer.sampler.bias_setup.cache_clear
        self.tasks = tasks
        self.order = tasks.WORKLOADS[workload]
        self.seed = seed
        self.sizes = tasks.SIZES[sizes_name]
        self.workdir = workdir
        ref_path = HERE / "references.json"
        refs = json.loads(ref_path.read_text()) if ref_path.exists() else {}
        self.refs = refs.get(self.sizes.name, {})
        self._first = {name: self._prepare(name, 0) for name in self.order}
        for name in self.order:  # warm code paths and allocators at tiny size
            self.call(tasks.prepare(name, 0, tasks.TINY, workdir).argv)

    def _prepare(self, name: str, rep: int):
        return self.tasks.prepare(name, variant(self.seed, rep, self.tasks.POOL), self.sizes, self.workdir)

    def prepare(self, name: str, rep: int):
        """The job for a task's rep-th execution; the first ones were made during set-up."""
        return self._first.pop(name) if rep == 0 else self._prepare(name, rep)

    def reference(self, job):
        ref_task = "verify_exact" if job.task == "verify_exact_t2" else job.task
        return self.refs.get(ref_task, {}).get(str(job.variant))

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        """One CLI command, as a fresh process would see it: no warm caches."""
        self._clear_bias_cache()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            code = self.cli.dispatch(argv)
            elapsed = time.perf_counter() - start
        return code, out.getvalue(), elapsed


def setup(workload: str, seed: int, sizes_name: str, workdir: Path) -> tuple[Bench, float]:
    start = time.perf_counter()
    bench = Bench(workload, seed, sizes_name, workdir)
    return bench, time.perf_counter() - start


def probe_setups(args) -> list[float]:
    """Set-up times measured in fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--sizes", args.sizes, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Measurement:
    """Per-task samples and check outcomes of one run."""

    def __init__(self, order):
        self.untraced = {name: [] for name in order}
        self.traced = {name: [] for name in order}
        self.layers = {name: [] for name in order}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.exact_digest: dict[int, str] = {}
        self.search_unsliced = 0
        self.search_runs = 0
        self.task_ids: dict[int, dict] = {}

    def record(self, job, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{job.task}[variant {job.variant}]: {p}" for p in problems)


def run_job(bench: Bench, job, rep: int, meas: Measurement, tracer) -> None:
    """Run one task (and, when tracing, its traced twin) and check the output."""
    tasks = bench.tasks
    ref = bench.reference(job)
    # traced and untraced twins alternate which goes first
    order = [False] if tracer is None else [False, True] if rep % 2 == 0 else [True, False]
    texts: set[str] = set()
    for traced in order:
        try:
            if traced:
                task_id = len(meas.task_ids)
                meas.task_ids[task_id] = {"task": job.task, "variant": job.variant}
                tracer.task_id = task_id
                tracer.install()
                try:
                    code, text, secs = bench.call(job.argv)
                finally:
                    tracer.uninstall()
            else:
                code, text, secs = bench.call(job.argv)
        except Exception as exc:  # a crashing command is a failed task, the run goes on
            meas.record(job, [f"raised {type(exc).__name__}: {exc}"])
            continue
        problems = tasks.check(job, code, text, ref)
        if job.task == "verify_exact":
            meas.exact_digest[job.variant] = tasks.sha256(text)
        elif job.task == "verify_exact_t2" and meas.exact_digest.get(job.variant) != tasks.sha256(text):
            problems.append("--threads 2 output differs from --threads 1")
        if traced:
            meas.traced[job.task].append(secs)
            layers = tracer.task_layers(task_id)
            layers["cli.result_bytes"] = {"bytes": len(text.encode())}
            meas.layers[job.task].append(layers)
        else:
            meas.untraced[job.task].append(secs)
            if job.task == "search" and not problems:
                meas.search_unsliced += json.loads(text)["objective"]
                meas.search_runs += 1
        if texts and text not in texts:
            problems.append("traced and untraced outputs differ")
        texts.add(text)
        meas.record(job, problems)


def measure(bench: Bench, seconds: float, tracer) -> Measurement:
    """Rounds through the workload's tasks until the next task would end past
    the deadline (its previous duration predicts its next); the first round
    always runs whole."""
    meas = Measurement(bench.order)
    reps = {name: 0 for name in bench.order}
    last: dict[str, float] = {}
    start = time.perf_counter()
    while True:
        for name in bench.order:
            elapsed = time.perf_counter() - start
            if reps[name] >= bench.tasks.POOL or (name in last and elapsed + last[name] > seconds):
                return meas
            job = bench.prepare(name, reps[name])
            run_job(bench, job, reps[name], meas, tracer)
            last[name] = time.perf_counter() - start - elapsed
            reps[name] += 1


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def task_metrics(meas: Measurement) -> dict:
    """The named per-task metrics: the median wall time of each task."""
    out = {}
    for name, secs in meas.untraced.items():
        if secs:
            out[f"{name}_s"] = {"value": _median(secs), "unit": "s", "samples": len(secs)}
    if meas.search_runs:
        out["search_unsliced"] = {"value": meas.search_unsliced, "unit": "count",
                                  "samples": meas.search_runs}
    return out


def end_to_end(meas: Measurement, setup_times: list[float]) -> dict:
    medians = [_median(s) for s in meas.untraced.values() if s]
    return {
        "setup_s": {"value": _median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "pass_s": {"value": math.fsum(medians), "unit": "s"},
    }


def _incl(layers, name):
    return layers.get(name, {}).get("inclusive_s", 0.0)


def _self(layers, *names):
    return sum(layers.get(n, {}).get("self_s", 0.0) for n in names)


def _count(layers, name, key):
    return layers.get(name, {}).get(key, 0)


# Per-layer quantities of one traced task: name -> (unit, function of the task's layers)
LAYER_SUMS = {
    "cli.self_s": ("s", lambda L: _self(L, "cli.dispatch")),
    "cli.result_bytes": ("bytes", lambda L: _count(L, "cli.result_bytes", "bytes")),
    "core.config_from_json_s": ("s", lambda L: _incl(L, "core.config_from_json_dict")),
    "verifier.self_s": ("s", lambda L: _self(L, "verifier.verify_slicing")),
    "verifier.edge_tests": ("count", lambda L: _count(L, "verifier.verify_slicing", "edge_tests")),
    "sampler.bias_setup_s": ("s", lambda L: _incl(L, "sampler.bias_setup")),
    "decomp.binary_decompose_s": ("s", lambda L: _incl(L, "decomp.binary_decompose")),
    "decomp.binary_decompose_calls": ("count", lambda L: _count(L, "decomp.binary_decompose", "calls")),
    "sampler.bias_draw_s": ("s", lambda L: _incl(L, "sampler.batch_bias_conditioned")),
    "sampler.bias_rows_drawn": ("count", lambda L: _count(L, "sampler.batch_bias", "conditioned_rows")),
    "sampler.bias_rows_accepted": ("count", lambda L: _count(L, "sampler.batch_bias_conditioned", "rows")),
    "sampler.mu_draw_s": ("s", lambda L: _incl(L, "sampler.batch_mu")),
    "sampler.scalar_edge_s": ("s", lambda L: _incl(L, "sampler.sample_evasive_edge")),
    "sampler.scalar_bias_s": ("s", lambda L: _incl(L, "sampler.sample_bias_conditioned")),
    "lab.random_config_s": ("s", lambda L: _incl(L, "lab.random_unit_configuration")),
    "lab.estimate_self_s": ("s", lambda L: _self(L, "lab.estimate_evasion", "lab.estimate_glue_sum")),
    "lab.search_self_s": ("s", lambda L: _self(L, "lab.local_search_slicing")),
    "lab.search_iterations": ("count", lambda L: _count(L, "lab.local_search_slicing", "iterations")),
    "anticonc.atoms_s": ("s", lambda L: _incl(L, "anticonc.linear_form_atoms")),
    "anticonc.atoms": ("count", lambda L: _count(L, "anticonc.linear_form_atoms", "atoms")),
    "anticonc.sign_vectors": ("count", lambda L: _count(L, "anticonc.linear_form_atoms", "sign_vectors")),
    "anticonc.levy_q_s": ("s", lambda L: _incl(L, "anticonc.levy_q")),
}

# Ratios of two per-pass sums: name -> (unit, numerator, denominator)
LAYER_RATIOS = {
    "verifier.edge_tests_per_s": ("1/s", "verifier.edge_tests", "verifier.self_s"),
    "sampler.bias_accept_ratio": ("ratio", "sampler.bias_rows_accepted", "sampler.bias_rows_drawn"),
    "lab.search_iters_per_s": ("1/s", "lab.search_iterations", "lab.search_self_s"),
}


def per_layer(meas: Measurement) -> tuple[dict, dict]:
    """Per-layer metrics per pass (one execution of every task in the
    workload): for each task the median over its traced executions, summed
    over tasks.  Returns (metrics, bases)."""
    metrics, bases = {}, {}
    traced_runs = {name: len(runs) for name, runs in meas.layers.items()}
    for metric, (unit, fn) in LAYER_SUMS.items():
        value = sum(_median([fn(L) for L in runs]) for runs in meas.layers.values() if runs)
        metrics[metric] = {"value": value, "unit": unit}
        bases[metric] = {"per": "pass", "traced_executions": traced_runs}
    for metric, (unit, num, den) in LAYER_RATIOS.items():
        n, d = metrics[num]["value"], metrics[den]["value"]
        metrics[metric] = {"value": n / d if d else 0.0, "unit": unit}
        bases[metric] = {"numerator": num, "denominator": den, "numerator_value": n, "denominator_value": d}
    return metrics, bases


def trace_summary(meas: Measurement, bench: Bench) -> dict:
    overhead = {}
    for name in bench.order:
        t, u = meas.traced[name], meas.untraced[name]
        if t and u:
            overhead[name] = {"traced_s": _median(t), "untraced_s": _median(u),
                              "overhead_s": _median(t) - _median(u), "samples": len(t)}
    # the paper bounds the conditioned bias's acceptance probability below by 1 - 2/n
    acceptance = {}
    for name, n in (("evasion", bench.sizes.evasion[0]), ("glue", bench.sizes.glue[0])):
        runs = meas.layers.get(name)
        if runs:
            accepted = sum(_count(L, "sampler.batch_bias_conditioned", "rows") for L in runs)
            drawn = sum(_count(L, "sampler.batch_bias", "conditioned_rows") for L in runs)
            ratio = accepted / drawn if drawn else None
            acceptance[name] = {"n": n, "accepted_rows": accepted, "drawn_rows": drawn,
                                "ratio": ratio, "paper_bound": 1 - 2 / n,
                                "meets_bound": None if ratio is None else ratio >= 1 - 2 / n}
    return {"overhead_per_task": overhead, "bias_acceptance": acceptance}


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def _print_table(report: dict) -> None:
    print(f"# cubeslicer benchmark: workload={report['workload']} seed={report['seed']} "
          f"trace={report['trace']} attempted={report['attempted']} failed={report['failed']}")
    for name, m in report["named_metrics"].items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"#   {name:<22} {m['value']:>14.6g} {m['unit']}{samples}")
    for problem in report["problems"][:20]:
        print(f"#   FAILED {problem}")


def run_workload(args) -> int:
    if args.setup_probe:
        workdir = OUT / f"probe-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            _, secs = setup(args.workload, args.seed, args.sizes, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(secs)
        return 0

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = probe_setups(args)
        bench, own_setup = setup(args.workload, args.seed, args.sizes, workdir)
        setup_times.append(own_setup)
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
        meas = measure(bench, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(meas, setup_times)
    named = {**{k: dict(v) for k, v in e2e.items()}, **task_metrics(meas)}
    named["setup_s"]["samples"] = len(setup_times)
    named["failed_ratio"] = {"value": meas.failed / max(meas.attempted, 1), "unit": "ratio",
                             "samples": meas.attempted}
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": meas.attempted, "failed": meas.failed,
        "environment": environment(args),
        "named_metrics": named,
        "setup_samples_s": setup_times,
        "task_samples_s": meas.untraced,
        "problems": meas.problems,
    }
    if tracer is not None:
        metrics, bases = per_layer(meas)
        report["per_layer"] = {k: {**v, "base": bases[k]} for k, v in metrics.items()}
        report["trace_summary"] = trace_summary(meas, bench)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, meas.task_ids)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = e2e
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    _print_table(report)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": meas.failed == 0, "attempted": meas.attempted,
                      "failed": meas.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's table and result."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--sizes", args.sizes],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines if line.startswith("#")))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            status = proc.returncode
        elif lines:
            print(f"# {name} result: {lines[-1]}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cubeslicer" / "__init__.py").is_file():
        print(f"error: no cubeslicer sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    _pin_threads()
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
