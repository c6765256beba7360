"""Command-line entry point wiring all modules.

Results go to stdout (JSON, JSON-lines, or CSV).  A run manifest (flags,
seed, code version, wall time, peak RSS, input hashes; for `estimate`, the
bias rows drawn and accepted and the seconds spent building the
configuration, the bias set-up and the estimate) accompanies every run: with
--out DIR the result and manifest.json are written into DIR, otherwise the
manifest is a single JSON line on stderr.  Result artifacts never contain
wall-clock data, so fixed seeds give byte-identical outputs at any
--threads, with one exception outside the program: `sample --emit bias` at
an n that is not a multiple of 8 can change with OPENBLAS_NUM_THREADS.
Every subcommand accepts --threads and runs on one thread; the flag is
validated and recorded in the manifest but selects nothing.

Exit codes: 0 success, 1 domain error (or incomplete slicing for `verify`),
2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    EXACT,
    FLOAT,
    Configuration,
    as_scalar,
    config_from_json_dict,
    config_to_json_dict,
    construction,
)
from .anticonc import LinearFormSpec, small_ball
from .decomp import binary_decompose
from .errors import MalformedInput, SlicerError
from .lab import REPORT_COLUMNS, SweepCell, local_search_slicing, random_unit_configuration, run_estimator, sweep
from .sampler import RngSpec, batch_bias_conditioned, batch_mu, bias_setup, sample_bias_simple
from .verifier import verify_slicing


# --------------------------------------------------------------------------
# Deterministic serialization: floats carry 17 significant digits (lossless
# round-trip), exact rationals become "p/q" strings.
# --------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return format(x, ".17g")


def _json_token(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"unsupported scalar {type(obj).__name__}")


def _flat_tokens(seq):
    """The tokens of a list of plain ints or of finite plain floats, without
    _json_token's per-item dispatch; None for any other list (bools included)."""
    kinds = set(map(type, seq))
    if kinds == {int}:
        return map(str, seq)
    if kinds == {float} and all(map(math.isfinite, seq)):
        return [format(x, ".17g") for x in seq]
    return None


def to_json_text(obj, indent: int = 0, level: int = 0) -> str:
    pad = " " * (indent * (level + 1)) if indent else ""
    end_pad = " " * (indent * level) if indent else ""
    sep = ",\n" if indent else ", "
    nl = "\n" if indent else ""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad}{json.dumps(str(k))}: {to_json_text(v, indent, level + 1)}" for k, v in obj.items()]
        return "{" + nl + sep.join(items) + nl + end_pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        tokens = _flat_tokens(obj)
        if tokens is None:
            tokens = [to_json_text(v, indent, level + 1) for v in obj]
        return "[" + nl + pad + (sep + pad).join(tokens) + nl + end_pad + "]"
    return _json_token(obj)


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return _fmt_float(float(x))
    return str(x)


def csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Parsing helpers
# --------------------------------------------------------------------------


def _parse_scalars(text: str, kind: str) -> list:
    return [as_scalar(token, kind) for token in text.split(",") if token.strip()]


def _load_config(args) -> Configuration:
    """The configuration at args.config (- for stdin); its sha256 goes on
    args for the manifest's input_hashes."""
    name = "<stdin>" if args.config == "-" else args.config
    try:
        data = sys.stdin.read() if args.config == "-" else Path(args.config).read_text()
        config = config_from_json_dict(json.loads(data))
    except (OSError, ValueError) as exc:
        raise MalformedInput(f"configuration {name}: {type(exc).__name__}: {exc}") from exc
    args._input_hashes = {name: hashlib.sha256(data.encode()).hexdigest()}
    return config


def _rng_from_args(args) -> RngSpec:
    return RngSpec(args.seed, args.stream)


def _report_dict(rep) -> dict:
    return {
        "point_estimate": rep.point_estimate,
        "std_error": rep.std_error,
        "ci95": [rep.ci95[0], rep.ci95[1]],
        "samples": rep.samples,
        "seed": rep.seed,
        "target_bound": rep.target_bound,
    }


def _edge_dict(axis: int, base_signs) -> dict:
    return {"axis": axis, "base_signs": base_signs}


def _verify_dict(c: Configuration, report) -> dict:
    # elapsed_ms deliberately omitted: results must be byte-stable across runs
    return {
        "n": report.n,
        "m": report.m,
        "mode": c.mode,
        "total_edges": report.total_edges,
        "unsliced_count": report.unsliced_count,
        "complete": report.complete,
        "per_plane_crossings": list(report.per_plane_crossings),
        "unsliced_sample": [_edge_dict(e.axis, e.base.coords()) for e in report.unsliced_sample],
    }


# --------------------------------------------------------------------------
# Subcommand handlers: each returns (exit_code, result_text, artifact_name)
# --------------------------------------------------------------------------


def _cmd_construct(args):
    kind = FLOAT if args.float else EXACT
    config = construction(args.name, args.n, kind=kind, mode=args.mode)
    return 0, to_json_text(config_to_json_dict(config), indent=2) + "\n", "config.json"


def _cmd_decompose(args):
    vec = _parse_scalars(args.v, args.mode)
    d = binary_decompose(vec)
    rows = [
        {"j": j, "indices": list(d.parts[j][0]), "values": list(d.parts[j][1])}
        for j in sorted(d.parts)
    ]
    return 0, to_json_text(rows, indent=2) + "\n", "decomposition.json"


def _cmd_verify(args):
    config = _load_config(args)
    if args.mode:
        config = Configuration(config.n, config.planes, args.mode)
    report = verify_slicing(config)
    code = 0 if report.complete else 1
    if args.report == "csv":
        rows = [
            [report.n, report.m, config.mode, report.total_edges, report.unsliced_count, ell, cnt]
            for ell, cnt in enumerate(report.per_plane_crossings)
        ] or [[report.n, report.m, config.mode, report.total_edges, report.unsliced_count, None, None]]
        text = csv_text(
            ["n", "m", "mode", "total_edges", "unsliced_count", "plane_index", "crossings"], rows
        )
        return code, text, "report.csv"
    return code, to_json_text(_verify_dict(config, report), indent=2) + "\n", "report.json"


def _cmd_sample(args):
    config = _load_config(args)
    gen = _rng_from_args(args).generator()
    dyadic = args.variant == "dyadic"
    setup = bias_setup(config)
    lines = []
    for _ in range(args.count):
        if dyadic:
            P, _ = batch_bias_conditioned(setup, gen, 1)
            p, clamped = P[0], False
        else:
            bv = sample_bias_simple(config, gen)
            p, clamped = bv.p, bv.clamped
        if args.emit == "bias":
            lines.append(to_json_text({"p": p.tolist(), "conditioned": dyadic, "clamped": clamped}))
        else:
            signs = batch_mu(p[None, :], gen)[0]
            lines.append(to_json_text(_edge_dict(int(gen.integers(config.n)), signs.tolist())))
    return 0, "\n".join(lines) + "\n", "samples.jsonl"


def _cmd_qfunc(args):
    v = _parse_scalars(args.v, args.mode)
    p = [0] * len(v) if args.p is None else _parse_scalars(args.p, args.mode)
    spec = LinearFormSpec(tuple(v), tuple(p))
    a, q, ratio, sperner = small_ball(spec, as_scalar(args.alpha, args.mode))
    result = {"a": a, "q": q, "sperner": sperner, "ratio": ratio}
    return 0, to_json_text(result, indent=2) + "\n", "qfunc.json"


def _estimate_config(args):
    if args.config:
        return _load_config(args)
    if args.n is None or args.m is None:
        raise SlicerError("estimate needs --config or both --n and --m")
    return random_unit_configuration(args.n, args.m, _rng_from_args(args).child(0))


def _bias_rows(rep, n: int) -> dict:
    """The manifest's bias row counts; the paper bounds the acceptance ratio
    accepted/drawn of the conditioned bias below by 1 - 2/n."""
    rows = {"bias_rows_drawn": rep.bias_rows_drawn}
    if rep.bias_rows_accepted is not None:
        rows["bias_rows_accepted"] = rep.bias_rows_accepted
        rows["bias_acceptance_bound"] = 1 - 2 / n
    return rows


def _cmd_estimate(args):
    start = time.perf_counter()
    config = _estimate_config(args)
    built = time.perf_counter()
    with contextlib.suppress(SlicerError):
        # cached for the estimator and timed apart; a set-up error is raised
        # again by the estimator, after its own checks
        bias_setup(config)
    set_up = time.perf_counter()
    rng = _rng_from_args(args).child(1)
    per_plane, rep = run_estimator(args.what, config, args.samples, rng, args.plane_index, args.t)
    timings = {"config_s": built - start, "bias_setup_s": set_up - built, "estimate_s": time.perf_counter() - set_up}
    args._manifest_extra = {**_bias_rows(rep, config.n), "timings": timings}
    head = {"n": config.n, "m": config.m, "samples": args.samples}
    if per_plane:
        result = {"estimator": "evasion", **head, "per_plane": [_report_dict(r) for r in per_plane], "union": _report_dict(rep)}
        header = ["kind", "plane_index"]
        rows = [["plane", ell, *r.cells()] for ell, r in enumerate(per_plane)]
        rows.append(["union", None, *rep.cells()])
    else:
        name = "linf_tail" if args.what == "linf-tail" else "glue_sum"
        result = {"estimator": name, **head, **_report_dict(rep)}
        header = ["estimator", "n", "m"]
        rows = [[name, config.n, config.m, *rep.cells()]]
    if args.report == "csv":
        return 0, csv_text([*header, *REPORT_COLUMNS], rows), "estimate.csv"
    return 0, to_json_text(result, indent=2) + "\n", "estimate.json"


def _cmd_search(args):
    config, report = local_search_slicing(
        args.n,
        args.m,
        args.iters,
        _rng_from_args(args),
        coeff_range=args.coeff_range,
        replicas=args.replicas,
    )
    result = {
        "objective": report.unsliced_count,
        "config": config_to_json_dict(config),
        "report": _verify_dict(config, report),
    }
    return 0, to_json_text(result, indent=2) + "\n", "search.json"


def _cmd_sweep(args):
    if args.m == "diag":
        # a construction cell (m = None) runs the construction's own planes
        cells = [SweepCell(n, round(n ** (2.0 / 3.0)) if args.construction == "random" else None, args.construction)
                 for n in args.n]
    elif args.construction != "random":
        raise MalformedInput("--m lists plane counts of random planes; a construction has its own n planes")
    else:
        cells = [SweepCell(n, m, args.construction) for n in args.n for m in args.m]
    rows = sweep(cells, args.samples, _rng_from_args(args), estimator=args.estimator)
    if args.report == "json":
        return 0, to_json_text(rows, indent=2) + "\n", "sweep.json"
    header = ["n", "m", "construction", "estimator", "samples", *REPORT_COLUMNS, "max_plane_estimate", "error"]
    table = [[row.get(col) for col in header] for row in rows]
    return 0, csv_text(header, table), "sweep.csv"


# --------------------------------------------------------------------------
# Parser and dispatch
# --------------------------------------------------------------------------


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of every count flag: an integer >= 1."""
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    """argparse type of --seed and --stream: an integer >= 0."""
    return _int_at_least(text, 0)


def _dimensions(text: str) -> list[int]:
    """argparse type of sweep --n: comma-separated integers >= 1."""
    return [_positive_int(x) for x in text.split(",")]


def _plane_counts(text: str):
    """argparse type of sweep --m: 'diag' or comma-separated integers."""
    try:
        return text if text == "diag" else [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _finite_float(text: str) -> float:
    """argparse type of a float flag: a finite double."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cubeslicer", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_nonnegative_int, default=0, help="base RNG seed")
    common.add_argument("--stream", type=_nonnegative_int, default=0, help="substream index")
    common.add_argument("--threads", type=_positive_int, default=1,
                        help="accepted and recorded in the manifest; every subcommand runs on one thread")
    common.add_argument("--out", type=str, default=None, help="directory for result + run manifest")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", parents=[common], help="emit a classical slicing configuration")
    p.add_argument("name", choices=["axis", "middle-layers", "middle_layers"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--float", action="store_true", help="float-kind planes (middle layers normalized)")
    p.add_argument("--mode", choices=["strict", "relaxed"], default="strict")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("decompose", parents=[common], help="dyadic decomposition of a vector")
    p.add_argument("--v", required=True, help="comma-separated scalars (p/q allowed in exact mode)")
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", parents=[common], help="exhaustively verify a slicing")
    p.add_argument("--config", default="-", help="configuration JSON path, or - for stdin")
    p.add_argument("--mode", choices=["strict", "relaxed"], default=None, help="override config mode")
    p.add_argument("--report", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sample", parents=[common], help="draw bias vectors or evasive edges")
    p.add_argument("--config", default="-")
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--variant", choices=["dyadic", "simple"], default="dyadic")
    p.add_argument("--emit", choices=["edges", "bias"], default="edges")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("qfunc", parents=[common], help="exact concentration of a biased linear form")
    p.add_argument("--v", required=True)
    p.add_argument("--p", default=None)
    p.add_argument("--alpha", required=True)
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.set_defaults(func=_cmd_qfunc)

    p = sub.add_parser("estimate", parents=[common], help="Monte Carlo estimators")
    p.add_argument("what", choices=["evasion", "linf-tail", "glue"])
    p.add_argument("--config", default=None)
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--samples", type=_positive_int, default=10000)
    p.add_argument("--plane-index", type=int, default=0)
    p.add_argument("--t", type=_finite_float, default=None)
    p.add_argument("--report", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("search", parents=[common], help="anneal small integer slicing configurations")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--iters", type=_positive_int, default=10000)
    p.add_argument("--replicas", type=_positive_int, default=1)
    p.add_argument("--coeff-range", type=_positive_int, default=8)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("sweep", parents=[common], help="estimator grid over (n, m) cells")
    p.add_argument("--estimator", choices=["evasion", "linf_tail", "glue"], default="evasion")
    p.add_argument("--n", type=_dimensions, required=True, help="comma-separated dimensions")
    p.add_argument("--m", type=_plane_counts, default="diag", help="comma-separated plane counts, or 'diag' for round(n^(2/3))")
    p.add_argument("--construction", choices=["random", "axis", "middle_layers"], default="random")
    p.add_argument("--samples", type=_positive_int, default=10000)
    p.add_argument("--report", choices=["json", "csv"], default="csv")
    p.set_defaults(func=_cmd_sweep)

    return parser


def _peak_rss_mb() -> float | None:
    """The process's peak resident set size so far, in MB (None where the
    resource module is missing)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in kilobytes elsewhere; either
    # quotient is a short dyadic fraction, so it prints exactly
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _manifest(args, argv, wall_time: float) -> dict:
    flags = {
        k: v
        for k, v in vars(args).items()
        if not k.startswith("_") and k != "func" and not callable(v)
    }
    return {
        "subcommand": args.subcommand,
        "argv": list(argv),
        "flags": flags,
        "seed": getattr(args, "seed", None),
        "code_version": __version__,
        "wall_time_s": wall_time,
        "peak_rss_mb": _peak_rss_mb(),
        "input_hashes": getattr(args, "_input_hashes", {}),
        **getattr(args, "_manifest_extra", {}),
    }


def dispatch(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    error = None
    try:
        # argparse before Python 3.12 passes [] for `--flag=--`, without
        # calling the flag's type; no flag takes an empty list
        for name, value in vars(args).items():
            if value == []:
                raise MalformedInput(f"--{name.replace('_', '-')} has no value")
        code, text, artifact_name = args.func(args)
    except (SlicerError, MemoryError) as exc:
        # numpy's allocation failures are private MemoryError subclasses
        kind = MemoryError if isinstance(exc, MemoryError) else type(exc)
        error = {"error": kind.__name__, "message": str(exc)}
        code = 1
        print(to_json_text(error), file=sys.stderr)
    else:
        sys.stdout.write(text)
    manifest = _manifest(args, argv, time.perf_counter() - start)
    if error:
        manifest["error"] = error
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if not error:
            (out / artifact_name).write_text(text)
        (out / "manifest.json").write_text(to_json_text(manifest, indent=2) + "\n")
    elif not error:
        # a manifest accompanies every run; without --out it goes to stderr
        # as one line, keeping stdout clean for piping
        print(to_json_text(manifest), file=sys.stderr)
    return code


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
