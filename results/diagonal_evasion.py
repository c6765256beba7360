#!/usr/bin/env python3
"""Monte Carlo evasion on the paper's diagonal m = round(n^(2/3)).

    python3 results/diagonal_evasion.py [--n 4096,8192,16384,32768] [--samples 2048] [--seed 0] [--out PATH]

Each cell is one `cubeslicer estimate evasion --n N --m M` process on m
random unit planes, so the peak RSS in its manifest is the cell's own.  For
each cell the results file records the union rate and the largest per-plane
rate with their 95 % intervals, the paper's per-plane shape
sqrt(m) log^2 n / n and the largest rate over it, the bias rows drawn, and
the wall time, the per-phase timings and the peak RSS from the manifest.
The file goes to PATH, by default next to this script as
diagonal_evasion.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def machine() -> dict:
    """What the timings and peaks were measured on."""
    import numpy

    cpu = None
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        mem_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    except (ValueError, OSError, AttributeError):
        mem_gb = None
    return {
        "cpu": cpu or platform.processor(),
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "memory_gb": None if mem_gb is None else round(mem_gb, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_cell(n: int, samples: int, seed: int) -> dict:
    m = round(n ** (2.0 / 3.0))
    argv = [sys.executable, "-m", "cubeslicer", "estimate", "evasion", "--n", str(n), "--m", str(m),
            "--samples", str(samples), "--seed", str(seed), "--report", "json"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    result, manifest = json.loads(done.stdout), json.loads(done.stderr)
    planes = result["per_plane"]
    top = max(range(m), key=lambda ell: planes[ell]["point_estimate"])
    shape = planes[top]["target_bound"]  # the per-plane shape sqrt(m) log^2 n / n
    return {
        "n": n,
        "m": m,
        "samples": samples,
        "seed": seed,
        "union": {"rate": result["union"]["point_estimate"], "ci95": result["union"]["ci95"]},
        "max_plane": {"plane": top, "rate": planes[top]["point_estimate"], "ci95": planes[top]["ci95"]},
        "paper_shape": shape,
        "max_plane_over_shape": planes[top]["point_estimate"] / shape,
        "bias_rows_drawn": manifest["bias_rows_drawn"],
        "bias_rows_accepted": manifest["bias_rows_accepted"],
        "wall_time_s": manifest["wall_time_s"],
        "timings": manifest["timings"],
        "peak_rss_mb": manifest["peak_rss_mb"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", default="4096,8192,16384,32768")
    parser.add_argument("--samples", type=int, default=2048)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=HERE / "diagonal_evasion.json")
    args = parser.parse_args()
    cells = []
    for n in map(int, args.n.split(",")):
        cell = run_cell(n, args.samples, args.seed)
        print(json.dumps(cell), flush=True)
        cells.append(cell)
    doc = {
        "what": "estimate evasion on m = round(n^(2/3)) random unit planes, one process per cell",
        "command": "python3 results/diagonal_evasion.py " + " ".join(sys.argv[1:]),
        "machine": machine(),
        "cells": cells,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
