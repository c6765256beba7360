"""Regenerate perfbench/references.json.

Runs every full-size task of every workload on every input variant, requires
the checks that need no reference to pass, and records what the benchmark
compares against later: the result digest for exact tasks, the estimates for
Monte Carlo tasks and q for the float oracle.

    python3 perfbench/make_references.py

Takes about ten minutes on two cores.  Regenerate only when a change is meant
to alter results, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    run._pin_threads()
    full = {}
    workdir = run.OUT / "references-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in run.WORKLOAD_NAMES:
            bench = run.Bench(workload, 0, "full", workdir)
            tasks = bench.tasks
            for name in bench.order:
                if name in tasks.UNREFERENCED:
                    continue
                entries = {}
                for v in range(tasks.POOL):
                    job = tasks.prepare(name, v, tasks.FULL, workdir)
                    code, text, secs = bench.call(job.argv)
                    problems = tasks.check(job, code, text, None)
                    if problems:
                        print(f"{name}[{v}]: {problems}", file=sys.stderr)
                        return 1
                    entries[str(v)] = tasks.reference_entry(job, text)
                    print(f"{name}[{v}] {secs:.2f} s", flush=True)
                full[name] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "references.json").write_text(json.dumps({"full": full}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
