"""Span tracing from outside the program.

A Tracer swaps selected public functions of the cubeslicer modules for
timing wrappers while it is installed.  Each wrapper records a span (name,
start, end, parent span, task id) plus a few counts taken from the call's
arguments or result.  The replacement is made in every cubeslicer module
namespace that holds the function, so calls through `from .x import f`
names are traced too; no file under src/ changes.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# module -> functions wrapped; each span is named "<module>.<function>"
TRACED = {
    "cli": ("dispatch",),
    "core": ("config_from_json_dict", "config_to_json_dict", "construction"),
    "verifier": ("verify_slicing",),
    "sampler": ("bias_setup", "batch_bias", "batch_bias_conditioned", "batch_mu",
                "sample_bias", "sample_bias_conditioned", "sample_mu", "sample_evasive_edge"),
    "decomp": ("binary_decompose",),
    "lab": ("estimate_evasion", "estimate_glue_sum", "random_unit_configuration",
            "local_search_slicing"),
    "anticonc": ("linear_form_atoms", "levy_q"),
}


def _count_batch(args, kwargs, result):
    return {"rows": int(args[2])}


def _count_verify(args, kwargs, result):
    c = args[0]
    return {"edge_tests": c.m * c.n << (c.n - 1)}


def _count_atoms(args, kwargs, result):
    return {"sign_vectors": 1 << args[0].n, "atoms": len(result)}


def _count_search(args, kwargs, result):
    return {"iterations": int(args[2]) * int(kwargs.get("replicas", 1))}


COUNTERS = {
    "sampler.batch_bias": _count_batch,
    "sampler.batch_bias_conditioned": _count_batch,
    "verifier.verify_slicing": _count_verify,
    "anticonc.linear_form_atoms": _count_atoms,
    "lab.local_search_slicing": _count_search,
}


class Tracer:
    """Collects spans; install() swaps the wrappers in, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, task, counts]
        self.task_id: int | None = None
        self._local = threading.local()
        self._swapped: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [len(self.spans), name, 0.0, 0.0, stack[-1] if stack else None, self.task_id, None]
            self.spans.append(span)
            stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.startswith("cubeslicer") and m is not None]
        for short, names in TRACED.items():
            owner = sys.modules[f"cubeslicer.{short}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._swapped.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        self._swapped.clear()

    def task_layers(self, task_id: int) -> dict:
        """Inclusive and self seconds, call counts and summed counts per span
        name for one task.  Self time is a span's duration minus that of
        its direct children."""
        spans = [s for s in self.spans if s[5] == task_id]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s[4] is not None:
                child_time[s[4]] += s[3] - s[2]
        layers: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for s in spans:
            entry = layers[s[1]]
            entry["calls"] += 1
            entry["inclusive_s"] += s[3] - s[2]
            entry["self_s"] += s[3] - s[2] - child_time[s[0]]
            for key, value in (s[6] or {}).items():
                entry[key] += value
        # rows drawn by the rejection loop are batch_bias calls under batch_bias_conditioned
        by_id = {s[0]: s for s in spans}
        layers["sampler.batch_bias"]["conditioned_rows"] += sum(
            s[6]["rows"] for s in spans
            if s[1] == "sampler.batch_bias" and s[4] is not None
            and by_id[s[4]][1] == "sampler.batch_bias_conditioned")
        return {name: dict(entry) for name, entry in layers.items()}

    def write(self, path: Path, tasks: dict) -> None:
        """Spans as JSON lines after one header line mapping task ids to tasks."""
        with path.open("w") as fh:
            fh.write(json.dumps({"tasks": tasks}) + "\n")
            for sid, name, start, end, parent, task, counts in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "task": task, "counts": counts}) + "\n")
