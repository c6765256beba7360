"""Smoke self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tasks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
                "--sizes", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "no cubeslicer sources" in proc.stderr
    assert not proc.stdout.strip()


def test_generating_function_counts_match_brute_force():
    rng = np.random.default_rng(7)
    for relaxed in (False, True):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            planes = tasks._integer_planes(rng, n, 3, 3)
            brute = tasks.brute_force_report(n, planes, relaxed)
            assert brute["per_plane"] == [tasks.plane_crossings(c, t, relaxed) for c, t in planes]


def _map_bias(text: str, fn) -> str:
    lines = [json.loads(line) for line in text.splitlines()]
    return "".join(json.dumps({**b, "p": fn(b["p"])}) + "\n" for b in lines)


def _tampered_failures(task: str, edit, workdir: Path) -> list[str]:
    """Checks pass on the real output and fail on the edited one."""
    sys.path.insert(0, str(ROOT / "src"))
    from cubeslicer.cli import dispatch

    job = tasks.prepare(task, 3, tasks.TINY, workdir)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = dispatch(job.argv)
    assert tasks.check(job, code, out.getvalue(), None) == []
    return tasks.check(job, code, edit(out.getvalue()), None)


@pytest.mark.parametrize("task, edit", [
    ("verify_relaxed", lambda t: t.replace('"unsliced_count": ', '"unsliced_count": 1', 1)),
    ("verify_exact", lambda t: t.replace('"per_plane_crossings": [\n    ', '"per_plane_crossings": [\n    1', 1)),
    ("search", lambda t: t.replace('"objective": ', '"objective": 9', 1)),
    ("qfunc_exact", lambda t: t.replace('"a": ', '"a": 1', 1)),
    ("evasion", lambda t: t.replace('"point_estimate": 0.', '"point_estimate": 0.9', 1)),
    ("bias", lambda t: _map_bias(t, lambda p: [x / 2 for x in p])),
    ("bias", lambda t: _map_bias(t, lambda p: [0.0] * len(p))),
])
def test_checks_catch_a_wrong_output(tmp_path, task, edit):
    assert _tampered_failures(task, edit, tmp_path)
