"""Mathematical bound checks raise BoundViolation, also under `python -O`.

Each case forces one check to fail.  The cases run in-process (patched
through monkeypatch) and again in a fresh `python -O` interpreter, where a
bare `assert` would have been stripped.  The file itself uses no bare
`assert`, so it keeps its meaning when pytest runs under -O.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cubeslicer import anticonc, cli, verifier
from cubeslicer.anticonc import LinearFormSpec
from cubeslicer.core import construction
from cubeslicer.errors import BoundViolation

ROOT = Path(__file__).resolve().parents[1]


class _ZeroUniforms:
    """A generator stub whose uniforms are all 0: every coordinate comes out +1."""

    def random(self, shape):
        return np.zeros(shape)


def verifier_counting_bound(patch):
    patch(verifier, "max_crossings_bound", lambda n: 0)
    verifier.crossing_counts(construction("axis", 3))


def anticonc_sperner(patch):
    patch(anticonc, "sperner_bound", lambda a: Fraction(0))
    anticonc.littlewood_check(LinearFormSpec((1, 1), (0, 0)), 1)


def anticonc_hoeffding(patch):
    # all-ones x puts |X - 0| = 16 beyond 2 * ||v|| = 8 on every sample, so
    # the empirical tail is 1 against a bound of 2 * exp(-2)
    patch(anticonc, "as_generator", lambda rng: _ZeroUniforms())
    anticonc.hoeffding_check(LinearFormSpec((1.0,) * 16, (0.0,) * 16), 2.0, 100, 0)


def anticonc_float_mass(patch):
    # a NaN bias bypasses the spec's validation; its atoms carry no mass
    anticonc._atoms_float((1.0,), (math.nan,))


def anticonc_exact_mass(patch):
    # shadow the builtin sum inside anticonc so the atom masses total 1/2
    patch(anticonc, "sum", lambda probs: Fraction(1, 2))
    anticonc.linear_form_atoms(LinearFormSpec((1, 1), (0, 0)))


CASES = [verifier_counting_bound, anticonc_sperner, anticonc_hoeffding, anticonc_float_mass, anticonc_exact_mass]


def _run_optimized(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    return subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("case", CASES, ids=lambda f: f.__name__)
def test_raises_in_process(case, monkeypatch):
    with pytest.raises(BoundViolation):
        case(lambda obj, name, value: monkeypatch.setattr(obj, name, value, raising=False))


@pytest.mark.parametrize("case", CASES, ids=lambda f: f.__name__)
def test_raises_under_optimize(case):
    code = (
        "import sys\n"
        "if __debug__: sys.exit(4)\n"
        "import test_bounds\n"
        "from cubeslicer.errors import BoundViolation\n"
        "try:\n"
        f"    test_bounds.{case.__name__}(setattr)\n"
        "except BoundViolation:\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    proc = _run_optimized(code)
    if proc.returncode != 0:
        pytest.fail(f"exit {proc.returncode} (3: no BoundViolation, 4: not optimized)\n{proc.stderr}")


def test_cli_reports_violation_as_json_error_under_optimize():
    code = (
        "import sys\n"
        "if __debug__: sys.exit(4)\n"
        "from cubeslicer import anticonc, cli\n"
        "anticonc.sum = lambda probs: 0\n"
        "sys.exit(cli.dispatch(['qfunc', '--v', '1,1', '--alpha', '1']))\n"
    )
    proc = _run_optimized(code)
    lines = proc.stderr.strip().splitlines()
    if proc.returncode != 1 or proc.stdout or not lines or json.loads(lines[-1]).get("error") != "BoundViolation":
        pytest.fail(f"exit {proc.returncode}, stdout {proc.stdout!r}, stderr {proc.stderr!r}")


def test_cli_reports_violation_as_json_error(capsys, monkeypatch):
    monkeypatch.setattr(anticonc, "sum", lambda probs: Fraction(1, 2), raising=False)
    code = cli.dispatch(["qfunc", "--v", "1,1", "--alpha", "1"])
    err = json.loads(capsys.readouterr().err)
    if code != 1 or err["error"] != "BoundViolation":
        pytest.fail(f"exit {code}, error {err}")
