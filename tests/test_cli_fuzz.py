"""Grammar fuzz of the CLI: argv for each subcommand is built from its flags,
with malformed values and junk tokens mixed in.

Every run must end with exit 0, 1 or 2, with no exception escaping
`dispatch`, no traceback and no numpy RuntimeWarning.  A run given a
malformed flag value must not succeed.  Sizes stay tiny: n <= 8, at most
200 samples and 50 annealing iterations.
"""

import contextlib
import io
import json
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeslicer.cli import dispatch

CONFIG = {
    "n": 4,
    "planes": [{"coeffs": [1, 0, 0, 0], "threshold": 0}, {"coeffs": [0, 1, 1, 0], "threshold": "1/2"}],
}
FILES = {
    "{config}": json.dumps(CONFIG),
    "{float_config}": json.dumps({"n": 3, "planes": [{"coeffs": [0.5, -0.25, 1e-13], "threshold": 0.0}]}),
    "{not_json}": "{n: 4,",
    "{no_planes}": json.dumps({"n": 4}),
    "{zero_dimension}": json.dumps({"n": 0, "planes": []}),
}


def pick(*values):
    return st.sampled_from(values)


def integers(low, high):
    return st.integers(low, high).map(str)


SCALAR = pick("1", "0", "-1", "1/2", "0.25", "3", "1e-13", "1.6e308", "-1.7e308", "5e-324")
# one entry near the double range is a vector of its own: a second one
# would overflow l1(v), which the oracle refuses before any arithmetic
SCALARS = st.one_of(st.lists(SCALAR, min_size=1, max_size=5).map(",".join), pick("1.6e308", "-1.7e308", "1e308"))
BAD_SCALARS = pick("--", "x", "nan", "inf", "1/0", "1,,x")
BAD_INT = pick("--", "x", "1.5", "nan", "")
CONFIGS = pick("{config}", "{float_config}", "-")
BAD_CONFIGS = pick("{not_json}", "{no_planes}", "{missing}", "{zero_dimension}")

# A flag is (name, valid values, malformed values or None); valid values of
# None make a switch.  A positional argument has the name None.  Every flag
# may be omitted, except positionals and the flags in REQUIRED.
COMMON = [
    ("--seed", integers(0, 2**40), st.one_of(BAD_INT, integers(-3, -1))),
    ("--stream", integers(0, 5), st.one_of(BAD_INT, integers(-3, -1))),
    ("--threads", integers(1, 3), st.one_of(BAD_INT, integers(-1, 0))),
    ("--out", pick("{out}"), None),
]
GRAMMAR = {
    "construct": [
        (None, pick("axis", "middle-layers", "middle_layers"), pick("middle", "")),
        ("--n", integers(-1, 8), BAD_INT),
        ("--float", None, None),
        ("--mode", pick("strict", "relaxed"), pick("exact", "")),
    ],
    "decompose": [
        ("--v", SCALARS, BAD_SCALARS),
        ("--mode", pick("exact", "float"), pick("relaxed")),
    ],
    "verify": [
        ("--config", CONFIGS, BAD_CONFIGS),
        ("--mode", pick("strict", "relaxed"), pick("float")),
        ("--report", pick("json", "csv"), pick("xml")),
    ],
    "sample": [
        ("--config", CONFIGS, BAD_CONFIGS),
        ("--count", integers(1, 5), st.one_of(BAD_INT, integers(-1, 0))),
        ("--variant", pick("dyadic", "simple"), pick("uniform")),
        ("--emit", pick("edges", "bias"), pick("planes")),
    ],
    "qfunc": [
        ("--v", SCALARS, BAD_SCALARS),
        ("--p", SCALARS, BAD_SCALARS),
        ("--alpha", st.one_of(SCALAR, pick("5e-14", "1e308")), BAD_SCALARS),
        ("--mode", pick("exact", "float"), pick("strict")),
    ],
    "estimate": [
        (None, pick("evasion", "linf-tail", "glue"), pick("linf_tail", "uniform")),
        ("--config", CONFIGS, BAD_CONFIGS),
        ("--n", integers(1, 8), st.one_of(BAD_INT, pick("0"))),
        ("--m", integers(-1, 4), BAD_INT),
        ("--samples", integers(1, 200), st.one_of(BAD_INT, pick("0"))),
        ("--plane-index", integers(-1, 4), BAD_INT),
        ("--t", pick("0", "0.5", "-1e-9", "1e300", "-2"), pick("nan", "inf", "-inf", "x", "--")),
        ("--report", pick("json", "csv"), pick("txt")),
    ],
    "search": [
        ("--n", integers(1, 9), st.one_of(BAD_INT, pick("0"))),
        ("--m", integers(1, 4), st.one_of(BAD_INT, pick("0"))),
        ("--iters", integers(1, 50), st.one_of(BAD_INT, pick("0", "-1"))),
        ("--replicas", integers(1, 2), pick("0", "x")),
        ("--coeff-range", integers(1, 4), pick("0", "x")),
    ],
    "sweep": [
        ("--estimator", pick("evasion", "linf_tail", "glue"), pick("linf-tail", "uniform")),
        ("--n", st.lists(integers(1, 8), min_size=1, max_size=2).map(",".join), pick("0", "-1", "8,x", "x", "")),
        ("--m", st.one_of(pick("diag"), st.lists(integers(-1, 4), min_size=1, max_size=2).map(",".join)),
         pick("x", "2,y", "")),
        ("--construction", pick("random", "axis", "middle_layers"), pick("middle-layers")),
        ("--samples", integers(1, 200), pick("0", "x")),
        ("--report", pick("json", "csv"), pick("jsonl")),
    ],
}
REQUIRED = {"--n": ("construct", "search", "sweep"), "--m": ("search",), "--v": ("decompose", "qfunc"),
            "--alpha": ("qfunc",), "--mode": ("qfunc",)}
JUNK = pick("--", "x", "-1", "--bogus", "=", "nan", "")
# runs per subcommand; qfunc gets more, as its flags combine the most ways
EXAMPLES = {"qfunc": 300}


@st.composite
def commands(draw, sub):
    """(argv, whether a flag value in it is malformed)"""
    parts = []  # (tokens, malformed)
    for name, valid, bad in GRAMMAR[sub] + COMMON:
        if name is not None and sub not in REQUIRED.get(name, ()) and not draw(st.booleans()):
            continue
        if valid is None:
            parts.append(([name], False))
            continue
        malformed = bad is not None and draw(st.integers(0, 2)) == 0
        # "--" as a value is one token that argparse treats apart; before
        # Python 3.12 `--flag=--` reaches the program as []
        value = draw(st.one_of(pick("--"), bad) if malformed else valid)
        if name is None:
            tokens = [value]
        elif draw(st.booleans()):
            tokens = [f"{name}={value}"]
        else:
            tokens = [name, value]
        parts.append((tokens, malformed))
    parts = draw(st.permutations(parts))
    for _ in range(draw(st.integers(0, 2))):
        parts.insert(draw(st.integers(0, len(parts))), ([draw(JUNK)], False))
    return [sub] + [t for tokens, _ in parts for t in tokens], any(bad for _, bad in parts)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (root / name.strip("{}")).write_text(text)
    places = {name: str(root / name.strip("{}")) for name in FILES}
    places["{missing}"] = str(root / "missing.json")
    places["{out}"] = str(root / "out")
    return places


def run_quietly(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch("sys.stdin", io.StringIO(stdin)))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue(), caught


@pytest.mark.parametrize("sub", sorted(GRAMMAR))
def test_every_argv_ends_in_a_defined_exit(sub, paths):
    @settings(max_examples=EXAMPLES.get(sub, 100), deadline=None, derandomize=True, database=None)
    @given(commands(sub))
    def check(case):
        argv, malformed = case
        for name, path in paths.items():
            argv = [token.replace(name, path) for token in argv]
        code, _, err, caught = run_quietly(argv, FILES["{config}"])
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, argv
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (argv, caught)
        assert not (malformed and code == 0), argv

    check()
