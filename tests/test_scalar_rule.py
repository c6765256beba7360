"""The scalar rule: core.scalar_kind and core.as_scalar are the one place an
input scalar is classified and converted, so every entry point agrees."""

import contextlib
import io
import json
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeslicer import LinearFormSpec, config_from_json_dict, group_bound_r, make_hyperplane
from cubeslicer import cli
from cubeslicer.core import EXACT, FLOAT, as_scalar, as_scalars, scalar_kind
from cubeslicer.decomp import binary_decompose
from cubeslicer.errors import MalformedInput, NonFiniteScalar, SlicerError

NON_FINITE = [math.nan, math.inf, -math.inf]
# no digits, so none of these parses as a rational; no commas or blanks,
# which the CLI's list syntax would read as separators or empty lists
JUNK = st.text(alphabet="abnxyz/.-+e_() ", min_size=1, max_size=8).filter(lambda s: s.strip())

SCALARS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
    st.fractions(max_denominator=10**6).map(lambda f: f"{f.numerator}/{f.denominator}"),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(NON_FINITE),
    st.sampled_from(["x", "nan", "inf", "-inf", "1/0", "1/2/3", "None"]),
    JUNK,
)


def _outcome(thunk):
    """(kind, type, value) of what the entry point built, or the name of the
    SlicerError it raised; any other exception propagates and fails the test."""
    try:
        kind, value = thunk()
    except SlicerError as exc:
        return type(exc).__name__
    return kind, type(value), value


def _cli_text(x):
    """The command-line spelling of x; None for NaN, which no rational text denotes."""
    if isinstance(x, float):
        if math.isnan(x):
            return None
        return repr(x) if math.isfinite(x) else ("1e400" if x > 0 else "-1e400")
    return str(x)


def _qfunc_outcome(text, kind):
    built = []

    def spy(spec, alpha):
        built.append(spec)
        return real(spec, alpha)

    real = cli.small_ball
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "small_ball", spy), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.dispatch(["qfunc", f"--v={text}", "--alpha", "1", "--mode", kind])
    if code != 0:
        return json.loads(err.getvalue())["error"]
    spec = built[0]
    return spec.kind, type(spec.v[0]), spec.v[0]


def _via_make_hyperplane(x):
    h = make_hyperplane([1], x, scalar_kind([x]))
    return h.kind, h.threshold


def _via_linear_form(x):
    s = LinearFormSpec((x,), (0,))
    return s.kind, s.v[0]


def _via_config_dict(x):
    c = config_from_json_dict({"n": 1, "planes": [{"coeffs": [1], "threshold": x}]})
    return c.kind, c.planes[0].threshold


@settings(max_examples=300, deadline=None)
@given(x=SCALARS)
def test_entry_points_agree_on_kind_and_value(x):
    kind = scalar_kind([x])
    outcomes = {
        f.__name__: _outcome(lambda: f(x)) for f in (_via_make_hyperplane, _via_linear_form, _via_config_dict)
    }
    text = _cli_text(x)
    if text is not None:
        outcomes["qfunc --v"] = _qfunc_outcome(text, kind)
    expected = _outcome(lambda: (kind, as_scalar(x, kind)))
    assert all(o == expected for o in outcomes.values()), outcomes
    if isinstance(x, float) and not math.isfinite(x):
        assert expected == "NonFiniteScalar"
    elif isinstance(x, str) and not re.fullmatch(r"-?\d+/[1-9]\d*", x):
        assert expected == "MalformedInput"
    else:
        assert expected[0] == (FLOAT if isinstance(x, float) else EXACT)


def _converted(thunk):
    """Each entry's (type, repr) with the tuple's hash, or the error raised."""
    try:
        out = thunk()
    except (SlicerError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return type(out), [(type(x), repr(x)) for x in out], hash(out)


FLOAT_LISTS = st.lists(st.floats(), max_size=8)
MIXED_LISTS = st.lists(
    st.one_of(st.floats(), SCALARS, st.booleans(), st.none(), st.floats().map(np.float64)), max_size=8
)


@settings(max_examples=300, deadline=None)
@given(
    xs=st.one_of(FLOAT_LISTS, MIXED_LISTS, MIXED_LISTS.map(tuple), st.just([1e308, 1e308])),
    kind=st.sampled_from([FLOAT, EXACT, "decimal"]),
)
def test_sequence_form_matches_per_entry_conversion(xs, kind):
    # the list-of-plain-floats shortcut must give the per-entry tuple, its
    # hash and its first error, for every input
    expected = _converted(lambda: tuple(as_scalar(x, kind) for x in xs))
    assert _converted(lambda: as_scalars(xs, kind)) == expected


class TestAsScalar:
    def test_kinds(self):
        assert scalar_kind([1, Fraction(1, 2), "3/4"]) == EXACT
        assert scalar_kind([1, 0.5]) == FLOAT
        assert scalar_kind([]) == EXACT

    def test_strings_parse_as_rationals(self):
        assert as_scalar(" -2/7 ", EXACT) == Fraction(-2, 7)
        assert as_scalar("1e-3", EXACT) == Fraction(1, 1000)
        assert as_scalar("1/3", FLOAT) == 1 / 3

    @pytest.mark.parametrize("x", [10**400, Fraction(10**400, 3), "1e400", math.inf, math.nan])
    def test_beyond_double_range_is_non_finite_in_float_kind(self, x):
        with pytest.raises(NonFiniteScalar):
            as_scalar(x, FLOAT)

    def test_huge_rationals_stay_exact(self):
        assert as_scalar("1e400", EXACT) == 10**400

    @pytest.mark.parametrize("x", [None, "x", "nan", "1/0", "", [1], b"1", np.int64(3)])
    @pytest.mark.parametrize("kind", [EXACT, FLOAT])
    def test_non_numbers_are_malformed(self, x, kind):
        with pytest.raises(MalformedInput):
            as_scalar(x, kind)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            as_scalar(1, "decimal")


@settings(max_examples=200, deadline=None)
@given(
    v=st.lists(st.floats(min_value=-1e300, max_value=1e300).filter(bool), min_size=1, max_size=12),
    alpha=st.floats(min_value=0.0, max_value=1e300),
)
def test_group_bound_r_float_alpha_matches_float_boundaries(v, alpha):
    # reference: the float-kind count written with ldexp boundaries
    count = sum(1 for j in binary_decompose(v).parts if math.ldexp(1.0, -j - 1) >= alpha)
    assert group_bound_r(v, alpha, 8) == int(count / (2.0 * math.log(8)))
