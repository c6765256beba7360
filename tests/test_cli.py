"""CLI dispatch: exit codes, piping, determinism, artifacts."""

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeslicer.cli import build_parser, dispatch, to_json_text
from cubeslicer.core import config_from_json_dict

TWO_AXIS_PLANES_Q3 = {
    "n": 3,
    "planes": [{"coeffs": [1, 0, 0], "threshold": 0}, {"coeffs": [0, 1, 0], "threshold": 0}],
}
# the verify report of TWO_AXIS_PLANES_Q3: the four axis-2 edges stay unsliced
TWO_AXIS_PLANES_Q3_REPORT = {
    "n": 3,
    "m": 2,
    "mode": "strict",
    "total_edges": 12,
    "unsliced_count": 4,
    "complete": False,
    "per_plane_crossings": [4, 4],
    "unsliced_sample": [
        {"axis": 2, "base_signs": signs}
        for signs in ([-1, -1, -1], [1, -1, -1], [-1, 1, -1], [1, 1, -1])
    ],
}


def run(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
JSON_SCALARS = st.one_of(
    st.integers(),
    FINITE_FLOATS,
    st.booleans(),
    st.none(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-128, 127).map(np.int8),
    FINITE_FLOATS.map(np.float64),
)
JSON_LISTS = st.one_of(
    st.lists(st.integers()),
    st.lists(FINITE_FLOATS),
    st.lists(st.booleans()),
    st.lists(JSON_SCALARS),
    st.lists(FINITE_FLOATS).map(tuple),
    st.recursive(st.lists(JSON_SCALARS, max_size=5), lambda inner: st.lists(inner, max_size=4), max_leaves=30),
)


class TestJsonText:
    def test_float_seventeen_digits(self):
        assert to_json_text(1 / 3) == "0.33333333333333331"
        assert to_json_text(0.125) == "0.125"

    def test_fractions_and_scalars(self):
        from fractions import Fraction

        assert to_json_text({"x": Fraction(1, 3)}) == '{"x": "1/3"}'
        assert to_json_text([True, None, 4]) == "[true, null, 4]"

    def test_round_trips_through_json(self):
        text = to_json_text({"a": [0.1, 2, "s"], "b": {"c": -1.5}}, indent=2)
        assert json.loads(text) == {"a": [0.1, 2, "s"], "b": {"c": -1.5}}

    def test_bools_stay_bools_beside_ints(self):
        assert to_json_text([True, 1]) == "[true, 1]"
        assert to_json_text([1, False]) == "[1, false]"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_raise(self, bad):
        for obj in ([bad], [0.5, bad], [1, bad], {"p": [bad, 0.25]}):
            with pytest.raises(ValueError):
                to_json_text(obj)

    @settings(max_examples=300, deadline=None)
    @given(obj=JSON_LISTS, indent=st.sampled_from([0, 2]))
    def test_flat_lists_match_the_generic_path(self, obj, indent):
        # lists of plain ints or plain floats are joined in one pass; with
        # that pass switched off every item goes through _json_token
        fast = to_json_text(obj, indent)
        with mock.patch("cubeslicer.cli._flat_tokens", return_value=None):
            assert to_json_text(obj, indent) == fast


class TestConstructVerify:
    def test_construct_emits_config(self, capsys):
        code, out, _ = run(capsys, ["construct", "axis", "--n", "3"])
        assert code == 0
        cfg = json.loads(out)
        assert cfg["n"] == 3 and len(cfg["planes"]) == 3

    def test_pipe_round_trip(self, capsys, monkeypatch):
        _, out, _ = run(capsys, ["construct", "middle-layers", "--n", "8"])
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out2, _ = run(capsys, ["verify"])
        assert code == 0
        assert json.loads(out2)["unsliced_count"] == 0

    def test_verify_incomplete_exits_one(self, capsys, tmp_path):
        _, out, _ = run(capsys, ["construct", "axis", "--n", "5"])
        cfg = json.loads(out)
        cfg["planes"] = cfg["planes"][:-1]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(cfg))
        code, out2, _ = run(capsys, ["verify", "--config", str(path)])
        assert code == 1
        assert json.loads(out2)["unsliced_count"] == 16

    def test_verify_stderr_is_one_manifest_line_above_n_24(self, capsys, tmp_path):
        # stderr holds the manifest alone, one JSON line, above n = 24 too
        coeffs = [1] + [0] * 24
        path = tmp_path / "one_plane_25.json"
        path.write_text(json.dumps({"n": 25, "planes": [{"coeffs": coeffs, "threshold": 0}]}))
        code, out, err = run(capsys, ["verify", "--config", str(path)])
        assert code == 1
        assert json.loads(out)["unsliced_count"] == 24 << 24
        assert err.count("\n") == 1
        assert json.loads(err)["subcommand"] == "verify"

    def test_verify_csv_report(self, capsys, tmp_path):
        _, out, _ = run(capsys, ["construct", "axis", "--n", "3"])
        path = tmp_path / "axis3.json"
        path.write_text(out)
        code, out2, _ = run(capsys, ["verify", "--config", str(path), "--report", "csv"])
        assert code == 0
        lines = out2.strip().splitlines()
        assert lines[0].startswith("n,m,mode")
        assert len(lines) == 4

    def test_mode_override(self, capsys, tmp_path):
        path = tmp_path / "touch.json"
        path.write_text(json.dumps({"n": 4, "planes": [{"coeffs": [1, 1, 1, 1], "threshold": 2}]}))
        code, out, _ = run(capsys, ["verify", "--config", str(path), "--mode", "relaxed"])
        assert json.loads(out)["per_plane_crossings"] == [16]


class TestUsageAndErrors:
    def test_usage_error_exit_two(self, capsys):
        code, _, err = run(capsys, ["verify", "--report", "yaml"])
        assert code == 2
        assert "usage" in err

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    def test_threads_below_one_rejected(self, capsys, threads):
        code, out, err = run(capsys, ["construct", "axis", "--n", "3", "--threads", threads])
        assert code == 2
        assert out == ""
        assert "usage" in err and "--threads" in err

    def test_unknown_subcommand_exit_two(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 2

    def test_domain_error_structured(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "planes": [{"coeffs": [0, 0], "threshold": 1}]}))
        code, out, err = run(capsys, ["verify", "--config", str(path)])
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "AllZeroCoefficients"

    def test_domain_error_without_out_is_one_stderr_line(self, capsys):
        # without --out an error prints no manifest: the error line is all
        code, out, err = run(capsys, ["qfunc", "--v", "1,x", "--alpha", "1"])
        assert (code, out) == (1, "")
        assert err == '{"error": "MalformedInput", "message": "not a rational number: \'x\'"}\n'


# (stdin document or None, argv, expected error); "{tmp}" is the test's tmp_path
MALFORMED_INPUTS = {
    "invalid_json": ("{", ["verify"], "MalformedInput"),
    "missing_config_file": (None, ["verify", "--config", "{tmp}/missing.json"], "MalformedInput"),
    "plane_without_threshold": ('{"n": 2, "planes": [{"coeffs": [1, 0]}]}', ["verify"], "MalformedInput"),
    "null_threshold": ('{"n": 2, "planes": [{"coeffs": [1, 0], "threshold": null}]}', ["verify"], "MalformedInput"),
    "junk_coefficient": ('{"n": 2, "planes": [{"coeffs": ["x", 0], "threshold": 0}]}', ["verify"], "MalformedInput"),
    "unknown_mode": ('{"n": 2, "mode": "loose", "planes": []}', ["verify"], "MalformedInput"),
    "zero_dimension": ('{"n": 0, "planes": []}', ["verify"], "DimensionZero"),
    "negative_dimension": ('{"n": -3, "planes": []}', ["verify"], "DimensionZero"),
    "fractional_dimension": ('{"n": 2.5, "planes": [{"coeffs": [1, 0], "threshold": 0}]}', ["verify"], "MalformedInput"),
    "boolean_dimension": ('{"n": true, "planes": [{"coeffs": [1], "threshold": 0}]}', ["verify"], "MalformedInput"),
    "boolean_coefficient": ('{"n": 2, "planes": [{"coeffs": [true, 1], "threshold": 0}]}', ["verify"], "MalformedInput"),
    "boolean_threshold": ('{"n": 2, "planes": [{"coeffs": [1, 1], "threshold": false}]}', ["verify"], "MalformedInput"),
    "string_dimension": ('{"n": "2", "planes": [{"coeffs": [1, 0], "threshold": 0}]}', ["verify"], "MalformedInput"),
    # coeffs and planes must be JSON arrays: a string or an object would
    # iterate as characters or keys, so "12" would read as (1, 2)
    "string_coefficients": ('{"n": 2, "planes": [{"coeffs": "12", "threshold": 0}]}', ["verify"], "MalformedInput"),
    "object_coefficients": (
        '{"n": 2, "planes": [{"coeffs": {"1": 0, "1/2": 5}, "threshold": 0}]}', ["verify"], "MalformedInput"
    ),
    "object_planes": ('{"n": 2, "planes": {"x": 1}}', ["verify"], "MalformedInput"),
    "non_object_plane": ('{"n": 2, "planes": [5]}', ["verify"], "MalformedInput"),
    "array_document": ('[{"n": 2, "planes": []}]', ["verify"], "MalformedInput"),
    "sample_string_coefficients": ('{"n": 2, "planes": [{"coeffs": "12", "threshold": 0}]}', ["sample"], "MalformedInput"),
    "estimate_string_coefficients": (
        '{"n": 2, "planes": [{"coeffs": "12", "threshold": 0}]}',
        ["estimate", "evasion", "--config", "-", "--samples", "10"],
        "MalformedInput",
    ),
    "qfunc_junk_entry": (None, ["qfunc", "--v", "1,x", "--alpha", "1"], "MalformedInput"),
    "qfunc_double_dash_value": (None, ["qfunc", "--v=--", "--alpha", "1"], "MalformedInput"),
    "decompose_double_dash_value": (None, ["decompose", "--v=--"], "MalformedInput"),
    "qfunc_double_dash_p": (None, ["qfunc", "--v", "1,1", "--p=--", "--alpha", "1"], "MalformedInput"),
    "qfunc_float_overflow": (None, ["qfunc", "--mode", "float", "--v", "1e400", "--alpha", "1"], "NonFiniteScalar"),
    "decompose_float_overflow": (None, ["decompose", "--mode", "float", "--v", "1e400"], "NonFiniteScalar"),
    "qfunc_float_l1_overflow": (None, ["qfunc", "--mode", "float", "--v", "1e308,1e308", "--alpha", "1"], "NonFiniteScalar"),
    # a construction has its own n planes, so a list of plane counts would
    # run the same cell once per entry
    "sweep_plane_counts_with_construction": (
        None,
        ["sweep", "--n", "8", "--m", "3,5", "--construction", "axis", "--samples", "10"],
        "MalformedInput",
    ),
    "verify_float_side_overflow": (
        '{"n": 4, "planes": [{"coeffs": [1e308, -1e308, 1e308, 1.0], "threshold": 0.0},'
        ' {"coeffs": [1, 1, 1, 1], "threshold": 0.5}]}',
        ["verify"],
        "NonFiniteScalar",
    ),
}


class TestMalformedInput:
    @pytest.mark.parametrize("stdin, argv, error", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
    def test_json_error_and_error_manifest(self, capsys, monkeypatch, tmp_path, stdin, argv, error):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        out_dir = tmp_path / "run"
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv] + ["--out", str(out_dir)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == error
        assert json.loads((out_dir / "manifest.json").read_text())["error"]["error"] == error
        assert [path.name for path in out_dir.iterdir()] == ["manifest.json"]


class TestMemoryError:
    def test_json_error_and_error_manifest(self, capsys, monkeypatch, tmp_path):
        # numpy raises a private MemoryError subclass when an array does not fit
        import cubeslicer.sampler as sampler_mod

        class _ArrayMemoryError(MemoryError):
            pass

        def raiser(V):
            raise _ArrayMemoryError("Unable to allocate 393. MiB for an array")

        monkeypatch.setattr(sampler_mod, "compact_terms", raiser)
        sampler_mod.bias_setup.cache_clear()
        out_dir = tmp_path / "run"
        argv = ["estimate", "evasion", "--n", "16", "--m", "3", "--samples", "10", "--out", str(out_dir)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        expected = {"error": "MemoryError", "message": "Unable to allocate 393. MiB for an array"}
        assert json.loads(err) == expected
        assert json.loads((out_dir / "manifest.json").read_text())["error"] == expected


class TestDecomposeAndQfunc:
    def test_decompose(self, capsys):
        code, out, _ = run(capsys, ["decompose", "--v", "0.6,-0.2,0", "--mode", "float"])
        assert code == 0
        rows = json.loads(out)
        assert rows == [
            {"j": 0, "indices": [0], "values": [0.6]},
            {"j": 2, "indices": [1], "values": [-0.2]},
        ]

    def test_decompose_exact_fractions(self, capsys):
        code, out, _ = run(capsys, ["decompose", "--v", "1/2,3/10"])
        rows = json.loads(out)
        assert rows == [{"j": 1, "indices": [0, 1], "values": ["1/2", "3/10"]}]

    def test_qfunc_hand_value(self, capsys):
        code, out, _ = run(capsys, ["qfunc", "--v", "1,1", "--p", "0,0", "--alpha", "1"])
        assert code == 0
        result = json.loads(out)
        assert result["q"] == "1/2"
        assert result["a"] == 2
        assert result["sperner"] == "1/2"

    def test_qfunc_float_mode(self, capsys):
        _, out, _ = run(capsys, ["qfunc", "--v", "1,1", "--alpha", "1.5", "--mode", "float"])
        assert json.loads(out)["q"] == 0.75

    @pytest.mark.parametrize(
        "args, stdout",
        [
            (["--mode", "exact", "--v", "1,2,3"], '{\n  "a": 3,\n  "q": "0",\n  "sperner": "3/8",\n  "ratio": 0\n}\n'),
            (["--mode", "float", "--v", "1,2,3"], '{\n  "a": 3,\n  "q": 0,\n  "sperner": "3/8",\n  "ratio": 0\n}\n'),
            (
                ["--mode", "exact", "--v", "1/2,1/3,1,2", "--p", "1/4,0,-1/2,0"],
                '{\n  "a": 4,\n  "q": "0",\n  "sperner": "3/8",\n  "ratio": 0\n}\n',
            ),
            (
                ["--mode", "float", "--v", "0.5,1.25,-3,2", "--p", "0.25,0,-0.5,0.1"],
                '{\n  "a": 4,\n  "q": 0,\n  "sperner": "3/8",\n  "ratio": 0\n}\n',
            ),
        ],
    )
    def test_qfunc_alpha_zero_stdout(self, capsys, args, stdout):
        # pinned from the full window scan; alpha = 0 now answers with no scan
        code, out, _ = run(capsys, ["qfunc", *args, "--alpha", "0"])
        assert (code, out) == (0, stdout)

    def test_qfunc_float_near_overflow_limit(self, capsys):
        # l1(v) = 8e307 is still a double; 1e308,1e308 (the next case) is not
        _, out, _ = run(capsys, ["qfunc", "--v", "4e307,4e307", "--alpha", "1", "--mode", "float"])
        assert json.loads(out)["q"] == 0.5
        code, out, err = run(capsys, ["qfunc", "--v", "1e308,1e308", "--alpha", "1", "--mode", "float"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "NonFiniteScalar"

    def test_qfunc_float_atoms_beyond_half_the_double_range_warn_nothing(self, capsys):
        # the atoms +-1.6e308 are an infinite gap apart; it is never folded
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, ["qfunc", "--mode", "float", "--v", "1.6e308", "--alpha", "1"])
        assert (code, json.loads(out)["q"]) == (0, 0.5)

    def test_qfunc_float_window_below_rounding_step_holds_its_atom(self, capsys):
        # 2*alpha = 1 is below the spacing of doubles near 1e20, so v + 2*alpha
        # rounds to v; the window still holds its anchor atom
        _, out, _ = run(capsys, ["qfunc", "--v", "1e20,1e20,1e20", "--alpha", "1/2", "--mode", "float"])
        assert json.loads(out)["q"] == 0.375
        _, out, _ = run(capsys, ["qfunc", "--v", "1e20,1e20,1e20", "--alpha", "1/2"])
        assert json.loads(out)["q"] == "3/8"

    def test_qfunc_float_below_unit_scale_matches_exact(self, capsys):
        # the float fold's tolerance scales with l1(v) = 3e-13, so atoms
        # 2e-13 apart stay apart, as in exact mode
        argv = ["qfunc", "--v", "1e-13,1e-13,1e-13", "--alpha", "5e-14"]
        _, out, _ = run(capsys, [*argv, "--mode", "float"])
        result = json.loads(out)
        assert (result["q"], result["ratio"]) == (0.375, 0.375 * math.sqrt(3))
        _, out, _ = run(capsys, argv)
        assert json.loads(out)["q"] == "3/8"

    def test_qfunc_float_exact_ties(self, capsys):
        _, out, _ = run(capsys, ["qfunc", "--mode", "float", "--v", "1,1,1,1", "--alpha", "1"])
        assert json.loads(out)["q"] == 0.375


def _benchmark_exact_form(n, seed):
    # the benchmark's exact shape: v_i = a_i / 3^k_i with k a permutation of
    # 1..n and 3 not dividing a_i, so all 2^n sums differ, and p_i = +-(1 + k % 5)/10
    r = random.Random(seed)
    ks = list(range(n))
    r.shuffle(ks)
    v = []
    for k in ks:
        a = 3 * int(r.random() * 20) + 1 + int(r.random() * 2)
        v.append(Fraction(a if r.random() < 0.5 else -a, 3 ** (k + 1)))
    p = [Fraction((1 + k % 5) * (1 if r.random() < 0.5 else -1), 10) for k in range(n)]
    return ",".join(map(str, v)), ",".join(map(str, p))


def _uniform_float_form(n, seed):
    r = random.Random(seed)
    v = [4.0 * r.random() - 2.0 for _ in range(n)]
    p = [r.random() - 0.5 for _ in range(n)]
    return ",".join(map(repr, v)), ",".join(map(repr, p))


def _tie_heavy_float_form(n, seed):
    r = random.Random(seed)
    pool = (0.1, 0.2, 0.3, 0.5, 1.0, 3.0)
    v = [pool[int(r.random() * len(pool))] for _ in range(n)]
    p = [round(r.random() - 0.5, 2) or 0.25 for _ in range(n)]
    return ",".join(map(repr, v)), ",".join(map(repr, p))


def _qfunc_cases():
    """qfunc argv by case name.  Only random.random() draws the inputs: its
    stream is the one part of the random module fixed across Python versions."""
    cases = {}
    for n in (10, 12, 14):
        v, p = _benchmark_exact_form(n, n)
        for alpha in ("1", "1/3", "0"):
            cases[f"exact_n{n}_alpha{alpha.replace('/', 'over')}"] = ["--v=" + v, "--p=" + p, "--alpha", alpha]
        v, p = _uniform_float_form(n, n)
        for alpha in ("1/2", "0.01"):
            cases[f"float_n{n}_alpha{alpha.replace('/', 'over')}"] = [
                "--v=" + v, "--p=" + p, "--alpha", alpha, "--mode", "float"]
    for alpha in ("1/2", "0.25", "1", "0"):
        cases[f"ties_small_alpha{alpha.replace('/', 'over')}"] = [
            "--v=1,1,1,0.5,0.5", "--p=0.1,-0.2,0.3,0.25,-0.5", "--alpha", alpha, "--mode", "float"]
    v, p = _tie_heavy_float_form(12, 3)
    for alpha in ("0.05", "0.1", "1/2"):
        cases[f"ties_n12_alpha{alpha.replace('/', 'over')}"] = [
            "--v=" + v, "--p=" + p, "--alpha", alpha, "--mode", "float"]
    for mode in ("exact", "float"):
        for alpha in ("1/2", "1", "3"):
            cases[f"sure_coordinates_{mode}_alpha{alpha.replace('/', 'over')}"] = [
                "--v=1,2,3,1/2,0.25", "--p=1,0,-1,1/3,-1/4", "--alpha", alpha, "--mode", mode]
    return cases


QFUNC_CASES = _qfunc_cases()


class TestQfuncPinned:
    # sha256 of the qfunc stdout, captured before the oracle kept its atoms as
    # arrays (float) and common-denominator integers (exact); any change to
    # a digit of q, a, sperner or ratio shows here.  ties_n12_alpha0.05 alone
    # differs from that capture: its q there was one rounding below the
    # largest atom's mass 0.037634812068950106 (the exact Q, rounded), and a
    # float Q for alpha > 0 is now at least that mass.  ties_small_alpha1
    # was re-captured when exact ties were merged as the doubling makes them:
    # its q, summed in another order, went from 0.39998437500000006 to
    # 0.39998437500000011 (the exact Q is 0.399984375)
    GOLDEN_SHA256 = {
        "exact_n10_alpha1": "d60a6b6f78d93cbf723ed0942ae803405b436052b0535b2c40b1ac51c505caee",
        "exact_n10_alpha1over3": "83f4f951a138812a1ac04589058555695e8f789a254503f0d065b68fb4f3d4ca",
        "exact_n10_alpha0": "5079be642e52da2274adbffc488f8bfe353b57b91235b5a6d984064eb0d94409",
        "float_n10_alpha1over2": "44af09f6b0240faacd34f1555b4621c9436d0863a17b83458f20bf958e19e077",
        "float_n10_alpha0.01": "7923b8b08a494e563d29c28d04e04533c8a8566b3854a4a9e4fa110b8e6f3979",
        "exact_n12_alpha1": "015c1f5987bb6d29301c8852322e14094c74ad6c8826a4834e1f0a5b7f617d11",
        "exact_n12_alpha1over3": "6dee17c4231270fa0bfc9c576406daeb346bf620798779791b3064d807174d91",
        "exact_n12_alpha0": "288075d6e2c0f12ddac4517a514076a0fcfbda629679d1ed5bb158707d6e145b",
        "float_n12_alpha1over2": "9396dbc2e330e77f38c71f0d3c182dc556272b1741a6e64af55a171239aed2b0",
        "float_n12_alpha0.01": "196c370a128df05083c7277819c72c1e78a63d1bead2d398937ffe55c584ce1f",
        "exact_n14_alpha1": "5b0e47cc1d3fdd637055044c76f31338b2263cb04e9084a19754995eab2e46d2",
        "exact_n14_alpha1over3": "71c41695ad75adb8e5ebd7b5b7872f96a2b0ebfe6510069a2747be432979f308",
        "exact_n14_alpha0": "6f142b492deb192086f8bcc62483c6d74ba04a9a8230b28cd1a853beb39f64a3",
        "float_n14_alpha1over2": "c8ee1ed14e852557f633860ec0b35160e496401dc6a693f9e3f0021056016662",
        "float_n14_alpha0.01": "a0edfbdb3dbf307ee8c976d956531eafc1cf1349cbb87f048b1c53beebe5f87a",
        "ties_small_alpha1over2": "be70caf6561bb55d2bfe9e940ec71330701adac92653d11f7d45ab75c9be9b5c",
        "ties_small_alpha0.25": "be70caf6561bb55d2bfe9e940ec71330701adac92653d11f7d45ab75c9be9b5c",
        "ties_small_alpha1": "bfc11ab36c1788abf6ac7e2a1480a091a5f94932e60f0bd482aa05bc101f29dd",
        "ties_small_alpha0": "856328d217a07f31c59caede349fc88046e42ad332c77505f740b273d9d31f0a",
        "ties_n12_alpha0.05": "c81b405de481e1def6cd1fd054f21934285fd8fd9bdda9cf487fa974ac7015a9",
        "ties_n12_alpha0.1": "c6c02b22776670c49544f64525f296244bbc4c6da566f5fe739b4efae76a894e",
        "ties_n12_alpha1over2": "eed8d56591fcc1f4aacba0a99b36858d81225d31c51ad68dbce3df22c1a0f28a",
        "sure_coordinates_exact_alpha1over2": "5cf08852f135c39c69921bfef8cead6a97f4eea276a796c43cdee90b586e55e9",
        "sure_coordinates_exact_alpha1": "968b58f51c901d9fd1fdc2efe00643fdb2df5f9544e8f683547642255d2264db",
        "sure_coordinates_exact_alpha3": "7221c95979c45fc2b8c7f191780515366838f2cb5d392e4ff0d39ddfadf34437",
        "sure_coordinates_float_alpha1over2": "62a26e70f008681e09c7301161699f4c3cab74b86f8555d9183ccbd21cfe6cd4",
        "sure_coordinates_float_alpha1": "719cbebda18f82b19f520ef3aab5a9bcd118ec16a2fedf15b29e28fbd9b058bd",
        "sure_coordinates_float_alpha3": "b05e3d5faca000b7c2238b7e06f64c2ca3ccd01eb5229d36bbefba5b318e3508",
    }

    @pytest.mark.parametrize("case", sorted(QFUNC_CASES))
    def test_output_bytes_are_pinned(self, capsys, case):
        code, out, _ = run(capsys, ["qfunc", *QFUNC_CASES[case]])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_SHA256[case]


# numeric flags that once ended in a Python traceback, some only after the
# whole computation had run; each is now refused before any work starts
BAD_FLAGS = {
    "glue_t_nan": ["estimate", "glue", "--n", "16", "--m", "3", "--samples", "200", "--t", "nan"],
    "glue_t_inf": ["estimate", "glue", "--n", "16", "--m", "3", "--samples", "200", "--t", "inf"],
    "sweep_junk_dimension": ["sweep", "--n", "8,x"],
    "sweep_junk_plane_count": ["sweep", "--n", "8", "--m", "2,y"],
    "evasion_zero_samples": ["estimate", "evasion", "--n", "16", "--m", "3", "--samples", "0"],
    "search_zero_planes": ["search", "--n", "3", "--m", "0", "--iters", "10"],
    "search_zero_replicas": ["search", "--n", "3", "--m", "2", "--iters", "10", "--replicas", "0"],
    "qfunc_float_l1_overflow": ["qfunc", "--mode", "float", "--v", "1e308,1e308", "--alpha", "1"],
    "sample_zero_count": ["sample", "--count", "0"],
    "sample_negative_count": ["sample", "--count", "-1"],
    "search_negative_iters": ["search", "--n", "3", "--m", "2", "--iters", "-1"],
    "negative_seed": ["estimate", "evasion", "--n", "4", "--m", "2", "--samples", "10", "--seed", "-1"],
    "negative_stream": ["search", "--n", "3", "--m", "2", "--iters", "10", "--stream", "-1"],
    "sweep_zero_dimension": ["sweep", "--n", "0", "--m", "2", "--samples", "10"],
    "sweep_negative_dimension_on_the_diagonal": ["sweep", "--n", "8,-1", "--samples", "10"],
    "threads_double_dash_value": ["verify", "--threads=--"],
    "iters_double_dash_value": ["search", "--n", "3", "--m", "2", "--iters=--"],
    "variant_double_dash_value": ["sample", "--variant=--"],
}


class TestBadFlags:
    @pytest.mark.parametrize("argv", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
    def test_usage_or_json_error_without_traceback(self, capsys, monkeypatch, argv):
        # a valid config on stdin, so a sample case fails on its flag alone
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(TWO_AXIS_PLANES_Q3)))
        code, out, err = run(capsys, argv)
        assert code in (1, 2)
        assert out == ""
        assert "Traceback" not in err
        if code == 1:
            assert "error" in json.loads(err)
        else:
            assert "usage" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--n", "3", "--m", "2", "--coeff-range", "0"],
            ["estimate", "evasion", "--n", "0", "--m", "3"],
            BAD_FLAGS["sample_zero_count"],
            BAD_FLAGS["sample_negative_count"],
            BAD_FLAGS["evasion_zero_samples"],
            BAD_FLAGS["search_negative_iters"],
            BAD_FLAGS["sweep_zero_dimension"],
            BAD_FLAGS["negative_seed"],
        ],
    )
    def test_flags_that_would_never_finish_are_usage_errors(self, argv):
        # the first two and sweep --n 0 once looped forever; the counts and
        # zero samples once ran to exit 0 with no result, and a negative seed
        # ended in numpy's ValueError; all are checked at the parser alone
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestSample:
    def test_edges_jsonl(self, capsys, tmp_path):
        _, out, _ = run(capsys, ["construct", "axis", "--n", "4"])
        path = tmp_path / "axis4.json"
        path.write_text(out)
        code, out2, _ = run(
            capsys, ["sample", "--config", str(path), "--count", "5", "--seed", "3"]
        )
        assert code == 0
        lines = out2.strip().splitlines()
        assert len(lines) == 5
        edge = json.loads(lines[0])
        assert set(edge) == {"axis", "base_signs"}
        assert len(edge["base_signs"]) == 4

    def test_bias_deterministic(self, capsys, tmp_path):
        _, out, _ = run(capsys, ["construct", "axis", "--n", "4"])
        path = tmp_path / "axis4.json"
        path.write_text(out)
        argv = ["sample", "--config", str(path), "--emit", "bias", "--count", "3", "--seed", "9"]
        _, a, _ = run(capsys, argv)
        _, b, _ = run(capsys, argv)
        assert a == b
        assert json.loads(a.splitlines()[0])["conditioned"] is True

    def test_simple_variant(self, capsys, tmp_path):
        _, out, _ = run(capsys, ["construct", "axis", "--n", "4"])
        path = tmp_path / "axis4.json"
        path.write_text(out)
        _, out2, _ = run(
            capsys,
            ["sample", "--config", str(path), "--emit", "bias", "--variant", "simple", "--count", "2"],
        )
        assert json.loads(out2.splitlines()[0])["conditioned"] is False

    # Two planes on disjoint coordinates with integer norms (3 and 7): every
    # bias entry is one product and every norm is exact, so the bytes do not
    # depend on the BLAS summation order.
    GOLDEN_CONFIG = {
        "n": 6,
        "mode": "strict",
        "planes": [
            {"coeffs": [1, 2, 2, 0, 0, 0], "threshold": 0},
            {"coeffs": [0, 0, 0, 2, -3, 6], "threshold": "1/2"},
        ],
    }
    GOLDEN_SHA256 = {
        ("dyadic", "edges"): "a1f0d6ee0e14cd889131e7727364b90f590b06869735661f81ff5bcd275d1f2b",
        ("dyadic", "bias"): "006dbe19227eb756efadae01492431c71d85309c14337a4e9faca04b92c70165",
        ("simple", "edges"): "715d7489fd28230b782626fff666709e0b5f7c0955c91f1a6deed1a559814d8b",
        ("simple", "bias"): "3521bd3b14b49ccd229f65ab4ccbb1db897f2c8b239af663e8a0727728844a9e",
    }

    @pytest.mark.parametrize("variant,emit", sorted(GOLDEN_SHA256))
    def test_fixed_seed_output_is_pinned(self, capsys, tmp_path, variant, emit):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.GOLDEN_CONFIG))
        argv = ["sample", "--config", str(path), "--count", "6", "--variant", variant,
                "--emit", emit, "--seed", "7", "--stream", "3"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert len(out.splitlines()) == 6
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_SHA256[variant, emit]

    def test_bias_lines_with_rejections_are_pinned(self, capsys, monkeypatch, tmp_path):
        # a bound of 0.035 rejects about half the rows of GOLDEN_CONFIG's
        # bias (max |P_i| has median 0.034), so most lines are redrawn
        import cubeslicer.sampler as sampler_mod

        monkeypatch.setattr(sampler_mod, "P_MAX", 0.035)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.GOLDEN_CONFIG))
        setup = sampler_mod.bias_setup(config_from_json_dict(self.GOLDEN_CONFIG))
        assert sampler_mod.batch_bias_conditioned(setup, np.random.default_rng(0), 40)[1] > 60
        argv = ["sample", "--config", str(path), "--count", "40", "--emit", "bias", "--seed", "7", "--stream", "3"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "617f38d82cbd37909ade94faf6d1f861312cb4f535092af85a79fdbc18632a80"
        )
        monkeypatch.setattr(sampler_mod, "MAX_RETRIES", 0)
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert json.loads(err.splitlines()[0]) == {
            "error": "RetriesExhausted", "message": "no acceptance within 0 retries"
        }


class TestPlaneScale:
    """Crossing does not depend on a plane's positive scale, and the sampler
    takes its unit-norm copy after an exact power-of-two scaling, so copies
    of a configuration scaled by 2^600 and 2^-600 print the same bytes, and
    copies whose squared coefficients overflow or underflow a double run."""

    COMMANDS = {
        "sample_bias": ["sample", "--count", "20", "--emit", "bias", "--seed", "1"],
        "evasion": ["estimate", "evasion", "--samples", "3000", "--seed", "2"],
        "glue": ["estimate", "glue", "--samples", "3000", "--seed", "3"],
    }

    @staticmethod
    def scaled_config(tmp_path, factor):
        gen = np.random.default_rng(2701)
        coeffs, thresholds = gen.standard_normal((3, 8)), 0.3 * gen.standard_normal(3)
        planes = [{"coeffs": (factor * c).tolist(), "threshold": float(factor * t)}
                  for c, t in zip(coeffs, thresholds)]
        path = tmp_path / f"scaled-{factor!r}.json"
        path.write_text(json.dumps({"n": 8, "mode": "strict", "planes": planes}))
        return str(path)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_power_of_two_copies_print_the_same_bytes(self, capsys, tmp_path, command):
        outputs = []
        for factor in (1.0, 2.0 ** 600, 2.0 ** -600):
            code, out, _ = run(capsys, [*self.COMMANDS[command], "--config", self.scaled_config(tmp_path, factor)])
            assert code == 0
            outputs.append(out)
        assert outputs[1] == outputs[0] == outputs[2]

    @pytest.mark.parametrize("factor", [1e200, 1e-200, 1e-160])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_extreme_scales_run(self, capsys, tmp_path, command, factor):
        code, out, err = run(capsys, [*self.COMMANDS[command], "--config", self.scaled_config(tmp_path, factor)])
        assert code == 0, err
        assert out


class TestSearchPinned:
    # sha256 of the search stdout, captured before the annealing loop kept
    # each plane as one [coeffs, t] row and dropped its numpy scalar calls.
    # The search anneals strict crossings.  n = 8 is the largest dimension
    # the search takes (256 vertices, 1024 edges).
    GOLDEN = {
        "strict_n6_two_replicas": (
            ["--n", "6", "--m", "6", "--iters", "6000", "--replicas", "2", "--seed", "4"],
            "33ae79c5751dc2ef1e86b54a1880286cd9d41cbde1207fa53a44beebf3c9ed63",
        ),
        "strict_n8": (
            ["--n", "8", "--m", "4", "--iters", "3000", "--seed", "6"],
            "966f02979a181ec05f4198f975c4fe60166b96569147bbc892d9ef8cd9a4d2c7",
        ),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_output_bytes_are_pinned(self, capsys, case):
        flags, digest = self.GOLDEN[case]
        code, out, _ = run(capsys, ["search", *flags])
        assert code == 0
        assert json.loads(out)["config"]["mode"] == "strict"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestThreadInvariance:
    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "evasion", "--n", "12", "--m", "3", "--samples", "20000", "--seed", "5"],
            ["estimate", "linf-tail", "--n", "16", "--m", "4", "--samples", "20000", "--seed", "6"],
            ["estimate", "glue", "--n", "12", "--m", "3", "--samples", "10000", "--seed", "7"],
            ["search", "--n", "3", "--m", "2", "--iters", "2000", "--seed", "8", "--replicas", "3"],
            ["sweep", "--estimator", "evasion", "--n", "8,16", "--samples", "4000", "--seed", "9"],
        ],
    )
    def test_outputs_byte_identical(self, capsys, argv):
        outputs = []
        for t in ("1", "2"):
            code, out, _ = run(capsys, argv + ["--threads", t])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_verify_incomplete_bytes_identical(self, capsys, tmp_path):
        # two superblocks at n = 18, and more unsliced edges than the sample keeps
        _, out, _ = run(capsys, ["construct", "middle-layers", "--n", "18"])
        cfg = json.loads(out)
        cfg["planes"] = cfg["planes"][2:-2]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(cfg))
        outputs = []
        for t in ("1", "2"):
            code, out, _ = run(capsys, ["verify", "--config", str(path), "--threads", t])
            assert code == 1
            outputs.append(out)
        assert json.loads(outputs[0])["unsliced_count"] > 100
        assert outputs[0] == outputs[1]


class TestArtifacts:
    def test_out_dir_and_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run(
            capsys,
            ["construct", "axis", "--n", "3", "--out", str(out_dir), "--seed", "11"],
        )
        assert code == 0
        assert (out_dir / "config.json").read_text() == out
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "construct"
        assert manifest["seed"] == 11
        assert manifest["code_version"]
        assert manifest["wall_time_s"] >= 0
        assert "--out" in manifest["argv"]

    def test_manifest_on_stderr_without_out(self, capsys):
        code, out, err = run(capsys, ["construct", "axis", "--n", "2", "--seed", "13"])
        assert code == 0
        manifest = json.loads(err)
        assert manifest["subcommand"] == "construct"
        assert manifest["seed"] == 13

    def test_manifest_hashes_config_input(self, capsys, tmp_path):
        _, out, _ = run(capsys, ["construct", "axis", "--n", "3"])
        cfg = tmp_path / "c.json"
        cfg.write_text(out)
        out_dir = tmp_path / "run2"
        run(capsys, ["verify", "--config", str(cfg), "--out", str(out_dir)])
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert str(cfg) in manifest["input_hashes"]
        assert len(manifest["input_hashes"][str(cfg)]) == 64

    def test_sweep_csv(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--n", "8", "--m", "2", "--samples", "2000", "--report", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,m,construction")
        assert len(lines) == 2

class TestBiasRowsInManifest:
    # stdout of each command; linf-tail's is pinned from before the bias row
    # counts were added to the manifest, evasion's and glue's from when each
    # 1024-sample chunk became one batch on its own substream
    PINNED = {
        ("evasion", "json"): "b2bf7ba0cfebc6ad193eb2c7a974545409c23e4764f324a0b2c29582604334ec",
        ("evasion", "csv"): "fed7f0234fce95b5fec7d23deda589750dad39e800053986d31bc942b1d8d6e2",
        ("glue", "json"): "939dfc793b17d830129dfcf3ed1e03fb322a4d873a430d1b2692275a326b2616",
        ("glue", "csv"): "e5bdb2d96be373169008f41fe1a4f834758399922fe965a37f54529f282fbbff",
        ("linf-tail", "json"): "50ab3d5d235d9f3a1d13a35b4828c2dff99f74bb5aa47a80adad947a11bba1e9",
        ("linf-tail", "csv"): "806c29a43de9ec5d03cfd97eac985d32566c950b02d06f097f8055ca3ec61fc2",
    }
    ARGV = {
        "evasion": ["--n", "12", "--m", "3", "--samples", "20000", "--seed", "5"],
        "glue": ["--n", "12", "--m", "3", "--samples", "20000", "--seed", "7"],
        "linf-tail": ["--n", "16", "--m", "4", "--samples", "20000", "--seed", "6"],
    }

    @pytest.mark.parametrize("what,report", sorted(PINNED))
    def test_counts_in_manifest_and_stdout_unchanged(self, capsys, tmp_path, what, report):
        argv = ["estimate", what, *self.ARGV[what], "--report", report]
        code, out, err = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[what, report]
        manifest = json.loads(err)
        assert manifest["bias_rows_drawn"] == 20000
        if what == "linf-tail":
            assert "bias_rows_accepted" not in manifest and "bias_acceptance_bound" not in manifest
        else:
            assert manifest["bias_rows_accepted"] == 20000
            assert manifest["bias_acceptance_bound"] == 1 - 2 / 12
        out_dir = tmp_path / "run"
        assert run(capsys, argv + ["--out", str(out_dir)])[1] == out
        on_disk = json.loads((out_dir / "manifest.json").read_text())
        assert on_disk["bias_rows_drawn"] == 20000
        assert "bias_rows" not in (out_dir / ("estimate." + report)).read_text()

    @pytest.mark.parametrize("what", sorted(ARGV))
    def test_phase_timings_in_manifest_only(self, capsys, tmp_path, what):
        out_dir = tmp_path / "run"
        argv = ["estimate", what, *self.ARGV[what], "--report", "json", "--out", str(out_dir)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[what, "json"]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        timings = manifest["timings"]
        assert sorted(timings) == ["bias_setup_s", "config_s", "estimate_s"]
        assert all(t >= 0 for t in timings.values())
        assert sum(timings.values()) <= manifest["wall_time_s"]
        assert "timings" not in (out_dir / "estimate.json").read_text()

    def test_other_subcommands_carry_no_counts(self, capsys):
        _, _, err = run(capsys, ["construct", "axis", "--n", "3"])
        assert "bias_rows_drawn" not in json.loads(err)


class TestEstimatorOutputsPinned:
    # stdout of estimate and sweep runs, pinned before the estimators shared
    # one chunk fold and one dispatcher: every estimator in json and csv, a
    # plane index with a threshold, several chunks on two threads, and sweep
    # grids with m = 0 error cells, middle-layers cells and the diagonal.
    # The evasion and glue digests were pinned again when each 1024-sample
    # chunk became one batch on its own substream.
    ESTIMATE = {
        "glue_plane2_t": (
            ["glue", "--n", "12", "--m", "3", "--samples", "20000", "--seed", "7", "--plane-index", "2", "--t", "0.1"],
            "c0cd0fe8e588b2089f13ee0e15fc8d2d7790d3ea0eea9a82444f464bca340365",
        ),
        "evasion_t2": (
            ["evasion", "--n", "16", "--m", "5", "--samples", "40000", "--seed", "3", "--threads", "2"],
            "4a8f214b2fb02068d0af0afacb9cb29d17448644bea13cb605ebc980eb23fed6",
        ),
        "linf_tail_t2_csv": (
            ["linf-tail", "--n", "32", "--m", "6", "--samples", "40000", "--seed", "4", "--threads", "2", "--report", "csv"],
            "38535da5bdea581dbb6929f3f8f114ee0b46ba6a6517c1e75a117381db203e0e",
        ),
        "glue_t2_csv": (
            ["glue", "--n", "20", "--m", "5", "--plane-index", "4", "--samples", "30000", "--seed", "8",
             "--threads", "2", "--report", "csv"],
            "b2534d37bd828a4bc4009489910885e72362eb067929c784cf051599cfa33649",
        ),
    }
    GRIDS = {
        "m0": ["--n", "8,16", "--m", "0,3", "--samples", "3000", "--seed", "9"],
        "middle": ["--n", "6,8", "--construction", "middle_layers", "--samples", "3000", "--seed", "10"],
        "diag_t2": ["--n", "8,27", "--samples", "2000", "--seed", "11", "--threads", "2"],
    }
    SWEEP = {
        ("evasion", "json", "m0"): "5d1c14cf0efce84178ef0551bd5a2d9656f22a3e0571ee1ca6b11c73ae412676",
        ("evasion", "json", "middle"): "1d0bdba01ff1865dbf46b49f7958dc6de9cb53f04e021ae2279e725b3af24032",
        ("evasion", "json", "diag_t2"): "c27c5b8ed09955a7085d1cdfa68627db4e09506df197cde68f67d1f34d779566",
        ("evasion", "csv", "m0"): "663decfd92779f7d05e3caf2c2ef66244b06ac37efa5cca74ebdc0fd5f5d25a1",
        ("evasion", "csv", "middle"): "4097b03ead468d2a5a3c0cd206f0bdb2b4254cb0ba4cc8e2c3d9f0a15bbddb78",
        ("evasion", "csv", "diag_t2"): "6a5c851dd4e39691a7222f477185e6d5867ee6b0a8eb8c6e602111e15c6ef8a0",
        ("linf_tail", "json", "m0"): "8a6c545250e88e0041c29b50688695136f4cf805911c3b3a3e25d9db2c3b5cfc",
        ("linf_tail", "json", "middle"): "0f9988025f93cb32e0321bd9fe0e9d024a41188bbe0ff2ea0884c5b16b3138f6",
        ("linf_tail", "json", "diag_t2"): "5068a849ef9b52a94335ec1c31d81fea2ad6365d592e7990aa45de0d9e0d38fb",
        ("linf_tail", "csv", "m0"): "8f0251d5fed57d6d571152dd6134de1f16ab2cb1c786d17ea96b12684f275ee0",
        ("linf_tail", "csv", "middle"): "3fcbb024fbe1e7a04b8b8cb18b4a458a8cf04d769437986edefde03ec98bafeb",
        ("linf_tail", "csv", "diag_t2"): "930e8c127b49fa0353b47651b45ebbaa5bc90e0c0246b6cae1ad7be713e9a7a4",
        ("glue", "json", "m0"): "be372af3689433561688899828a0ec6f60598454260cad49ddc4e4b76f3b9bc0",
        ("glue", "json", "middle"): "e84a89f44033ae81cd5e74097939c9ea1e0ad30adea75353d3672e508051fee6",
        ("glue", "json", "diag_t2"): "c9aa5fd9db3bf4ed99010265985fde09e8f0df0a230a0e6453fec7f5522ef1c2",
        ("glue", "csv", "m0"): "25dffcf196483221afdd19b252ff2623d4f6fbf10d8356d827dc7bd211e6a7a3",
        ("glue", "csv", "middle"): "00b20779c867b1f1c73d4184ee8e2642bef3a86b38526f9ac4af7c6df693d76e",
        ("glue", "csv", "diag_t2"): "42714e1b43a0708793a02d584bda0209aa4c1717083fdc713c85973325a39ccc",
    }

    # stdout pinned at n = 1024 (K = 1232 terms, a 952-row last chunk) and on
    # float middle layers at n = 256, where |P_i| can reach 0.68 > 1/2; the
    # glue and linf-tail digests from before the bias blocks reused their
    # buffers, the evasion ones from when each 1024-sample chunk became one
    # batch on its own substream.  glue_middle_256 reads plane 0, the
    # outermost layer, and prints a glue sum of 0 whatever the stream;
    # glue_central_256 reads plane 128 (threshold -1/16), whose sum is not 0
    LARGE = {
        "evasion_1024": "e659aedec5aba9ad6d5c3a8545fa45042ed10dc41eafd544748203d7445da761",
        "evasion_middle_256": "9c5b9b02f290bddc5ed8235f690e8d6ad6afe55b4fec22b71c6441ecc1c7957f",
        "glue_central_256": "eb7f59ca39bb785e492feb44037d76869dab52b31dc50395c5b4c202b917bbda",
        "glue_middle_256": "0c77cbc358353b04e63d3108f3eb8d0194bbf6f0958d87441e2ddb1664cd1065",
        "linf-tail_middle_256": "95dd750cdf85ad3d375af4cdb99f4d36c2c7fec5f367acbddf4193de9481f8f3",
    }

    @pytest.mark.parametrize("case", sorted(ESTIMATE))
    def test_estimate_bytes_are_pinned(self, capsys, case):
        flags, digest = self.ESTIMATE[case]
        code, out, _ = run(capsys, ["estimate", *flags])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("case", sorted(LARGE))
    def test_large_estimate_bytes_are_pinned(self, capsys, tmp_path, case, threads):
        what, where = case.split("_", 1)
        if where == "1024":
            source = ["--n", "1024", "--m", "100", "--samples", "3000"]
        else:
            code, config, _ = run(capsys, ["construct", "middle-layers", "--n", "256", "--float"])
            assert code == 0
            path = tmp_path / "middle.json"
            path.write_text(config)
            source = ["--config", str(path), "--samples", "20000"]
            if where == "central_256":
                source += ["--plane-index", "128"]
        code, out, _ = run(capsys, ["estimate", what, *source, "--threads", threads])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.LARGE[case]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_linf_tail_bytes_with_a_lowered_bound_are_pinned(self, capsys, monkeypatch, threads):
        # a bound of 0.05, the median of max |P_i| here, counts about half
        # of the 3000 rows (three chunks); linf-tail reads sampler.P_MAX at
        # call time, so lowering it moves the count off 0
        import cubeslicer.sampler as sampler_mod

        monkeypatch.setattr(sampler_mod, "P_MAX", 0.05)
        argv = ["estimate", "linf-tail", "--n", "16", "--m", "4", "--samples", "3000", "--seed", "6", "--threads", threads]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["point_estimate"] == 0.513
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fc0bd7c335116457ac5afeddb3131f52b61877af2ea0f9f2e5def6f986390e9c"
        )

    @pytest.mark.parametrize("estimator,report,grid", sorted(SWEEP))
    def test_sweep_bytes_are_pinned(self, capsys, estimator, report, grid):
        argv = ["sweep", "--estimator", estimator, *self.GRIDS[grid], "--report", report]
        code, out, _ = run(capsys, argv)
        assert code == 0
        if grid == "m0":
            # glue checks its plane index before the sampler sees m = 0
            assert ("SlicerError: plane index" if estimator == "glue" else "DimensionTooSmall") in out
        assert hashlib.sha256(out.encode()).hexdigest() == self.SWEEP[estimator, report, grid]


class TestPeakRss:
    def test_manifest_reports_peak_rss_on_stderr(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(TWO_AXIS_PLANES_Q3))
        code, out, err = run(capsys, ["verify", "--config", str(cfg)])
        assert code == 1
        assert out == to_json_text(TWO_AXIS_PLANES_Q3_REPORT, indent=2) + "\n"
        assert json.loads(err)["peak_rss_mb"] > 0

    def test_manifest_reports_peak_rss_with_out(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(TWO_AXIS_PLANES_Q3))
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, ["verify", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 1
        assert err == ""
        assert out == (out_dir / "report.json").read_text()
        assert out == to_json_text(TWO_AXIS_PLANES_Q3_REPORT, indent=2) + "\n"
        assert json.loads((out_dir / "manifest.json").read_text())["peak_rss_mb"] > 0

    def test_error_manifest_reports_peak_rss(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"n": 2, "planes": [{"coeffs": [0, 0], "threshold": 1}]}))
        out_dir = tmp_path / "run"
        assert run(capsys, ["verify", "--config", str(cfg), "--out", str(out_dir)])[0] == 1
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["error"]["error"] == "AllZeroCoefficients"
        assert manifest["peak_rss_mb"] > 0


class TestModuleEntryPoint:
    SRC = Path(__file__).resolve().parents[1] / "src"

    @pytest.mark.parametrize("module", ["cubeslicer", "cubeslicer.cli"])
    def test_python_dash_m_runs_the_cli(self, capsys, module):
        env = dict(os.environ, PYTHONPATH=str(self.SRC))
        proc = subprocess.run(
            [sys.executable, "-m", module, "construct", "axis", "--n", "3"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        _, expected, _ = run(capsys, ["construct", "axis", "--n", "3"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected
        assert json.loads(proc.stderr)["subcommand"] == "construct"
