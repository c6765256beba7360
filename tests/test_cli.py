"""CLI dispatch: exit codes, piping, determinism, artifacts."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubeslicer.cli import build_parser, dispatch, to_json_text

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


# (stdin document or None, argv, expected error); "{tmp}" is the test's tmp_path
MALFORMED_INPUTS = {
    "invalid_json": ("{", ["verify"], "MalformedInput"),
    "missing_config_file": (None, ["verify", "--config", "{tmp}/missing.json"], "MalformedInput"),
    "plane_without_threshold": ('{"n": 2, "planes": [{"coeffs": [1, 0]}]}', ["verify"], "MalformedInput"),
    "null_threshold": ('{"n": 2, "planes": [{"coeffs": [1, 0], "threshold": null}]}', ["verify"], "MalformedInput"),
    "junk_coefficient": ('{"n": 2, "planes": [{"coeffs": ["x", 0], "threshold": 0}]}', ["verify"], "MalformedInput"),
    "unknown_mode": ('{"n": 2, "mode": "loose", "planes": []}', ["verify"], "MalformedInput"),
    "qfunc_junk_entry": (None, ["qfunc", "--v", "1,x", "--alpha", "1"], "MalformedInput"),
    "qfunc_float_overflow": (None, ["qfunc", "--mode", "float", "--v", "1e400", "--alpha", "1"], "NonFiniteScalar"),
    "decompose_float_overflow": (None, ["decompose", "--mode", "float", "--v", "1e400"], "NonFiniteScalar"),
    "qfunc_float_l1_overflow": (None, ["qfunc", "--mode", "float", "--v", "1e308,1e308", "--alpha", "1"], "NonFiniteScalar"),
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

    def test_qfunc_float_near_overflow_limit(self, capsys):
        # l1(v) = 8e307 is still a double; 1e308,1e308 (the next case) is not
        _, out, _ = run(capsys, ["qfunc", "--v", "4e307,4e307", "--alpha", "1", "--mode", "float"])
        assert json.loads(out)["q"] == 0.5
        code, out, err = run(capsys, ["qfunc", "--v", "1e308,1e308", "--alpha", "1", "--mode", "float"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "NonFiniteScalar"


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
}


class TestBadFlags:
    @pytest.mark.parametrize("argv", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
    def test_usage_or_json_error_without_traceback(self, capsys, argv):
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
        ],
    )
    def test_flags_that_would_never_finish_are_usage_errors(self, argv):
        # both once looped forever, so they are checked at the parser alone
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
        for t in ("1", "4", "8"):
            code, out, _ = run(capsys, argv + ["--threads", t])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_env_default_threads(self, capsys, monkeypatch):
        monkeypatch.setenv("SLICER_THREADS", "4")
        argv = ["estimate", "evasion", "--n", "8", "--m", "2", "--samples", "8000", "--seed", "1"]
        _, with_env, _ = run(capsys, argv)
        monkeypatch.delenv("SLICER_THREADS")
        _, without, _ = run(capsys, argv)
        assert with_env == without


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
