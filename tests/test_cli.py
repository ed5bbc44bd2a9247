import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from rieszcap.cli import main
from rieszcap.discrepancy import l2_cap_discrepancy
from rieszcap.energy import riesz_energy
from rieszcap.pointsets import loads_pointset, read_pointset, roots_of_unity


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None):
    """In-process CLI invocation; returns (exit_code, stdout, stderr)."""
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def envelope(out):
    blob = json.loads(out)
    for key in ("version", "command", "params", "seed", "wall_time_s", "result"):
        assert key in blob
    return blob


# ----------------------------------------------------------------- gen

def test_gen_roots_csv(monkeypatch, capsys):
    code, out, _ = run_cli(["gen", "--kind", "roots-of-unity", "--n", "8"], None, monkeypatch, capsys)
    assert code == 0
    ps = loads_pointset(out)
    assert ps.d == 1 and ps.n == 8
    np.testing.assert_allclose(ps.points, roots_of_unity(8).points)


@pytest.mark.parametrize(
    "kind,d,n", [("random", 3, 12), ("fibonacci", 2, 20), ("hammersley-sphere", 2, 16)]
)
def test_gen_kinds_loadable(kind, d, n, monkeypatch, capsys):
    argv = ["gen", "--kind", kind, "--n", str(n)]
    if kind == "random":
        argv += ["--d", str(d), "--seed", "5"]
    code, out, _ = run_cli(argv, None, monkeypatch, capsys)
    assert code == 0
    ps = loads_pointset(out)
    assert (ps.d, ps.n) == (d, n)
    np.testing.assert_allclose(np.linalg.norm(ps.points, axis=1), 1.0, atol=1e-9)


def test_gen_json_format(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["gen", "--kind", "roots-of-unity", "--n", "5", "--format", "json"],
        None,
        monkeypatch,
        capsys,
    )
    assert code == 0
    ps = loads_pointset(out, format="json")
    assert ps.n == 5


def test_gen_dimension_mismatch_rejected(monkeypatch, capsys):
    code, _, err = run_cli(
        ["gen", "--kind", "roots-of-unity", "--n", "5", "--d", "2"], None, monkeypatch, capsys
    )
    assert code == 1
    assert "circle" in err


def test_gen_requires_kind(monkeypatch, capsys):
    code, _, err = run_cli(["gen", "--n", "5"], None, monkeypatch, capsys)
    assert code == 1
    assert "--kind" in err


# ---------------------------------------------------------------- energy

def test_energy_matches_library(monkeypatch, capsys):
    X = roots_of_unity(6)
    from rieszcap.pointsets import dumps_pointset

    code, out, _ = run_cli(
        ["energy", "--s", "-1"], dumps_pointset(X), monkeypatch, capsys
    )
    assert code == 0
    blob = envelope(out)
    assert blob["command"] == "energy"
    assert blob["result"]["energy"] == pytest.approx(riesz_energy(X, -1.0), rel=1e-15)


# ------------------------------------------------------------------ disc

@pytest.mark.parametrize(
    "kind", ["l2", "l2-direct", "cui-freeden", "sum-distance", "cap-sup-lower", "leveque", "weyl"]
)
def test_disc_kinds_run(kind, monkeypatch, capsys):
    from rieszcap.pointsets import dumps_pointset, fibonacci_sphere

    text = dumps_pointset(fibonacci_sphere(12))
    argv = ["disc", "--kind", kind]
    if kind in ("l2-direct", "cap-sup-lower"):
        argv += ["--centers", "64", "--seed", "3"]
    if kind in ("leveque", "weyl"):
        argv += ["--degree", "6"]
    code, out, _ = run_cli(argv, text, monkeypatch, capsys)
    assert code == 0
    blob = envelope(out)
    if kind == "weyl":
        assert len(blob["result"]["values"]) == 6
    else:
        assert blob["result"]["value"] >= 0.0


def test_disc_l2_matches_library(monkeypatch, capsys):
    from rieszcap.pointsets import dumps_pointset

    X = roots_of_unity(8)
    code, out, _ = run_cli(["disc", "--kind", "l2"], dumps_pointset(X), monkeypatch, capsys)
    assert code == 0
    blob = envelope(out)
    assert blob["result"]["value"] == pytest.approx(l2_cap_discrepancy(X).value, rel=1e-15)


def test_pipe_and_file_parity(tmp_path):
    # true subprocess pipe vs file-mediated flow must agree bit-for-bit
    gen = [sys.executable, "-m", "rieszcap", "gen", "--kind", "roots-of-unity", "--n", "8"]
    disc = [sys.executable, "-m", "rieszcap", "disc", "--kind", "l2"]
    piped_gen = subprocess.run(gen, capture_output=True, text=True, check=True)
    piped = subprocess.run(
        disc, input=piped_gen.stdout, capture_output=True, text=True, check=True
    )
    pts_file = tmp_path / "pts.csv"
    subprocess.run(gen + ["--out", str(pts_file)], capture_output=True, text=True, check=True)
    filed = subprocess.run(
        disc + ["--in", str(pts_file)], capture_output=True, text=True, check=True
    )
    assert json.loads(piped.stdout)["result"] == json.loads(filed.stdout)["result"]


def test_disc_empty_stdin(monkeypatch, capsys):
    code, _, err = run_cli(["disc", "--kind", "l2"], "", monkeypatch, capsys)
    assert code == 1
    assert err


# -------------------------------------------------------------- optimize

def test_optimize_end_to_end(tmp_path, monkeypatch, capsys):
    from rieszcap.pointsets import dumps_pointset, random_uniform

    pts_out = tmp_path / "best.csv"
    trace_out = tmp_path / "trace.csv"
    text = dumps_pointset(random_uniform(1, 3, seed=1))
    code, out, _ = run_cli(
        [
            "optimize",
            "--s",
            "-1",
            "--restarts",
            "2",
            "--seed",
            "9",
            "--points-out",
            str(pts_out),
            "--trace-out",
            str(trace_out),
        ],
        text,
        monkeypatch,
        capsys,
    )
    assert code == 0
    blob = envelope(out)
    assert blob["result"]["energy"] == pytest.approx(6.0 * math.sqrt(3.0), abs=1e-7)
    best = read_pointset(str(pts_out))
    assert best.n == 3
    np.testing.assert_allclose(np.linalg.norm(best.points, axis=1), 1.0, atol=1e-12)
    lines = trace_out.read_text().splitlines()
    assert lines[0] == "iter,objective,grad_norm,step"
    objs = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b >= a for a, b in zip(objs, objs[1:]))


def test_optimize_threads_match_serial(monkeypatch, capsys):
    from rieszcap.pointsets import dumps_pointset, random_uniform

    text = dumps_pointset(random_uniform(2, 6, seed=2))
    argv = ["optimize", "--s", "-1", "--restarts", "3", "--seed", "4"]
    code1, out1, _ = run_cli(argv, text, monkeypatch, capsys)
    monkeypatch.setenv("TOOLKIT_THREADS", "3")
    code2, out2, _ = run_cli(argv, text, monkeypatch, capsys)
    assert code1 == code2 == 0
    assert json.loads(out1)["result"]["energy"] == json.loads(out2)["result"]["energy"]
    assert (
        json.loads(out1)["result"]["restart_energies"]
        == json.loads(out2)["result"]["restart_energies"]
    )


# ------------------------------------------------------------- constants

def test_constants_a2(monkeypatch, capsys):
    code, out, _ = run_cli(["constants", "--name", "A2"], None, monkeypatch, capsys)
    assert code == 0
    blob = envelope(out)
    assert abs(blob["result"]["value"] - 0.44679728350408) < 1e-11
    assert blob["result"]["status"] == "conjectured"
    assert "formula" in blob["result"]


def test_constants_list_all(monkeypatch, capsys):
    code, out, _ = run_cli(["constants"], None, monkeypatch, capsys)
    assert code == 0
    names = {row["name"] for row in envelope(out)["result"]}
    assert {"A1", "A2", "v_minus1_s2", "ratio_s2"} <= names


def test_constants_unknown_name(monkeypatch, capsys):
    code, _, err = run_cli(["constants", "--name", "nope"], None, monkeypatch, capsys)
    assert code == 1
    assert "unknown constant" in err


# --------------------------------------------------------------- predict

def test_predict_csv(monkeypatch, capsys):
    code, out, _ = run_cli(["predict", "--ns", "2,4,8", "--p", "1"], None, monkeypatch, capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,predicted_dsq,measured_dsq"
    assert len(lines) == 4
    n, predicted, measured = lines[1].split(",")
    assert n == "2"
    assert float(measured) == pytest.approx(4.0 / math.pi**2 - 1.0 / math.pi, abs=1e-12)
    assert float(predicted) == pytest.approx(1.0 / 12.0 + math.pi**2 / 2880.0, abs=1e-15)


def test_predict_json_envelope(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["predict", "--ns", "4,8", "--format", "json"], None, monkeypatch, capsys
    )
    assert code == 0
    rows = envelope(out)["result"]
    assert [row["N"] for row in rows] == [4, 8]


# ------------------------------------------------------------------- fit

def test_fit_from_stdin(monkeypatch, capsys):
    rows = "N,value\n" + "\n".join(f"{n},{2.7 * n ** -0.75!r}" for n in (16, 32, 64, 128))
    code, out, _ = run_cli(["fit"], rows, monkeypatch, capsys)
    assert code == 0
    result = envelope(out)["result"]
    assert result["slope"] == pytest.approx(-0.75, abs=1e-12)
    assert result["intercept_constant"] == pytest.approx(2.7, rel=1e-12)
    assert result["points_used"] == 4


def test_fit_bad_row_reports_line(monkeypatch, capsys):
    code, _, err = run_cli(["fit"], "4,1.0\nbroken\n", monkeypatch, capsys)
    assert code == 1
    assert "line 2" in err


def test_fit_degenerate(monkeypatch, capsys):
    code, _, err = run_cli(["fit"], "4,1.0\n4,2.0\n", monkeypatch, capsys)
    assert code == 1


# ---------------------------------------------------------------- verify

@pytest.mark.parametrize("suite", ["stolarsky", "constants", "zeta", "bernoulli"])
def test_verify_suites_pass(suite, monkeypatch, capsys):
    argv = ["verify", "--suite", suite]
    if suite == "stolarsky":
        argv += ["--d", "2", "--n", "50", "--seed", "1"]
    code, out, _ = run_cli(argv, None, monkeypatch, capsys)
    assert code == 0
    result = envelope(out)["result"]
    assert result["pass"] is True


def test_verify_stolarsky_residual_small(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "stolarsky", "--d", "1", "--n", "30", "--seed", "2"],
        None,
        monkeypatch,
        capsys,
    )
    assert code == 0
    assert envelope(out)["result"]["max_residual"] < 1e-10


# ---------------------------------------------------------------- config

def test_config_overrides(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"kind": "roots-of-unity", "n": 6}))
    code, out, _ = run_cli(["gen", "--config", str(cfg)], None, monkeypatch, capsys)
    assert code == 0
    assert loads_pointset(out).n == 6


def test_config_flag_beats_config_file(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"kind": "roots-of-unity", "n": 6}))
    code, out, _ = run_cli(
        ["gen", "--config", str(cfg), "--n", "9"], None, monkeypatch, capsys
    )
    assert code == 0
    assert loads_pointset(out).n == 9


def test_config_unknown_key_rejected(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"kind": "roots-of-unity", "n": 6, "bogus": 1}))
    code, _, err = run_cli(["gen", "--config", str(cfg)], None, monkeypatch, capsys)
    assert code == 1
    assert "bogus" in err


# ------------------------------------------------------------ exit codes

def test_usage_error_maps_to_one(monkeypatch, capsys):
    assert run_cli(["disc", "--kind", "no-such-kind"], None, monkeypatch, capsys)[0] == 1
    assert run_cli(["no-such-command"], None, monkeypatch, capsys)[0] == 1


def test_threads_only_on_optimize(monkeypatch, capsys):
    # only optimize has work to spread over threads; elsewhere the flag is unknown
    code, _, err = run_cli(["disc", "--threads", "2"], None, monkeypatch, capsys)
    assert code == 1
    assert "--threads" in err


def test_csv_format_rejected_for_json_commands(monkeypatch, capsys):
    from rieszcap.pointsets import dumps_pointset

    code, _, err = run_cli(
        ["disc", "--kind", "l2", "--format", "csv"],
        dumps_pointset(roots_of_unity(4)),
        monkeypatch,
        capsys,
    )
    assert code == 1
    assert "JSON only" in err


def test_version_flag(monkeypatch, capsys):
    code, out, _ = run_cli(["--version"], None, monkeypatch, capsys)
    assert code == 0
    assert "rieszcap" in out
