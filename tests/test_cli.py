import io
import json
import math
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from rieszcap import discrepancy
from rieszcap.asymptotics import conjectured_A, conjectured_C, power_law_fit
from rieszcap.cli import main
from rieszcap.discrepancy import l2_cap_discrepancy
from rieszcap.energy import ball_sphere_ratio, continuous_energy, energy_report, riesz_energy
from rieszcap.optimizer import OptimizerConfig, optimize
from rieszcap.pointsets import (
    dumps_pointset,
    fibonacci_sphere,
    hammersley_square,
    lambert_lift,
    loads_pointset,
    random_uniform,
    read_pointset,
    roots_of_unity,
)


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


@pytest.mark.parametrize("n", ["6", "33554432"])  # 2^25 only: 2^24 writes 16.7M points
def test_hammersley_sphere_n_errors_name_the_flag(n, monkeypatch, capsys):
    code, out, err = run_cli(["gen", "--kind", "hammersley-sphere", "--n", n], None, monkeypatch, capsys)
    assert code == 1 and out == ""
    assert err == f"error: hammersley-sphere needs --n a power of two up to 2^24, got {n}\n"


def test_gen_json_format(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["gen", "--kind", "roots-of-unity", "--n", "5", "--format", "json"],
        None,
        monkeypatch,
        capsys,
    )
    assert code == 0 and out.startswith("{")
    ps = loads_pointset(out)
    assert ps.n == 5


@pytest.mark.parametrize("fmt", [None, "csv"])
def test_gen_out_format_follows_name(fmt, tmp_path, monkeypatch, capsys):
    # without --format a .json path gets JSON; --format csv still writes CSV there
    path = tmp_path / "pts.json"
    argv = ["gen", "--kind", "fibonacci", "--n", "20", "--out", str(path)]
    code, out, _ = run_cli(argv + (["--format", fmt] if fmt else []), None, monkeypatch, capsys)
    assert code == 0 and out == ""
    assert path.read_text() == dumps_pointset(fibonacci_sphere(20), fmt or "json")
    assert np.array_equal(read_pointset(str(path)).points, fibonacci_sphere(20).points)


def test_gen_dimension_mismatch_rejected(monkeypatch, capsys):
    code, _, err = run_cli(
        ["gen", "--kind", "roots-of-unity", "--n", "5", "--d", "2"], None, monkeypatch, capsys
    )
    assert code == 1
    assert "roots-of-unity generates on S^1; --d must be 1" in err


_GEN_LIBRARY = {  # kind -> (extra flags, the library constructor's set)
    "roots-of-unity": ([], lambda: roots_of_unity(8)),
    "random": (["--d", "3", "--seed", "5"], lambda: random_uniform(3, 8, seed=5)),
    "fibonacci": ([], lambda: fibonacci_sphere(8)),
    "hammersley-sphere": ([], lambda: lambert_lift(hammersley_square(3))),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", list(_GEN_LIBRARY))
def test_gen_matches_library(kind, fmt, monkeypatch, capsys):
    flags, build = _GEN_LIBRARY[kind]
    argv = ["gen", "--kind", kind, "--n", "8", "--format", fmt, *flags]
    code, out, _ = run_cli(argv, None, monkeypatch, capsys)
    assert code == 0
    assert out == dumps_pointset(build(), fmt)


def test_gen_requires_kind(monkeypatch, capsys):
    code, _, err = run_cli(["gen", "--n", "5"], None, monkeypatch, capsys)
    assert code == 1
    assert "--kind" in err


# ---------------------------------------------------------------- energy

def test_energy_matches_library(monkeypatch, capsys):
    X = roots_of_unity(6)
    code, out, _ = run_cli(
        ["energy", "--s", "-1"], dumps_pointset(X), monkeypatch, capsys
    )
    assert code == 0
    blob = envelope(out)
    assert blob["command"] == "energy"
    assert blob["result"]["energy"] == pytest.approx(riesz_energy(X, -1.0), rel=1e-15)


@pytest.mark.parametrize("s", [0.5, 3.0])  # inside and outside the prediction window
def test_energy_matches_report(s, monkeypatch, capsys):
    X = fibonacci_sphere(12)
    code, out, _ = run_cli(["energy", "--s", repr(s)], dumps_pointset(X), monkeypatch, capsys)
    assert code == 0
    want = energy_report(X, s).to_json()
    assert ("continuous_prediction" in want) == (s < X.d)
    assert envelope(out)["result"] == want


# ------------------------------------------------------------------ disc

_DISC_LIBRARY = {
    "l2": lambda X: discrepancy.l2_cap_discrepancy(X).to_json(),
    "l2-direct": lambda X: discrepancy.l2_cap_discrepancy_direct(X, 64, 3).to_json(),
    "cui-freeden": lambda X: discrepancy.cui_freeden(X).to_json(),
    "sum-distance": lambda X: discrepancy.sum_distance_discrepancy(X).to_json(),
    "cap-sup-lower": lambda X: discrepancy.cap_sup_discrepancy_lower(X, 64, 3).to_json(),
    "leveque": lambda X: discrepancy.leveque_report(X, 6).to_json(),
    "weyl": lambda X: {"kind": "Weyl", "degree": 6, "values": discrepancy.weyl_sums(X, 6)},
}


@pytest.mark.parametrize("kind", list(_DISC_LIBRARY))
def test_disc_kinds_run(kind, monkeypatch, capsys):
    # each kind's envelope carries exactly the library call's result and the
    # parameters that kind took
    X = fibonacci_sphere(12)
    argv = ["disc", "--kind", kind]
    params = {"kind": kind}
    if kind in ("l2-direct", "cap-sup-lower"):
        argv += ["--centers", "64", "--seed", "3"]
        params.update(centers=64, seed=3)
    if kind in ("leveque", "weyl"):
        argv += ["--degree", "6"]
        params.update(degree=6)
    code, out, _ = run_cli(argv, dumps_pointset(X), monkeypatch, capsys)
    assert code == 0
    blob = envelope(out)
    assert blob["result"] == json.loads(json.dumps(_DISC_LIBRARY[kind](X)))
    assert blob["params"] == params
    assert blob["seed"] == params.get("seed")


@pytest.mark.parametrize("kind", ["cui-freeden", "sum-distance", "leveque", "weyl"])
def test_s2_only_kinds_name_themselves(kind, monkeypatch, capsys):
    text = dumps_pointset(random_uniform(3, 10, seed=1))
    code, out, err = run_cli(["disc", "--kind", kind], text, monkeypatch, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {kind} is defined on S^2 only, got d=3\n"


@pytest.mark.parametrize("kind", ["weyl", "leveque"])
@pytest.mark.parametrize("degree, message", [
    ("0", "degree must be an integer >= 1, got 0"),
    ("257", "degree=257 exceeds guard 256"),
], ids=["0", "257"])
def test_degree_errors_name_the_flag(kind, degree, message, monkeypatch, capsys):
    text = dumps_pointset(fibonacci_sphere(12))
    code, out, err = run_cli(["disc", "--kind", kind, "--degree", degree], text, monkeypatch, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_disc_l2_matches_library(monkeypatch, capsys):
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


@pytest.mark.parametrize("row", ['["a", "b", "c"]', "[1, 0, {}]"])
def test_disc_non_numeric_json_exits_one(row, monkeypatch, capsys):
    text = f'{{"d": 2, "points": [{row}]}}'
    code, out, err = run_cli(["disc", "--kind", "l2"], text, monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


# -------------------------------------------------------------- optimize

def test_optimize_end_to_end(tmp_path, monkeypatch, capsys):
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


def test_optimize_matches_library(tmp_path, monkeypatch, capsys):
    X0 = random_uniform(2, 6, seed=2)
    trace_out = tmp_path / "trace.csv"
    argv = ["optimize", "--s", "-1", "--restarts", "2", "--seed", "4", "--max-iters", "40",
            "--trace-out", str(trace_out)]
    code, out, _ = run_cli(argv, dumps_pointset(X0), monkeypatch, capsys)
    assert code == 0
    cfg = OptimizerConfig(s=-1.0, restarts=2, seed=4, max_iters=40)
    res = optimize(X0, cfg, keep_trace=True)
    assert envelope(out)["result"] == json.loads(json.dumps(res.to_json()))
    rows = ["iter,objective,grad_norm,step"] + [",".join(map(repr, row)) for row in res.trace]
    assert trace_out.read_text() == "\n".join(rows) + "\n"


def test_optimize_runs_on_a_set_written_with_ten_digits(tmp_path, monkeypatch, capsys):
    # Fibonacci 64 at %.10g is 6e-11 off the sphere: within the loaders' gate,
    # outside NORM_TOL; optimize must take every set disc takes
    pts = tmp_path / "fib64.csv"
    pts.write_text("".join(",".join(f"{v:.10g}" for v in row) + "\n"
                           for row in fibonacci_sphere(64).points.tolist()))
    argv = ["optimize", "--in", str(pts), "--s", "-1", "--grad-tol", "2e-3"]
    code, out, err = run_cli(argv, None, monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert envelope(out)["result"]["converged"]


def test_optimize_threads_match_serial(monkeypatch, capsys):
    text = dumps_pointset(random_uniform(2, 6, seed=2))
    argv = ["optimize", "--s", "-1", "--restarts", "3", "--seed", "4"]
    code1, out1, _ = run_cli(argv, text, monkeypatch, capsys)
    code2, out2, _ = run_cli(argv + ["--threads", "3"], text, monkeypatch, capsys)
    assert code1 == code2 == 0
    assert json.loads(out1)["result"] == json.loads(out2)["result"]


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


def test_constants_listing_pinned(monkeypatch, capsys):
    # every row in order, and each value bitwise the function behind it
    want = [
        ("A1", conjectured_A(1), "closed-form", "sqrt(ratio(1) * (1/6) * (2 pi)) = 1/sqrt(3)",
         "leading constant of D_L2 decay on S^1"),
        ("A2", conjectured_A(2), "conjectured", "sqrt(ratio(2) * (-C(-1,2)) * sqrt(4 pi))",
         "leading constant of D_L2 decay on S^2"),
        ("v_minus1_s1", continuous_energy(1, -1.0), "closed-form", "4/pi",
         "mean pairwise distance of the uniform measure on S^1"),
        ("v_minus1_s2", continuous_energy(2, -1.0), "closed-form", "4/3",
         "mean pairwise distance of the uniform measure on S^2"),
        ("v_minus1_s3", continuous_energy(3, -1.0), "closed-form",
         "gamma-ratio continuation at (d,s)=(3,-1)",
         "mean pairwise distance of the uniform measure on S^3"),
        ("ratio_s1", ball_sphere_ratio(1), "closed-form", "1/pi",
         "identity factor between D_L2^2 and the distance deficit, d=1"),
        ("ratio_s2", ball_sphere_ratio(2), "closed-form", "1/4",
         "identity factor between D_L2^2 and the distance deficit, d=2"),
        ("c_minus1_s1", conjectured_C(1, -1.0), "closed-form", "2 zeta(-1) = -1/6",
         "C_{-1,1} in BHS notation; the second-order energy coefficient on S^1 is "
         "C_{-1,1} |S^1| = -pi/3"),
        ("c_minus1_s2", conjectured_C(2, -1.0), "conjectured", "(sqrt(3)/2)^(-1/2) * zeta_hex(-1)",
         "C_{-1,2} in BHS notation; the second-order energy coefficient on S^2 is "
         "C_{-1,2} |S^2|^(1/2) = C_{-1,2} sqrt(4 pi)"),
    ]
    code, out, _ = run_cli(["constants"], None, monkeypatch, capsys)
    assert code == 0
    rows = envelope(out)["result"]
    assert [tuple(row.values()) for row in rows] == want
    assert all(list(row) == ["name", "value", "status", "formula", "role"] for row in rows)
    for row, (name, *_) in zip(rows, want):
        code, out, _ = run_cli(["constants", "--name", name], None, monkeypatch, capsys)
        assert code == 0 and envelope(out)["result"] == row


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


@pytest.mark.parametrize("ns", ["0", "-4"])
def test_predict_ns_errors_name_the_flag(ns, monkeypatch, capsys):
    code, out, err = run_cli(["predict", "--ns", ns], None, monkeypatch, capsys)
    assert code == 1 and out == ""
    assert err == f"error: ns must be an integer >= 1, got {ns}\n"


def test_predict_at_65536_within_ulps_of_the_cot_formula(monkeypatch, capsys):
    # measured D^2 = (1/pi)(4/pi - mean): its error is the mean's, scaled by 1/pi
    n = 65536
    code, out, _ = run_cli(["predict", "--ns", str(n)], None, monkeypatch, capsys)
    assert code == 0
    measured = float(out.strip().splitlines()[1].split(",")[2])
    with mp.workdps(40):
        mean = 2 * mp.cot(mp.pi / (2 * n)) / n
        want = (4 / mp.pi - mean) / mp.pi
        assert abs(measured - want) <= 1.5 * math.ulp(float(mean)) * ball_sphere_ratio(1)


# ------------------------------------------------------------------- fit

def test_fit_from_stdin(monkeypatch, capsys):
    rows = "N,value\n" + "\n".join(f"{n},{2.7 * n ** -0.75!r}" for n in (16, 32, 64, 128))
    code, out, _ = run_cli(["fit"], rows, monkeypatch, capsys)
    assert code == 0
    result = envelope(out)["result"]
    assert result["slope"] == pytest.approx(-0.75, abs=1e-12)
    assert result["intercept_constant"] == pytest.approx(2.7, rel=1e-12)
    assert result["points_used"] == 4


def test_fit_matches_library(tmp_path, monkeypatch, capsys):
    samples = [(10, 0.5), (20, 0.3), (40, 0.17), (80, 0.1)]
    path = tmp_path / "samples.csv"
    path.write_text("N,value\n" + "".join(f"{n},{v!r}\n" for n, v in samples))
    code, out, _ = run_cli(["fit", "--in", str(path)], None, monkeypatch, capsys)
    assert code == 0
    assert envelope(out)["result"] == asdict(power_law_fit(samples))


def test_fit_bad_row_reports_line(monkeypatch, capsys):
    code, _, err = run_cli(["fit"], "4,1.0\nbroken\n", monkeypatch, capsys)
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize("text,line", [("16,0.5,9\n32,0.3,x\n", 1),
                                       ("N,value\n16,0.5\n32,0.3,9\n", 3),
                                       ("N,value,note\n16,0.5\n32,0.3\n", 1)])
def test_fit_row_with_more_fields_rejected(text, line, monkeypatch, capsys):
    code, _, err = run_cli(["fit"], text, monkeypatch, capsys)
    assert code == 1
    assert f"line {line}: expected 'N,value' rows" in err


def test_fit_header_after_comments(monkeypatch, capsys):
    # the first row that is neither blank nor a comment may be a header
    text = "# samples\n\nN,value\n16,0.5\n32,0.3\n"
    code, out, _ = run_cli(["fit"], text, monkeypatch, capsys)
    assert code == 0
    assert envelope(out)["result"] == asdict(power_law_fit([(16, 0.5), (32, 0.3)]))
    code, _, err = run_cli(["fit"], "# samples\n16,0.5\nN,value\n", monkeypatch, capsys)
    assert code == 1
    assert "line 3" in err


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


@pytest.mark.parametrize(
    "command,config",
    [
        ("gen", {"kind": "roots-of-unity", "n": "abc"}),
        ("gen", {"kind": "roots-of-unity", "n": 3.7}),
        ("gen", {"kind": "roots-of-unity", "n": True}),
        ("energy", {"s": "xml"}),
        ("disc", {"kind": "xml"}),
        ("disc", {"kind": ["l2"]}),
        ("gen", {"kind": {"a": 1}}),
        ("verify", {"suite": ["constants"]}),
    ],
)
def test_config_values_checked_like_flags(command, config, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    text = dumps_pointset(roots_of_unity(3))
    code, out, err = run_cli([command, "--config", str(cfg)], text, monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: config key")


# -------------------------------------------------------------- envelope

_OPTIMIZE_PARAMS = {
    "s": -1.0,
    "restarts": 1,
    "seed": 0,
    "max_iters": 2000,
    "grad_tol": 1e-09,
    "step_init": 0.1,
}


@pytest.mark.parametrize(
    "argv,config,params",
    [
        (
            ["disc", "--kind", "l2"],
            None,
            {"kind": "l2"},
        ),
        (["optimize", "--s", "-1"], None, _OPTIMIZE_PARAMS),
        (["optimize"], {"s": -1}, _OPTIMIZE_PARAMS),
    ],
)
def test_envelope_params_documented(argv, config, params, tmp_path, monkeypatch, capsys):
    # the README shows these params; key order and float-typed values included
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    text = dumps_pointset(roots_of_unity(3))
    code, out, _ = run_cli(argv, text, monkeypatch, capsys)
    assert code == 0
    # repr tells -1.0 from -1; list order pins the key order
    got = [(key, repr(value)) for key, value in envelope(out)["params"].items()]
    assert got == [(key, repr(value)) for key, value in params.items()]


# ------------------------------------------------------------ exit codes

def test_usage_error_maps_to_one(monkeypatch, capsys):
    assert run_cli(["disc", "--kind", "no-such-kind"], None, monkeypatch, capsys)[0] == 1
    assert run_cli(["no-such-command"], None, monkeypatch, capsys)[0] == 1
    text = dumps_pointset(roots_of_unity(3))
    code, _, err = run_cli(["optimize", "--s", "-1", "--threads", "0"], text, monkeypatch, capsys)
    assert code == 1
    assert "threads" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "random", "--n", "3", "--seed", "-1"],
        ["disc", "--kind", "l2-direct", "--seed", "-1"],
        ["optimize", "--s", "-1", "--seed", "-1"],
        ["verify", "--suite", "stolarsky", "--seed", "-1"],
    ],
)
def test_negative_seed_exits_one(argv, monkeypatch, capsys):
    code, out, err = run_cli(argv, dumps_pointset(roots_of_unity(3)), monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err == "error: seed must be an integer >= 0, got -1\n"


# command, kind flag -> kind -> the kind-specific parameters that kind takes;
# the other kinds' parameters make the 27 rejected (kind, parameter) pairs
_KIND_PARAMS = {
    ("gen", "kind"): {
        "roots-of-unity": (), "random": ("seed",), "fibonacci": (), "hammersley-sphere": (),
    },
    ("disc", "kind"): {
        "l2": (),
        "l2-direct": ("centers", "seed"),
        "cui-freeden": (),
        "sum-distance": (),
        "cap-sup-lower": ("centers", "seed"),
        "leveque": ("degree",),
        "weyl": ("degree",),
    },
    ("verify", "suite"): {
        "stolarsky": ("d", "n", "seed"), "constants": (), "zeta": (), "bernoulli": (),
    },
}
_REJECTED = [
    (command, flag, kind, param)
    for (command, flag), table in _KIND_PARAMS.items()
    for kind in table
    for param in sorted({p for taken in table.values() for p in taken} - set(table[kind]))
]
_PARAM_VALUES = {"seed": 3, "centers": 64, "degree": 6, "d": 2, "n": 10}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command,flag,kind,param", _REJECTED)
def test_param_of_another_kind_rejected(command, flag, kind, param, via, tmp_path, monkeypatch, capsys):
    # a parameter the chosen kind never reads is an error, not a silent no-op
    settings = {flag: kind, param: _PARAM_VALUES[param]}
    if command == "gen":
        settings["n"] = 4
    if via == "flag":
        argv = [command] + [f"--{k}={v}" for k, v in settings.items()]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        argv = [command, "--config", str(cfg)]
    code, out, err = run_cli(argv, dumps_pointset(roots_of_unity(3)), monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: --{param} does not apply to --{flag} {kind}\n"


def test_threads_only_on_optimize(monkeypatch, capsys):
    # only optimize has work to spread over threads; elsewhere the flag is unknown
    code, _, err = run_cli(["disc", "--threads", "2"], None, monkeypatch, capsys)
    assert code == 1
    assert "--threads" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["disc", "--kind", "l2", "--in", "{tmp}/missing.csv"],
        ["fit", "--in", "{tmp}/missing.csv"],
        ["constants", "--out", "{tmp}/no/such/dir/x.json"],
        ["optimize", "--s", "-1", "--points-out", "{tmp}/no/such/dir/best.json"],
        ["optimize", "--s", "-1", "--trace-out", "{tmp}/no/such/dir/trace.csv"],
    ],
)
def test_file_errors_exit_one(argv, tmp_path, monkeypatch, capsys):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    text = dumps_pointset(roots_of_unity(3))
    code, _, err = run_cli(argv, text, monkeypatch, capsys)
    assert code == 1
    assert err.startswith("error:")
    assert str(tmp_path) in err


_COMMON_FLAGS = {"--help", "--out", "--config"}


@pytest.mark.parametrize(
    "command,flags",
    [
        ("gen", {"--kind", "--d", "--n", "--seed", "--format"}),
        ("energy", {"--s", "--in"}),
        ("disc", {"--kind", "--centers", "--seed", "--degree", "--in"}),
        (
            "optimize",
            {
                "--s",
                "--restarts",
                "--seed",
                "--max-iters",
                "--grad-tol",
                "--step-init",
                "--in",
                "--points-out",
                "--trace-out",
                "--threads",
            },
        ),
        ("constants", {"--name"}),
        ("predict", {"--ns", "--p", "--format"}),
        ("fit", {"--in"}),
        ("verify", {"--suite", "--d", "--n", "--seed"}),
    ],
)
def test_help_lists_exactly_the_command_flags(command, flags, monkeypatch, capsys):
    code, out, _ = run_cli([command, "--help"], None, monkeypatch, capsys)
    assert code == 0
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) == flags | _COMMON_FLAGS


def test_csv_format_rejected_for_json_commands(monkeypatch, capsys):
    # these commands write JSON only, so --format, csv or json, is no flag of theirs
    text = dumps_pointset(roots_of_unity(4))
    for command in ("energy", "disc", "optimize", "constants", "fit", "verify"):
        for value in ("csv", "json"):
            code, out, err = run_cli([command, "--format", value], text, monkeypatch, capsys)
            assert code == 1, (command, value)
            assert out == ""
            assert "--format" in err


def test_version_flag(monkeypatch, capsys):
    code, out, _ = run_cli(["--version"], None, monkeypatch, capsys)
    assert code == 0
    assert "rieszcap" in out


# --------------------------------------------------------------- start-up

_LOADS = """
import contextlib, io, sys
from rieszcap.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""


def _modules_after(argv):
    """Every module a fresh interpreter holds after cli.main(argv) on 12 points."""
    proc = subprocess.run([sys.executable, "-c", _LOADS, *argv], input=dumps_pointset(fibonacci_sphere(12)),
                          capture_output=True, text=True, check=True)
    code, *modules = proc.stdout.split()
    assert code == "0"
    return modules


@pytest.mark.parametrize(
    "argv,modules",
    [
        (["gen", "--kind", "fibonacci", "--n", "8"], "cli errors pointsets"),
        (["disc", "--kind", "l2"], "cli discrepancy energy errors pointsets special_functions"),
        (["optimize", "--s", "-1"], "cli energy errors optimizer pointsets special_functions"),
    ],
    ids=["gen", "disc", "optimize"],
)
def test_command_loads_only_the_modules_it_runs(argv, modules):
    # each process compiles what it imports, so a command pays only for its own modules
    loaded = [m for m in _modules_after(argv) if m.startswith("rieszcap.")]
    assert loaded == [f"rieszcap.{m}" for m in modules.split()]


@pytest.mark.parametrize(
    "argv",
    [["gen", "--kind", "fibonacci", "--n", "8"], ["disc", "--kind", "l2"], ["energy", "--s", "1"],
     ["optimize", "--s", "-1"]],
    ids=["gen", "disc", "energy", "optimize"],
)
def test_command_leaves_fractions_unloaded(argv):
    # exact rationals serve only the zeta and Bernoulli routes
    assert "fractions" not in _modules_after(argv)


@pytest.mark.parametrize("restarts,loaded", [("1", False), ("2", True)])
def test_optimize_loads_numpy_random_only_for_restarts(restarts, loaded):
    # restart 0 starts at the input; only later restarts draw random starts
    argv = ["optimize", "--s", "-1", "--restarts", restarts]
    assert ("numpy.random" in _modules_after(argv)) is loaded


# ------------------------------------------------------------ process entry

# the console script's route: what the script generated for
# `rieszcap = "rieszcap.__main__:run"` runs
_RUN = "import sys; from rieszcap.__main__ import run; sys.exit(run())"
_ENTRIES = {"module": ["-m", "rieszcap"], "script": ["-c", _RUN]}


def _mask_wall(text):
    return re.sub(r'"wall_time_s": [-+.e0-9]+', '"wall_time_s": "*"', text)


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@pytest.mark.parametrize(
    "argv,code",
    [
        (["gen", "--kind", "fibonacci", "--n", "12"], 0),
        (["disc", "--kind", "l2"], 0),
        (["optimize", "--s", "-1", "--max-iters", "20"], 0),
        (["--version"], 0),
        ([], 1),
        (["disc", "--kind", "l2", "--in", "{tmp}/missing.csv"], 1),
    ],
    ids=["gen", "disc", "optimize", "version", "no-command", "unreadable-in"],
)
def test_process_entries_match_main(entry, argv, code, tmp_path, monkeypatch, capsys):
    # the collector is off in the process, so only the exit and the output are compared
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    text = dumps_pointset(fibonacci_sphere(12))
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines at the terminal width
    proc = subprocess.run([sys.executable, *_ENTRIES[entry], *argv], input=text, capture_output=True, text=True)
    got = (proc.returncode, _mask_wall(proc.stdout), proc.stderr)
    want = run_cli(argv, text, monkeypatch, capsys)
    assert got == (want[0], _mask_wall(want[1]), want[2])
    assert proc.returncode == code


def test_importing_the_entry_runs_nothing():
    code = ("import gc, sys\n"
            "for enabled in (True, False):\n"
            "    (gc.enable if enabled else gc.disable)()\n"
            "    import rieszcap.__main__\n"
            "    assert gc.isenabled() is enabled\n"
            "    sys.modules.pop('rieszcap.__main__')\n"
            "print(sorted(m for m in sys.modules if m.startswith('rieszcap')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert (proc.stdout, proc.stderr) == ("['rieszcap']\n", "")


def test_console_script_names_the_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"rieszcap": "rieszcap.__main__:run"}


# a process as run() leaves it: the collector off from before the first
# import, then the command; prints its exit code, the cyclic garbage left
# and its output
_GARBAGE = """
import contextlib, gc, io, json, sys
gc.disable()
from rieszcap.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
print(json.dumps([code, gc.collect(), out.getvalue()]))
"""


def _garbage_after(argv, text):
    """The objects gc.collect() finds after the command, and its output."""
    proc = subprocess.run([sys.executable, "-c", _GARBAGE, *argv], input=text, capture_output=True, text=True,
                          check=True)
    code, garbage, out = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    return garbage, out


_OPTIMIZE = ["optimize", "--s", "-1", "--grad-tol", "1e-300", "--max-iters"]


def test_garbage_does_not_grow_with_iterations():
    # with the collector off a command's garbage is never freed, so it must not grow with the work
    text = dumps_pointset(random_uniform(2, 40, seed=40))
    (short, _), (long, out) = (_garbage_after(_OPTIMIZE + [iters], text) for iters in ("20", "2000"))
    assert envelope(out)["result"]["iterations"] == 2000
    assert short == long


@pytest.mark.parametrize(
    "argv",
    [["gen", "--kind", "fibonacci", "--n", "8"], ["energy", "--s", "-1"], ["disc", "--kind", "l2"],
     _OPTIMIZE + ["2000"], ["constants"], ["predict"], ["fit"], ["verify", "--suite", "constants"]],
    ids=["gen", "energy", "disc", "optimize", "constants", "predict", "fit", "verify"],
)
def test_every_command_leaves_little_garbage(argv):
    text = "16,0.5\n32,0.3\n" if argv[0] == "fit" else dumps_pointset(random_uniform(2, 40, seed=40))
    assert _garbage_after(argv, text)[0] < 1000
