"""Command-line front end.

Eight subcommands: gen, energy, disc, optimize, constants, predict, fit,
verify.  Point sets flow between commands as CSV or JSON on stdin/stdout or
through --in/--out paths, so `gen ... | disc ...` and file-based runs give
identical results.  Exit codes: 0 success, 1 input/validation problem,
2 numerical-contract violation (including a failed verify suite).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .asymptotics import (
    conjectured_A,
    power_law_fit,
    predicted_l2_roots_of_unity,
)
from .discrepancy import (
    cap_sup_discrepancy_lower,
    cui_freeden,
    l2_cap_discrepancy,
    l2_cap_discrepancy_direct,
    leveque_report,
    sum_distance_discrepancy,
    weyl_sums,
)
from .energy import (
    ball_sphere_ratio,
    conjectured_C,
    continuous_energy,
    energy_report,
)
from .errors import InputError, NumericalContractError, ParseError, ValidationError
from .optimizer import OptimizerConfig, optimize
from .pointsets import (
    PointSet,
    dumps_pointset,
    fibonacci_sphere,
    hammersley_square,
    lambert_lift,
    loads_pointset,
    random_uniform,
    roots_of_unity,
    write_pointset,
)
from .special_functions import (
    bernoulli_table,
    dirichlet_L3,
    hurwitz_zeta,
    riemann_zeta,
    sinc_power_coeffs,
)

A2_DIGITS = 0.44679728350408  # published 14-digit value

_GEN_KINDS = ("roots-of-unity", "random", "fibonacci", "hammersley-sphere")
_DISC_KINDS = (
    "l2",
    "l2-direct",
    "cui-freeden",
    "sum-distance",
    "cap-sup-lower",
    "leveque",
    "weyl",
)
_SUITES = ("stolarsky", "constants", "zeta", "bernoulli")

# per-command parameter defaults; also the schema for --config key validation
_DEFAULTS = {
    "gen": {"kind": None, "d": None, "n": None, "seed": 0, "format": "csv"},
    "energy": {"s": None, "format": "json"},
    "disc": {"kind": None, "centers": 1024, "seed": 0, "degree": 64, "format": "json"},
    "optimize": {
        "s": None,
        "restarts": 1,
        "seed": 0,
        "max_iters": 2000,
        "grad_tol": 1e-9,
        "step_init": 0.1,
        "format": "json",
    },
    "constants": {"name": None, "format": "json"},
    "predict": {"ns": "4,8,16,32,64,128,256", "p": 2, "format": "csv"},
    "fit": {"format": "json"},
    "verify": {"suite": None, "d": 2, "n": 100, "seed": 1, "format": "json"},
}

_TABULAR = {"gen", "predict"}  # commands where --format csv makes sense


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _envelope(command: str, params: dict, seed, result, t0: float) -> str:
    blob = {
        "version": __version__,
        "command": command,
        "params": params,
        "seed": seed,
        "wall_time_s": round(time.perf_counter() - t0, 6),
        "result": result,
    }
    return json.dumps(blob, indent=2, default=_json_default)


def _read_points(path: str | None) -> PointSet:
    if path:
        from .pointsets import read_pointset

        return read_pointset(path)
    text = sys.stdin.read()
    return loads_pointset(text)


def _resolve_params(command: str, args: argparse.Namespace) -> dict:
    params = dict(_DEFAULTS[command])
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                overrides = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ValidationError("config must be a JSON object of parameter overrides")
        unknown = sorted(set(overrides) - set(params))
        if unknown:
            raise ValidationError(
                f"unknown config keys for '{command}': {', '.join(unknown)}"
            )
        params.update(overrides)
    for key in params:
        flag_val = getattr(args, key.replace("-", "_"), None)
        if flag_val is not None:
            params[key] = flag_val
    if params.get("format") == "csv" and command not in _TABULAR:
        raise ValidationError(f"'{command}' output is JSON only; csv is for {sorted(_TABULAR)}")
    return params


def _require(params: dict, key: str, command: str):
    if params.get(key) is None:
        raise ValidationError(f"'{command}' requires --{key.replace('_', '-')}")
    return params[key]


def _threads(args) -> int:
    if getattr(args, "threads", None) is not None:
        return max(1, args.threads)
    env = os.environ.get("TOOLKIT_THREADS", "")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValidationError(f"TOOLKIT_THREADS must be an integer, got {env!r}") from exc
    return 1


# ------------------------------------------------------------------- gen

def _cmd_gen(args) -> int:
    params = _resolve_params("gen", args)
    kind = _require(params, "kind", "gen")
    if kind not in _GEN_KINDS:
        raise ValidationError(f"unknown generator kind {kind!r}; choose from {_GEN_KINDS}")
    n = int(_require(params, "n", "gen"))
    seed = int(params["seed"])
    d = params["d"]
    if kind == "roots-of-unity":
        d = 1 if d is None else int(d)
        if d != 1:
            raise ValidationError("roots-of-unity generates on the circle; --d must be 1")
        ps = roots_of_unity(n)
    elif kind == "random":
        d = 2 if d is None else int(d)
        ps = random_uniform(d, n, seed=seed)
    elif kind == "fibonacci":
        d = 2 if d is None else int(d)
        if d != 2:
            raise ValidationError("fibonacci spiral generates on S^2; --d must be 2")
        ps = fibonacci_sphere(n)
    else:  # hammersley-sphere
        d = 2 if d is None else int(d)
        if d != 2:
            raise ValidationError("hammersley-sphere generates on S^2; --d must be 2")
        m = n.bit_length() - 1
        if n < 1 or 2**m != n:
            raise ValidationError(f"hammersley-sphere needs --n a power of two, got {n}")
        ps = lambert_lift(hammersley_square(m))
    params["d"], params["n"] = ps.d, ps.n
    if args.out:
        write_pointset(ps, args.out, format=params["format"])
    else:
        sys.stdout.write(dumps_pointset(ps, format=params["format"]))
    return 0


# ----------------------------------------------------------------- energy

def _cmd_energy(args) -> int:
    t0 = time.perf_counter()
    params = _resolve_params("energy", args)
    s = float(_require(params, "s", "energy"))
    X = _read_points(args.infile)
    rep = energy_report(X, s)
    _emit(_envelope("energy", params, None, rep.to_json(), t0), args.out)
    return 0


# ------------------------------------------------------------------- disc

def _cmd_disc(args) -> int:
    t0 = time.perf_counter()
    params = _resolve_params("disc", args)
    kind = _require(params, "kind", "disc")
    if kind not in _DISC_KINDS:
        raise ValidationError(f"unknown discrepancy kind {kind!r}; choose from {_DISC_KINDS}")
    X = _read_points(args.infile)
    centers = int(params["centers"])
    seed = int(params["seed"])
    degree = int(params["degree"])
    used_seed = None
    if kind == "l2":
        result = l2_cap_discrepancy(X).to_json()
    elif kind == "l2-direct":
        result = l2_cap_discrepancy_direct(X, centers, seed).to_json()
        used_seed = seed
    elif kind == "cui-freeden":
        result = cui_freeden(X).to_json()
    elif kind == "sum-distance":
        result = sum_distance_discrepancy(X).to_json()
    elif kind == "cap-sup-lower":
        result = cap_sup_discrepancy_lower(X, centers, seed).to_json()
        used_seed = seed
    elif kind == "leveque":
        result = leveque_report(X, degree).to_json()
    else:  # weyl
        result = {"kind": "Weyl", "degree": degree, "values": weyl_sums(X, degree)}
    _emit(_envelope("disc", params, used_seed, result, t0), args.out)
    return 0


# --------------------------------------------------------------- optimize

def _cmd_optimize(args) -> int:
    t0 = time.perf_counter()
    params = _resolve_params("optimize", args)
    s = float(_require(params, "s", "optimize"))
    X0 = _read_points(args.infile)
    cfg = OptimizerConfig(
        s=s,
        max_iters=int(params["max_iters"]),
        grad_tol=float(params["grad_tol"]),
        restarts=int(params["restarts"]),
        seed=int(params["seed"]),
        step_init=float(params["step_init"]),
    )
    res = optimize(X0, cfg, keep_trace=args.trace_out is not None, threads=_threads(args))
    if args.points_out:
        write_pointset(res.best, args.points_out)
    if args.trace_out:
        lines = ["iter,objective,grad_norm,step"]
        lines += [
            f"{it},{float(obj)!r},{float(gn)!r},{float(st)!r}"
            for it, obj, gn, st in res.trace
        ]
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    _emit(_envelope("optimize", params, cfg.seed, res.to_json(), t0), args.out)
    return 0


# -------------------------------------------------------------- constants

def _constant_registry() -> dict:
    return {
        "A1": {
            "value": conjectured_A(1),
            "status": "closed-form",
            "formula": "sqrt(ratio(1) * (1/6) * (2 pi)) = 1/sqrt(3)",
            "role": "leading constant of D_L2 decay on S^1",
        },
        "A2": {
            "value": conjectured_A(2),
            "status": "conjectured",
            "formula": "sqrt(ratio(2) * (-C(-1,2)) * sqrt(4 pi))",
            "role": "leading constant of D_L2 decay on S^2",
        },
        "v_minus1_s1": {
            "value": continuous_energy(1, -1.0),
            "status": "closed-form",
            "formula": "4/pi",
            "role": "mean pairwise distance of the uniform measure on S^1",
        },
        "v_minus1_s2": {
            "value": continuous_energy(2, -1.0),
            "status": "closed-form",
            "formula": "4/3",
            "role": "mean pairwise distance of the uniform measure on S^2",
        },
        "v_minus1_s3": {
            "value": continuous_energy(3, -1.0),
            "status": "closed-form",
            "formula": "gamma-ratio continuation at (d,s)=(3,-1)",
            "role": "mean pairwise distance of the uniform measure on S^3",
        },
        "ratio_s1": {
            "value": ball_sphere_ratio(1),
            "status": "closed-form",
            "formula": "1/pi",
            "role": "identity factor between D_L2^2 and the distance deficit, d=1",
        },
        "ratio_s2": {
            "value": ball_sphere_ratio(2),
            "status": "closed-form",
            "formula": "1/4",
            "role": "identity factor between D_L2^2 and the distance deficit, d=2",
        },
        "c_minus1_s1": {
            "value": conjectured_C(1, -1.0),
            "status": "closed-form",
            "formula": "2 zeta(-1) = -1/6",
            "role": "second-order energy coefficient on S^1",
        },
        "c_minus1_s2": {
            "value": conjectured_C(2, -1.0),
            "status": "conjectured",
            "formula": "(sqrt(3)/2)^(-1/2) * zeta_hex(-1)",
            "role": "second-order energy coefficient on S^2",
        },
    }


def _cmd_constants(args) -> int:
    t0 = time.perf_counter()
    params = _resolve_params("constants", args)
    registry = _constant_registry()
    name = params.get("name")
    if name is None:
        result = [{"name": k, **v} for k, v in registry.items()]
    else:
        if name not in registry:
            raise ValidationError(
                f"unknown constant {name!r}; available: {', '.join(registry)}"
            )
        result = {"name": name, **registry[name]}
    _emit(_envelope("constants", params, None, result, t0), args.out)
    return 0


# ---------------------------------------------------------------- predict

def _cmd_predict(args) -> int:
    t0 = time.perf_counter()
    params = _resolve_params("predict", args)
    try:
        ns = [int(tok) for tok in str(params["ns"]).split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"--ns must be a comma list of integers, got {params['ns']!r}") from exc
    if not ns:
        raise ValidationError("--ns resolved to an empty list")
    p = int(params["p"])
    rows = []
    for n in ns:
        predicted = predicted_l2_roots_of_unity(n, p)
        measured = l2_cap_discrepancy(roots_of_unity(n)).diagnostics["d_squared"]
        rows.append({"N": n, "predicted_dsq": predicted, "measured_dsq": float(measured)})
    if params["format"] == "csv":
        lines = ["N,predicted_dsq,measured_dsq"]
        lines += [f"{r['N']},{r['predicted_dsq']!r},{r['measured_dsq']!r}" for r in rows]
        _emit("\n".join(lines), args.out)
    else:
        _emit(_envelope("predict", params, None, rows, t0), args.out)
    return 0


# -------------------------------------------------------------------- fit

def _cmd_fit(args) -> int:
    t0 = time.perf_counter()
    params = _resolve_params("fit", args)
    if args.infile:
        with open(args.infile, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    samples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [tok.strip() for tok in line.split(",")]
        if len(parts) < 2:
            raise ParseError(f"expected 'N,value' rows, got {raw!r}", line=lineno)
        try:
            samples.append((float(parts[0]), float(parts[1])))
        except ValueError:
            if lineno == 1:  # header row
                continue
            raise ParseError(f"non-numeric row {raw!r}", line=lineno) from None
    fit = power_law_fit(samples)
    result = {
        "slope": fit.slope,
        "intercept_constant": fit.intercept_constant,
        "r_squared": fit.r_squared,
        "points_used": fit.points_used,
    }
    _emit(_envelope("fit", params, None, result, t0), args.out)
    return 0


# ----------------------------------------------------------------- verify

def _suite_stolarsky(d: int, n: int, seed: int) -> dict:
    reps = 20
    children = np.random.SeedSequence(seed).spawn(reps)
    v = continuous_energy(d, -1.0)
    ratio = ball_sphere_ratio(d)
    worst = 0.0
    for child in children:
        X = random_uniform(d, n, seed=child)
        rep = l2_cap_discrepancy(X)
        resid = abs(
            rep.diagnostics["mean_distance"] + rep.diagnostics["d_squared"] / ratio - v
        )
        worst = max(worst, resid)
    return {
        "suite": "stolarsky",
        "configs": reps,
        "d": d,
        "n": n,
        "max_residual": worst,
        "tolerance": 1e-10,
        "pass": bool(worst < 1e-10),
    }


def _suite_constants() -> dict:
    checks = [
        ("v_minus1_s2", continuous_energy(2, -1.0), 4.0 / 3.0, 1e-12),
        ("v_minus1_s1", continuous_energy(1, -1.0), 4.0 / math.pi, 1e-12),
        ("ratio_s2", ball_sphere_ratio(2), 0.25, 1e-12),
        ("A2", conjectured_A(2), A2_DIGITS, 1e-11),
    ]
    rows = [
        {"name": name, "value": value, "reference": ref, "abs_error": abs(value - ref), "tolerance": tol}
        for name, value, ref, tol in checks
    ]
    return {
        "suite": "constants",
        "checks": rows,
        "pass": bool(all(r["abs_error"] <= r["tolerance"] for r in rows)),
    }


def _suite_zeta() -> dict:
    checks = [
        ("zeta(2)", riemann_zeta(2.0), math.pi**2 / 6.0),
        ("zeta(4)", riemann_zeta(4.0), math.pi**4 / 90.0),
        ("zeta(-1)", riemann_zeta(-1.0), -1.0 / 12.0),
        ("zeta(0)", riemann_zeta(0.0), -0.5),
        ("hurwitz(2,1/2)", hurwitz_zeta(2.0, 0.5), math.pi**2 / 2.0),
        ("L3(1)", dirichlet_L3(1.0), math.pi / (3.0 * math.sqrt(3.0))),
    ]
    rows = []
    worst = 0.0
    for name, value, ref in checks:
        rel = abs(value - ref) / abs(ref)
        worst = max(worst, rel)
        rows.append({"name": name, "value": value, "reference": ref, "rel_error": rel})
    return {
        "suite": "zeta",
        "checks": rows,
        "max_rel_error": worst,
        "tolerance": 1e-12,
        "pass": bool(worst < 1e-12),
    }


def _suite_bernoulli() -> dict:
    # alpha_n(-1) zeta(-1-2n) = (-1)^(n+1) B_{2n+2} pi^(2n) / (2n+2)!, all < 0
    alpha = sinc_power_coeffs(-1.0, 6).coeffs
    bern = bernoulli_table(14)
    rows = []
    ok = True
    for n in range(1, 7):
        lhs = alpha[n] * riemann_zeta(-1.0 - 2 * n)
        rhs = (
            (-1.0) ** (n + 1)
            * float(bern[2 * n + 2])
            * math.pi ** (2 * n)
            / math.factorial(2 * n + 2)
        )
        rel = abs(lhs - rhs) / abs(rhs)
        negative = lhs < 0.0
        ok = ok and rel <= 1e-12 and negative
        rows.append({"n": n, "product": lhs, "closed_form": rhs, "rel_error": rel, "negative": negative})
    return {"suite": "bernoulli", "checks": rows, "tolerance": 1e-12, "pass": bool(ok)}


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    params = _resolve_params("verify", args)
    suite = _require(params, "suite", "verify")
    if suite not in _SUITES:
        raise ValidationError(f"unknown suite {suite!r}; choose from {_SUITES}")
    seed = int(params["seed"])
    if suite == "stolarsky":
        result = _suite_stolarsky(int(params["d"]), int(params["n"]), seed)
    elif suite == "constants":
        result = _suite_constants()
    elif suite == "zeta":
        result = _suite_zeta()
    else:
        result = _suite_bernoulli()
    _emit(_envelope("verify", params, seed if suite == "stolarsky" else None, result, t0), args.out)
    if not result["pass"]:
        raise NumericalContractError(f"verify suite '{suite}' failed")
    return 0


# ------------------------------------------------------------------ wiring

def _add_common(p: argparse.ArgumentParser, infile: bool = False) -> None:
    p.add_argument("--out", default=None, help="write output to PATH instead of stdout")
    p.add_argument("--format", default=None, choices=("json", "csv"))
    p.add_argument("--config", default=None, help="JSON file of parameter overrides")
    if infile:
        p.add_argument("--in", dest="infile", default=None, help="point-set file (default: stdin)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszcap",
        description="Spherical point sets: energies, cap discrepancies, asymptotics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a point set")
    p.add_argument("--kind", default=None, choices=_GEN_KINDS)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("energy", help="Riesz energy report for a point set")
    p.add_argument("--s", type=float, default=None)
    _add_common(p, infile=True)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("disc", help="discrepancy of a point set")
    p.add_argument("--kind", default=None, choices=_DISC_KINDS)
    p.add_argument("--centers", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--degree", type=int, default=None, help="harmonic degree cutoff L")
    _add_common(p, infile=True)
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("optimize", help="projected-gradient energy optimization")
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--grad-tol", type=float, default=None)
    p.add_argument("--step-init", type=float, default=None)
    p.add_argument("--points-out", default=None, help="write optimized points (CSV)")
    p.add_argument("--trace-out", default=None, help="write per-iteration trace (CSV)")
    p.add_argument("--threads", type=int, default=None, help="worker threads (default 1)")
    _add_common(p, infile=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("constants", help="named constants with provenance")
    p.add_argument("--name", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("predict", help="predicted vs measured circle discrepancy")
    p.add_argument("--ns", default=None, help="comma list of N values")
    p.add_argument("--p", type=int, default=None, help="expansion order")
    _add_common(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("fit", help="power-law fit of (N, value) CSV rows")
    p.add_argument("--in", dest="infile", default=None, help="CSV file (default: stdin)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", default=None, choices=("json", "csv"))
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("verify", help="self-check suites")
    p.add_argument("--suite", default=None, choices=_SUITES)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit 2 for usage problems; that is an input error here
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except NumericalContractError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
