"""Command-line front end.

Eight subcommands: gen, energy, disc, optimize, constants, predict, fit,
verify.  Point sets flow between commands as CSV or JSON on stdin/stdout or
through --in/--out paths, so `gen ... | disc ...` and file-based runs give
identical results.  Exit codes: 0 success, 1 input/validation problem,
2 numerical-contract violation (including a failed verify suite).

A process loads only what its command runs: each handler imports the
package modules it calls when it runs, and build_parser adds flags only to
the command named on the command line.  `gen` needs only `pointsets`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import MISSING, asdict, fields

import numpy as np

from . import __version__
from .errors import InputError, NumericalContractError, ParseError, ValidationError, _require_int
from .pointsets import (
    HAMMERSLEY_MAX_M,
    PointSet,
    _csv_text,
    dumps_pointset,
    fibonacci_sphere,
    hammersley_square,
    lambert_lift,
    loads_pointset,
    random_uniform,
    roots_of_unity,
    write_pointset,
)

A2_DIGITS = 0.44679728350408  # published 14-digit value

_FORMATS = ("json", "csv")

REQUIRED = object()  # spec default of a parameter the user must supply

# flags that name files or workers: never parameters, so not in --config or
# the envelope
_FILE_FLAGS = {
    "--in": {"dest": "infile", "help": "input file (default: stdin)"},
    "--out": {"help": "write output to PATH instead of stdout"},
    "--config": {"help": "JSON file of parameter overrides"},
    "--points-out": {"help": "write optimized points (JSON to a .json path, else CSV)"},
    "--trace-out": {"help": "write per-iteration trace (CSV)"},
    "--threads": {"type": int, "default": 1, "help": "worker threads (default 1)"},
}


def _emit(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _envelope(command: str, params: dict, seed, result, t0: float) -> str:
    blob = {
        "version": __version__,
        "command": command,
        "params": params,
        "seed": seed,
        "wall_time_s": round(time.perf_counter() - t0, 6),
        "result": result,
    }
    return json.dumps(blob, indent=2)


def _read_text(path: str | None) -> str:
    """The --in file, or stdin without one."""
    if not path:
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _config_value(command: str, key: str, kind, value):
    """A --config value checked as its flag would be; float params take ints."""
    if isinstance(kind, (tuple, dict)):
        ok, want = isinstance(value, str) and value in kind, f"one of {', '.join(kind)}"
    else:
        accepted = (int, float) if kind is float else kind
        ok, want = isinstance(value, accepted) and not isinstance(value, bool), kind.__name__
    if not ok:
        raise ValidationError(f"config key '{key}' for '{command}' must be {want}, got {value!r}")
    return kind(value) if kind is float else value


def _resolve_params(command: str, args: argparse.Namespace) -> dict:
    """Spec defaults, then --config overrides, then explicit flags.  A
    parameter that only other kinds take is dropped; setting it is an error."""
    spec = _spec(command)
    params = {key: default for key, (_, default, _) in spec.items()}
    given = set()
    if args.config:
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
            raise ValidationError(f"unknown config keys for '{command}': {', '.join(unknown)}")
        for key, value in overrides.items():
            if value is not None:  # null leaves the default, like an absent flag
                params[key] = _config_value(command, key, spec[key][0], value)
                given.add(key)
    for key in params:
        flag_val = getattr(args, key)
        if flag_val is not None:
            params[key] = flag_val
            given.add(key)
    for key, value in params.items():
        if value is REQUIRED:
            raise ValidationError(f"'{command}' requires --{key.replace('_', '-')}")
    for key, (kind, _, _) in spec.items():
        if isinstance(kind, dict):  # a kind table
            unused = {p for _, takes, *_ in kind.values() for p in takes} - set(kind[params[key]][1])
            if unused & given:
                flag = min(unused & given).replace("_", "-")
                raise ValidationError(f"--{flag} does not apply to --{key} {params[key]}")
            params = {k: v for k, v in params.items() if k not in unused}
    return params


# Handlers take the resolved, typed params and return the result for main to
# wrap in the JSON envelope, or None when they wrote their own output.  They
# import the modules they call.  Kind tables: kind -> (the function it calls,
# the parameters only it takes, in order, and for gen the one d the kind
# generates on).

# ------------------------------------------------------------------- gen

def _hammersley_sphere(n: int) -> PointSet:
    m = n.bit_length() - 1
    if n < 1 or 2**m != n or m > HAMMERSLEY_MAX_M:
        raise ValidationError(f"hammersley-sphere needs --n a power of two up to 2^{HAMMERSLEY_MAX_M}, got {n}")
    return lambert_lift(hammersley_square(m))


_GEN_KINDS = {
    "roots-of-unity": (roots_of_unity, (), 1),
    "random": (random_uniform, ("seed",), None),
    "fibonacci": (fibonacci_sphere, (), 2),
    "hammersley-sphere": (_hammersley_sphere, (), 2),
}


def _cmd_gen(params: dict, args) -> None:
    kind, d = params["kind"], params["d"]
    func, takes, on = _GEN_KINDS[kind]
    if on is not None and d not in (None, on):
        raise ValidationError(f"{kind} generates on S^{on}; --d must be {on}")
    lead = () if on else (2 if d is None else d,)  # random draws on any S^d, S^2 by default
    ps = func(*lead, params["n"], *(params[p] for p in takes))
    if args.out:  # without --format, JSON to a .json path and CSV to any other
        write_pointset(ps, args.out, format=params["format"] or "auto")
    else:
        sys.stdout.write(dumps_pointset(ps, format=params["format"] or "csv"))


# ----------------------------------------------------------------- energy

def _cmd_energy(params: dict, args) -> dict:
    from .energy import energy_report

    X = loads_pointset(_read_text(args.infile))
    return energy_report(X, params["s"]).to_json()


# ------------------------------------------------------------------- disc

# each function by its name in discrepancy
_DISC_KINDS = {
    "l2": ("l2_cap_discrepancy", ()),
    "l2-direct": ("l2_cap_discrepancy_direct", ("centers", "seed")),
    "cui-freeden": ("cui_freeden", ()),
    "sum-distance": ("sum_distance_discrepancy", ()),
    "cap-sup-lower": ("cap_sup_discrepancy_lower", ("centers", "seed")),
    "leveque": ("leveque_report", ("degree",)),
    "weyl": ("weyl_sums", ("degree",)),
}


def _cmd_disc(params: dict, args) -> dict:
    from . import discrepancy

    name, takes = _DISC_KINDS[params["kind"]]
    X = loads_pointset(_read_text(args.infile))
    result = getattr(discrepancy, name)(X, *(params[p] for p in takes))
    if isinstance(result, list):  # the Weyl sums S_1..S_L
        return {"kind": "Weyl", "degree": params["degree"], "values": result}
    return result.to_json()


# --------------------------------------------------------------- optimize

def _optimize_spec() -> dict:
    """OptimizerConfig's fields, in order; s, the one without a default, is a float."""
    from .optimizer import OptimizerConfig

    return {
        f.name: (float, REQUIRED, None) if f.default is MISSING else (type(f.default), f.default, None)
        for f in fields(OptimizerConfig)
    }


def _cmd_optimize(params: dict, args) -> dict:
    from .optimizer import OptimizerConfig, optimize

    X0 = loads_pointset(_read_text(args.infile))
    cfg = OptimizerConfig(**params)
    res = optimize(X0, cfg, keep_trace=args.trace_out is not None, threads=args.threads)
    if args.points_out:
        write_pointset(res.best, args.points_out)
    if args.trace_out:
        _emit(_csv_text("iter,objective,grad_norm,step", res.trace), args.trace_out)
    return res.to_json()


# -------------------------------------------------------------- constants

def _constant_registry() -> dict:
    """name -> value, status, formula and role: A_d, V_{-1}(S^d), ratio(d) and
    C_{-1,d} for each d of the closed-form table, and V_{-1}(S^3)."""
    from .asymptotics import _CLOSED_FORMS, conjectured_A, conjectured_C
    from .energy import ball_sphere_ratio, continuous_energy

    def row(value, status, formula, role):
        return {"value": value, "status": status, "formula": formula, "role": role}

    rows = {}
    for d, form in _CLOSED_FORMS.items():
        rows[f"A{d}"] = row(conjectured_A(d), form["status"], form["A"], f"leading constant of D_L2 decay on S^{d}")
    for d in (*_CLOSED_FORMS, 3):
        formula = _CLOSED_FORMS.get(d, {}).get("v_minus1", f"gamma-ratio continuation at (d,s)=({d},-1)")
        role = f"mean pairwise distance of the uniform measure on S^{d}"
        rows[f"v_minus1_s{d}"] = row(continuous_energy(d, -1.0), "closed-form", formula, role)
    for d, form in _CLOSED_FORMS.items():
        role = f"identity factor between D_L2^2 and the distance deficit, d={d}"
        rows[f"ratio_s{d}"] = row(ball_sphere_ratio(d), "closed-form", form["ratio"], role)
    for d, form in _CLOSED_FORMS.items():
        rows[f"c_minus1_s{d}"] = row(conjectured_C(d, -1.0), form["status"], form["c_minus1"], form["c_role"])
    return rows


def _cmd_constants(params: dict, args) -> dict | list:
    registry = _constant_registry()
    name = params["name"]
    if name is None:
        return [{"name": k, **v} for k, v in registry.items()]
    if name not in registry:
        raise ValidationError(f"unknown constant {name!r}; available: {', '.join(registry)}")
    return {"name": name, **registry[name]}


# ---------------------------------------------------------------- predict

def _cmd_predict(params: dict, args) -> list | None:
    from .asymptotics import predicted_l2_roots_of_unity
    from .discrepancy import l2_cap_discrepancy

    try:
        ns = [_require_int("ns", int(tok), 1) for tok in params["ns"].split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"--ns must be a comma list of integers, got {params['ns']!r}") from exc
    if not ns:
        raise ValidationError("--ns resolved to an empty list")
    rows = []
    for n in ns:
        predicted = predicted_l2_roots_of_unity(n, params["p"])
        measured = l2_cap_discrepancy(roots_of_unity(n)).diagnostics["d_squared"]
        rows.append({"N": n, "predicted_dsq": predicted, "measured_dsq": float(measured)})
    if params["format"] == "json":
        return rows
    _emit(_csv_text("N,predicted_dsq,measured_dsq", [r.values() for r in rows]), args.out)
    return None


# -------------------------------------------------------------------- fit

def _cmd_fit(params: dict, args) -> dict:
    from .asymptotics import power_law_fit

    samples = []
    first_row = None  # the first row that is neither blank nor a comment may be a header
    for lineno, raw in enumerate(_read_text(args.infile).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        first_row = first_row or lineno
        parts = [tok.strip() for tok in line.split(",")]
        if len(parts) != 2:
            raise ParseError(f"expected 'N,value' rows, got {raw!r}", line=lineno)
        try:
            samples.append((float(parts[0]), float(parts[1])))
        except ValueError:
            if lineno == first_row:
                continue
            raise ParseError(f"non-numeric row {raw!r}", line=lineno) from None
    return asdict(power_law_fit(samples))


# ----------------------------------------------------------------- verify

def _suite_stolarsky(d: int, n: int, seed: int) -> dict:
    from .discrepancy import l2_cap_discrepancy
    from .energy import ball_sphere_ratio, continuous_energy

    reps = 20
    children = np.random.SeedSequence(_require_int("seed", seed, 0)).spawn(reps)
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
    value = {name: row["value"] for name, row in _constant_registry().items()}
    checks = [  # name, independent reference, tolerance
        ("v_minus1_s2", 4.0 / 3.0, 1e-12),
        ("v_minus1_s1", 4.0 / math.pi, 1e-12),
        ("ratio_s2", 0.25, 1e-12),
        ("A2", A2_DIGITS, 1e-11),
    ]
    rows = [
        {"name": name, "value": value[name], "reference": ref, "abs_error": abs(value[name] - ref), "tolerance": tol}
        for name, ref, tol in checks
    ]
    return {
        "suite": "constants",
        "checks": rows,
        "pass": bool(all(r["abs_error"] <= r["tolerance"] for r in rows)),
    }


def _suite_zeta() -> dict:
    from .special_functions import dirichlet_L3, hurwitz_zeta, riemann_zeta

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
    from .special_functions import bernoulli_table, riemann_zeta, sinc_power_coeffs

    # alpha_n(-1) zeta(-1-2n) = (-1)^(n+1) B_{2n+2} pi^(2n) / (2n+2)!, all < 0
    alpha = sinc_power_coeffs(-1.0, 6)
    bern = bernoulli_table(7)  # B_0 .. B_14
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


_SUITES = {
    "stolarsky": (_suite_stolarsky, ("d", "n", "seed")),
    "constants": (_suite_constants, ()),
    "zeta": (_suite_zeta, ()),
    "bernoulli": (_suite_bernoulli, ()),
}


def _cmd_verify(params: dict, args) -> dict:
    func, takes = _SUITES[params["suite"]]
    return func(*(params[p] for p in takes))


# ------------------------------------------------------------------ wiring

# The one parameter table: command -> name -> (type, default, help).  A tuple
# type lists the allowed strings, a kind table the allowed kinds.  It makes
# the argparse flags, validates --config keys and values, and its order is
# the order of the envelope's "params".  optimize's entry is built by _spec
# only when optimize runs, because importing the optimizer also loads the
# energy and special-function modules.
_SPEC = {
    "gen": {
        "kind": (_GEN_KINDS, REQUIRED, None),
        "d": (int, None, None),
        "n": (int, REQUIRED, None),
        "seed": (int, 0, None),
        "format": (_FORMATS, None, None),
    },
    "energy": {"s": (float, REQUIRED, None)},
    "disc": {
        "kind": (_DISC_KINDS, REQUIRED, None),
        "centers": (int, 1024, None),
        "seed": (int, 0, None),
        "degree": (int, 64, "harmonic degree cutoff L"),
    },
    "optimize": _optimize_spec,
    "constants": {"name": (str, None, None)},
    "predict": {
        "ns": (str, "4,8,16,32,64,128,256", "comma list of N values"),
        "p": (int, 2, "expansion order"),
        "format": (_FORMATS, "csv", None),
    },
    "fit": {},
    "verify": {
        "suite": (_SUITES, REQUIRED, None),
        "d": (int, 2, None),
        "n": (int, 100, None),
        "seed": (int, 1, None),
    },
}


# command -> (help, handler, flags it takes besides its spec, --out and --config)
_COMMANDS = {
    "gen": ("generate a point set", _cmd_gen, ()),
    "energy": ("Riesz energy report for a point set", _cmd_energy, ("--in",)),
    "disc": ("discrepancy of a point set", _cmd_disc, ("--in",)),
    "optimize": (
        "projected-gradient energy optimization",
        _cmd_optimize,
        ("--in", "--points-out", "--trace-out", "--threads"),
    ),
    "constants": ("named constants with provenance", _cmd_constants, ()),
    "predict": ("predicted vs measured circle discrepancy", _cmd_predict, ()),
    "fit": ("power-law fit of (N, value) CSV rows", _cmd_fit, ("--in",)),
    "verify": ("self-check suites", _cmd_verify, ()),
}


def _spec(command: str) -> dict:
    spec = _SPEC[command]
    return spec() if callable(spec) else spec


def build_parser(argv=None) -> argparse.ArgumentParser:
    """Every subcommand with its help, and the flags of the one `argv` runs:
    its first token that does not start with '-' (argv defaults to
    sys.argv[1:], as for parse_args)."""
    argv = sys.argv[1:] if argv is None else argv
    running = next((tok for tok in argv if not tok.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="rieszcap",
        description="Spherical point sets: energies, cap discrepancies, asymptotics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, handler, file_flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        p.set_defaults(func=handler)
        if command != running:
            continue
        for name, (kind, _, flag_help) in _spec(command).items():
            typed = {"choices": kind} if isinstance(kind, (tuple, dict)) else {"type": kind}
            p.add_argument("--" + name.replace("_", "-"), help=flag_help, **typed)
        for flag in ("--out", "--config") + file_flags:
            p.add_argument(flag, **_FILE_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit 2 for usage problems; that is an input error here
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else 1
    try:
        t0 = time.perf_counter()
        params = _resolve_params(args.command, args)
        result = args.func(params, args)
        if result is not None:
            _emit(_envelope(args.command, params, params.get("seed"), result, t0), args.out)
            if args.command == "verify" and not result["pass"]:
                raise NumericalContractError(f"verify suite '{params['suite']}' failed")
        return 0
    except NumericalContractError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except OSError as exc:  # unreadable --in, unwritable --out and the like
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
