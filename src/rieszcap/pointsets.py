"""Point configurations on S^d: constructors, validation, serialization.

Formats:
  CSV   one point per row, d+1 float columns, optional header "# d=<d> n=<N>",
        floats written with repr (round-trip exact).
  JSON  {"d": int, "points": [[...], ...]}.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError, _require_int

NORM_TOL = 1e-12          # type invariant on every constructed set
INGEST_NORM_TOL = 1e-9    # looser gate for file ingestion
HAMMERSLEY_MAX_M = 24

GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


class PointSet:
    """Immutable N-point configuration on the unit sphere S^d in R^(d+1).

    `points` is a read-only (N, d+1) float64 array; every row is unit-norm
    within `norm_tol` (1e-12 unless a documented relaxed ingestion path
    constructed the set).
    """

    __slots__ = ("d", "points", "norm_tol")

    def __init__(self, d: int, points, *, norm_tol: float = NORM_TOL):
        if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 1:
            raise ValidationError(f"d must be an integer >= 1, got {d!r}")
        arr = np.array(points, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != d + 1:
            raise ValidationError(
                f"points must have shape (N, {d + 1}) with N >= 1, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("points must be finite")
        norms = np.linalg.norm(arr, axis=1)
        dev = np.abs(norms - 1.0)
        worst = int(np.argmax(dev))
        if dev[worst] > norm_tol:
            raise ValidationError(
                f"point {worst} has norm {norms[worst]:.17g}, "
                f"off unit by {dev[worst]:.3g} > {norm_tol:g}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "points", arr)
        object.__setattr__(self, "norm_tol", float(norm_tol))

    def __setattr__(self, name, value):
        raise AttributeError("PointSet is immutable")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"PointSet(d={self.d}, n={self.n})"


@dataclass(frozen=True)
class UnitSquareSet:
    """Ordered (u, v) pairs in [0, 1)^2."""

    points: np.ndarray

    def __post_init__(self):
        arr = np.array(self.points, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != 2:
            raise ValidationError(f"square points must have shape (N, 2), got {arr.shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr >= 1.0):
            raise ValidationError("square coordinates must lie in [0, 1)")
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)

    @property
    def n(self) -> int:
        return self.points.shape[0]


# ----------------------------------------------------------------------------
# constructors

def roots_of_unity(n: int) -> PointSet:
    """The n-th roots of unity on S^1: (cos 2 pi k/n, sin 2 pi k/n)."""
    n = _require_int("n", n, 1)
    theta = 2.0 * math.pi * np.arange(n) / n
    return PointSet(1, np.column_stack([np.cos(theta), np.sin(theta)]))


def random_uniform(d: int, n: int, seed: int) -> PointSet:
    """i.i.d. uniform points on S^d: normalized standard Gaussians.

    Deterministic for a given seed (PCG64 behind numpy's default_rng); this
    constructor consumes the root stream.  Optimizer restarts draw from
    children of their seed (SeedSequence.spawn).  Monte Carlo cap centers
    (discrepancy.sample_centers) draw the root stream exactly as this does,
    so with equal seeds the first n centers are these n points.
    """
    d = _require_int("d", d, 1)
    n = _require_int("n", n, 1)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, d + 1))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms < 1e-8):  # essentially impossible; keeps the invariant airtight
        bad = norms < 1e-8
        g[bad] = rng.standard_normal((int(bad.sum()), d + 1))
        norms = np.linalg.norm(g, axis=1)
    return PointSet(d, g / norms[:, None])


def fibonacci_sphere(n: int) -> PointSet:
    """Spiral configuration on S^2: z_k = 1 - (2k+1)/n, azimuth steps by the
    golden ratio conjugate. A cheap well-distributed deterministic baseline."""
    n = _require_int("n", n, 2)
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = 2.0 * math.pi * k * GOLDEN_CONJUGATE
    return PointSet(2, np.column_stack([r * np.cos(phi), r * np.sin(phi), z]))


def lambert_lift(sq: UnitSquareSet) -> PointSet:
    """Area-preserving lift [0,1)^2 -> S^2.

    Convention (fixed, documented): z = 1 - 2v, azimuth 2 pi u, so (0,0)
    lifts to the north pole and v is the normalized cap area above z.
    """
    if not isinstance(sq, UnitSquareSet):
        raise ValidationError("lambert_lift expects a UnitSquareSet")
    u = sq.points[:, 0]
    v = sq.points[:, 1]
    z = 1.0 - 2.0 * v
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    ang = 2.0 * math.pi * u
    return PointSet(2, np.column_stack([r * np.cos(ang), r * np.sin(ang), z]))


def hammersley_square(m: int) -> UnitSquareSet:
    """2^m-point Hammersley set: (k/2^m, radical inverse of k in base 2).

    All coordinates are dyadic rationals with denominator 2^m, hence exact
    in float64 for m <= 24.
    """
    m = _require_int("m", m, 0, HAMMERSLEY_MAX_M)
    n = 1 << m
    k = np.arange(n, dtype=np.uint64)
    u = k.astype(np.float64) / n
    v = np.zeros(n)
    for b in range(m):  # bit b of k contributes 2^-(b+1)
        v += ((k >> np.uint64(b)) & np.uint64(1)).astype(np.float64) * 0.5 ** (b + 1)
    return UnitSquareSet(np.column_stack([u, v]))


# ----------------------------------------------------------------------------
# serialization

def dumps_pointset(ps: PointSet, format: str = "csv", header: bool = True) -> str:
    if format == "csv":
        lines = []
        if header:
            lines.append(f"# d={ps.d} n={ps.n}")
        for row in ps.points:
            lines.append(",".join(repr(float(c)) for c in row))
        return "\n".join(lines) + "\n"
    if format == "json":
        return json.dumps({"d": ps.d, "points": [[float(c) for c in row] for row in ps.points]})
    raise DomainError(f"unknown format {format!r}")


def _sniff_format(text: str) -> str:
    for ch in text:
        if ch.isspace():
            continue
        return "json" if ch in "{[" else "csv"
    return "csv"


def loads_pointset(text: str, format: str = "auto", renormalize: bool = False) -> PointSet:
    if format == "auto":
        format = _sniff_format(text)
    if format == "json":
        return _load_json(text, renormalize)
    if format == "csv":
        return _load_csv(text, renormalize)
    raise DomainError(f"unknown format {format!r}")


def _finish_load(d: int, arr: np.ndarray, renormalize: bool) -> PointSet:
    if arr.shape[0] < 1:
        raise ParseError("no data rows")
    norms = np.linalg.norm(arr, axis=1)
    dev = np.abs(norms - 1.0)
    worst = int(np.argmax(dev))
    if dev[worst] > INGEST_NORM_TOL and not renormalize:
        raise ValidationError(
            f"row {worst} has norm {norms[worst]:.17g} (off by {dev[worst]:.3g}); "
            f"beyond {INGEST_NORM_TOL:g} tolerance, pass renormalize to accept"
        )
    if renormalize:
        if np.any(norms < 1e-300):
            raise ValidationError("cannot renormalize a zero row")
        arr = arr / norms[:, None]
        return PointSet(d, arr)
    # Accepted rows may sit between the strict 1e-12 invariant and the
    # documented 1e-9 ingestion gate; the set carries the relaxed tolerance.
    return PointSet(d, arr, norm_tol=INGEST_NORM_TOL)


def _load_csv(text: str, renormalize: bool) -> PointSet:
    rows: list[list[float]] = []
    header_d = None
    ncols = None
    first_data_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for tok in line[1:].replace(",", " ").split():
                if tok.startswith("d="):
                    try:
                        header_d = int(tok[2:])
                    except ValueError:
                        raise ParseError(f"bad header token {tok!r}", line=lineno) from None
            continue
        parts = [p.strip() for p in line.split(",")]
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"non-numeric entry in {line!r}", line=lineno) from None
        if ncols is None:
            ncols = len(vals)
            first_data_line = lineno
            if ncols < 2:
                raise ParseError(f"need at least 2 columns, got {ncols}", line=lineno)
            if header_d is not None and ncols != header_d + 1:
                raise ParseError(
                    f"header says d={header_d} but row has {ncols} columns", line=lineno
                )
        elif len(vals) != ncols:
            raise ParseError(f"expected {ncols} columns, got {len(vals)}", line=lineno)
        rows.append(vals)
    if not rows:
        raise ParseError("no data rows", line=first_data_line)
    d = header_d if header_d is not None else ncols - 1
    return _finish_load(d, np.asarray(rows, dtype=np.float64), renormalize)


def _load_json(text: str, renormalize: bool) -> PointSet:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno) from None
    if not isinstance(obj, dict) or "d" not in obj or "points" not in obj:
        raise ParseError('JSON pointset must be {"d": ..., "points": [...]}')
    d = obj["d"]
    if not isinstance(d, int) or d < 1:
        raise ParseError(f'"d" must be a positive integer, got {d!r}')
    pts = obj["points"]
    if not isinstance(pts, list) or not pts:
        raise ParseError('"points" must be a nonempty list')
    for i, row in enumerate(pts):
        if not isinstance(row, list) or len(row) != d + 1:
            raise ParseError(f"point {i} must be a list of {d + 1} numbers")
    return _finish_load(d, np.asarray(pts, dtype=np.float64), renormalize)


def _resolve_format(path: str, format: str) -> str:
    if format != "auto":
        return format
    return "json" if os.path.splitext(path)[1].lower() == ".json" else "csv"


def write_pointset(ps: PointSet, path: str, format: str = "auto", header: bool = True) -> None:
    fmt = _resolve_format(path, format)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_pointset(ps, fmt, header=header))


def read_pointset(path: str, format: str = "auto", renormalize: bool = False) -> PointSet:
    fmt = _resolve_format(path, format)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "csv" and _sniff_format(text) == "json":
        fmt = "json"  # tolerate JSON content behind a .csv-ish name
    return loads_pointset(text, fmt, renormalize=renormalize)
