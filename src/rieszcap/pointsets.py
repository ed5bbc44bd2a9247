"""Point configurations on S^d: constructors, validation, serialization.

Formats:
  CSV   one point per row, d+1 float columns, optional header "# d=<d> n=<N>",
        floats written with repr (round-trip exact); the header's d and n are checked.
  JSON  {"d": int, "points": [[...], ...]} on one line, ending with a newline.
The readers tell the two apart by the content, never by a file name.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, ValidationError, _require_int

NORM_TOL = 1e-12          # type invariant on every constructed set
INGEST_NORM_TOL = 1e-9    # looser gate the loaders pass when they construct a set
HAMMERSLEY_MAX_M = 24

GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


class PointSet:
    """Immutable N-point configuration on the unit sphere S^d in R^(d+1).

    `points` is a read-only (N, d+1) float64 array; every row is unit-norm
    within the `norm_tol` it was built with (NORM_TOL, or INGEST_NORM_TOL
    for a loaded set); the tolerance gates construction and is not kept.
    The private `_unit_rows(d, arr)` skips the copy and the check: its
    caller must pass a fresh (N, d+1) float64 array whose finite rows it
    has just divided by their norms.
    """

    __slots__ = ("d", "points")

    def __init__(self, d: int, points, *, norm_tol: float = NORM_TOL):
        if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 1:
            raise ValidationError(f"d must be an integer >= 1, got {d!r}")
        arr = np.array(points, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != d + 1:
            raise ValidationError(
                f"points must have shape (N, {d + 1}) with N >= 1, got {arr.shape}"
            )
        # one pass: a non-finite coordinate makes its row's norm non-finite,
        # and then dev.max() fails the test below; so does a norm that
        # overflowed (einsum does not warn), which the coordinate re-scan
        # tells apart
        norms = np.sqrt(np.einsum("ij,ij->i", arr, arr))
        dev = np.abs(norms - 1.0)
        if not dev.max() <= norm_tol:
            if not np.isfinite(arr).all():
                raise ValidationError("points must be finite")
            worst = int(np.argmax(dev))
            raise ValidationError(
                f"point {worst} has norm {norms[worst]:.17g}, "
                f"off unit by {dev[worst]:.3g} > {norm_tol:g}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "points", arr)

    def __setattr__(self, name, value):
        raise AttributeError("PointSet is immutable")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"PointSet(d={self.d}, n={self.n})"


def _unit_rows(d: int, arr: np.ndarray) -> PointSet:
    """A PointSet that owns `arr`, rows just divided by their finite norms.

    No copy and no second norm check; `arr` becomes read-only.  A module
    function, so a wrapper put on a module's `PointSet` name does not see it.
    """
    X = object.__new__(PointSet)
    arr.flags.writeable = False
    object.__setattr__(X, "d", d)
    object.__setattr__(X, "points", arr)
    return X


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


def _seeded_rng(seed) -> np.random.Generator:
    """default_rng for an integer seed >= 0 or a SeedSequence (a restart's
    child); anything else is a DomainError."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = _require_int("seed", seed, 0)
    return np.random.default_rng(seed)


def random_uniform(d: int, n: int, seed) -> PointSet:
    """i.i.d. uniform points on S^d: normalized standard Gaussians.

    Deterministic for a given seed (PCG64 behind numpy's default_rng); this
    constructor consumes the root stream.  Optimizer restarts draw from
    children of their seed (SeedSequence.spawn).  Monte Carlo cap centers
    (discrepancy.sample_centers) are these points, so with equal seeds the
    first n centers are these n points.
    """
    d = _require_int("d", d, 1)
    n = _require_int("n", n, 1)
    rng = _seeded_rng(seed)
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
    return _lift(z, 2.0 * math.pi * k * GOLDEN_CONJUGATE)


def lambert_lift(sq: UnitSquareSet) -> PointSet:
    """Area-preserving lift [0,1)^2 -> S^2.

    Convention (fixed, documented): z = 1 - 2v, azimuth 2 pi u, so (0,0)
    lifts to the north pole and v is the normalized cap area above z.
    """
    if not isinstance(sq, UnitSquareSet):
        raise ValidationError("lambert_lift expects a UnitSquareSet")
    u, v = sq.points.T
    return _lift(1.0 - 2.0 * v, 2.0 * math.pi * u)


def _lift(z: np.ndarray, azimuth: np.ndarray) -> PointSet:
    """The points of S^2 at heights z in [-1, 1] and the given azimuths."""
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return PointSet(2, np.column_stack([r * np.cos(azimuth), r * np.sin(azimuth), z]))


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

def dumps_pointset(ps: PointSet, format: str = "csv") -> str:
    if format == "csv":
        return _csv_text(f"# d={ps.d} n={ps.n}", ps.points.tolist())
    if format == "json":
        return json.dumps({"d": ps.d, "points": ps.points.tolist()}) + "\n"
    raise DomainError(f"unknown format {format!r}")


def _csv_text(header: str, rows) -> str:
    """CSV text with every value written by repr, so floats round-trip."""
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


def loads_pointset(text: str) -> PointSet:
    """JSON when the first non-space character is '{' or '[', else CSV
    (blank text too, which has no data rows)."""
    if text.lstrip()[:1] in ("{", "["):
        return _load_json(text)
    return _load_csv(text)


def _load_csv(text: str) -> PointSet:
    rows: list[list[float]] = []
    header_d = header_n = None
    ncols = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for tok in line[1:].replace(",", " ").split():
                if tok[:2] in ("d=", "n="):
                    try:
                        value = int(tok[2:])
                    except ValueError:
                        raise ParseError(f"bad header token {tok!r}", line=lineno) from None
                    if tok[0] == "d":
                        header_d = value
                    else:
                        header_n = value, lineno
            continue
        try:
            vals = list(map(float, line.split(",")))  # float strips whitespace
        except ValueError:
            raise ParseError(f"non-numeric entry in {line!r}", line=lineno) from None
        if ncols is None:
            ncols = len(vals)
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
        raise ParseError("no data rows")
    if header_n is not None and header_n[0] != len(rows):
        n, header_line = header_n
        raise ParseError(f"header says n={n} but there are {len(rows)} data rows", line=header_line)
    d = header_d if header_d is not None else ncols - 1
    return PointSet(d, np.asarray(rows, dtype=np.float64), norm_tol=INGEST_NORM_TOL)


def _load_json(text: str) -> PointSet:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno) from None
    if not isinstance(obj, dict) or "d" not in obj or "points" not in obj:
        raise ParseError('JSON pointset must be {"d": ..., "points": [...]}')
    d = obj["d"]
    if type(d) is not int or d < 1:  # exact type: a JSON true is no integer
        raise ParseError(f'"d" must be a positive integer, got {d!r}')
    pts = obj["points"]
    if not isinstance(pts, list) or not pts:
        raise ParseError('"points" must be a nonempty list')
    for i, row in enumerate(pts):
        if not isinstance(row, list) or len(row) != d + 1 or any(
            type(c) not in (int, float) for c in row  # exact types: a JSON true is no number
        ):
            raise ParseError(f"point {i} must be a list of {d + 1} numbers")
    try:
        arr = np.asarray(pts, dtype=np.float64)
    except OverflowError:  # an integer literal beyond float range
        raise ParseError("a coordinate is beyond float range") from None
    return PointSet(d, arr, norm_tol=INGEST_NORM_TOL)


def write_pointset(ps: PointSet, path: str, format: str = "auto") -> None:
    """"auto" writes JSON to a path ending in .json and CSV to any other."""
    if format == "auto":
        format = "json" if os.path.splitext(path)[1].lower() == ".json" else "csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_pointset(ps, format))


def read_pointset(path: str) -> PointSet:
    """The content decides the format, as in `loads_pointset`, not the name."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_pointset(fh.read())
