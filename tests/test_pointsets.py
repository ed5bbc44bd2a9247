"""Constructors, invariants, and the file round-trip contract."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszcap.errors import DomainError, ParseError, RangeError, ValidationError
from rieszcap.pointsets import (
    PointSet,
    UnitSquareSet,
    dumps_pointset,
    fibonacci_sphere,
    hammersley_square,
    lambert_lift,
    loads_pointset,
    random_uniform,
    read_pointset,
    roots_of_unity,
    write_pointset,
)

# Regression fixture, see test_fibonacci_beats_random_median: squared cap
# deviation (1/4)(4/3 - mean distance) computed directly with numpy.
FIB_100_DSQ = 0.00020519225995707657
RANDOM_100_MEDIAN_DSQ = 0.002971178803684249


def _dsq(points: np.ndarray) -> float:
    D = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    n = points.shape[0]
    return 0.25 * (4.0 / 3.0 - D.sum() / (n * n))


# ------------------------------------------------------------- PointSet type

def test_pointset_validation():
    ps = PointSet(1, [[1.0, 0.0], [0.0, 1.0]])
    assert ps.n == 2 and ps.d == 1 and len(ps) == 2
    with pytest.raises(ValidationError):
        PointSet(1, [[1.0, 1.0]])  # norm sqrt(2)
    with pytest.raises(ValidationError):
        PointSet(2, [[1.0, 0.0]])  # wrong width
    with pytest.raises(ValidationError):
        PointSet(1, [[float("nan"), 0.0]])
    with pytest.raises(ValidationError):
        PointSet(0, [[1.0]])


@pytest.mark.parametrize(
    "row,message",
    [
        ([float("nan"), 0.0, 0.0], "points must be finite"),
        ([0.0, float("inf"), 0.0], "points must be finite"),
        ([1e200, 0.0, 0.0], "point 1 has norm"),  # finite, but its norm overflows
        ([0.0, 0.0, 1.0 + 1e-9], "point 1 has norm"),
    ],
)
def test_pointset_rejects_row_with_typed_error(row, message):
    # validation takes the norms in one pass; a non-finite coordinate or an
    # overflowing norm must still give its own message, and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            PointSet(2, [[1.0, 0.0, 0.0], row, [0.0, 1.0, 0.0]])


def test_pointset_immutable():
    ps = roots_of_unity(3)
    with pytest.raises(ValueError):
        ps.points[0, 0] = 2.0
    with pytest.raises(AttributeError):
        ps.d = 2


def test_pointset_norm_tolerance_edge():
    eps = 5e-13  # inside the 1e-12 invariant
    PointSet(1, [[1.0 + eps, 0.0]])
    with pytest.raises(ValidationError):
        PointSet(1, [[1.0 + 5e-12, 0.0]])


# ----------------------------------------------------------- roots of unity

def test_roots_of_unity_small():
    p1 = roots_of_unity(1)
    assert np.allclose(p1.points, [[1.0, 0.0]])
    p2 = roots_of_unity(2)
    assert np.allclose(p2.points, [[1.0, 0.0], [-1.0, 0.0]], atol=1e-15)
    assert np.linalg.norm(p2.points[0] - p2.points[1]) == pytest.approx(2.0)


def test_roots_of_unity_square_distance_sum():
    # 4 points, per point distances {sqrt2, 2, sqrt2}: ordered total 8 + 8 sqrt2
    X = roots_of_unity(4).points
    D = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=-1)
    assert D.sum() == pytest.approx(8.0 + 8.0 * math.sqrt(2.0), rel=1e-13)


def test_roots_of_unity_rotation_invariance():
    for n in (3, 5, 8):
        X = roots_of_unity(n).points
        c, s = math.cos(2 * math.pi / n), math.sin(2 * math.pi / n)
        R = np.array([[c, -s], [s, c]])
        Y = X @ R.T
        dX = np.sort(np.linalg.norm(X[:, None] - X[None, :], axis=-1), axis=None)
        dY = np.sort(np.linalg.norm(Y[:, None] - Y[None, :], axis=-1), axis=None)
        assert np.allclose(dX, dY, atol=1e-12)


def test_roots_of_unity_guard():
    with pytest.raises(DomainError):
        roots_of_unity(0)


# ------------------------------------------------------------ random uniform

def test_random_uniform_deterministic():
    a = random_uniform(2, 100, 42)
    b = random_uniform(2, 100, 42)
    assert np.array_equal(a.points, b.points)
    c = random_uniform(2, 100, 43)
    assert not np.array_equal(a.points, c.points)


def test_random_uniform_norms():
    ps = random_uniform(1, 10, 7)
    assert np.max(np.abs(np.linalg.norm(ps.points, axis=1) - 1.0)) < 1e-12


def test_random_uniform_mean_concentrates():
    # CLT smoke test: |mean of N points| <~ 4/sqrt(N) with high probability.
    ps = random_uniform(2, 10_000, 123)
    assert np.linalg.norm(ps.points.mean(axis=0)) <= 4.0 / math.sqrt(10_000)


# --------------------------------------------------------- fibonacci spiral

def test_fibonacci_small():
    ps = fibonacci_sphere(2)
    assert ps.d == 2
    assert np.allclose(sorted(ps.points[:, 2]), [-0.5, 0.5])
    with pytest.raises(DomainError):
        fibonacci_sphere(1)


def test_fibonacci_norms():
    for n in (2, 17, 400):
        ps = fibonacci_sphere(n)
        assert np.max(np.abs(np.linalg.norm(ps.points, axis=1) - 1.0)) < 1e-12


def test_fibonacci_beats_random_median():
    assert _dsq(fibonacci_sphere(100).points) == pytest.approx(FIB_100_DSQ, rel=1e-10)
    meds = sorted(_dsq(random_uniform(2, 100, seed).points) for seed in range(20))
    median = 0.5 * (meds[9] + meds[10])
    assert median == pytest.approx(RANDOM_100_MEDIAN_DSQ, rel=1e-10)
    assert FIB_100_DSQ < median


# -------------------------------------------------------------- lambert lift

def test_lambert_lift_known_points():
    sq = UnitSquareSet(
        np.array(
            [
                [0.0, 0.0],
                [0.25, 0.5],
                [0.5, 0.5],
                [0.75, 0.5],
                [0.25, 0.25],
                [0.5, 0.75],
            ]
        )
    )
    ps = lambert_lift(sq)
    h = math.sqrt(3.0) / 2.0
    want = np.array(
        [
            [0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, h, 0.5],
            [-h, 0.0, -0.5],
        ]
    )
    assert np.allclose(ps.points, want, atol=1e-12)


def test_lambert_lift_norms_random_squares():
    rng = np.random.default_rng(5)
    sq = UnitSquareSet(rng.random((500, 2)))
    ps = lambert_lift(sq)
    assert np.max(np.abs(np.linalg.norm(ps.points, axis=1) - 1.0)) < 1e-12


def test_lambert_lift_statistically_uniform():
    # Area preservation: mean pairwise distance of lifted uniform squares
    # matches the uniform-sphere value 4/3 within a generous 3-sigma band.
    rng = np.random.default_rng(11)
    sq = UnitSquareSet(rng.random((2000, 2)))
    X = lambert_lift(sq).points
    D = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=-1)
    n = X.shape[0]
    mean = D.sum() / (n * (n - 1))
    assert abs(mean - 4.0 / 3.0) < 0.01


# ---------------------------------------------------------------- hammersley

def test_hammersley_small():
    assert np.array_equal(hammersley_square(0).points, [[0.0, 0.0]])
    assert np.array_equal(hammersley_square(1).points, [[0.0, 0.0], [0.5, 0.5]])
    h3 = hammersley_square(3)
    assert h3.n == 8
    assert h3.points[3, 1] == 0.75  # radical inverse of 3 = 0b11 -> 0.11 in base 2


def test_hammersley_coordinates_dyadic_exact():
    for m in (2, 5, 8):
        pts = hammersley_square(m).points
        scaled = pts * (1 << m)
        assert np.array_equal(scaled, np.round(scaled))


def test_hammersley_guard():
    with pytest.raises(RangeError):
        hammersley_square(25)
    with pytest.raises(DomainError):
        hammersley_square(-1)


# ------------------------------------------------------------- serialization

def test_roundtrip_bitwise_csv_and_json(tmp_path):
    ps = random_uniform(2, 17, 99)
    for name, fmt in (("pts.csv", "csv"), ("pts.json", "json")):
        path = tmp_path / name
        write_pointset(ps, str(path), fmt)
        back = read_pointset(str(path))
        assert back.d == ps.d
        assert np.array_equal(back.points, ps.points)  # bitwise


def test_csv_dump_bytes_pinned():
    # shortest round-trip repr of each coordinate: signed zero, a tiny normal
    # and 17-significant-digit values keep their exact spelling
    a = 0.12345678901234568
    ps = PointSet(2, np.array([
        [-0.0, 1e-300, 1.0],
        [a, -0.0, math.sqrt(1.0 - a * a)],
        [0.1 + 0.2, -math.sqrt(0.91), 0.0],
    ]))
    text = dumps_pointset(ps)
    assert text == (
        "# d=2 n=3\n"
        "-0.0,1e-300,1.0\n"
        "0.12345678901234568,-0.0,0.9923499489831\n"
        "0.30000000000000004,-0.9539392014169457,0.0\n"
    )
    back = loads_pointset(text)
    assert back.points.tobytes() == ps.points.tobytes()  # -0.0 keeps its sign


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_roundtrip_property(d, n, seed, fmt):
    ps = random_uniform(d, n, seed)
    text = dumps_pointset(ps, fmt)
    assert text.endswith("\n") and not text.endswith("\n\n")  # one final newline
    back = loads_pointset(text)
    assert back.d == ps.d
    assert np.array_equal(back.points, ps.points)


def test_file_format_decided_by_content(tmp_path):
    ps = random_uniform(2, 5, 3)
    for name, fmt in (("csv.json", "csv"), ("json.csv", "json"), ("noext", "json")):
        path = tmp_path / name
        path.write_text(dumps_pointset(ps, fmt))
        assert np.array_equal(read_pointset(str(path)).points, ps.points), name


def test_csv_header_parsed(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("# d=1 n=2\n1.0,0.0\n0.0,1.0\n")
    ps = read_pointset(str(path))
    assert ps.d == 1 and ps.n == 2


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,0.0,0.0\n1,2\n")
    with pytest.raises(ParseError) as ei:
        read_pointset(str(path))
    assert ei.value.line == 2
    assert "2" in str(ei.value)


def test_parse_error_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,zero\n")
    with pytest.raises(ParseError) as ei:
        read_pointset(str(path))
    assert ei.value.line == 1


def test_off_norm_row_rejected(tmp_path):
    path = tmp_path / "off.csv"
    path.write_text("1.5,0.0,0.0\n0.0,1.0,0.0\n")
    with pytest.raises(ValidationError) as ei:
        read_pointset(str(path))
    assert "0" in str(ei.value)  # names the row


def test_slightly_off_norm_accepted_without_renormalize(tmp_path):
    # Between the strict 1e-12 invariant and the 1e-9 ingestion gate.
    path = tmp_path / "close.csv"
    path.write_text(f"{1.0 + 2e-10!r},0.0\n")
    ps = read_pointset(str(path))
    assert ps.n == 1


def test_json_errors():
    with pytest.raises(ParseError):
        loads_pointset("{not json")
    with pytest.raises(ParseError):
        loads_pointset('{"d": 2}')
    with pytest.raises(ParseError):
        loads_pointset('{"d": 2, "points": [[1.0, 0.0]]}')


def test_json_bool_d_is_parse_error():
    with pytest.raises(ParseError, match='"d" must be a positive integer, got True'):
        loads_pointset('{"d": true, "points": [[1.0, 0.0]]}')


@pytest.mark.parametrize(
    "row", ['["a", "b", "c"]', "[1, 0, {}]", "[1, 0, null]", '["1", 0, 0]', "[true, 0, 0]"]
)
def test_json_non_numeric_coordinates_are_parse_errors(row):
    with pytest.raises(ParseError, match="point 1 must be a list of 3 numbers"):
        loads_pointset(f'{{"d": 2, "points": [[0, 0, 1], {row}]}}')


def test_json_integer_beyond_float_range_is_parse_error():
    with pytest.raises(ParseError, match="beyond float range"):
        loads_pointset('{"d": 1, "points": [[1' + "0" * 400 + ", 0]]}")


def test_unknown_format_is_domain_error():
    with pytest.raises(DomainError):
        dumps_pointset(roots_of_unity(3), format="xml")


def test_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# d=2 n=0\n")
    with pytest.raises(ParseError, match="no data rows"):
        read_pointset(str(path))


def test_truncated_dump_rejected():
    # `gen --n 10 | head -5 | disc`: the header still says n=10
    head = "".join(dumps_pointset(fibonacci_sphere(10)).splitlines(keepends=True)[:5])
    with pytest.raises(ParseError, match="n=10 but there are 4 data rows") as ei:
        loads_pointset(head)
    assert ei.value.line == 1


@pytest.mark.parametrize("token", ["n=ten", "n=4.0", "d=two"])
def test_bad_header_token(token):
    with pytest.raises(ParseError, match="bad header token") as ei:
        loads_pointset(f"1.0,0.0\n# {token}\n0.0,1.0\n")
    assert ei.value.line == 2
