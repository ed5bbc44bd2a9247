import itertools
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszcap.discrepancy import (
    DIRECT_DSQ_FLOOR,
    WEYL_MAX_DEGREE,
    DiscrepancyReport,
    _cap_sup_given_centers,
    _direct_dsq_per_center,
    _harmonic_tables,
    _sigma_cap_values,
    _sigma_sq_integral,
    _sqrt_clamped,
    cap_sup_discrepancy_lower,
    cui_freeden,
    l2_cap_discrepancy,
    l2_cap_discrepancy_direct,
    leveque_functionals,
    leveque_report,
    mean_distance,
    sample_centers,
    sigma_cap,
    sum_distance_discrepancy,
    weyl_sums,
)
from rieszcap.energy import ball_sphere_ratio, continuous_energy, riesz_energy
from rieszcap.errors import (
    DimensionError,
    DomainError,
    NegativeVarianceError,
    RangeError,
)
from rieszcap.pointsets import (
    INGEST_NORM_TOL,
    PointSet,
    _unit_rows,
    fibonacci_sphere,
    hammersley_square,
    lambert_lift,
    random_uniform,
    roots_of_unity,
)

from oracles import weyl_sums_addition

# Frozen Monte-Carlo fixture: cap-sup lower bound for a single point at the
# north pole, 64 centers from seed 123.  Independently equal to
# (1 + max_c |<c, x>|)/2 over those centers.
CAPSUP_SINGLE_64_SEED123 = 0.9956483807180742


def _antipodal_s2():
    return PointSet(2, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))


def _antipodal_s1():
    return PointSet(1, np.array([[1.0, 0.0], [-1.0, 0.0]]))


def _single(d):
    x = np.zeros(d + 1)
    x[-1] = 1.0
    return PointSet(d, x[None, :])


def _octahedron():
    eye = np.eye(3)
    return PointSet(2, np.concatenate([eye, -eye], axis=0))


def _rotate(X, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((X.d + 1, X.d + 1))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    return PointSet(X.d, X.points @ q.T, norm_tol=1e-9), q


# ---------------------------------------------------------------- sigma_cap

def test_sigma_cap_values():
    assert sigma_cap(2, 0.0) == 0.5
    assert sigma_cap(2, -1.0) == 1.0
    assert sigma_cap(2, 1.0) == 0.0
    assert sigma_cap(1, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert sigma_cap(1, -1.0) == pytest.approx(1.0, abs=1e-15)


def test_sigma_cap_s3_closed_form():
    # d=3: sigma = (arccos t - t sqrt(1-t^2)) / pi
    for t in (-0.9, -0.3, 0.0, 0.2, 0.7, 0.99):
        closed = (math.acos(t) - t * math.sqrt(1.0 - t * t)) / math.pi
        assert sigma_cap(3, t) == pytest.approx(closed, abs=1e-14)


def test_sigma_cap_higher_dim_monotone_and_normalized():
    for d in (4, 5, 8):
        ts = np.linspace(-1.0, 1.0, 41)
        vals = [sigma_cap(d, t) for t in ts]
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        assert vals[-1] == pytest.approx(0.0, abs=1e-12)
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert sigma_cap(d, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_sigma_cap_matches_regularized_incomplete_beta():
    # sigma_d(t) = I_{(1-t)/2}(d/2, d/2)
    ts = np.linspace(-1.0, 1.0, 41)
    for d in range(1, 9):
        got = _sigma_cap_values(d, ts)
        for t, g in zip(ts, got):
            want = mp.betainc(mp.mpf(d) / 2, mp.mpf(d) / 2, 0, (1 - mp.mpf(t)) / 2, regularized=True)
            assert abs(g - want) <= 1e-15, (d, t)


def test_sigma_cap_domain():
    with pytest.raises(DomainError):
        sigma_cap(2, 1.5)
    with pytest.raises(DomainError):
        sigma_cap(2, float("nan"))


# ------------------------------------------------------------- closed L2

def test_l2_closed_single_point():
    # one point: mean distance 0, D^2 = ratio * V_{-1}
    for d in (1, 2, 3):
        rep = l2_cap_discrepancy(_single(d))
        expect = ball_sphere_ratio(d) * continuous_energy(d, -1.0)
        assert rep.kind == "L2CapClosed"
        assert rep.value == pytest.approx(math.sqrt(expect), abs=1e-15)
    assert l2_cap_discrepancy(_single(2)).diagnostics["d_squared"] == pytest.approx(
        1.0 / 3.0, abs=1e-15
    )
    assert l2_cap_discrepancy(_single(1)).diagnostics["d_squared"] == pytest.approx(
        4.0 / math.pi**2, abs=1e-15
    )


def test_l2_closed_antipodal_s1():
    rep = l2_cap_discrepancy(_antipodal_s1())
    assert rep.diagnostics["d_squared"] == pytest.approx(
        4.0 / math.pi**2 - 1.0 / math.pi, abs=1e-15
    )


def test_stolarsky_identity_random():
    # mean distance + (1/ratio) * D^2 recovers the continuous energy
    for d in (1, 2, 3):
        for n in (2, 17, 250):
            X = random_uniform(d, n, seed=100 * d + n)
            rep = l2_cap_discrepancy(X)
            lhs = rep.diagnostics["mean_distance"] + rep.diagnostics["d_squared"] / ball_sphere_ratio(d)
            assert abs(lhs - continuous_energy(d, -1.0)) < 1e-10


def test_l2_closed_rotation_invariant():
    X = random_uniform(2, 40, seed=4)
    Y, _ = _rotate(X, 9)
    assert l2_cap_discrepancy(Y).value == pytest.approx(
        l2_cap_discrepancy(X).value, abs=1e-10
    )


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=25),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_l2_closed_nonnegative_and_consistent(d, n, seed):
    X = random_uniform(d, n, seed=seed)
    rep = l2_cap_discrepancy(X)
    assert rep.value >= 0.0
    assert rep.value == pytest.approx(math.sqrt(max(rep.diagnostics["d_squared"], 0.0)))


# ------------------------------------------------------------ sqrt clamp

def test_sqrt_clamp_policy():
    assert _sqrt_clamped(4.0, "x") == 2.0
    with pytest.warns(RuntimeWarning):
        assert _sqrt_clamped(-1e-13, "x") == 0.0
    with pytest.raises(NegativeVarianceError):
        _sqrt_clamped(-1e-11, "x")


def test_direct_estimator_uses_the_shared_clamp(monkeypatch):
    # the mean D^2 reaches the clamp unchanged: float noise below zero warns
    # and reads 0.0, a genuine identity violation raises
    import rieszcap.discrepancy as disc

    X = fibonacci_sphere(20)
    rep = l2_cap_discrepancy_direct(X, 8, 0)
    assert rep.value == math.sqrt(rep.diagnostics["d_squared"])  # bitwise
    monkeypatch.setattr(disc, "_direct_dsq_per_center", lambda X, C: np.full(C.shape[0], -1e-16))
    with pytest.warns(RuntimeWarning, match="L2CapDirect"):
        assert l2_cap_discrepancy_direct(X, 8, 0).value == 0.0
    monkeypatch.setattr(disc, "_direct_dsq_per_center", lambda X, C: np.full(C.shape[0], -1e-11))
    with pytest.raises(NegativeVarianceError, match="L2CapDirect"):
        l2_cap_discrepancy_direct(X, 8, 0)


# ------------------------------------------------------- direct estimator

def test_direct_single_point_s2_per_center():
    # N=1 at the pole: exact per-center integral is 1/6 + u^2/2 with u = <c, x>;
    # the 1/3 closed-form value is its average over centers, not each center.
    one = _single(2)
    C = sample_centers(2, 16, 7)
    per = _direct_dsq_per_center(one, C)
    u = (C @ one.points.T)[:, 0]
    np.testing.assert_allclose(per, 1.0 / 6.0 + 0.5 * u * u, atol=1e-14)


def _per_center_mpmath(points: np.ndarray, center: np.ndarray) -> float:
    """int_{-1}^{1} (F(t) - sigma_d(t))^2 dt by quadrature on each segment
    between sorted projections, sigma_d as a regularized incomplete beta."""
    d = points.shape[1] - 1
    with mp.workdps(20):
        u = sorted(mp.mpf(float(v)) for v in np.clip(points @ center, -1.0, 1.0))
        n, half = len(u), mp.mpf(d) / 2
        edges = [mp.mpf(-1)] + u + [mp.mpf(1)]
        total = mp.mpf(0)
        for i in range(n + 1):
            q = mp.mpf(n - i) / n  # F on (u_(i), u_(i+1)]
            total += mp.quad(
                lambda t: (q - mp.betainc(half, half, 0, (1 - t) / 2, regularized=True)) ** 2,
                [edges[i], edges[i + 1]],
            )
        return float(total)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8])
def test_direct_per_center_matches_mpmath(d):
    X = random_uniform(d, 6, seed=30 + d)
    C = sample_centers(d, 3, 50 + d)
    ref = [_per_center_mpmath(X.points, c) for c in C]
    np.testing.assert_allclose(_direct_dsq_per_center(X, C), ref, rtol=0, atol=DIRECT_DSQ_FLOOR)


def test_direct_per_center_point_near_antipode_s3():
    # sigma_3 has a (1 + t)^(3/2) end at t = -1, which a fixed rule misses
    c = np.array([1.0, 0.0, 0.0, 0.0])
    pts = np.array(
        [
            [-0.9995, math.sqrt(1.0 - 0.9995**2), 0.0, 0.0],
            [0.3, 0.0, math.sqrt(0.91), 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    per = _direct_dsq_per_center(PointSet(3, pts), c[None, :])
    assert per[0] == pytest.approx(_per_center_mpmath(pts, c), rel=0, abs=1e-14)


def test_sigma_sq_integral_closed_values():
    assert _sigma_sq_integral(1) == pytest.approx(1.0 - 4.0 / math.pi**2, rel=0, abs=1e-15)
    assert _sigma_sq_integral(2) == pytest.approx(2.0 / 3.0, rel=0, abs=1e-15)
    s3 = 1.0 - 128.0 / (45.0 * math.pi**2)
    assert _sigma_sq_integral(3) == pytest.approx(s3, rel=0, abs=1e-15)


def test_direct_single_point_s2_mean():
    rep = l2_cap_discrepancy_direct(_single(2), 20000, 5)
    dsq = rep.diagnostics["d_squared"]
    se = rep.diagnostics["standard_error_d_squared"]
    assert abs(dsq - 1.0 / 3.0) < 3.0 * se
    assert rep.diagnostics["d_squared_floor"] == DIRECT_DSQ_FLOOR


def test_direct_single_point_s1_mean():
    rep = l2_cap_discrepancy_direct(_single(1), 50000, 3)
    dsq = rep.diagnostics["d_squared"]
    se = rep.diagnostics["standard_error_d_squared"]
    assert abs(dsq - 4.0 / math.pi**2) < 3.0 * se


def test_direct_matches_closed_s2():
    X = random_uniform(2, 50, seed=11)
    rep = l2_cap_discrepancy_direct(X, 4096, 5)
    closed = l2_cap_discrepancy(X).diagnostics["d_squared"]
    se = rep.diagnostics["standard_error_d_squared"]
    assert se > 0.0
    assert abs(rep.diagnostics["d_squared"] - closed) < 3.0 * se


def test_direct_matches_closed_s1():
    X = roots_of_unity(9)
    rep = l2_cap_discrepancy_direct(X, 4096, 21)
    closed = l2_cap_discrepancy(X).diagnostics["d_squared"]
    assert abs(rep.diagnostics["d_squared"] - closed) < 3.0 * rep.diagnostics[
        "standard_error_d_squared"
    ]


def test_direct_matches_closed_s3():
    X = random_uniform(3, 20, seed=2)
    rep = l2_cap_discrepancy_direct(X, 2000, 9)
    closed = l2_cap_discrepancy(X).diagnostics["d_squared"]
    assert abs(rep.diagnostics["d_squared"] - closed) < 3.0 * rep.diagnostics[
        "standard_error_d_squared"
    ]


def test_direct_deterministic_and_seed_sensitive():
    X = random_uniform(2, 12, seed=0)
    a = l2_cap_discrepancy_direct(X, 500, 42)
    b = l2_cap_discrepancy_direct(X, 500, 42)
    c = l2_cap_discrepancy_direct(X, 500, 43)
    assert a.value == b.value
    assert a.value != c.value


def test_direct_rotation_invariant_given_centers():
    # the estimator itself is rotation invariant once centers co-rotate
    X = random_uniform(2, 15, seed=6)
    C = sample_centers(2, 300, 8)
    Y, q = _rotate(X, 13)
    a = _direct_dsq_per_center(X, C)
    b = _direct_dsq_per_center(Y, C @ q.T)
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_direct_center_guard():
    with pytest.raises(DomainError):
        l2_cap_discrepancy_direct(_single(2), 0, 1)


# ---------------------------------------------------------- Cui-Freeden

def test_cui_freeden_single_point():
    rep = cui_freeden(_single(2))
    assert rep.kind == "CuiFreeden"
    assert rep.value == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-15)


def test_cui_freeden_antipodal_exact():
    rep = cui_freeden(_antipodal_s2())
    assert rep.diagnostics["d_squared"] == pytest.approx(
        (1.0 - math.log(2.0)) / (4.0 * math.pi), abs=1e-15
    )


def test_cui_freeden_trend_on_spirals():
    vals = [cui_freeden(fibonacci_sphere(n)).value for n in (50, 100, 200, 400)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cui_freeden_dimension_guard():
    with pytest.raises(DimensionError):
        cui_freeden(roots_of_unity(4))


def test_cui_freeden_rotation_invariant():
    X = random_uniform(2, 30, seed=1)
    Y, _ = _rotate(X, 2)
    assert cui_freeden(Y).value == pytest.approx(cui_freeden(X).value, abs=1e-10)


# ---------------------------------------------------------- sum distance

def test_sum_distance_values():
    assert sum_distance_discrepancy(_single(2)).diagnostics["d_squared"] == pytest.approx(
        4.0 / 3.0, abs=1e-15
    )
    assert sum_distance_discrepancy(_antipodal_s2()).diagnostics["d_squared"] == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )


def test_sum_distance_is_4x_l2():
    for seed in range(20):
        X = random_uniform(2, 25, seed=seed)
        sd = sum_distance_discrepancy(X).diagnostics["d_squared"]
        l2 = l2_cap_discrepancy(X).diagnostics["d_squared"]
        assert abs(sd - 4.0 * l2) < 1e-10


def test_sum_distance_dimension_guard():
    with pytest.raises(DimensionError):
        sum_distance_discrepancy(_single(1))


# ------------------------------------------------------------ Weyl sums

def test_weyl_single_point():
    s = weyl_sums(_single(2), 3)
    for l, s_l in enumerate(s, start=1):
        assert s_l == pytest.approx((2 * l + 1) / (4.0 * math.pi), abs=1e-15)


def test_weyl_octahedron_zeros():
    s = weyl_sums(_octahedron(), 4)
    assert s[0] == 0.0 and s[1] == 0.0 and s[2] == 0.0
    assert s[3] > 0.1  # degree 4 survives the symmetry


def test_weyl_antipodal_odd_degrees_vanish():
    s = weyl_sums(_antipodal_s2(), 5)
    assert s[0] == 0.0 and s[2] == 0.0 and s[4] == 0.0


def test_weyl_resummation_identity():
    # recompute each S_l from scratch with an independent Legendre evaluation:
    # numpy's Clenshaw summation, not the three-term recurrence weyl_sums runs
    from numpy.polynomial.legendre import legval

    X = random_uniform(2, 18, seed=5)
    g = np.clip(X.points @ X.points.T, -1.0, 1.0)
    s = weyl_sums(X, 12)
    for l, s_l in enumerate(s, start=1):
        p_l = legval(g, [0.0] * l + [1.0])
        direct = (2 * l + 1) / (4.0 * math.pi) * float(np.sum(p_l)) / X.n**2
        assert abs(s_l - max(direct, 0.0)) < 1e-12


def test_weyl_nonnegative_random():
    for seed in range(5):
        X = random_uniform(2, 30, seed=seed)
        assert all(s_l >= 0.0 for s_l in weyl_sums(X, 40))


def test_weyl_guards():
    with pytest.raises(RangeError):
        weyl_sums(_single(2), 257)
    with pytest.raises(DomainError):
        weyl_sums(_single(2), 0)
    with pytest.raises(DimensionError):
        weyl_sums(roots_of_unity(4), 3)


def test_weyl_rotation_invariant():
    X = random_uniform(2, 20, seed=3)
    Y, _ = _rotate(X, 4)
    np.testing.assert_allclose(weyl_sums(X, 10), weyl_sums(Y, 10), atol=1e-10)


def test_weyl_blocks_match_one_block(monkeypatch):
    # 50 points in row blocks of 7 (the last one short) against one block
    import rieszcap.discrepancy as disc

    X = random_uniform(2, 50, seed=7)
    whole = weyl_sums(X, 12)
    monkeypatch.setattr(disc, "_BLOCK", 5 * 13 * 7)  # five 13-row buffers of width 7
    np.testing.assert_allclose(weyl_sums(X, 12), whole, rtol=0.0, atol=1e-14)


def test_weyl_strips_match_one_strip_to_docstring_bound(monkeypatch):
    # at N = 1000, L = 64 the walk takes three strips (widths 403, 403, 194);
    # one strip of all 1000 points gives the same S_l within the docstring's
    # 3e-16 (2l+1)/(4 pi)
    import rieszcap.discrepancy as disc

    X = random_uniform(2, 1000, seed=64)
    assert disc._BLOCK // (5 * 65) == 403
    strips = np.array(weyl_sums(X, 64))
    monkeypatch.setattr(disc, "_BLOCK", 5 * 65 * X.n)
    one = np.array(weyl_sums(X, 64))
    assert np.all(np.abs(strips - one) <= 3e-16 * _weyl_scale(64))


def test_weyl_memory_bounded():
    # rows are walked in strips whose five (L+1)-row buffers hold _BLOCK
    # entries together (1.05 MB), next to the two tables and the two
    # accumulators (0.13 MB together at L = 64): the Gram matrix and three
    # Legendre levels at N=2000 would take about 160 MB
    X = fibonacci_sphere(2000)
    tracemalloc.start()
    try:
        weyl_sums(X, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_weyl_memory_bounded_max_degree():
    # at the largest degree the CLI accepts the strip buffers stay within
    # _BLOCK entries, the tables c and s2 are built with no other 257^2
    # array, and the accumulators are squared in place: 3.3 MB in all
    X = fibonacci_sphere(2000)
    tracemalloc.start()
    try:
        weyl_sums(X, WEYL_MAX_DEGREE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5e6


@pytest.mark.parametrize("L", [1, 2, 5, 64, WEYL_MAX_DEGREE])
def test_harmonic_tables_match_cumprod_bitwise(L):
    # the reference builds the steps of s2 in a third (L+1)^2 array and
    # multiplies them down each column with np.cumprod
    l = np.arange(L + 1.0)[:, None]
    m = np.arange(L + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = ((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0)
        step = np.where(l > m, (4.0 * l * l - 1.0) / (l * l - m * m), 1.0)
    k = m[1:]
    diag = np.concatenate(([1.0], np.cumprod((2.0 * k - 1.0) / (2.0 * k))))
    np.fill_diagonal(step, (2.0 * m + 1.0) / (4.0 * math.pi) * diag)
    got_c, got_s2 = _harmonic_tables(L)
    assert got_c.tobytes() == c.tobytes()
    assert got_s2.tobytes() == np.tril(np.cumprod(step, axis=0)).tobytes()


def test_harmonic_tables_memory_bounded():
    # c and s2 at the top degree take 2 x 257^2 doubles (1.06 MB); one more
    # 257^2 temporary (0.53 MB) goes over the bound
    tracemalloc.start()
    try:
        _harmonic_tables(WEYL_MAX_DEGREE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4e6


def _weyl_scale(L):
    return (2.0 * np.arange(1, L + 1) + 1.0) / (4.0 * math.pi)


def _weyl_oracle_set(kind, n):
    if kind == "fibonacci":
        return fibonacci_sphere(n)
    if kind == "hammersley":  # 2^6 and 2^10 points
        return lambert_lift(hammersley_square(max(1, round(math.log2(n)))))
    return random_uniform(2, n, seed=n)


@pytest.mark.parametrize(
    "kind,n,L",
    [
        *itertools.product(["fibonacci", "hammersley", "random"], [50, 1000], [12, 64]),
        # few points at the top degree: S_l is near (2l+1)/(4 pi N), about 0.4
        # at l = 256, and the routes differ most, about 2.5e-14 (2l+1)/(4 pi)
        ("random", 100, WEYL_MAX_DEGREE),
    ],
)
def test_weyl_matches_addition_oracle(kind, n, L):
    # the bound of the weyl_sums docstring: 1e-13 (2l+1)/(4 pi) absolute
    X = _weyl_oracle_set(kind, n)
    diff = np.abs(np.array(weyl_sums(X, L)) - np.array(weyl_sums_addition(X, L)))
    assert np.all(diff <= 1e-13 * _weyl_scale(L))


def test_weyl_against_mpmath():
    # 40-digit S_l of the points projected onto the sphere, by the addition
    # theorem: the harmonic route is within 4.4e-16 (2l+1)/(4 pi) (2.2e-16
    # measured), where the addition route is off by up to 1.7e-15 (2l+1)/(4 pi)
    X = random_uniform(2, 12, seed=11)
    L = 20
    with mp.workdps(40):
        pts = [[mp.mpf(float(v)) for v in row] for row in X.points]
        pts = [[v / mp.sqrt(sum(u * u for u in row)) for v in row] for row in pts]
        sums = [mp.mpf(0)] * (L + 1)
        for a in pts:
            for b in pts:
                g = sum(u * v for u, v in zip(a, b))
                p_prev, p_cur = mp.mpf(1), g
                for l in range(1, L + 1):
                    sums[l] += p_cur
                    p_prev, p_cur = p_cur, ((2 * l + 1) * g * p_cur - l * p_prev) / (l + 1)
        exact = [(2 * l + 1) / (4 * mp.pi) * sums[l] / X.n**2 for l in range(1, L + 1)]
    got = weyl_sums(X, L)
    err = np.array([float(abs(mp.mpf(v) - e)) for v, e in zip(got, exact)])
    assert np.all(err <= 4.4e-16 * _weyl_scale(L))


def test_weyl_single_point_exact():
    # at the pole zeta = 0 and P_l(1) = 1 exactly: S_l is (2l+1)/(4 pi) itself
    s = weyl_sums(_single(2), WEYL_MAX_DEGREE)
    assert s == [(2 * l + 1) / (4.0 * math.pi) for l in range(1, WEYL_MAX_DEGREE + 1)]


# --------------------------------------------------------------- LeVeque

def test_leveque_single_point_degree_one():
    lower, upper = leveque_functionals(_single(2), 1)
    # a_1 = Gamma(1/2)/Gamma(7/2) = 8/15, S_1 = 3/(4 pi)
    assert lower == pytest.approx(math.sqrt(2.0 / (5.0 * math.pi)), abs=1e-14)
    assert upper == pytest.approx((3.0 / (4.0 * math.pi)) ** 0.25, abs=1e-14)


def test_leveque_octahedron_degree_three():
    assert leveque_functionals(_octahedron(), 3) == (0.0, 0.0)


def test_leveque_trend():
    lo100, up100 = leveque_functionals(fibonacci_sphere(100), 50)
    lo400, up400 = leveque_functionals(fibonacci_sphere(400), 50)
    assert lo400 < lo100
    assert up400 < up100


def test_leveque_report_shape():
    rep = leveque_report(fibonacci_sphere(64), 20)
    assert rep.kind == "LeVeque"
    assert rep.value == rep.diagnostics["lower_functional"]
    assert rep.diagnostics["degree"] == 20
    assert rep.diagnostics["upper_functional"] > rep.value > 0.0


# --------------------------------------------------------------- cap sup

def test_cap_sup_single_point_fixture():
    rep = cap_sup_discrepancy_lower(_single(2), 64, 123)
    assert rep.kind == "CapSupLower"
    assert rep.value == pytest.approx(CAPSUP_SINGLE_64_SEED123, abs=1e-15)
    # independent oracle: for one point the sup over a center c is (1+|<c,x>|)/2
    C = sample_centers(2, 64, 123)
    u = np.abs(C @ _single(2).points.T)[:, 0]
    assert rep.value == pytest.approx((1.0 + u.max()) / 2.0, abs=1e-15)


def test_cap_sup_antipodal_s1_approaches_half():
    rep = cap_sup_discrepancy_lower(_antipodal_s1(), 5000, 1)
    assert rep.value <= 0.5 + 1e-12
    assert rep.value > 0.499


def test_cap_sup_bounded_by_one():
    for seed in range(5):
        X = random_uniform(2, 15, seed=seed)
        v = cap_sup_discrepancy_lower(X, 200, seed).value
        assert 0.0 <= v <= 1.0


def test_cap_sup_monotone_in_centers():
    X = random_uniform(2, 50, seed=11)
    vals = [cap_sup_discrepancy_lower(X, m, 77).value for m in (10, 50, 100, 400)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_cap_sup_rotation_invariant_given_centers():
    X = random_uniform(1, 9, seed=12)
    C = sample_centers(1, 150, 3)
    Y, q = _rotate(X, 5)
    assert _cap_sup_given_centers(X, C) == pytest.approx(
        _cap_sup_given_centers(Y, C @ q.T), abs=1e-10
    )


@pytest.mark.parametrize("estimator", [l2_cap_discrepancy_direct, cap_sup_discrepancy_lower])
@pytest.mark.parametrize("d", [1, 3])
def test_center_estimators_memory_bounded(estimator, d):
    # centers are walked in blocks of 8 that share one projection buffer
    # and two work buffers (3 x 8 x 4096 doubles, 0.79 MB, within _BLOCK
    # entries together), which also hold the scratch of sigma_d's recurrence
    # at d = 3; a full 1024 x 4097 projection array and its temporaries
    # would take 168-269 MB, and blocks of 16 (1.57 MB) go over the bound.
    # A warm-up call keeps numpy's first-call allocations out of the peak.
    X = roots_of_unity(4096) if d == 1 else random_uniform(d, 4096, seed=d)
    estimator(X, 1, 0)
    tracemalloc.start()
    try:
        estimator(X, 1024, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_center_blocks_reuse_buffers_bitwise(monkeypatch, d):
    # blocks of 4 centers and a short last block of 2, all in the buffers of
    # the first block, against the one-block call: per-center values equal
    import rieszcap.discrepancy as disc

    X = random_uniform(d, 40, seed=d)
    C = sample_centers(d, 10, 9)
    direct, sup = _direct_dsq_per_center(X, C), _cap_sup_given_centers(X, C)
    # three buffers of 4 rows of N+1 entries hold _BLOCK together
    monkeypatch.setattr(disc, "_BLOCK", 12 * (X.n + 1))
    assert [len(u) for _, u, _, _ in disc._sorted_projections(X, C)] == [4, 4, 2]
    assert _direct_dsq_per_center(X, C).tobytes() == direct.tobytes()
    assert _cap_sup_given_centers(X, C) == sup


def test_sigma_cap_values_fresh_or_into_out():
    ts = np.linspace(-1.0, 1.0, 9)
    before = ts.copy()
    for d in (1, 2, 3, 4):
        a, b = _sigma_cap_values(d, ts), _sigma_cap_values(d, ts)
        assert a is not b and not np.shares_memory(a, ts) and not np.shares_memory(a, b)
        out = np.empty_like(ts)
        assert _sigma_cap_values(d, ts, out=out) is out
        assert out.tobytes() == a.tobytes() and ts.tobytes() == before.tobytes()
        assert _sigma_cap_values(d, ts, out=out, work=np.empty_like(ts)).tobytes() == a.tobytes()
        value = sigma_cap(d, 0.25)
        assert type(value) is float and value == _sigma_cap_values(d, np.asarray([0.25]))[0]


def test_cap_sup_higher_dimensions():
    # per center int (F - sigma)^2 dt <= 2 sup |F - sigma|^2 over t in [-1, 1],
    # so the direct D^2 over the same centers is at most twice the bound squared
    for d in (3, 4, 7):
        X = random_uniform(d, 200, seed=d)
        value = cap_sup_discrepancy_lower(X, 256, 5).value
        assert 0.0 < value < 1.0
        assert l2_cap_discrepancy_direct(X, 256, 5).diagnostics["d_squared"] <= 2.0 * value**2
        # one point: the sup over a center c is max(sigma(u), 1 - sigma(u)) at
        # u = <c, x>, and sigma(u) is uniform over random c, so it tends to 1
        u = sample_centers(d, 256, 1) @ _single(d).points[0]
        want = max(max(sigma_cap(d, t), 1.0 - sigma_cap(d, t)) for t in u)
        rep = cap_sup_discrepancy_lower(_single(d), 256, 1)
        assert rep.value == pytest.approx(want, abs=1e-15) and rep.value > 0.99


# ---------------------------------------------------------------- report

def test_report_to_json_round_trip():
    rep = l2_cap_discrepancy(fibonacci_sphere(30))
    blob = rep.to_json()
    assert set(blob) == {"kind", "value", "diagnostics"}
    assert blob["kind"] == "L2CapClosed"
    assert blob["value"] == rep.value
    blob["diagnostics"]["extra"] = 1
    assert "extra" not in rep.diagnostics  # to_json copies


def test_mean_distance_matches_brute_force():
    X = random_uniform(2, 10, seed=8)
    brute = 0.0
    pts = X.points
    for j in range(10):
        for k in range(10):
            brute += np.linalg.norm(pts[j] - pts[k])
    assert mean_distance(X) == pytest.approx(brute / 100.0, rel=1e-12)


def test_pair_estimators_see_unit_points():
    # ingestion accepts rows up to INGEST_NORM_TOL off unit norm; the pair-sum
    # estimators and those that project onto cap centers must read such a
    # set as its unit-norm points
    X = fibonacci_sphere(1000)
    scale = 1.0 + 9e-10 * np.random.default_rng(3).choice((-1.0, 1.0), X.n)
    Y = PointSet(2, X.points * scale[:, None], norm_tol=INGEST_NORM_TOL)
    for estimator in (l2_cap_discrepancy, cui_freeden, sum_distance_discrepancy):
        assert estimator(Y).value == pytest.approx(estimator(X).value, rel=1e-12, abs=0.0)
    for estimator in (l2_cap_discrepancy_direct, cap_sup_discrepancy_lower):
        want = estimator(X, 256, 1).value
        assert estimator(Y, 256, 1).value == pytest.approx(want, rel=1e-12, abs=0.0)


# ------------------------------------------------ mean distance on S^1

def _off_radius_circle(n, seed):
    # random S^1 set whose radii are off by up to 1e-9, as ingestion accepts
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-math.pi, math.pi, n)
    radius = 1.0 + rng.uniform(-1e-9, 1e-9, n)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1) * radius[:, None]
    return PointSet(1, pts, norm_tol=INGEST_NORM_TOL)


@pytest.mark.parametrize("n", [*range(1, 40), *(2**k for k in range(6, 17))])
def test_circle_mean_distance_of_roots_within_ulps(n):
    # the N-th roots of unity have mean chord 2 cot(pi/2N)/N; one point has none
    with mp.workdps(40):
        want = 2 * mp.cot(mp.pi / (2 * n)) / n if n > 1 else mp.mpf(0)
        got = mean_distance(roots_of_unity(n))
        assert abs(got - want) <= 1.5 * math.ulp(float(want)), n


@pytest.mark.parametrize("n, seed", [(2, 1), (3, 2), (17, 3), (64, 4), (200, 5)])
def test_circle_mean_distance_of_off_radius_sets(n, seed):
    # within 1.5 ulp of the exact mean over the unit-projected points, and
    # within 2 ulps of the pair walk of riesz_energy on those points
    X = _off_radius_circle(n, seed)
    got = mean_distance(X)
    with mp.workdps(40):
        unit = [(x / mp.sqrt(x * x + y * y), y / mp.sqrt(x * x + y * y))
                for x, y in (map(mp.mpf, row) for row in X.points)]
        total = mp.fsum(mp.sqrt((a - c) ** 2 + (b - e) ** 2)
                        for j, (a, b) in enumerate(unit) for c, e in unit[j + 1 :])
        want = 2 * total / (n * n)
        assert abs(got - want) <= 1.5 * math.ulp(float(want))
    unit_rows = _unit_rows(1, X.points / np.linalg.norm(X.points, axis=1)[:, None])
    walk = riesz_energy(unit_rows, -1.0) / (n * n)
    assert abs(got - walk) <= 2 * math.ulp(walk)


def test_circle_mean_distance_at_the_branch_cut():
    # atan2(-0.0, -1) = -pi but atan2(0.0, -1) = pi: (-1, -0.0) and (-1, 0.0)
    # sit at half-angles -pi/2 and pi/2, where cos rounds below 0
    def mean(rows):
        return mean_distance(PointSet(1, np.array(rows, dtype=float)))

    assert mean([[-1.0, -0.0], [-1.0, 0.0]]) == 0.0
    assert mean([[-1.0, -0.0], [-1.0, 0.0]] * 50) == 0.0
    assert mean([[-1.0, 0.0]]) == 0.0 and mean([[-1.0, -0.0]]) == 0.0
    for pair in ([[1.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [-1.0, -0.0]], [[0.0, 1.0], [0.0, -1.0]]):
        assert mean(pair) == 1.0
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        y = rng.uniform(-1e-12, 1e-12, n) * rng.choice((0.0, 1e-200, 1.0), n)
        assert mean(np.stack([-np.sqrt(1.0 - y * y), y], axis=1)) >= 0.0


@pytest.mark.parametrize("n", [100, 1000])
def test_circle_mean_distance_of_equal_points_is_zero(n):
    # equal points share one half-angle, so no prefix-sum rounding enters
    assert mean_distance(PointSet(1, np.tile([0.6, 0.8], (n, 1)))) == 0.0
