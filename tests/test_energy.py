"""Energy sums, gradients, and the continuous-energy constants.

The continuous energy is checked against an independent quadrature oracle
(the 1-D polar integral of the kernel, evaluated by mpmath) wherever the
integral converges, and against mpmath's own gamma continuation elsewhere.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from rieszcap.energy import (
    COINCIDENCE_TOL,
    ball_sphere_ratio,
    boundary_leading_term,
    conjectured_C,
    continuous_energy,
    energy_report,
    riesz_energy,
    riesz_energy_and_gradient,
    riesz_gradient,
)
from rieszcap.errors import (
    CoincidentPointsError,
    DomainError,
    PoleError,
    UnsupportedDimension,
)
from rieszcap.pointsets import PointSet, random_uniform, roots_of_unity

mp.mp.dps = 30

# mpmath, 40 digits: (sqrt3/2)^(-1/2) * 6 zeta(-1/2) L3(-1/2)
C_2_M1 = -0.22525586485046333507
HEX_AT_4 = 7.7111457329048964175


def _exact_circle_energy(n: int) -> float:
    # ordered-pair sum of distances for the n-th roots of unity
    return 2.0 * n / math.tan(math.pi / (2.0 * n)) if n > 1 else 0.0


# ---------------------------------------------------------------- energy

def test_antipodal_pair_energy():
    X = PointSet(2, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert riesz_energy(X, -1.0) == pytest.approx(4.0, rel=1e-15)


def test_log_energy_two_points():
    assert riesz_energy(roots_of_unity(2), 0.0) == pytest.approx(-2.0 * math.log(2.0), rel=1e-15)


def test_single_point_energy_zero():
    X = PointSet(2, [[0.0, 0.0, 1.0]])
    for s in (-1.0, 0.0, 2.0):
        assert riesz_energy(X, s) == 0.0


def test_roots_of_unity_closed_form():
    for n in (1, 2, 3, 10, 100, 1000):
        got = riesz_energy(roots_of_unity(n), -1.0)
        assert got == pytest.approx(_exact_circle_energy(n), rel=1e-12, abs=1e-12), n


def test_roots_of_unity_closed_form_large_n():
    n = 10_000  # exercises the blocked row path
    got = riesz_energy(roots_of_unity(n), -1.0)
    assert got == pytest.approx(_exact_circle_energy(n), rel=1e-10)


def test_ordered_equals_twice_unordered():
    # Oracle: difference-form distances of the unordered pairs.  N=2500 has
    # enough close pairs that the Gram form alone misses 1e-13 at s > 0.
    for n, seed, powers in ((60, 4, (-1.0, 0.5, 2.0)), (2500, 6, (1.0, 2.0))):
        X = random_uniform(2, n, seed)
        pts = X.points
        iu = np.triu_indices(n, k=1)
        r = np.linalg.norm(pts[iu[0]] - pts[iu[1]], axis=1)
        for s in powers:
            unordered = math.fsum(np.power(r, -s))
            assert riesz_energy(X, s) == pytest.approx(2.0 * unordered, rel=1e-13), (n, s)
        if n == 60:
            assert riesz_energy(X, 0.0) == pytest.approx(2.0 * math.fsum(-np.log(r)), rel=1e-13)


def test_close_pair_in_large_set():
    # A legitimate pair 1e-9 apart: its 2/r term dominates the energy.
    pts = random_uniform(2, 3000, 14).points.copy()
    tangent = np.cross(pts[0], [1.0, 0.0, 0.0])
    pts[1] = pts[0] + 1e-9 * tangent / np.linalg.norm(tangent)
    pts[1] /= np.linalg.norm(pts[1])
    X = PointSet(2, pts)
    rest = PointSet(2, np.delete(pts, 1, axis=0))
    r1 = np.linalg.norm(pts[1] - rest.points, axis=1)
    assert r1.min() < 2e-9
    want = riesz_energy(rest, 1.0) + 2.0 * math.fsum(1.0 / r1)
    e = riesz_energy(X, 1.0)
    assert math.isfinite(e)
    assert e == pytest.approx(want, rel=1e-13)


def test_rotation_invariance():
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        X = random_uniform(d, 40, 17 + d)
        q, _ = np.linalg.qr(rng.standard_normal((d + 1, d + 1)))
        Y = PointSet(d, X.points @ q.T)
        for s in (-1.0, 0.0, 2.0):
            assert riesz_energy(Y, s) == pytest.approx(riesz_energy(X, s), rel=1e-10)


def test_coincident_points():
    dup = PointSet(2, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    for s in (0.0, 1.0):
        with pytest.raises(CoincidentPointsError):
            riesz_energy(dup, s)
    # s < 0: the coincident pair contributes 0^(-s) = 0, no error
    e = riesz_energy(dup, -1.0)
    assert e == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-14)
    assert COINCIDENCE_TOL == 1e-14


def test_gradient_memory_bounded():
    X = random_uniform(2, 4096, 3)
    tracemalloc.start()
    try:
        riesz_energy_and_gradient(X, -1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100e6
# -------------------------------------------------------------- gradient

def test_gradient_zero_at_symmetric_configs():
    X = PointSet(2, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    for s in (-1.0, 0.0, 2.0):
        assert np.max(np.abs(riesz_gradient(X, s))) < 1e-13
    for n in (3, 7, 12):
        g = riesz_gradient(roots_of_unity(n), -1.0)
        assert np.max(np.abs(g)) < 1e-12 * n


def test_gradient_coincident_points():
    # -2 < s < 0: the energy is legal but the kernel's slope is unbounded at r=0
    dup = PointSet(2, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    for s in (-1.0, -0.5, 0.0, 1.0):
        with pytest.raises(CoincidentPointsError):
            riesz_gradient(dup, s)
    assert np.all(np.isfinite(riesz_gradient(dup, -2.5)))


def test_gradient_tangency():
    # Tangency holds to 1e-12 relative to each row's magnitude (an absolute
    # bound is unverifiable once |g| ~ 1e5 puts the dot-product noise floor
    # at eps * |g| ~ 1e-11, as happens at s=3).
    X = random_uniform(2, 30, 12)
    for s in (-1.0, 0.0, 1.0, 3.0):
        g = riesz_gradient(X, s)
        radial = np.abs(np.einsum("ij,ij->i", g, X.points))
        scale = np.maximum(np.linalg.norm(g, axis=1), 1.0)
        assert np.max(radial / scale) < 1e-12, s


def test_gradient_directional_derivative():
    # Inline oracle: <G, V> against a central difference of E along a
    # renormalized tangential perturbation.
    rng = np.random.default_rng(21)
    X = random_uniform(2, 15, 33)
    pts = X.points
    V = rng.standard_normal(pts.shape)
    V -= np.einsum("ij,ij->i", V, pts)[:, None] * pts
    h = 1e-6
    for s in (-1.0, 0.0, 2.0):
        g = riesz_gradient(X, s)
        analytic = float(np.sum(g * V))

        def e_at(t):
            Y = pts + t * V
            Y = Y / np.linalg.norm(Y, axis=1)[:, None]
            return riesz_energy(PointSet(X.d, Y), s)

        numeric = (e_at(h) - e_at(-h)) / (2.0 * h)
        assert analytic == pytest.approx(numeric, rel=2e-7), s


def test_fused_energy_gradient_consistent():
    X = random_uniform(1, 25, 9)
    for s in (-1.0, 0.0, 3.0):
        e, g = riesz_energy_and_gradient(X, s)
        assert e == riesz_energy(X, s)
        assert np.array_equal(g, riesz_gradient(X, s))


# ------------------------------------------------------ continuous energy

def test_continuous_energy_closed_values():
    assert continuous_energy(2, -1.0) == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert continuous_energy(1, -1.0) == pytest.approx(4.0 / math.pi, rel=1e-14)
    assert continuous_energy(2, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_continuous_energy_against_quadrature():
    # Independent oracle in polar form, distance written as 2 sin(a/2) so
    # nothing cancels near a=0:
    # V_s(S^d) = int_0^pi (2 sin(a/2))^(-s) sin^(d-1)a da / int_0^pi sin^(d-1)a da,
    # convergent for s < d.
    for d, s in [(1, -1.0), (1, 0.5), (2, -2.5), (2, 0.5), (3, 1.5), (3, 2.0)]:
        w = lambda a: mp.sin(a) ** (d - 1)
        num = mp.quad(lambda a: (2 * mp.sin(a / 2)) ** mp.mpf(-s) * w(a), [0, mp.pi])
        den = mp.quad(w, [0, mp.pi])
        assert continuous_energy(d, s) == pytest.approx(float(num / den), rel=1e-11), (d, s)


def _mp_V(d, s):
    return (
        mp.mpf(2) ** (mp.mpf(d) - s - 1)
        * mp.gamma(mp.mpf(d + 1) / 2)
        * mp.gamma((mp.mpf(d) - s) / 2)
        / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(d) - s / 2))
    )


def test_continuous_energy_continuation_region():
    # Beyond the integral's convergence: compare against mpmath's own gamma
    # continuation of the same closed form.
    for d, s in [(1, 2.5), (2, 3.0), (3, 4.0), (3, 6.5), (2, -6.0)]:
        want = float(_mp_V(d, mp.mpf(s)))
        assert continuous_energy(d, s) == pytest.approx(want, rel=1e-11, abs=1e-13), (d, s)


def test_continuous_energy_gamma_ratio_limit_cases():
    # Both gamma arguments at nonpositive integers: the value is a limit
    # along the s-line; oracle = eps-shifted high-precision evaluation.
    for d, s in [(2, 6.0), (4, 8.0), (2, 8.0)]:
        want = float(_mp_V(d, mp.mpf(s) + mp.mpf(10) ** -25))
        assert continuous_energy(d, s) == pytest.approx(want, rel=1e-11, abs=1e-14), (d, s)


def test_continuous_energy_denominator_pole_gives_zero():
    # d=1, s=2: Gamma(d - s/2) = Gamma(0) pole in the denominator only.
    assert continuous_energy(1, 2.0) == 0.0


def test_continuous_energy_double_pole_limit():
    # d=1, s=3 and d=3, s=7: numerator gamma pole with regular denominator.
    with pytest.raises(PoleError):
        continuous_energy(1, 3.0)
    with pytest.raises(PoleError):
        continuous_energy(3, 7.0)


def test_continuous_energy_pole_list():
    for d, s in [(2, 2.0), (1, 1.0), (1, 5.0), (3, 3.0), (3, 5.0), (4, 4.0), (4, 6.0)]:
        with pytest.raises(PoleError):
            continuous_energy(d, s)
    # even d: poles stop at 2d-2
    assert math.isfinite(continuous_energy(2, 4.0))
    assert math.isfinite(continuous_energy(4, 8.0))
    with pytest.raises(DomainError):
        continuous_energy(2, 0.0)


# --------------------------------------------------------------- constants

def test_ball_sphere_ratio_values():
    assert ball_sphere_ratio(2) == pytest.approx(0.25, rel=1e-14)
    assert ball_sphere_ratio(1) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert ball_sphere_ratio(3) == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-14)


def test_ball_sphere_ratio_large_d():
    d = 200
    assert ball_sphere_ratio(d) * math.sqrt(d) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), rel=0.01
    )


def test_boundary_leading_term():
    e = math.e
    assert boundary_leading_term(2, e) == pytest.approx(0.25 * e * e, rel=1e-14)
    assert boundary_leading_term(2, 100) == pytest.approx(2500.0 * math.log(100.0), rel=1e-14)
    assert boundary_leading_term(3, 100) == pytest.approx(
        2.0 / (3.0 * math.pi) * 1e4 * math.log(100.0), rel=1e-13
    )
    with pytest.raises(DomainError):
        boundary_leading_term(1, 10)
    with pytest.raises(DomainError):
        boundary_leading_term(2, 1)


def test_conjectured_C_values():
    assert conjectured_C(1, -1.0) == pytest.approx(-1.0 / 6.0, rel=1e-12)
    assert conjectured_C(2, -1.0) == pytest.approx(C_2_M1, rel=1e-11)
    assert conjectured_C(2, -1.0) < 0.0
    assert conjectured_C(2, 4.0) == pytest.approx(0.75 * HEX_AT_4, rel=1e-12)


def test_conjectured_C_guards():
    with pytest.raises(PoleError):
        conjectured_C(1, 1.0)
    with pytest.raises(PoleError):
        conjectured_C(2, 2.0)
    with pytest.raises(UnsupportedDimension):
        conjectured_C(3, -1.0)


# ----------------------------------------------------------------- report

def test_report_attachment_window():
    X = random_uniform(2, 10, 5)
    r = energy_report(X, -1.0)
    assert r.continuous_prediction is not None
    assert r.residual_normalized is not None
    for s in (3.0, -2.5):  # outside -2 < s < d
        r2 = energy_report(X, s)
        assert r2.continuous_prediction is None
        assert r2.residual_normalized is None
    X1 = random_uniform(1, 10, 5)
    assert energy_report(X1, 0.5).continuous_prediction is not None  # inside -2 < s < 1
    assert energy_report(X1, 1.5).continuous_prediction is None  # above d=1


def test_report_single_point():
    X = PointSet(2, [[1.0, 0.0, 0.0]])
    r = energy_report(X, -1.0)
    assert r.energy == 0.0
    assert r.residual_normalized == pytest.approx(-r.continuous_prediction, rel=1e-15)
    assert r.continuous_prediction == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_report_residual_limit_on_circle():
    # residual of roots of unity at s=-1 tends to the constant -pi/3
    r200 = energy_report(roots_of_unity(200), -1.0).residual_normalized
    r1000 = energy_report(roots_of_unity(1000), -1.0).residual_normalized
    assert r200 == pytest.approx(-math.pi / 3.0, abs=1e-3)
    assert abs(r1000 + math.pi / 3.0) < abs(r200 + math.pi / 3.0)


def test_report_random_sphere_residual_negative():
    # uniform points lose a full N^(1/2) against the optimal distance sum
    for seed in (1, 2):
        r = energy_report(random_uniform(2, 500, seed), -1.0)
        assert r.residual_normalized < -10.0


def test_report_json_fields():
    X = random_uniform(2, 5, 1)
    j = energy_report(X, -1.0).to_json()
    assert set(j) == {"s", "d", "N", "energy", "continuous_prediction", "residual_normalized"}
    j2 = energy_report(X, 3.0).to_json()
    assert set(j2) == {"s", "d", "N", "energy"}
