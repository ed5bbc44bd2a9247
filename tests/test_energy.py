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

import rieszcap.energy as energy_mod
from rieszcap.asymptotics import conjectured_C
from rieszcap.discrepancy import _cui_freeden_kernel, cui_freeden
from rieszcap.energy import (
    COINCIDENCE_TOL,
    ball_sphere_ratio,
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
    ValidationError,
)
from rieszcap.pointsets import PointSet, fibonacci_sphere, random_uniform, roots_of_unity

from oracles import HEX_AT_4

mp.mp.dps = 30

# mpmath, 40 digits: (sqrt3/2)^(-1/2) * 6 zeta(-1/2) L3(-1/2)
C_2_M1 = -0.22525586485046333507


def _clustered(clusters: int, per: int, spread: float, seed: int) -> PointSet:
    # points scattered around random centers: many pairs far below _NEAR_R2
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((clusters, 3))
    c /= np.linalg.norm(c, axis=1)[:, None]
    pts = (c[:, None, :] + spread * rng.standard_normal((clusters, per, 3))).reshape(-1, 3)
    return PointSet(2, pts / np.linalg.norm(pts, axis=1)[:, None])


# Riesz kernels of r at s = -1, 0, 1, 2 without long-double power calls
_LD_KERNELS = {
    -1.0: lambda r: r,
    0.0: lambda r: -np.log(r),
    1.0: lambda r: 1 / r,
    2.0: lambda r: 1 / (r * r),
}


def _long_double_energies(pts: np.ndarray) -> dict:
    # ordered-pair energies from difference-form distances in long double
    p = pts.astype(np.longdouble)
    tot = dict.fromkeys(_LD_KERNELS, np.longdouble(0))
    for j in range(len(p) - 1):
        diff = p[j] - p[j + 1 :]
        r = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        for s, kernel in _LD_KERNELS.items():
            tot[s] += np.sum(kernel(r))
    return {s: 2 * t for s, t in tot.items()}


def _long_double_gradient(pts: np.ndarray, s: float) -> np.ndarray:
    # tangential gradient of the ordered-pair energy, difference form, long double
    p = pts.astype(np.longdouble)
    g = np.empty_like(p)
    for j in range(len(p)):
        diff = p[j] - p
        r2 = np.einsum("ij,ij->i", diff, diff)
        r2[j] = 1
        if s == -1.0:
            w = 1 / np.sqrt(r2)
        elif s == 0.0:
            w = -1 / r2
        else:
            w = -s * r2 ** np.longdouble(-s / 2 - 1)
        w[j] = 0
        g[j] = 2 * np.sum(w[:, None] * diff, axis=0)
    g -= np.einsum("ij,ij->i", g, p)[:, None] * p
    return g


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
    # S^1 is the densest close-pair input (about 130 neighbours within
    # r < 0.1 per point at N = 4096), walked in many strips; the sum stays
    # within 2 ulps of 2N cot(pi/(2N))
    for n in (4096, 10_000):
        want = float(2 * n * mp.cot(mp.pi / (2 * n)))
        got = riesz_energy(roots_of_unity(n), -1.0)
        assert abs(got - want) <= 2.0 * math.ulp(want), n


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


def test_energy_matches_long_double_sum():
    # Within one rounding of the total, on a uniform set and on a clustered
    # one whose many near pairs go through the difference-form recompute.
    for X in (random_uniform(2, 2500, 6), _clustered(24, 100, 0.02, 5)):
        for s, want in _long_double_energies(X.points).items():
            got = riesz_energy(X, s)
            assert abs(float((np.longdouble(got) - want) / want)) <= 2e-16, (X.n, s)


def test_multi_block_walk_matches_one_block(monkeypatch):
    # 50 points in row strips of 7 (the last one short): each strip's square
    # and the pairs past it, against the walk of the whole matrix at once
    X = random_uniform(2, 50, 23)
    powers = (-1.0, 0.0, 1.0, 2.0)
    whole = [riesz_energy(X, s) for s in powers]
    whole_cf = cui_freeden(X).diagnostics["kernel_mean"]
    whole_g = [riesz_gradient(X, s) for s in powers]
    monkeypatch.setattr(energy_mod, "_BLOCK", 7 * X.n)
    for s, e, g in zip(powers, whole, whole_g):
        assert riesz_energy(X, s) == pytest.approx(e, rel=1e-15, abs=0.0), s
        e2, g2 = riesz_energy_and_gradient(X, s)
        assert e2 == riesz_energy(X, s)
        assert np.max(np.abs(g2 - g)) <= 1e-13 * np.max(np.abs(g)), s
    assert cui_freeden(X).diagnostics["kernel_mean"] == pytest.approx(whole_cf, rel=1e-15, abs=0.0)


def test_multi_block_coincident_and_close_pairs(monkeypatch):
    monkeypatch.setattr(energy_mod, "_BLOCK", 7 * 50)
    pts = random_uniform(2, 50, 24).points.copy()
    # a coincident pair with one point in strip 1 and the other in strip 5
    pts[35] = pts[10]
    dup = PointSet(2, pts)
    for s in (0.0, 1.0):
        with pytest.raises(CoincidentPointsError):
            riesz_energy(dup, s)
    iu = np.triu_indices(50, k=1)
    r = np.linalg.norm(pts[iu[0]] - pts[iu[1]], axis=1)
    assert riesz_energy(dup, -1.0) == pytest.approx(2.0 * math.fsum(r), rel=1e-15)
    # a pair 1e-6 apart across the boundary between strips 1 and 2
    pts = random_uniform(2, 50, 25).points.copy()
    tangent = np.cross(pts[13], [1.0, 0.0, 0.0])
    pts[14] = pts[13] + 1e-6 * tangent / np.linalg.norm(tangent)
    pts[14] /= np.linalg.norm(pts[14])
    r = np.linalg.norm(pts[iu[0]] - pts[iu[1]], axis=1)
    assert r.min() < 2e-6
    assert riesz_energy(PointSet(2, pts), 1.0) == pytest.approx(2.0 * math.fsum(1.0 / r), rel=1e-13)


def _clusters_then_spread() -> np.ndarray:
    # 3 clusters of 40 points (many pairs under _NEAR_R2), then 100
    # Fibonacci points, none of them closer than r = 0.1 to each other
    return np.vstack((_clustered(3, 40, 0.02, 7).points, fibonacci_sphere(100).points))


def _strips_with_close_pairs(pts: np.ndarray, height: int) -> list:
    # for each row strip [lo, lo + height): does it meet a pair under _NEAR_R2?
    diff = pts[:, None, :] - pts[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(r2, np.inf)
    return [bool((r2[lo : lo + height, lo:] < energy_mod._NEAR_R2).any())
            for lo in range(0, len(pts), height)]


def test_reused_strip_buffers_match_long_double(monkeypatch):
    # Eight strips of 30 rows (the last one 10) and widths 220, 190, ..., 10
    # share one buffer; the four cluster strips repair close pairs in it and
    # the four Fibonacci strips do not
    pts = _clusters_then_spread()
    monkeypatch.setattr(energy_mod, "_BLOCK", 30 * len(pts))
    assert _strips_with_close_pairs(pts, 30) == [True] * 4 + [False] * 4
    X = PointSet(2, pts)
    for s, want in _long_double_energies(pts).items():
        got = riesz_energy(X, s)
        assert abs(float((np.longdouble(got) - want) / want)) <= 2e-16, s
    for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
        want = _long_double_gradient(pts, s)
        err = float(np.max(np.abs(riesz_gradient(X, s) - want)))
        assert err <= 5e-13 * float(np.max(np.abs(want))), s


def test_coincident_pair_first_met_in_a_later_strip(monkeypatch):
    # points 185 and 200 coincide; their pair is first met in the strip from
    # row 180, after four strips have repaired close pairs in the buffer
    pts = _clusters_then_spread()
    pts[200] = pts[185]
    monkeypatch.setattr(energy_mod, "_BLOCK", 30 * len(pts))
    dup = PointSet(2, pts)
    for s in (0.0, 0.5, 1.0, 2.0):
        with pytest.raises(CoincidentPointsError):
            riesz_energy(dup, s)
    for s in (-1.0, -0.5):
        with pytest.raises(CoincidentPointsError):
            riesz_gradient(dup, s)
    assert math.isfinite(riesz_energy(dup, -1.0))


# ------------------------------------------------------------ reused walks

def _bits(total, g=None):
    return total.hex(), None if g is None else g.tobytes()


def _walk_matches_fresh(walk, X, s):
    # one call on `walk` against a call that builds its own, bit for bit
    kernel = energy_mod._riesz_kernel(s)
    grad = walk.shape[2]
    got = energy_mod._pair_sums(X.points, kernel, True, grad, walk)
    assert _bits(*got) == _bits(*energy_mod._pair_sums(X.points, kernel, True, grad)), (X.n, s)
    if grad:
        assert _bits(*riesz_energy_and_gradient(X, s, _walk=walk)) == _bits(*riesz_energy_and_gradient(X, s))
    return got


def test_walk_reused_across_point_sets_of_one_strip():
    walks = [energy_mod._Walk(64, 3, grad) for grad in (True, False)]
    first = _walk_matches_fresh(walks[0], random_uniform(2, 64, 1), -1.0)
    kept = first[1].copy()
    for X in (random_uniform(2, 64, 2), _clustered(2, 32, 0.02, 3), random_uniform(2, 64, 4)):
        for walk in walks:
            for s in (-1.0, 0.0, 0.5, 2.0):
                _walk_matches_fresh(walk, X, s)
    assert np.array_equal(first[1], kept)  # a returned gradient is not a walk buffer


def test_walk_reused_across_strips_with_and_without_close_pairs(monkeypatch):
    # eight strips of 30 rows, the last one 10: the clusters repair close
    # pairs in four of them, the Fibonacci set in none
    clusters = _clusters_then_spread()
    spread = fibonacci_sphere(len(clusters)).points
    monkeypatch.setattr(energy_mod, "_BLOCK", 30 * len(clusters))
    assert any(_strips_with_close_pairs(clusters, 30))
    assert not any(_strips_with_close_pairs(spread, 30))
    walks = [energy_mod._Walk(len(clusters), 3, grad) for grad in (True, False)]
    assert len(walks[0].strips) == 8 and walks[0].strips[-1][2] == 10
    for pts in (clusters, spread, clusters[::-1].copy(), spread):
        for walk in walks:
            for s in (-1.0, 0.0, 2.0):
                _walk_matches_fresh(walk, PointSet(2, pts), s)


def test_walk_reused_after_coincident_points_error(monkeypatch):
    # the duplicate pair is met in the strip from row 180, after earlier
    # strips have written the buffers; the next call must not see them
    pts = _clusters_then_spread()
    dup = pts.copy()
    dup[200] = dup[185]
    monkeypatch.setattr(energy_mod, "_BLOCK", 30 * len(pts))
    walks = [energy_mod._Walk(len(pts), 3, grad) for grad in (True, False)]
    for walk in walks:
        with pytest.raises(CoincidentPointsError):
            energy_mod._pair_sums(dup, energy_mod._riesz_kernel(1.0), True, walk.shape[2], walk)
        for s in (-1.0, 1.0):
            _walk_matches_fresh(walk, PointSet(2, pts), s)
    with pytest.raises(CoincidentPointsError):
        riesz_energy_and_gradient(PointSet(2, dup), -1.0, _walk=walks[0])
    _walk_matches_fresh(walks[0], PointSet(2, pts), -1.0)


def test_walk_of_another_shape_is_refused_before_use():
    walk = energy_mod._Walk(64, 3, True)
    _walk_matches_fresh(walk, random_uniform(2, 64, 5), -1.0)
    buffers = [a.copy() for a in (walk.left, walk.right, walk.aug, walk.acc)]
    kernel = energy_mod._riesz_kernel(-1.0)
    for pts, grad in ((random_uniform(2, 63, 6).points, True),
                      (random_uniform(3, 64, 6).points, True),
                      (random_uniform(2, 64, 6).points, False)):
        with pytest.raises(ValidationError):
            energy_mod._pair_sums(pts, kernel, True, grad, walk)
    with pytest.raises(ValidationError):
        riesz_energy_and_gradient(random_uniform(1, 64, 6), -1.0, _walk=walk)
    with pytest.raises(ValidationError):
        energy_mod._pair_sums(random_uniform(2, 64, 6).points, kernel, True, True,
                              energy_mod._Walk(64, 3, False))
    after = (walk.left, walk.right, walk.aug, walk.acc)
    assert all(np.array_equal(a, b) for a, b in zip(buffers, after))


@pytest.mark.parametrize("s", ["x", "-1", None, True])
def test_energy_s_must_be_a_real_number(s):
    with pytest.raises(ValidationError, match="^s must be a real number"):
        riesz_energy(random_uniform(2, 8, 1), s)


def test_energy_takes_numpy_scalar_s():
    X = random_uniform(2, 8, 1)
    assert riesz_energy(X, np.float32(-1.0)) == riesz_energy(X, np.int64(-1)) == riesz_energy(X, -1.0)


_R2 = np.array([[0.25, 1.0, 2.0], [3.5, 0.01, 4.0]])


@pytest.mark.parametrize("s", [-1.0, 0.0, 1.0, 0.5])
def test_riesz_kernel_writes_k_over_r2_and_w_into_buffer(s):
    r = np.sqrt(_R2)
    want_k = -np.log(r) if s == 0.0 else r**-s
    want_w = -1.0 / _R2 if s == 0.0 else -s * r ** (-s - 2.0)
    k, w = _R2.copy(), np.full_like(_R2, np.nan)
    energy_mod._riesz_kernel(s)(k, w)
    np.testing.assert_allclose(k, want_k, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(w, want_w, rtol=1e-15, atol=0.0)
    k_only = _R2.copy()
    energy_mod._riesz_kernel(s)(k_only, None)  # an energy-only walk
    assert np.array_equal(k_only, k)


def test_cui_freeden_kernel_writes_k_over_r2():
    k = _R2.copy()
    _cui_freeden_kernel(k, None)
    np.testing.assert_allclose(k, 2.0 * np.log1p(np.sqrt(_R2) / 2.0), rtol=1e-15, atol=0.0)


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


def test_gradient_matches_long_double_reference():
    # N <= 362 is one strip, whose square reaches the gradient accumulator by
    # the same GEMM as the columns after a strip; N=600 walks three row
    # strips.  The Gram-form distances and the cancellation in
    # sum_k W_jk (x_j - x_k) stay near 1e-13 of max|g|; s = -1/2, 1/2 and 2
    # take the general-s kernel, which forms W from r2 before K is written
    # over it
    for n in (32, 128, 362, 600):
        X = random_uniform(2, n, 26)
        for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            want = _long_double_gradient(X.points, s)
            err = float(np.max(np.abs(riesz_gradient(X, s) - want)))
            assert err <= 5e-13 * float(np.max(np.abs(want))), (n, s)


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


def test_closed_constants_correctly_rounded():
    # at integer s every Gamma argument is an integer or a half-integer, so
    # these come out as the correctly rounded closed forms
    assert continuous_energy(1, -1.0) == 4.0 / math.pi
    assert continuous_energy(2, -1.0) == 4.0 / 3.0
    assert ball_sphere_ratio(2) == 0.25


@pytest.mark.parametrize("d", range(1, 9))
def test_distance_constants_within_one_ulp(d):
    with mp.workdps(40):
        v = _mp_V(d, mp.mpf(-1))
        ratio = mp.gamma(mp.mpf(d + 1) / 2) / (d * mp.sqrt(mp.pi) * mp.gamma(mp.mpf(d) / 2))
        for got, want in ((continuous_energy(d, -1.0), v), (ball_sphere_ratio(d), ratio)):
            assert abs(mp.mpf(got) - want) <= math.ulp(got), (d, got)


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
    # continuation of the same closed form.  At d = 600 the gamma ratio
    # alone (2e-798) is below float range, the energy (3.4e4) is not.
    for d, s in [(1, 2.5), (2, 3.0), (3, 4.0), (3, 6.5), (2, -6.0), (600, -29.587)]:
        want = float(_mp_V(d, mp.mpf(s)))
        assert continuous_energy(d, s) == pytest.approx(want, rel=1e-11, abs=1e-13), (d, s)


def test_continuous_energy_gamma_ratio_limit_cases():
    # Both gamma arguments at nonpositive integers: the value is a limit
    # along the s-line; oracle = eps-shifted high-precision evaluation.
    for d, s in [(2, 6.0), (4, 8.0), (2, 8.0)]:
        want = float(_mp_V(d, mp.mpf(s) + mp.mpf(10) ** -25))
        assert continuous_energy(d, s) == pytest.approx(want, rel=1e-11, abs=1e-14), (d, s)


def _mp_V_limit(d, s):
    # both Gamma arguments at poles -p and -q: (-1)^(p-q) q!/p! in their place
    p, q = (s - d) // 2, s // 2 - d
    return (
        mp.mpf(2) ** (d - s - 1)
        * mp.gamma(mp.mpf(d + 1) / 2)
        / mp.sqrt(mp.pi)
        * (-1) ** (p - q)
        * mp.factorial(q)
        / mp.factorial(p)
    )


@pytest.mark.parametrize(
    "d,s",
    [(2, 344), (2, 346), (2, 400), (2, 700), (2, 1040), (4, 346), (4, 540), (6, 348), (6, 1032), (8, 350), (8, 394)],
)
def test_continuous_energy_double_pole_limit_beyond_factorial_range(d, s):
    # max(p, q) > 170: the limit's factorials leave float range, its value
    # does not (down to subnormals from s = 1032); within an ulp
    with mp.workdps(40):
        want = _mp_V_limit(d, s)
        got = continuous_energy(d, float(s))
        assert abs(mp.mpf(got) - want) <= math.ulp(float(want))


def test_continuous_energy_double_pole_limit_beyond_exact_range():
    # 2d + s > 2048 takes the log-gamma path: V = 3.9e-183 although 1/300!
    # alone would underflow
    with mp.workdps(40):
        want = _mp_V_limit(600, 1200)
        assert continuous_energy(600, 1200.0) == pytest.approx(float(want), rel=1e-12)


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


def test_continuous_energy_poles_exactly_documented():
    # poles: s in {d, d+2, ...}, capped at 2d-2 for even d
    for d in range(1, 9):
        for s in range(-40, 41):
            if s == 0:
                continue
            if s >= d and (s - d) % 2 == 0 and (d % 2 == 1 or s <= 2 * d - 2):
                with pytest.raises(PoleError, match=rf"V_s\(S\^{d}\) pole at s={s}\.0"):
                    continuous_energy(d, float(s))
            else:
                assert math.isfinite(continuous_energy(d, float(s))), (d, s)


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


def test_conjectured_C_values():
    assert conjectured_C(1, -1.0) == pytest.approx(-1.0 / 6.0, rel=1e-12)
    assert conjectured_C(2, -1.0) == pytest.approx(C_2_M1, rel=1e-11)
    assert conjectured_C(2, -1.0) < 0.0
    assert conjectured_C(2, 4.0) == pytest.approx(0.75 * HEX_AT_4, rel=1e-12)


def test_conjectured_C_times_circumference_is_the_measured_coefficient():
    # C_{-1,1} is in BHS notation: the residual energy_report measures on
    # roots of unity is C_{-1,1} |S^1|^(1/1) = -pi/3, not C_{-1,1} = -1/6
    resid = energy_report(roots_of_unity(4000), -1.0).residual_normalized
    assert abs(resid - conjectured_C(1, -1.0) * 2.0 * math.pi) <= 1e-7


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
