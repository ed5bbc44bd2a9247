"""Cap discrepancies and related functionals on S^d.

Six report kinds:
  L2CapClosed   closed form through the distance-sum identity, O(N log N)
                on S^1 (sorted half-angles), O(N^2) above it
  L2CapDirect   Monte-Carlo over cap centers, exact threshold integral for
                every d (one sort per center, absolute floor DIRECT_DSQ_FLOOR
                per center)
  CuiFreeden    generalized discrepancy with the 2 log(1 + r/2) kernel (S^2)
  SumDistance   sqrt(4/3 - mean distance) generalized discrepancy (S^2)
  CapSupLower   sampled lower bound on the sup-cap discrepancy, every d
  LeVeque       harmonic-sum lower/upper functionals (S^2)

Monte-Carlo center draws use a single sequential stream per seed, so the
first m centers of a larger draw equal the m-center draw (nested streams:
estimates are monotone or consistent in `centers` by construction).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .energy import _BLOCK, _pair_sums, ball_sphere_ratio, continuous_energy, riesz_energy
from .errors import (
    DimensionError,
    DomainError,
    NegativeVarianceError,
    _require_int,
)
from .pointsets import PointSet, _unit_rows, random_uniform
from .special_functions import _half_gamma_quotient, _require_finite

SQRT_CLAMP_TOL = 1e-12  # float noise vs genuine identity violation
DIRECT_DSQ_FLOOR = 1e-15  # absolute error of one center's D^2 in the direct
                          # estimator: O(1) terms cancel down to it
WEYL_MAX_DEGREE = 256


@dataclass(frozen=True)
class DiscrepancyReport:
    kind: str
    value: float
    diagnostics: dict

    def to_json(self) -> dict:
        return asdict(self)


def _sqrt_clamped(arg: float, what: str) -> float:
    if arg < -SQRT_CLAMP_TOL:
        raise NegativeVarianceError(f"{what}: squared value {arg:.6g} < -{SQRT_CLAMP_TOL:g}")
    if arg < 0.0:
        warnings.warn(f"{what}: squared value {arg:.3g} clamped to 0", RuntimeWarning)
        return 0.0
    return math.sqrt(arg)


def _d2_report(kind: str, diagnostics: dict) -> DiscrepancyReport:
    """The report of a D^2 estimator: its value is sqrt(diagnostics["d_squared"])."""
    return DiscrepancyReport(kind, _sqrt_clamped(diagnostics["d_squared"], kind), diagnostics)


# ----------------------------------------------------------------------------
# cap measure

def _sigma_cap_values(d: int, t: np.ndarray, out=None, work=None) -> np.ndarray:
    # normalized measure of the cap {y : <x, y> >= t} for t in [-1, 1], into
    # `out` (fresh when None): c_d J_p(t), c_d = d ball_sphere_ratio(d) =
    # omega_{d-1}/omega_d, with J_p = int_t^1 (1-u^2)^p du, p = d/2 - 1, by the
    # recurrence (2p+1) J_p = -t (1-t^2)^p + 2p J_{p-1} up from J_0 = 1 - t or
    # J_{-1/2} = arccos t, in place with the scratch array `work` of t's shape
    # (fresh when None; d >= 3 only)
    p_target = d / 2.0 - 1.0
    if d % 2 == 0:
        j = np.subtract(1.0, t, out=out)
        p = 0.0
    else:
        j = np.arccos(t, out=out)
        p = -0.5
    w = np.empty_like(j) if d > 2 and work is None else work
    while p < p_target - 0.25:
        p += 1.0
        np.multiply(t, t, out=w)
        np.subtract(1.0, w, out=w)
        w **= p
        w *= t
        j *= 2.0 * p
        j -= w
        j /= 2.0 * p + 1.0
    j *= d * ball_sphere_ratio(d)
    return np.clip(j, 0.0, 1.0, out=j)


def sigma_cap(d: int, t: float) -> float:
    """Normalized surface measure of the spherical cap with threshold t."""
    d = _require_int("d", d, 1)
    t = _require_finite("t", t)
    if abs(t) > 1.0:
        raise DomainError(f"threshold t must lie in [-1, 1], got {t}")
    return float(_sigma_cap_values(d, np.asarray([t]))[0])


# ----------------------------------------------------------------------------
# closed-form L2 cap discrepancy

def _unit_points(X: PointSet) -> np.ndarray:
    # ingested sets may sit up to INGEST_NORM_TOL off the sphere, which moves
    # a pair sum far more than its rounding; estimators see the unit points
    return X.points / np.linalg.norm(X.points, axis=1)[:, None]


def _circle_distance_sum(points: np.ndarray) -> np.longdouble:
    """Sum over ordered pairs of |x_j - x_k| on S^1, O(N log N), in long
    double (a double sum loses about 100x).  Over the distinct half-angles
    phi = atan2(y, x)/2 ascending, each held m times, a pair phi_j < phi_k
    has chord 2 sin(phi_k - phi_j), so the sum is 4 sum_k m_k (sin phi_k C_k
    - cos phi_k S_k), C and S the exclusive prefix sums of m cos phi and
    m sin phi: equal points add exactly 0, and the norm is ignored.  cos phi
    rounds to -2.5e-20 at +-pi/2, where (-1, -0.0) and (-1, 0.0) sit, and is
    clamped at 0 so that no chord goes negative."""
    p = points.astype(np.longdouble)
    phi, m = np.unique(np.arctan2(p[:, 1], p[:, 0]) / 2, return_counts=True)
    mc, ms = m * np.maximum(np.cos(phi), 0), m * np.sin(phi)
    return 4 * (ms[1:] @ np.cumsum(mc)[:-1] - mc[1:] @ np.cumsum(ms)[:-1])


def mean_distance(X: PointSet) -> float:
    """(1/N^2) sum over ordered pairs of |x_j - x_k| (diagonal contributes 0),
    over the points scaled to unit norm: on S^1 from sorted angles, within
    1.5 ulp of exact up to N = 2^16, above it by the O(N^2) pair walk."""
    if X.d == 1:
        return float(_circle_distance_sum(X.points) / (X.n * X.n))
    return riesz_energy(_unit_rows(X.d, _unit_points(X)), -1.0) / (X.n * X.n)


def l2_cap_discrepancy(X: PointSet) -> DiscrepancyReport:
    """L2 cap discrepancy via the distance-sum identity:
    D^2 = ratio(d) * (V_{-1}(S^d) - mean distance)."""
    mean = mean_distance(X)
    v = continuous_energy(X.d, -1.0)
    dsq = ball_sphere_ratio(X.d) * (v - mean)
    return _d2_report("L2CapClosed", {"d_squared": dsq, "mean_distance": mean, "continuous_energy": v})


# ----------------------------------------------------------------------------
# direct estimator

def sample_centers(d: int, m: int, seed) -> np.ndarray:
    """m uniform centers on S^d from one sequential stream (prefix-nested).

    These are pointsets.random_uniform's points, from the seed's root stream:
    sample_centers(d, m, k)[:n] equals random_uniform(d, n, k).points for
    n <= m, so centers and points must not share a seed."""
    m = _require_int("centers", m, 1)
    return random_uniform(d, m, seed).points


def _sorted_projections(X: PointSet, centers: np.ndarray):
    """Yield (rows, u, a, b) over blocks of centers: u[i] holds
    <centers[rows][i], x_j> clipped to [-1, 1] and sorted, and a, b are work
    arrays of u's shape.  All three are views of buffers allocated once per
    call that every block overwrites (a short last block sees their first
    rows), so a consumer is done with them when it asks for the next block.
    A block keeps u's N+1 threshold segments within energy._BLOCK entries,
    so memory stays bounded for every N and number of centers.  The block
    height is a power of two so that blocks start on BLAS row-tile
    boundaries; with two or more centers per block the projections then
    match one whole-matrix product bit for bit (checked with OpenBLAS).  The
    x_j are the points scaled to unit norm."""
    fit = max(1, _BLOCK // (X.n + 1))
    height = 1 << (fit.bit_length() - 1)
    pts_t = _unit_points(X).T
    m = centers.shape[0]
    # three arrays, not one of three blocks: glibc's mmap threshold follows
    # the largest freed block, and a larger one keeps more heap resident
    bufs = [np.empty((min(height, m), X.n)) for _ in range(3)]
    for start in range(0, m, height):
        rows = slice(start, start + height)
        u, a, b = (buf[: min(height, m - start)] for buf in bufs)
        np.matmul(centers[rows], pts_t, out=u)
        np.clip(u, -1.0, 1.0, out=u)
        u.sort(axis=1)
        yield rows, u, a, b


def _sigma_sq_integral(d: int) -> float:
    """int_{-1}^{1} sigma_d(t)^2 dt = 1 - (2 c_d^2/d) sqrt(pi) Gamma(d)/Gamma(d + 1/2)."""
    c = d * ball_sphere_ratio(d)
    return 1.0 - (2.0 * c * c / d) * _half_gamma_quotient(1, 1, 1, (2 * d,), (2 * d + 1,))


def _direct_dsq_per_center(X: PointSet, centers: np.ndarray) -> np.ndarray:
    """Exact t-integral int_{-1}^{1} (F(t) - sigma_d(t))^2 dt per center x,
    with u_j = <x, x_j> and F(t) = #{j : u_j >= t}/N, in one closed form for
    every d.  Expanding the square, with c_d = d * ball_sphere_ratio(d):

      int F^2         = 1 + N^-2 sum_{j,k} min(u_j, u_k)
                      = 1 + N^-2 sum_i (2(N - i) + 1) u_(i),  u ascending, i = 1..N
      int F sigma_d   = N^-1 sum_j S_d(u_j),  S_d(t) = int_{-1}^t sigma_d
                      = 1 + t sigma_d(t) - (c_d/d) (1 - t^2)^(d/2)
      int sigma_d^2   = 1 - (2 c_d^2/d) sqrt(pi) Gamma(d)/Gamma(d + 1/2)

    One sort and one matrix-vector product per block of centers.  The O(1)
    terms cancel down to D^2, so the result carries an absolute floor of
    DIRECT_DSQ_FLOOR per center (a few ulps of 1), not one relative to D^2."""
    n, d = X.n, X.d
    c = d * ball_sphere_ratio(d)
    # N^-2 sum_{j,k} min(u_j, u_k) = u @ w; the ones of the three terms fold
    # into the constant 1 - 2 + int sigma_d^2
    w = np.arange(2 * n - 1, 0, -2, dtype=np.float64) / (n * n)
    constant = _sigma_sq_integral(d) - 1.0
    out = np.empty(centers.shape[0])
    for rows, u, s, r in _sorted_projections(X, centers):
        # S_d(u) - 1 = u sigma_d(u) - (c_d/d) (1 - u^2)^(d/2), in place
        _sigma_cap_values(d, u, out=s, work=r)
        s *= u
        np.multiply(u, u, out=r)
        np.subtract(1.0, r, out=r)
        r **= 0.5 * d
        r *= c / d
        s -= r
        out[rows] = u @ w - (2.0 / n) * s.sum(axis=1) + constant
    return out


def l2_cap_discrepancy_direct(X: PointSet, centers: int, seed) -> DiscrepancyReport:
    """Monte-Carlo over cap centers with the threshold integral done exactly
    for every d (one sort per center).  Reports the standard error of the
    center average of D^2 and, as `d_squared_floor`, the absolute error
    DIRECT_DSQ_FLOOR that each center's D^2 and so their mean can carry
    (see _direct_dsq_per_center)."""
    C = sample_centers(X.d, centers, seed)
    per = _direct_dsq_per_center(X, C)
    se = float(per.std(ddof=1) / math.sqrt(centers)) if centers > 1 else None
    return _d2_report("L2CapDirect", {
        "centers": int(centers),
        "seed": seed,
        "d_squared": float(per.mean()),
        "standard_error_d_squared": se,
        "d_squared_floor": DIRECT_DSQ_FLOOR,
    })


# ----------------------------------------------------------------------------
# generalized discrepancies on S^2

def _require_s2(X: PointSet, kind: str) -> None:
    if X.d != 2:
        raise DimensionError(f"{kind} is defined on S^2 only, got d={X.d}")


def _cui_freeden_kernel(r2, w):
    # 2 log(1 + r/2) written over the r2 strip; energy-only, so w is None
    np.sqrt(r2, out=r2)
    r2 *= 0.5
    np.log1p(r2, out=r2)
    r2 *= 2.0


def cui_freeden(X: PointSet) -> DiscrepancyReport:
    """Generalized discrepancy with kernel 2 log(1 + r/2):
    D^2 = (1 - mean kernel) / (4 pi); the diagonal r=0 contributes 0.  The
    points are scaled to unit norm first."""
    _require_s2(X, "cui-freeden")
    total, _ = _pair_sums(_unit_points(X), _cui_freeden_kernel, coincident_error=False)
    kernel_mean = total / (X.n * X.n)
    dsq = (1.0 - kernel_mean) / (4.0 * math.pi)
    return _d2_report("CuiFreeden", {"d_squared": dsq, "kernel_mean": kernel_mean})


def sum_distance_discrepancy(X: PointSet) -> DiscrepancyReport:
    """D^2 = 4/3 - mean distance on S^2 (equals 4 * L2 cap D^2)."""
    _require_s2(X, "sum-distance")
    mean = mean_distance(X)
    return _d2_report("SumDistance", {"d_squared": 4.0 / 3.0 - mean, "mean_distance": mean})


# ----------------------------------------------------------------------------
# Weyl sums and LeVeque functionals

def _harmonic_tables(L: int) -> tuple[np.ndarray, np.ndarray]:
    """(c, s2) for the normalized associated Legendre functions without their
    sin^m factor, Qbar_lm = s_lm q_lm with q_lm monic in t:

      q_mm = 1,  q_lm = t q_{l-1,m} - c_lm q_{l-2,m},  c_lm = ((l-1)^2 - m^2)/(4(l-1)^2 - 1)
      s_mm^2 = ((2m+1)/(4 pi)) prod_{k<=m} (2k-1)/(2k),  s_lm^2 = s_{l-1,m}^2 (4l^2-1)/(l^2-m^2)

    c_{m+1,m} = 0, so q_{m+1,m} = t needs no case of its own.  Row l, column
    m; s2 is zero above the diagonal."""
    l = np.arange(L + 1.0)[:, None]
    m = np.arange(L + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = ((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0)
        step = np.where(l > m, (4.0 * l * l - 1.0) / (l * l - m * m), 1.0)
    k = m[1:]
    diag = np.concatenate(([1.0], np.cumprod((2.0 * k - 1.0) / (2.0 * k))))
    np.fill_diagonal(step, (2.0 * m + 1.0) / (4.0 * math.pi) * diag)
    return c, np.tril(np.cumprod(step, axis=0))


def weyl_sums(X: PointSet, L: int) -> list[float]:
    """S_l = ((2l+1)/(4 pi N^2)) sum_{j,k} P_l(<x_j, x_k>), l = 1..L, through
    spherical harmonics in O(N L^2) time.  With t = z and zeta = x + iy,

      S_l = N^-2 [ (2l+1)/(4 pi) (sum_j P_l(t_j))^2 + 2 sum_{m=1..l} |sum_j Qbar_lm(t_j) zeta_j^m|^2 ].

    The zonal term runs the unnormalized Legendre recurrence, exact at
    t in {0, +-1}; zeta^m carries the sin^m factor of the other terms (see
    _harmonic_tables).  Points are scaled to unit norm first and walked in
    strips whose (L+1)-row arrays stay within _BLOCK entries; the complex
    sums accumulate across strips and are squared at the end, so every S_l
    is a sum of squares, >= 0, and sets symmetric about the axes cancel
    exactly (the octahedron's S_1..S_3 and the odd S_l of the two poles are
    0.0).

    Precision: within 3e-16 (2l+1)/(4 pi) absolute of the S_l of the
    unit-projected points (40-digit mpmath at L = 20, an 80-bit sum at
    L = 256).  The O(N^2 L) addition-theorem sum over pairs, the test
    oracle in tests/oracles.py, differs by at most 1e-13 (2l+1)/(4 pi)
    (2.5e-14 at N = 100, L = 256), nearly all of it that route's own error.
    """
    _require_s2(X, "weyl")
    L = _require_int("degree", L, 1, WEYL_MAX_DEGREE)  # named as the CLI's --degree
    n = X.n
    pts = _unit_points(X)
    c, s2 = _harmonic_tables(L)
    zonal = np.zeros(L + 1)  # zonal[l] = sum_j P_l(t_j)
    re = np.zeros((L + 1, L + 1))  # [l, m]: sum_j q_lm(t_j) zeta_j^m
    im = np.zeros((L + 1, L + 1))
    width = max(1, _BLOCK // (L + 1))
    for start in range(0, n, width):
        _add_strip_sums(pts[start : start + width], c, zonal, re, im)
    harmonic = (s2 * (re * re + im * im)).sum(axis=1)
    return [
        float(((2 * l + 1) / (4.0 * math.pi) * zonal[l] ** 2 + 2.0 * harmonic[l]) / (n * n))
        for l in range(1, L + 1)
    ]


def _add_strip_sums(strip: np.ndarray, c: np.ndarray, zonal, re, im) -> None:
    """Add one strip's sum_j P_l(t_j) to zonal[l] and its sum_j q_lm(t_j)
    zeta_j^m to re[l, m] + i im[l, m], for l = 1..L and m = 1..l."""
    L = c.shape[0] - 1
    w = strip.shape[0]
    x, y, t = strip.T
    z_re, z_im = np.empty((L + 1, w)), np.empty((L + 1, w))  # zeta^m
    z_re[0], z_im[0] = 1.0, 0.0
    for m in range(1, L + 1):
        z_re[m] = z_re[m - 1] * x - z_im[m - 1] * y
        z_im[m] = z_re[m - 1] * y + z_im[m - 1] * x
    p_prev, p_cur, p_next = np.ones(w), t.copy(), np.empty(w)
    q_prev, q_cur, q_next = np.zeros((3, L + 1, w))
    for l in range(1, L + 1):
        zonal[l] += p_cur.sum()
        # p_next = ((2l+1) t p_cur - l p_prev) / (l+1), without temporaries
        np.multiply(t, 2 * l + 1, out=p_next)
        p_next *= p_cur
        p_prev *= l
        p_next -= p_prev
        p_next /= l + 1
        p_prev, p_cur, p_next = p_cur, p_next, p_prev
        # rows m = 1..l-1 by the monic recurrence, row l is q_ll = 1
        rows = slice(1, l)
        np.multiply(q_cur[rows], t, out=q_next[rows])
        q_prev[rows] *= c[l, rows, None]
        q_next[rows] -= q_prev[rows]
        q_next[l] = 1.0
        rows = slice(1, l + 1)
        re[l, rows] += np.einsum("mj,mj->m", q_next[rows], z_re[rows])
        im[l, rows] += np.einsum("mj,mj->m", q_next[rows], z_im[rows])
        q_prev, q_cur, q_next = q_cur, q_next, q_prev


def leveque_functionals(X: PointSet, L: int) -> tuple[float, float]:
    """Raw harmonic functionals bracketing the sup-cap discrepancy:
    lower = (sum a_l S_l)^(1/2), a_l = Gamma(l - 1/2)/Gamma(l + d + 1/2);
    upper = (sum l^-(d+1) S_l)^(1/(d+2)).  Unknown inequality constants are
    not applied; truncation L is the caller's to report.
    """
    _require_s2(X, "leveque")
    s = weyl_sums(X, L)
    d = X.d
    lower_sq = 0.0
    upper_sum = 0.0
    for l, s_l in enumerate(s, start=1):
        a_l = _half_gamma_quotient(1, 1, 0, (2 * l - 1,), (2 * l + 2 * d + 1,))
        lower_sq += a_l * s_l
        upper_sum += float(l) ** (-(d + 1)) * s_l
    return math.sqrt(lower_sq), upper_sum ** (1.0 / (d + 2))


def leveque_report(X: PointSet, L: int) -> DiscrepancyReport:
    lower, upper = leveque_functionals(X, L)
    return DiscrepancyReport(
        kind="LeVeque",
        value=lower,
        diagnostics={"lower_functional": lower, "upper_functional": upper, "degree": int(L)},
    )


# ----------------------------------------------------------------------------
# sup-cap lower bound

def _cap_sup_given_centers(X: PointSet, centers: np.ndarray) -> float:
    n = X.n
    j = np.arange(1, n + 1, dtype=np.float64)
    above = (n - j) / n        # F for t just above the jump
    at = (n - j + 1.0) / n     # F for t at the jump (point included)
    worst = 0.0
    for _, u, sig, dev in _sorted_projections(X, centers):
        _sigma_cap_values(X.d, u, out=sig, work=dev)
        worst_above = np.abs(np.subtract(above, sig, out=dev), out=dev).max()
        worst = max(worst, worst_above, np.abs(np.subtract(at, sig, out=dev), out=dev).max())
    return float(worst)


def cap_sup_discrepancy_lower(X: PointSet, centers: int, seed) -> DiscrepancyReport:
    """Lower bound on the sup-cap discrepancy: max deviation |count/N - sigma|
    over sampled centers, evaluated on both sides of every jump threshold.
    Monotone nondecreasing in `centers` for a fixed seed (nested stream);
    sigma_d is exact for every d."""
    C = sample_centers(X.d, centers, seed)
    value = _cap_sup_given_centers(X, C)
    return DiscrepancyReport(
        kind="CapSupLower",
        value=value,
        diagnostics={"centers": int(centers), "seed": seed},
    )
