"""Cap discrepancies and related functionals on S^d.

Six report kinds:
  L2CapClosed   closed form through the distance-sum identity
  L2CapDirect   Monte-Carlo over cap centers, exact threshold integral
  CuiFreeden    generalized discrepancy with the 2 log(1 + r/2) kernel (S^2)
  SumDistance   sqrt(4/3 - mean distance) generalized discrepancy (S^2)
  CapSupLower   sampled lower bound on the sup-cap discrepancy
  LeVeque       harmonic-sum lower/upper functionals (S^2)

Monte-Carlo center draws use a single sequential stream per seed, so the
first m centers of a larger draw equal the m-center draw (nested streams:
estimates are monotone or consistent in `centers` by construction).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .energy import _BLOCK, _pair_sums, ball_sphere_ratio, continuous_energy, riesz_energy
from .errors import (
    DimensionError,
    DomainError,
    NegativeVarianceError,
    NumericalContractError,
    _require_int,
)
from .pointsets import PointSet
from .special_functions import sphere_surface_area

SQRT_CLAMP_TOL = 1e-12  # float noise vs genuine identity violation
WEYL_MAX_DEGREE = 256


@dataclass(frozen=True)
class DiscrepancyReport:
    kind: str
    value: float
    diagnostics: dict

    def to_json(self) -> dict:
        return {"kind": self.kind, "value": self.value, "diagnostics": dict(self.diagnostics)}


def _sqrt_clamped(arg: float, what: str) -> float:
    if arg < -SQRT_CLAMP_TOL:
        raise NegativeVarianceError(f"{what}: squared value {arg:.6g} < -{SQRT_CLAMP_TOL:g}")
    if arg < 0.0:
        warnings.warn(f"{what}: squared value {arg:.3g} clamped to 0", RuntimeWarning)
        return 0.0
    return math.sqrt(arg)


# ----------------------------------------------------------------------------
# cap measure

def _sigma_cap_values(d: int, t: np.ndarray) -> np.ndarray:
    # normalized measure of the cap {y : <x, y> >= t}; vector form, t clipped
    t = np.clip(t, -1.0, 1.0)
    if d == 1:
        return np.arccos(t) / math.pi
    if d == 2:
        return (1.0 - t) / 2.0
    # (omega_{d-1}/omega_d) * J_p(t), J_p = int_t^1 (1-u^2)^p du, p = d/2 - 1,
    # by the recurrence (2p+1) J_p = -t (1-t^2)^p + 2p J_{p-1} down to
    # J_0 = 1 - t or J_{-1/2} = arccos t.
    p_target = d / 2.0 - 1.0
    if d % 2 == 0:
        j = 1.0 - t
        p = 0.0
    else:
        j = np.arccos(t)
        p = -0.5
    while p < p_target - 0.25:
        p += 1.0
        j = (-t * (1.0 - t * t) ** p + 2.0 * p * j) / (2.0 * p + 1.0)
    ratio = sphere_surface_area(d - 1) / sphere_surface_area(d) if d > 1 else None
    return np.clip(ratio * j, 0.0, 1.0)


def sigma_cap(d: int, t: float) -> float:
    """Normalized surface measure of the spherical cap with threshold t."""
    d = _require_int("d", d, 1)
    t = float(t)
    if not math.isfinite(t) or abs(t) > 1.0:
        raise DomainError(f"threshold t must lie in [-1, 1], got {t}")
    return float(_sigma_cap_values(d, np.asarray([t]))[0])


# ----------------------------------------------------------------------------
# closed-form L2 cap discrepancy

def mean_distance(X: PointSet) -> float:
    """(1/N^2) sum over ordered pairs of |x_j - x_k| (diagonal contributes 0)."""
    return riesz_energy(X, -1.0) / (X.n * X.n)


def l2_cap_discrepancy(X: PointSet) -> DiscrepancyReport:
    """L2 cap discrepancy via the distance-sum identity:
    D^2 = ratio(d) * (V_{-1}(S^d) - mean distance)."""
    mean = mean_distance(X)
    v = continuous_energy(X.d, -1.0)
    ratio = ball_sphere_ratio(X.d)
    dsq = ratio * (v - mean)
    value = _sqrt_clamped(dsq, "L2CapClosed")
    return DiscrepancyReport(
        kind="L2CapClosed",
        value=value,
        diagnostics={"d_squared": dsq, "mean_distance": mean, "continuous_energy": v},
    )


# ----------------------------------------------------------------------------
# direct estimator

def sample_centers(d: int, m: int, seed) -> np.ndarray:
    """m uniform centers on S^d from one sequential stream (prefix-nested).

    The stream is the seed's root stream, drawn as pointsets.random_uniform
    draws it: sample_centers(d, m, k)[:n] equals random_uniform(d, n, k).points
    for n <= m, so centers and points must not share a seed."""
    m = _require_int("centers", m, 1)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, d + 1))
    return g / np.linalg.norm(g, axis=1)[:, None]


def _sorted_projections(X: PointSet, centers: np.ndarray, per_entry: int = 1):
    """Yield (rows, u) over blocks of centers: u[i] holds <centers[rows][i], x_j>
    clipped to [-1, 1] and sorted.  A block keeps u's N+1 threshold segments
    times `per_entry` values per segment within energy._BLOCK entries, so
    memory stays bounded for every N and number of centers.  The block height
    is a power of two so that blocks start on BLAS row-tile boundaries; with
    two or more centers per block the projections then match one whole-matrix
    product bit for bit (checked with OpenBLAS)."""
    fit = max(1, _BLOCK // ((X.n + 1) * per_entry))
    height = 1 << (fit.bit_length() - 1)
    for start in range(0, centers.shape[0], height):
        rows = slice(start, start + height)
        u = np.clip(centers[rows] @ X.points.T, -1.0, 1.0)
        u.sort(axis=1)
        yield rows, u


def _int_arccos(t):  # int arccos t dt
    return t * np.arccos(t) - np.sqrt(np.maximum(1.0 - t * t, 0.0))


def _int_arccos_sq(t):  # int arccos^2 t dt
    ac = np.arccos(t)
    rt = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    return t * ac * ac - 2.0 * rt * ac - 2.0 * t


def _direct_dsq_per_center(X: PointSet, centers: np.ndarray) -> np.ndarray:
    """Exact t-integral int_{-1}^{1} (count(x,t)/N - sigma_d(t))^2 dt per center."""
    n = X.n
    d = X.d
    # empirical cap fraction per segment: N/N, (N-1)/N, ..., 0
    q = (np.arange(n, -1, -1, dtype=np.float64) / n)[None, :]
    # general d: fixed Gauss-Legendre rule per segment (no closed primitive)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    out = np.empty(centers.shape[0])
    for rows, u in _sorted_projections(X, centers, 1 if d in (1, 2) else nodes.size):
        lo = np.concatenate([np.full((u.shape[0], 1), -1.0), u], axis=1)
        hi = np.concatenate([u, np.full((u.shape[0], 1), 1.0)], axis=1)
        if d == 2:
            # integrand (a + t/2)^2 with a = q - 1/2; antiderivative (2/3)(a + t/2)^3
            a = q - 0.5
            prim = lambda t: (2.0 / 3.0) * (a + 0.5 * t) ** 3
            seg = prim(hi) - prim(lo)
        elif d == 1:
            # int (q - arccos(t)/pi)^2 dt with exact antiderivatives
            seg = (
                q * q * (hi - lo)
                - (2.0 * q / math.pi) * (_int_arccos(hi) - _int_arccos(lo))
                + (_int_arccos_sq(hi) - _int_arccos_sq(lo)) / math.pi**2
            )
        else:
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            t = mid[..., None] + half[..., None] * nodes  # (rows, N+1, 32)
            sig = _sigma_cap_values(d, t.reshape(-1)).reshape(t.shape)
            integrand = (q[..., None] - sig) ** 2
            seg = half * np.sum(integrand * weights, axis=-1)
        out[rows] = seg.sum(axis=1)
    return out


def l2_cap_discrepancy_direct(X: PointSet, centers: int, seed) -> DiscrepancyReport:
    """Monte-Carlo over cap centers with the threshold integral done exactly
    (piecewise polynomial/arccos primitives for d in {1,2}; fixed quadrature
    elsewhere).  Reports the standard error of the center average of D^2."""
    C = sample_centers(X.d, centers, seed)
    per = _direct_dsq_per_center(X, C)
    dsq = float(per.mean())
    se = float(per.std(ddof=1) / math.sqrt(centers)) if centers > 1 else None
    value = _sqrt_clamped(max(dsq, 0.0), "L2CapDirect")
    return DiscrepancyReport(
        kind="L2CapDirect",
        value=value,
        diagnostics={
            "centers": int(centers),
            "seed": seed,
            "d_squared": dsq,
            "standard_error_d_squared": se,
        },
    )


# ----------------------------------------------------------------------------
# generalized discrepancies on S^2

def _require_s2(X: PointSet, what: str) -> None:
    if X.d != 2:
        raise DimensionError(f"{what} is defined on S^2 only, got d={X.d}")


def _cui_freeden_kernel(r2, grad):
    return 2.0 * np.log1p(0.5 * np.sqrt(r2)), None


def cui_freeden(X: PointSet) -> DiscrepancyReport:
    """Generalized discrepancy with kernel 2 log(1 + r/2):
    D^2 = (1 - mean kernel) / (4 pi); the diagonal r=0 contributes 0."""
    _require_s2(X, "CuiFreeden")
    rows, _ = _pair_sums(X.points, _cui_freeden_kernel, coincident_error=False)
    kernel_mean = math.fsum(rows) / (X.n * X.n)
    dsq = (1.0 - kernel_mean) / (4.0 * math.pi)
    value = _sqrt_clamped(dsq, "CuiFreeden")
    return DiscrepancyReport(
        kind="CuiFreeden",
        value=value,
        diagnostics={"d_squared": dsq, "kernel_mean": kernel_mean},
    )


def sum_distance_discrepancy(X: PointSet) -> DiscrepancyReport:
    """D^2 = 4/3 - mean distance on S^2 (equals 4 * L2 cap D^2)."""
    _require_s2(X, "SumDistance")
    mean = mean_distance(X)
    dsq = 4.0 / 3.0 - mean
    value = _sqrt_clamped(dsq, "SumDistance")
    return DiscrepancyReport(
        kind="SumDistance",
        value=value,
        diagnostics={"d_squared": dsq, "mean_distance": mean},
    )


# ----------------------------------------------------------------------------
# Weyl sums and LeVeque functionals

def weyl_sums(X: PointSet, L: int) -> list[float]:
    """S_l = ((2l+1)/(4 pi N^2)) sum_{j,k} P_l(<x_j, x_k>), l = 1..L.

    Addition-theorem route: no explicit spherical harmonics.  Each S_l is a
    sum of squared harmonic averages, so negatives beyond -1e-12 mean a
    broken recurrence; values in [-1e-12, 0) clamp to 0.
    """
    _require_s2(X, "weyl_sums")
    L = _require_int("L", L, 1, WEYL_MAX_DEGREE)
    n = X.n
    sums = np.zeros(L + 1)  # sums[l] = sum_{j,k} P_l(<x_j, x_k>)
    height = max(1, _BLOCK // n)
    for start in range(0, n, height):
        g = np.clip(X.points[start : start + height] @ X.points.T, -1.0, 1.0)
        p_prev, p_cur, p_next = np.ones_like(g), g.copy(), np.empty_like(g)
        for l in range(1, L + 1):
            sums[l] += p_cur.sum()
            # p_next = ((2l+1) g p_cur - l p_prev) / (l+1), without temporaries
            np.multiply(g, 2 * l + 1, out=p_next)
            p_next *= p_cur
            p_prev *= l
            p_next -= p_prev
            p_next /= l + 1
            p_prev, p_cur, p_next = p_cur, p_next, p_prev
    out = []
    for l in range(1, L + 1):
        s_l = (2 * l + 1) / (4.0 * math.pi) * float(sums[l]) / (n * n)
        if s_l < -SQRT_CLAMP_TOL:
            raise NumericalContractError(f"Weyl sum S_{l} = {s_l:.3g} below clamp")
        out.append(max(s_l, 0.0))
    return out


def leveque_functionals(X: PointSet, L: int) -> tuple[float, float]:
    """Raw harmonic functionals bracketing the sup-cap discrepancy:
    lower = (sum a_l S_l)^(1/2), a_l = Gamma(l - 1/2)/Gamma(l + d + 1/2);
    upper = (sum l^-(d+1) S_l)^(1/(d+2)).  Unknown inequality constants are
    not applied; truncation L is the caller's to report.
    """
    s = weyl_sums(X, L)
    d = X.d
    lower_sq = 0.0
    upper_sum = 0.0
    for l, s_l in enumerate(s, start=1):
        a_l = math.exp(math.lgamma(l - 0.5) - math.lgamma(l + d + 0.5))
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
    worst = 0.0
    for _, u in _sorted_projections(X, centers):
        sig = _sigma_cap_values(X.d, u)
        above = np.abs((n - j) / n - sig)        # t just above the jump
        at = np.abs((n - j + 1.0) / n - sig)     # t at the jump (point included)
        worst = max(worst, above.max(), at.max())
    return float(worst)


def cap_sup_discrepancy_lower(X: PointSet, centers: int, seed) -> DiscrepancyReport:
    """Lower bound on the sup-cap discrepancy: max deviation |count/N - sigma|
    over sampled centers, evaluated on both sides of every jump threshold.
    Monotone nondecreasing in `centers` for a fixed seed (nested stream)."""
    if X.d not in (1, 2):
        raise DimensionError(f"cap-sup estimator supports d in {{1,2}}, got d={X.d}")
    C = sample_centers(X.d, centers, seed)
    value = _cap_sup_given_centers(X, C)
    return DiscrepancyReport(
        kind="CapSupLower",
        value=value,
        diagnostics={"centers": int(centers), "seed": seed},
    )
