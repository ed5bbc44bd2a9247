"""Discrete Riesz energies, tangential gradients, and the continuous-sphere
energy constants with their analytic continuations.

Conventions fixed here once:
  * Energies run over ordered pairs j != k (each unordered pair twice).
  * s = 0 means the logarithmic kernel -log|x - y|.
  * Every pair sum walks row blocks of at most _BLOCK pair entries, so memory
    stays O(N + _BLOCK) for every N.  Squared distances come from the Gram
    form |x|^2 + |y|^2 - 2<x,y>; pairs closer than _NEAR_R2 are recomputed
    from coordinate differences, where the Gram form loses digits.
  * Reductions: each kernel row is summed by numpy's pairwise tree and the
    row totals by math.fsum (bitwise deterministic for fixed N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentPointsError,
    DomainError,
    PoleError,
    UnsupportedDimension,
    _require_int,
)
from .pointsets import PointSet
from .special_functions import (
    _require_finite,
    _sinpi,
    hex_lattice_zeta,
    riemann_zeta,
)

COINCIDENCE_TOL = 1e-14     # below float distance resolution on the unit sphere
_BLOCK = 1 << 17            # pair entries per row block: 1 MB float blocks stay in L2
_NEAR_R2 = 1e-2             # Gram-form r^2 below this is redone by differences


def _pair_sums(pts: np.ndarray, kernel, coincident_error: bool, grad: bool = False):
    """Row sums of a pair kernel over k != j, and optionally gradient rows.

    `kernel(r2, grad)` maps a block of squared distances to (K, W), where W
    (only when `grad`) is the weight in dK/dx_j = W (x_j - x_k).  The
    diagonal is fed r2 = 1 and dropped.  Returns (rows, G) with
    G_j = 2 sum_k W_jk (x_j - x_k), or None without `grad`.
    """
    n = pts.shape[0]
    sq = np.einsum("ij,ij->i", pts, pts)
    rows = np.empty(n)
    g = np.empty_like(pts) if grad else None
    height = max(1, _BLOCK // n)
    for lo in range(0, n, height):
        hi = min(lo + height, n)
        blk = pts[lo:hi]
        r2 = blk @ pts.T
        r2 *= -2.0
        r2 += sq[lo:hi, None]
        r2 += sq
        r2.reshape(-1)[lo::n + 1] = 1.0  # the block's diagonal entries (j, j)
        i, k = np.nonzero(r2 < _NEAR_R2)
        if i.size:
            diff = blk[i] - pts[k]
            near = np.einsum("ij,ij->i", diff, diff)
            r2[i, k] = near
            m = float(near.min())
            if coincident_error and m < COINCIDENCE_TOL * COINCIDENCE_TOL:
                raise CoincidentPointsError(
                    f"pair distance {math.sqrt(m):.3g} below {COINCIDENCE_TOL:g}"
                )
        kern, w = kernel(r2, grad)
        kern.reshape(-1)[lo::n + 1] = 0.0
        rows[lo:hi] = kern.sum(axis=1)
        if grad:
            w.reshape(-1)[lo::n + 1] = 0.0
            g[lo:hi] = w.sum(axis=1)[:, None] * blk - w @ pts
    if grad:
        g *= 2.0  # each unordered pair appears twice in the ordered sum
    return rows, g


def _riesz_kernel(s: float):
    # r^-s (-log r at s=0) and its gradient weight, as functions of r^2
    def kernel(r2, grad):
        if s == -1.0:
            k = np.sqrt(r2)
            return k, (1.0 / k if grad else None)
        if s == 0.0:
            k = np.log(r2)
            k *= -0.5
            return k, (-1.0 / r2 if grad else None)
        k = np.power(r2, -0.5 * s)
        return k, (-s * np.power(r2, -0.5 * s - 1.0) if grad else None)

    return kernel


def riesz_energy(X: PointSet, s: float) -> float:
    """Riesz s-energy over ordered pairs; -log kernel at s=0.

    O(N^2) time, O(N + _BLOCK) memory; deterministic reduction.  Coincident
    points raise CoincidentPointsError for s >= 0 and contribute 0 for s < 0.
    """
    s = _require_finite("s", s)
    rows, _ = _pair_sums(X.points, _riesz_kernel(s), coincident_error=s >= 0.0)
    return math.fsum(rows)


def riesz_energy_and_gradient(X: PointSet, s: float) -> tuple[float, np.ndarray]:
    """Energy and tangential gradient from one walk over the pairs.

    Coincident points raise CoincidentPointsError for s > -2, where the
    gradient of the kernel is unbounded at r = 0.
    """
    s = _require_finite("s", s)
    pts = X.points
    rows, grad = _pair_sums(pts, _riesz_kernel(s), coincident_error=s > -2.0, grad=True)
    grad -= np.einsum("ij,ij->i", grad, pts)[:, None] * pts
    return math.fsum(rows), grad


def riesz_gradient(X: PointSet, s: float) -> np.ndarray:
    """Tangential gradient of the ordered-pair energy, one row per point.

    Every row g_j satisfies <g_j, x_j> = 0 within 1e-12 relative to |g_j|
    (float dot products cannot certify tangency below eps * |g_j|).
    """
    return riesz_energy_and_gradient(X, s)[1]


# ----------------------------------------------------------------------------
# continuous energy of the sphere

def _is_pole_of_V(d: int, s: float) -> bool:
    # Gamma((d-s)/2) poles at s = d + 2k, k >= 0; for even d those with
    # s >= 2d are cancelled by Gamma(d - s/2) poles in the denominator.
    if s < d or s != math.floor(s):
        return False
    if (s - d) % 2 != 0:
        return False
    if d % 2 == 0:
        return s <= 2 * d - 2
    return True


def _log_abs_gamma(x: float) -> tuple[float, float]:
    if x > 0.0:
        return math.lgamma(x), 1.0
    # x < 0, non-integer: lgamma gives log|Gamma|; sign follows sin(pi x)
    # because Gamma(x) Gamma(1-x) = pi / sin(pi x) with Gamma(1-x) > 0.
    return math.lgamma(x), math.copysign(1.0, _sinpi(x))


def _gamma_ratio(a: float, b: float) -> float:
    # Gamma(a)/Gamma(b) continued across nonpositive arguments.  When both
    # hit nonpositive integers the limit is taken along the s-line, where
    # both arguments move at the same rate: (-1)^(p-q) q!/p!.
    a_int = a <= 0.0 and a == math.floor(a)
    b_int = b <= 0.0 and b == math.floor(b)
    if a_int and b_int:
        p, q = int(-a), int(-b)
        return (-1.0) ** (p - q) * math.factorial(q) / math.factorial(p)
    if b_int:
        return 0.0  # denominator pole only
    if a_int:
        raise PoleError(f"gamma ratio pole at numerator argument {a}")
    la, sa = _log_abs_gamma(a)
    lb, sb = _log_abs_gamma(b)
    return sa * sb * math.exp(la - lb)


def continuous_energy(d: int, s: float) -> float:
    """V_s(S^d) = 2^(d-s-1) Gamma((d+1)/2) Gamma((d-s)/2) / (sqrt pi Gamma(d-s/2)),
    continued analytically outside the poles (even d: s in {d,...,2d-2};
    odd d: s in {d, d+2, ...}).  The logarithmic case s=0 has no value here.
    """
    d = _require_int("d", d, 1)
    s = _require_finite("s", s)
    if s == 0.0:
        raise DomainError("s=0 logarithmic energy has no continuous value here")
    if _is_pole_of_V(d, s):
        raise PoleError(f"V_s(S^{d}) pole at s={s}")
    ratio = _gamma_ratio((d - s) / 2.0, d - s / 2.0)
    if ratio == 0.0:
        return 0.0
    log_lead = (
        (d - s - 1.0) * math.log(2.0)
        + math.lgamma((d + 1) / 2.0)
        - 0.5 * math.log(math.pi)
    )
    return math.copysign(1.0, ratio) * math.exp(log_lead + math.log(abs(ratio)))


def ball_sphere_ratio(d: int) -> float:
    """Volume of the unit d-ball over surface of S^d: Gamma((d+1)/2)/(d sqrt(pi) Gamma(d/2))."""
    d = _require_int("d", d, 1)
    return math.exp(
        math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0)
    ) / (d * math.sqrt(math.pi))


def boundary_leading_term(d: int, n: float) -> float:
    """Leading term ratio(d) N^2 log N of the boundary-case s=d energy.

    N is integer in practice; real N >= 2 accepted for formal checks.
    """
    d = _require_int("d", d, 1)
    if d < 2:
        raise DomainError(f"boundary leading term needs d >= 2, got {d}")
    n = _require_finite("n", float(n))
    if n < 2.0:
        raise DomainError(f"N must be >= 2, got {n}")
    return ball_sphere_ratio(d) * n * n * math.log(n)


def conjectured_C(d: int, s: float) -> float:
    """Conjectured second-order energy coefficient C_{s,d}.

    d=1: 2 zeta(s) (pole at s=1); d=2: (sqrt3/2)^(s/2) zeta_hex(s) (pole at
    s=2), continued below the abscissa.  No closed form is known elsewhere.
    """
    d = _require_int("d", d, 1)
    s = _require_finite("s", s)
    if d == 1:
        if s == 1.0:
            raise PoleError("C_{s,1} pole at s=1")
        return 2.0 * riemann_zeta(s)
    if d == 2:
        if s == 2.0:
            raise PoleError("C_{s,2} pole at s=2")
        return (math.sqrt(3.0) / 2.0) ** (s / 2.0) * hex_lattice_zeta(s)
    raise UnsupportedDimension(f"no conjectured C for d={d}")


# ----------------------------------------------------------------------------
# report

@dataclass(frozen=True)
class EnergyReport:
    s: float
    d: int
    N: int
    energy: float
    continuous_prediction: float | None
    residual_normalized: float | None

    def to_json(self) -> dict:
        out = {"s": self.s, "d": self.d, "N": self.N, "energy": self.energy}
        if self.continuous_prediction is not None:
            out["continuous_prediction"] = self.continuous_prediction
            out["residual_normalized"] = self.residual_normalized
        return out


def energy_report(X: PointSet, s: float) -> EnergyReport:
    """Energy with the continuous prediction V_s N^2 attached on the
    potential-theoretic window -2 < s < d, s != 0, and the remainder scaled
    by N^(1+s/d)."""
    s = _require_finite("s", s)
    e = riesz_energy(X, s)
    pred = None
    resid = None
    if -2.0 < s < X.d and s != 0.0:
        v = continuous_energy(X.d, s)
        pred = v * X.n * X.n
        resid = (e - pred) / X.n ** (1.0 + s / X.d)
    return EnergyReport(
        s=s, d=X.d, N=X.n, energy=e,
        continuous_prediction=pred, residual_normalized=resid,
    )
