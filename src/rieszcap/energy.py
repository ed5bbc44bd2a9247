"""Discrete Riesz energies, tangential gradients, and the continuous-sphere
energy constants with their analytic continuations.

Conventions fixed here once:
  * Energies run over ordered pairs j != k (each unordered pair twice).
  * s = 0 means the logarithmic kernel -log|x - y|.
  * Every pair sum walks row strips of at most _BLOCK pair entries, so
    memory stays O(N + _BLOCK) for every N.  Each unordered pair is walked
    once (the kernels are symmetric): a strip meets only its own square and
    the columns after it.  A walk (`_Walk`) holds one strip buffer (two with
    gradients); each strip writes its squared distances there by one GEMM
    of the rows [x, |x|^2, 1] against the columns [-2y, 1, |y|^2], gathers
    the pairs under _NEAR_R2 with `take` to redo them from coordinate
    differences, and lets the kernel overwrite the strip in place.  A call
    builds its walk, or reuses one of its shape across calls: the optimizer
    keeps one per restart, with its buffers, constant columns and strip views.
  * Gradients: every weight of a strip, its own square's and the columns
    after it, reaches one accumulator 2 sum_k W_jk (x_k, 1) through a GEMM
    against the rows [2x, 2], for every N.
  * Reductions: each strip row is summed by numpy's pairwise tree, and all
    row sums go into one math.fsum, which rounds their exact sum once and so
    depends neither on their order nor on the strip layout.  Results are
    bitwise deterministic for fixed N and BLAS; for N^2 <= _BLOCK one strip
    holds the whole matrix.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    CoincidentPointsError,
    DomainError,
    PoleError,
    ValidationError,
    _require_int,
)
from .pointsets import PointSet
from .special_functions import (
    _HALF_GAMMA_MAX,
    _half_gamma_quotient,
    _log_abs_gamma,
    _log_gamma_ratio,
    _require_finite,
)

COINCIDENCE_TOL = 1e-14     # below float distance resolution on the unit sphere
_BLOCK = 1 << 17            # pair entries per row strip: one 1 MB buffer per walk,
                            # two (r^2 -> K, W) for gradients, reused by every strip
_NEAR_R2 = 1e-2             # GEMM r^2 below this is redone by differences


class _Walk:
    """A pair walk's buffers and strip views for n points of R^m, with their
    constant columns filled: `_pair_sums` calls of that shape and `grad`
    reuse them.  One caller at a time; the optimizer keeps one per restart."""

    def __init__(self, n: int, m: int, grad: bool):
        self.shape = (n, m, grad)
        self.left = np.empty((n, m + 2))  # [x, |x|^2, 1]: left[lo:hi] @ right[:, lo:] is r^2
        self.left[:, m + 1] = 1.0
        self.right = np.empty((m + 2, n))  # [-2y, 1, |y|^2], transposed and contiguous
        self.right[m] = 1.0
        height = max(1, _BLOCK // n)
        buf = np.empty(min(height, n) * n)  # each strip's r^2, then K
        wbuf = np.empty(buf.size) if grad else None  # each strip's W
        if grad:
            # acc_j = 2 sum_k W_jk (x_k, 1).  Its own [2x, 2] rather than `left`:
            # against five columns OpenBLAS rounded the x sums up to 6x worse
            self.aug = np.empty((n, m + 1))
            self.aug[:, m] = 2.0
            self.acc = np.empty((n, m + 1))
        self.strips = []  # lo, hi, h, flat strip, its r^2, flat W, its W, the square's diagonal
        for lo in range(0, n, height):
            hi = min(lo + height, n)
            strip = buf[: (hi - lo) * (n - lo)]
            wflat = wbuf[: strip.size] if grad else None
            self.strips.append((lo, hi, hi - lo, strip, strip.reshape(hi - lo, n - lo), wflat,
                                wflat.reshape(hi - lo, n - lo) if grad else None,
                                slice(None, None, n - lo + 1)))


def _pair_sums(pts: np.ndarray, kernel, coincident_error: bool, grad: bool = False, walk=None):
    """Sum of a symmetric kernel over the pairs j != k and, with `grad`, the gradient rows G.

    `kernel(r2, w)` writes K over a strip's squared distances r2 and,
    unless w is None (without `grad`), the weight W of dK/dx_j =
    W (x_j - x_k) into w; both are views of buffers that every strip reuses.
    Row strip [lo, hi) meets only the columns lo..n-1: its own square keeps
    both orders of each pair, with the diagonal fed r2 = 1 and dropped, and
    the columns from hi on are the pairs k > j, which count twice in the
    sum and send their gradient weights to both endpoints.  `walk` (a `_Walk`
    of this shape and `grad`) is reused, or built for the call when None.
    Returns (total, G) with G_j = 2 sum_k W_jk (x_j - x_k), or None without `grad`.
    """
    n, m = pts.shape
    walk = _Walk(n, m, grad) if walk is None else walk
    if walk.shape != (n, m, grad):
        raise ValidationError(f"walk built for (n, m, grad) = {walk.shape}, called with {(n, m, grad)}")
    left, right = walk.left, walk.right
    np.einsum("ij,ij->i", pts, pts, out=right[m + 1])
    left[:, :m] = pts
    left[:, m] = right[m + 1]
    np.multiply(pts.T, -2.0, out=right[:m])
    if grad:
        aug, acc = walk.aug, walk.acc
        np.multiply(pts, 2.0, out=aug[:, :m])
        acc.fill(0.0)
    sums = []  # each strip's square row sums and 2x its row sums over k >= hi
    for lo, hi, h, strip, r2, wflat, w, diag in walk.strips:
        np.matmul(left[lo:hi], right[:, lo:], out=r2)
        strip[diag] = 1.0
        if r2.min() < _NEAR_R2:
            flat = np.flatnonzero(strip < _NEAR_R2)
            i, k = np.divmod(flat, n - lo)
            diff = pts[lo:].take(i, axis=0)  # strip entry (i, k) is pair (lo+i, lo+k)
            diff -= pts[lo:].take(k, axis=0)
            near = np.einsum("ij,ij->i", diff, diff)
            strip[flat] = near
            if coincident_error and near.min() < COINCIDENCE_TOL * COINCIDENCE_TOL:
                r = math.sqrt(near.min())
                raise CoincidentPointsError(f"pair distance {r:.3g} below {COINCIDENCE_TOL:g}")
        kernel(r2, w)
        strip[diag] = 0.0
        sums += r2[:, :h].sum(axis=1).tolist()
        if hi < n:
            sums += (2.0 * r2[:, h:].sum(axis=1)).tolist()
        if grad:
            wflat[diag] = 0.0
            acc[lo:hi] += w @ aug[lo:]
            if hi < n:
                acc[hi:] += w[:, h:].T @ aug[lo:hi]
    g = None
    if grad:
        # each unordered pair appears twice in the ordered sum: aug's exact factor 2
        g = acc[:, m:] * pts
        g -= acc[:, :m]
    return math.fsum(sums), g


def _riesz_kernel(s: float):
    # r^-s (-log r at s=0) over r2, its weight into w unless None (first if it needs r2)
    def kernel(r2, w):
        if s == -1.0:
            np.sqrt(r2, out=r2)
            if w is not None:
                np.divide(1.0, r2, out=w)
        elif s == 1.0:
            np.reciprocal(np.sqrt(r2, out=r2), out=r2)
            if w is not None:
                np.negative(r2, out=w)
                w *= r2
                w *= r2
        elif s == 0.0:
            if w is not None:
                np.divide(-1.0, r2, out=w)
            np.log(r2, out=r2)
            r2 *= -0.5
        else:
            if w is not None:
                np.power(r2, -0.5 * s - 1.0, out=w)
                w *= -s
            np.power(r2, -0.5 * s, out=r2)

    return kernel


def riesz_energy(X: PointSet, s: float) -> float:
    """Riesz s-energy over ordered pairs; -log kernel at s=0.

    O(N^2) time, O(N + _BLOCK) memory; deterministic reduction.  Coincident
    points raise CoincidentPointsError for s >= 0 and contribute 0 for s < 0.
    """
    s = _require_finite("s", s)
    return _pair_sums(X.points, _riesz_kernel(s), coincident_error=s >= 0.0)[0]


def riesz_energy_and_gradient(X: PointSet, s: float, *, _walk=None) -> tuple[float, np.ndarray]:
    """Energy and tangential gradient from one walk over the pairs.

    Coincident points raise CoincidentPointsError for s > -2, where the
    gradient of the kernel is unbounded at r = 0.  `_walk`, a gradient
    `_Walk` of X's shape, is reused instead of building one: the optimizer
    keeps one per restart for all its evaluations.
    """
    s = _require_finite("s", s)
    pts = X.points
    total, grad = _pair_sums(pts, _riesz_kernel(s), coincident_error=s > -2.0, grad=True, walk=_walk)
    grad -= np.einsum("ij,ij->i", grad, pts)[:, None] * pts
    return total, grad


def riesz_gradient(X: PointSet, s: float) -> np.ndarray:
    """Tangential gradient of the ordered-pair energy, one row per point.

    Every row g_j satisfies <g_j, x_j> = 0 within 1e-12 relative to |g_j|
    (float dot products cannot certify tangency below eps * |g_j|).
    """
    return riesz_energy_and_gradient(X, s)[1]


# ----------------------------------------------------------------------------
# continuous energy of the sphere

def continuous_energy(d: int, s: float) -> float:
    """V_s(S^d) = 2^(d-s-1) Gamma((d+1)/2) Gamma((d-s)/2) / (sqrt pi Gamma(d-s/2)),
    continued analytically outside the poles (even d: s in {d,...,2d-2};
    odd d: s in {d, d+2, ...}).  The logarithmic case s=0 has no value here.
    At integer s (2d + |s| <= 2048) every Gamma argument is an integer or a
    half-integer, and the value is taken from exact rationals and one power
    of sqrt(pi), within about an ulp: V_{-1}(S^1) is the rounded 4/pi and
    V_{-1}(S^2) the rounded 4/3.
    """
    d = _require_int("d", d, 1)
    s = _require_finite("s", s)
    if s == 0.0:
        raise DomainError("s=0 logarithmic energy has no continuous value here")
    if s == math.floor(s) and 2 * d + abs(s) <= _HALF_GAMMA_MAX:
        t = int(s)
        p, r = (2 ** (d - t - 1), 1) if d - t >= 1 else (1, 2 ** (t + 1 - d))  # 2^(d-s-1)
        if d % 2 == 0 and t % 2 == 0 and t >= 2 * d:
            # Gamma((d-s)/2) and Gamma(d-s/2) both at poles: their ratio's
            # limit (-1)^(d/2) ((s-2d)/2)!/((s-d)/2)! joins the exact rational
            p *= (-1) ** (d // 2)
            r *= math.perm((t - d) // 2, d // 2)
            return _half_gamma_quotient(p, r, -1, (d + 1,), ())
        exact = _half_gamma_quotient(p, r, -1, (d + 1, d - t), (2 * d - t,))
        if exact is not None:  # None at a Gamma pole: the limits below
            return exact
    try:
        log_ratio, sign = _log_gamma_ratio((d - s) / 2.0, d - s / 2.0)
    except PoleError as exc:
        raise PoleError(f"V_s(S^{d}) pole at s={s}") from exc
    if sign == 0.0:
        return 0.0
    log_lead = (
        (d - s - 1.0) * math.log(2.0)
        + _log_abs_gamma((d + 1) / 2.0)[0]
        - 0.5 * math.log(math.pi)
    )
    return sign * math.exp(log_lead + log_ratio)


def ball_sphere_ratio(d: int) -> float:
    """Volume of the unit d-ball over surface of S^d: Gamma((d+1)/2)/(d sqrt(pi) Gamma(d/2)),
    for d < 2048 from exact rationals and one power of sqrt(pi), within about
    an ulp (1/pi, 1/4, ...)."""
    d = _require_int("d", d, 1)
    if d < _HALF_GAMMA_MAX:
        return _half_gamma_quotient(1, d, -1, (d + 1,), (d,))
    return math.exp(_log_gamma_ratio((d + 1) / 2.0, d / 2.0)[0]) / (d * math.sqrt(math.pi))


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
        """The fields that are set: the prediction pair only on its window."""
        return {k: v for k, v in asdict(self).items() if v is not None}


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
