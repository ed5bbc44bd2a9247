"""Reference computations used only by the tests."""

import math

import numpy as np

from rieszcap.energy import _BLOCK, riesz_energy
from rieszcap.errors import DomainError
from rieszcap.pointsets import PointSet


def _tangent_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space at unit vector x (d vectors)."""
    dim = x.shape[0]
    order = np.argsort(np.abs(x))  # canonical vectors least aligned with x
    basis = []
    for i in order[: dim - 1]:
        v = np.zeros(dim)
        v[i] = 1.0
        v -= (v @ x) * x
        for b in basis:
            v -= (v @ b) * b
        v /= np.linalg.norm(v)
        basis.append(v)
    return np.array(basis)


def finite_diff_gradient(X: PointSet, s: float, h: float) -> np.ndarray:
    """Central-difference tangential gradient of the energy, the test oracle
    for riesz_gradient: perturb one point along a tangent basis vector,
    renormalize, difference the energies."""
    h = float(h)
    if not 1e-8 <= h <= 1e-3:
        raise DomainError(f"step h must lie in [1e-8, 1e-3], got {h}")
    pts = X.points
    out = np.zeros_like(pts)
    for j in range(X.n):
        basis = _tangent_basis(pts[j])
        for v in basis:
            plus = pts.copy()
            plus[j] = pts[j] + h * v
            plus[j] /= np.linalg.norm(plus[j])
            minus = pts.copy()
            minus[j] = pts[j] - h * v
            minus[j] /= np.linalg.norm(minus[j])
            deriv = (
                riesz_energy(PointSet(X.d, plus, norm_tol=1e-9), s)
                - riesz_energy(PointSet(X.d, minus, norm_tol=1e-9), s)
            ) / (2.0 * h)
            out[j] += deriv * v
    return out


def weyl_sums_addition(X: PointSet, L: int) -> list[float]:
    """S_l = ((2l+1)/(4 pi N^2)) sum_{j,k} P_l(<x_j, x_k>), l = 1..L, by the
    addition theorem in O(N^2 L): the oracle for discrepancy.weyl_sums.  The
    Legendre recursion runs over row strips of at most _BLOCK entries that
    meet only the columns from their own first row on: the strip's square
    holds both orders of its pairs, the columns after it count twice.
    Values are returned as summed, without clamping."""
    n = X.n
    sums = np.zeros(L + 1)  # sums[l] = sum_{j,k} P_l(<x_j, x_k>)
    height = max(1, _BLOCK // n)
    for start in range(0, n, height):
        h = min(height, n - start)
        g = np.clip(X.points[start : start + h] @ X.points[start:].T, -1.0, 1.0)
        p_prev, p_cur, p_next = np.ones_like(g), g.copy(), np.empty_like(g)
        for l in range(1, L + 1):
            # the strip's square holds both orders; the columns past it, once
            sums[l] += p_cur[:, :h].sum() + 2.0 * p_cur[:, h:].sum()
            # p_next = ((2l+1) g p_cur - l p_prev) / (l+1), without temporaries
            np.multiply(g, 2 * l + 1, out=p_next)
            p_next *= p_cur
            p_prev *= l
            p_next -= p_prev
            p_next /= l + 1
            p_prev, p_cur, p_next = p_cur, p_next, p_prev
    return [(2 * l + 1) / (4.0 * math.pi) * float(sums[l]) / (n * n) for l in range(1, L + 1)]
