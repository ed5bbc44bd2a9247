"""Reference computations used only by the tests."""

import numpy as np

from rieszcap.energy import riesz_energy
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
