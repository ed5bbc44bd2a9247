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


HEX_AT_4 = 7.7111457329048964175  # zeta_hex(4), mpmath at 40 digits


def hex_lattice_sum(s: float, radius: float) -> tuple[float, float, float, int]:
    """Direct sum of |v|^(-s) over the nonzero vectors v of the
    unit-minimal-distance hexagonal lattice with |v| <= radius, s > 2:
    the oracle for special_functions.hex_lattice_zeta.

    The shells are counted: r(n) vectors have squared norm n = m^2 + mn + n^2,
    and the sum is fsum of r(n) n^(-s/2).  Returns (value, tail_lower,
    tail_upper, points).  The omitted tail lies in [tail_lower, tail_upper]:
    the number N(r) of nonzero vectors with |v| <= r satisfies
    pi (r - rho)^2 / det - 1 <= N(r) <= pi (r + rho)^2 / det for r >= rho
    (covering radius rho = 1/sqrt(3), cell area det = sqrt(3)/2), and the
    tail s int_R^inf N(r) r^(-s-1) dr - N(R) R^(-s), by parts, is bounded by
    putting each side in for N(r); both ends are O(radius^(2-s)).
    """
    # |m|, |n| <= 2 r / sqrt(3) covers the disc
    bound = int(math.ceil(2.0 * radius / math.sqrt(3.0))) + 1
    m = np.arange(-bound, bound + 1)
    mm, nn = np.meshgrid(m, m, indexing="ij")
    q = mm * mm + mm * nn + nn * nn
    counts = np.bincount(q[(q > 0) & (q <= radius * radius + 1e-9)])  # counts[n] = r(n)
    shells = np.flatnonzero(counts)
    value = math.fsum(counts[shells] * shells.astype(np.float64) ** (-s / 2.0))
    points = int(counts.sum())

    rho = 1.0 / math.sqrt(3.0)
    c = math.pi / (math.sqrt(3.0) / 2.0)
    R = radius

    def _bracket(sign: float) -> float:
        # int_R^inf (r + sign*rho)^2 r^(-s-1) dr expanded termwise
        integ = c * (
            R ** (2.0 - s) / (s - 2.0)
            + sign * 2.0 * rho * R ** (1.0 - s) / (s - 1.0)
            + rho * rho * R ** (-s) / s
        )
        if sign < 0:
            integ -= R ** (-s) / s  # the "-1" in the lower count bound
        return s * integ - points * R ** (-s)

    # the tail is a sum of positives
    return value, max(_bracket(-1.0), 0.0), _bracket(+1.0), points
