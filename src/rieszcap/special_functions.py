"""Classical special functions needed by the energy and asymptotics layers.

Everything here is float64 in and float64 out.  The Euler-Maclaurin engines
accumulate in numpy's longdouble (80-bit on x86) because the head sum and the
pole term cancel catastrophically for negative arguments; see hurwitz_zeta.
No arbitrary-precision arithmetic is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, PoleError, _require_int

_LD = np.longdouble

BERNOULLI_MAX_INDEX = 64  # table guard: B_0 .. B_128
SINC_COEFF_MAX_ORDER = 32

# Hexagonal lattice geometry: unit minimal distance, Gram form m^2 + mn + n^2.
HEX_CELL_AREA = math.sqrt(3.0) / 2.0
HEX_COVERING_RADIUS = 1.0 / math.sqrt(3.0)


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


# ----------------------------------------------------------------------------
# gamma and friends

def gamma_fn(x: float) -> float:
    """Real gamma function.

    Raises PoleError at nonpositive integers and lets OverflowError escape
    when the true value exceeds float range (x >~ 171.6).
    """
    x = _require_finite("x", x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma pole at nonpositive integer x={x}")
    return math.gamma(x)


def sphere_surface_area(d: int) -> float:
    """Surface measure of the unit sphere S^d in R^(d+1): 2 pi^((d+1)/2) / Gamma((d+1)/2)."""
    d = _require_int("d", d, 1)
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


# ----------------------------------------------------------------------------
# Bernoulli numbers, exact

@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    # B_0 = 1; sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1.
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * _bernoulli(j)
    return -acc / (n + 1)


def bernoulli_table(m: int) -> tuple[Fraction, ...]:
    """Exact Bernoulli numbers B_0, B_1, ..., B_{2m} as Fractions."""
    m = _require_int("m", m, 0, BERNOULLI_MAX_INDEX)
    return tuple(_bernoulli(n) for n in range(2 * m + 1))


def _bern_ld(n: int) -> np.longdouble:
    b = _bernoulli(n)
    return _LD(b.numerator) / _LD(b.denominator)


# ----------------------------------------------------------------------------
# Hurwitz zeta via Euler-Maclaurin

def _em_params(s: float) -> tuple[int, int]:
    # For s < -1 the head sum grows like (m+a)^(-s) while the total stays O(1):
    # cancellation eats eps*(m+a)^(1-s) digits.  Shrinking the shift to 5 keeps
    # the asymptotic-series floor below 1e-13 and the cancellation survivable
    # in 80-bit accumulation.
    return (5, 10) if s < -1.0 else (16, 8)


def _em_terms(s_: np.longdouble, a_: np.longdouble, m: int, q: int) -> list[np.longdouble]:
    # Pole-free Euler-Maclaurin terms of zeta(s, a): the head (a+k)^(-s) for
    # k < m, the half term and q Bernoulli tail terms at x = a + m.  The pole
    # term x^(1-s)/(s-1) is left to the caller.
    terms = [(a_ + k) ** (-s_) for k in range(m)]
    x = a_ + m
    terms.append(x ** (-s_) / 2)
    poch = s_
    for j in range(1, q + 1):
        coeff = _bern_ld(2 * j) / _LD(math.factorial(2 * j))
        terms.append(coeff * poch * x ** (-s_ - 2 * j + 1))
        poch = poch * (s_ + 2 * j - 1) * (s_ + 2 * j)
    return terms


def _sum_sorted(terms: list[np.longdouble]) -> float:
    # Magnitude-ascending accumulation: the small corrections land before the
    # big cancelling pair, which costs nothing and buys ~1 digit.
    total = _LD(0)
    for t in sorted(terms, key=abs):
        total += t
    return float(total)


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta(s, a) for real s != 1, 0 < a <= 1, by Euler-Maclaurin.

    Good to ~1e-12 relative on s in [-6, 6] (the shift shrinks for s < -1
    to tame head/pole cancellation; see _em_params).
    """
    s = _require_finite("s", s)
    a = _require_finite("a", a)
    if s == 1.0:
        raise PoleError("hurwitz_zeta pole at s=1")
    if not 0.0 < a <= 1.0:
        raise DomainError(f"a must lie in (0, 1], got {a}")
    m, q = _em_params(s)
    s_ = _LD(s)
    a_ = _LD(a)
    x = a_ + m
    return _sum_sorted(_em_terms(s_, a_, m, q) + [x ** (1 - s_) / (s_ - 1)])


def riemann_zeta(s: float) -> float:
    """Riemann zeta for real s != 1.

    s > 1 goes through hurwitz_zeta directly; s < 1 through the reflection
    formula zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s).  The
    two removable spots on that route are special-cased: s=0 -> -1/2 (the
    reflection is a 0*inf limit there) and negative even integers -> exact
    0.0 (trivial zeros; the sine factor is the exact zero).
    """
    s = _require_finite("s", s)
    if s == 1.0:
        raise PoleError("zeta pole at s=1")
    if s > 1.0:
        return hurwitz_zeta(s, 1.0)
    if s == 0.0:
        return -0.5
    if s < 0.0 and s == math.floor(s) and int(s) % 2 == 0:
        return 0.0
    z = hurwitz_zeta(1.0 - s, 1.0)
    # Assemble in logs: Gamma(1-s) alone overflows for s < -170 even when
    # the product is representable.
    sinval = _sinpi(s / 2.0)
    log_mag = (
        s * math.log(2.0)
        + (s - 1.0) * math.log(math.pi)
        + math.log(abs(sinval))
        + math.lgamma(1.0 - s)
        + math.log(abs(z))
    )
    sign = math.copysign(1.0, sinval) * math.copysign(1.0, z)
    return sign * math.exp(log_mag)  # OverflowError on its own terms


def _sinpi(x: float) -> float:
    # sin(pi x) with argument reduction so near-integer x stays accurate.
    r = math.remainder(x, 2.0)
    return math.sin(math.pi * r)


# ----------------------------------------------------------------------------
# Dirichlet L for the non-principal character mod 3

def dirichlet_L3(s: float) -> float:
    """L(s, chi_-3) = 3^(-s) (zeta(s, 1/3) - zeta(s, 2/3)), entire in s.

    The two Hurwitz pole terms are combined analytically (an expm1 form of
    x1^(1-s) - x2^(1-s) over s-1) so s=1 is a regular point, as it must be.
    """
    s = _require_finite("s", s)
    m, q = _em_params(s)
    s_ = _LD(s)
    third = _LD(1) / 3
    twothird = _LD(2) / 3
    x1 = third + m
    x2 = twothird + m
    # (x1^(1-s) - x2^(1-s)) / (s-1) = x1^(1-s) * L * expm1(u)/u,
    # u = (1-s) L, L = log(x2/x1); the u -> 0 limit is L.
    ell = np.log(x2 / x1)
    u = (1 - s_) * ell
    if u == 0:
        pole_pair = x1 ** (1 - s_) * ell
    else:
        pole_pair = x1 ** (1 - s_) * ell * (np.expm1(u) / u)
    terms = _em_terms(s_, third, m, q) + [-t for t in _em_terms(s_, twothird, m, q)]
    return float(_LD(3) ** (-s_) * _LD(_sum_sorted(terms + [pole_pair])))


# ----------------------------------------------------------------------------
# Hexagonal (triangular) lattice zeta

def hex_lattice_zeta(s: float) -> float:
    """Epstein zeta of the unit-minimal-distance hexagonal lattice.

    Factorizes as 6 zeta(s/2) L(s/2, chi_-3); simple pole at s=2.
    """
    s = _require_finite("s", s)
    if s == 2.0:
        raise PoleError("hexagonal lattice zeta pole at s=2")
    return 6.0 * riemann_zeta(s / 2.0) * dirichlet_L3(s / 2.0)


@dataclass(frozen=True)
class LatticeSumResult:
    """Truncated hexagonal lattice sum with a rigorous tail enclosure.

    value           raw sum over nonzero lattice points with |v| <= radius
    tail_lower/upper  rigorous enclosure of the omitted tail (s > 2)
    lattice_points  number of nonzero points included
    """

    s: float
    radius: float
    value: float
    tail_lower: float
    tail_upper: float
    lattice_points: int

    @property
    def tail_bound(self) -> float:
        return self.tail_upper

    @property
    def tail_halfwidth(self) -> float:
        return 0.5 * (self.tail_upper - self.tail_lower)

    @property
    def corrected(self) -> float:
        return self.value + 0.5 * (self.tail_lower + self.tail_upper)

    def __float__(self) -> float:
        return self.value


def _hex_norms_within(radius: float) -> np.ndarray:
    # Q(m, n) = m^2 + mn + n^2; |v|^2 = Q in the unit-minimal-distance scaling.
    # Coordinate box from the dual description: |m|, |n| <= 2 r / sqrt(3).
    bound = int(math.ceil(2.0 * radius / math.sqrt(3.0))) + 1
    m = np.arange(-bound, bound + 1)
    mm, nn = np.meshgrid(m, m, indexing="ij")
    q = mm * mm + mm * nn + nn * nn
    q = q[(q > 0) & (q <= radius * radius + 1e-9)]
    return np.sqrt(q.astype(np.float64))


def lattice_sum_direct(s: float, radius: float) -> LatticeSumResult:
    """Direct sum_{0 != v in hex lattice, |v| <= radius} |v|^(-s), s > 2.

    The omitted tail is enclosed rigorously: the counting function N(r) of
    nonzero points in the closed ball of radius r satisfies
    pi (r - rho)^2 / det - 1 <= N(r) <= pi (r + rho)^2 / det for r >= rho
    (covering radius rho = 1/sqrt(3), cell area det = sqrt(3)/2), and
    integrating r^(-s) dN(r) by parts over (radius, inf) against those
    bounds gives tail_lower <= tail <= tail_upper, both O(radius^(2-s)).
    The midpoint-corrected `corrected` value is accurate to tail_halfwidth.
    """
    s = _require_finite("s", s)
    radius = _require_finite("radius", radius)
    if s <= 2.0:
        raise DomainError(f"lattice sum converges only for s > 2, got s={s}")
    if radius < 1.0:
        raise DomainError(f"radius must be >= 1 (minimal distance), got {radius}")
    norms = _hex_norms_within(radius)
    value = math.fsum(np.power(norms, -s))
    n_points = int(norms.size)

    # Integration by parts: tail = s int_R^inf N(r) r^(-s-1) dr - N(R) R^(-s),
    # with N replaced by each area bound; the exact enumerated N(R) anchors
    # the boundary term on both sides.
    rho = HEX_COVERING_RADIUS
    det = HEX_CELL_AREA
    c = math.pi / det
    r = radius

    def _bracket(sign: float) -> float:
        # int_R^inf (r + sign*rho)^2 r^(-s-1) dr expanded termwise.
        integ = (
            c
            * (
                r ** (2.0 - s) / (s - 2.0)
                + sign * 2.0 * rho * r ** (1.0 - s) / (s - 1.0)
                + rho * rho * r ** (-s) / s
            )
        )
        if sign < 0:
            integ -= r ** (-s) / s  # the "-1" in the lower area bound
        return s * integ - n_points * r ** (-s)

    tail_upper = _bracket(+1.0)
    tail_lower = max(_bracket(-1.0), 0.0)  # tail is a sum of positives
    return LatticeSumResult(
        s=s,
        radius=radius,
        value=value,
        tail_lower=tail_lower,
        tail_upper=tail_upper,
        lattice_points=n_points,
    )


# ----------------------------------------------------------------------------
# Power series of (sin(pi z)/(pi z))^(-s)

@dataclass(frozen=True)
class SeriesCoeffs:
    """Even-power series coefficients: f(z) = sum_n coeffs[n] z^(2n)."""

    s: float
    coeffs: tuple[float, ...]
    order: int


def sinc_power_coeffs(s: float, p: int) -> SeriesCoeffs:
    """Taylor coefficients alpha_n(s) of (sin(pi z)/(pi z))^(-s) in z^2, n <= p.

    Route: -s log sinc(pi z) = sum_{k>=1} s zeta(2k)/k z^(2k), then
    exponentiate the series by the standard recurrence
    n alpha_n = sum_{k=1}^{n} k c_k alpha_{n-k}.  alpha_0 = 1 always.
    """
    s = _require_finite("s", s)
    p = _require_int("p", p, 0, SINC_COEFF_MAX_ORDER)
    c = [0.0] + [s * riemann_zeta(2 * k) / k for k in range(1, p + 1)]
    alpha = [1.0] + [0.0] * p
    for n in range(1, p + 1):
        alpha[n] = math.fsum(k * c[k] * alpha[n - k] for k in range(1, n + 1)) / n
    return SeriesCoeffs(s=s, coeffs=tuple(alpha), order=p)


# ----------------------------------------------------------------------------
# Legendre polynomials and harmonic space dimensions

def legendre_P(l: int, t):
    """Legendre polynomial P_l(t), scalar or elementwise on arrays, |t| <= 1.

    Three-term recurrence; stable on [-1, 1] for every degree this package
    uses (the invariant |P_l| <= 1 holds to float noise through l = 64).
    """
    l = _require_int("l", l, 0)
    arr = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("t must be finite")
    if np.any(np.abs(arr) > 1.0):
        raise DomainError("legendre_P requires |t| <= 1")
    if l == 0:
        out = np.ones_like(arr)
    elif l == 1:
        out = arr.copy()
    else:
        pkm1 = np.ones_like(arr)
        pk = arr.copy()
        for k in range(1, l):
            pkp1 = ((2 * k + 1) * arr * pk - k * pkm1) / (k + 1)
            pkm1, pk = pk, pkp1
        out = pk
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(out)
    return out


def harmonic_dim(d: int, l: int) -> int:
    """Dimension of degree-l spherical harmonics on S^d, exact integer."""
    d = _require_int("d", d, 1)
    l = _require_int("l", l, 0)
    if l == 0:
        return 1
    # (2l + d - 1) / l * C(l + d - 2, l - 1), always an integer.
    return (2 * l + d - 1) * math.comb(l + d - 2, l - 1) // l
