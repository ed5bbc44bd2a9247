"""Classical special functions needed by the energy, discrepancy and
asymptotics layers; the one module that evaluates Gamma.

Everything here is float64 in and float64 out.  The Euler-Maclaurin engines
accumulate in numpy's longdouble (80-bit on x86) because the head sum and the
pole term cancel catastrophically for negative arguments; see hurwitz_zeta.
No arbitrary-precision float is used; Gamma quotients at integer and
half-integer arguments are exact integer ratios, rounded once.

The hexagonal lattice zeta is evaluated only through its factorization
6 zeta(s/2) L(s/2, chi_-3); the truncated direct lattice sum that checks it
is a test oracle (tests/oracles.py), not part of the package.
"""

from __future__ import annotations

import math
from functools import lru_cache
from numbers import Real
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, PoleError, RangeError, ValidationError, _require_int

if TYPE_CHECKING:
    from fractions import Fraction

_LD = np.longdouble

BERNOULLI_MAX_INDEX = 64  # table guard: B_0 .. B_128
EM_MIN_S = -6.0           # Euler-Maclaurin engines answer for s >= this only
SINC_COEFF_MAX_ORDER = 32
_HALF_GAMMA_MAX = 2048    # Gamma(k/2) is taken exactly for integers |k| up to this
_PI_LO = 1.2246467991473532e-16  # pi - math.pi


def _require_finite(name: str, x: float) -> float:
    """`x` as a float.  ValidationError for a bool or a non-number (a string
    too), DomainError for inf or nan; numpy scalars are accepted."""
    # a float skips the ABC check, which costs about 0.5 us per call
    if type(x) is not float and (isinstance(x, bool) or not isinstance(x, Real)):
        raise ValidationError(f"{name} must be a real number, got {x!r}")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def sphere_surface_area(d: int) -> float:
    """Surface measure of the unit sphere S^d in R^(d+1): 2 pi^((d+1)/2) / Gamma((d+1)/2),
    within 2 ulps for d < _HALF_GAMMA_MAX (0.0 once it underflows, from d = 455)."""
    d = _require_int("d", d, 1, _HALF_GAMMA_MAX - 1)
    return _half_gamma_quotient(2, 1, d + 1, (), (d + 1,))


# ----------------------------------------------------------------------------
# Gamma: exact at integers and half-integers, lgamma elsewhere

def _log_abs_gamma(x: float) -> tuple[float, float]:
    if x > 0.0:
        return math.lgamma(x), 1.0
    # x < 0, non-integer: lgamma gives log|Gamma|; sign follows sin(pi x)
    # because Gamma(x) Gamma(1-x) = pi / sin(pi x) with Gamma(1-x) > 0.
    return math.lgamma(x), math.copysign(1.0, _sinpi(x))


def _half_gamma(k: int) -> tuple[int, int, int]:
    """Gamma(k/2) = (p / r) sqrt(pi)^e exactly, as integers (p, r, e), for an
    integer k that is not 0, -2, -4, ... (a pole)."""
    if k % 2 == 0:
        return math.factorial(k // 2 - 1), 1, 0
    n = (k - 1) // 2  # k/2 = n + 1/2
    if n >= 0:  # Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!)
        return math.factorial(2 * n), 4**n * math.factorial(n), 1
    # Gamma(1/2 - m) = (-4)^m m! sqrt(pi) / (2m)!
    return (-4) ** -n * math.factorial(-n), math.factorial(-2 * n), 1


def _half_gamma_quotient(p: int, r: int, e: int, num: tuple, den: tuple) -> float | None:
    """(p / r) sqrt(pi)^e times Gamma(k/2) for each integer k in `num`,
    divided by Gamma(k/2) for each k in `den`; None when some k is a pole.
    pi^m = 4^m (pi/4)^m: the 4^m joins the exact rational, rounded once (an
    integer division), so a rational beyond float range still meets its power
    of pi; (pi/4)^m is corrected to first order for the rounding of math.pi,
    which pow amplifies m-fold.  Within 2 ulps (about 1 for |e| <= 3)."""
    if any(k <= 0 and k % 2 == 0 for k in num + den):
        return None
    for k in num:
        gp, gr, ge = _half_gamma(k)
        p, r, e = p * gp, r * gr, e + ge
    for k in den:
        gp, gr, ge = _half_gamma(k)
        p, r, e = p * gr, r * gp, e - ge
    m = abs(e) // 2
    pi_m = (math.pi / 4.0) ** m
    pi_m += pi_m * (m * _PI_LO / math.pi)
    if e % 2:
        pi_m *= math.sqrt(math.pi)
    return (p << 2 * m) / r * pi_m if e >= 0 else p / (r << 2 * m) / pi_m


def _log_gamma_ratio(a: float, b: float) -> tuple[float, float]:
    """(log|Gamma(a)/Gamma(b)|, sign), continued across nonpositive arguments;
    sign 0.0 (log -inf) at a denominator pole alone.  When both hit
    nonpositive integers -p and -q, the limit is taken along the s-line, where
    both arguments move at the same rate: (-1)^(p-q) q!/p!, carried as
    lgamma(q+1) - lgamma(p+1), which neither overflows nor underflows."""
    a_int = a <= 0.0 and a == math.floor(a)
    b_int = b <= 0.0 and b == math.floor(b)
    if a_int and b_int:
        p, q = int(-a), int(-b)
        return math.lgamma(q + 1) - math.lgamma(p + 1), -1.0 if (p - q) % 2 else 1.0
    if b_int:
        return -math.inf, 0.0  # denominator pole only
    if a_int:
        raise PoleError(f"gamma ratio pole at numerator argument {a}")
    la, sa = _log_abs_gamma(a)
    lb, sb = _log_abs_gamma(b)
    return la - lb, sa * sb


# ----------------------------------------------------------------------------
# Bernoulli numbers, exact

@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    # B_0 = 1; sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1.
    from fractions import Fraction  # loaded here: only the zeta and Bernoulli routes pay for it
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


def _require_em_range(s: float, what: str) -> None:
    # Below EM_MIN_S the head/pole cancellation outgrows 80-bit accumulation:
    # hurwitz_zeta(-40, 1/2) would come out 3.3e27 where the value is 0.
    if s < EM_MIN_S:
        raise RangeError(f"{what} is only evaluated for s >= {EM_MIN_S:g}, got {s}")


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
    to tame head/pole cancellation; see _em_params).  s < -6 raises
    RangeError: there the cancellation would leave no correct digit.
    """
    s = _require_finite("s", s)
    a = _require_finite("a", a)
    _require_em_range(s, "hurwitz_zeta")
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
    s < -6 raises RangeError, as in hurwitz_zeta.
    """
    s = _require_finite("s", s)
    _require_em_range(s, "dirichlet_L3")
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

    Factorizes as 6 zeta(s/2) L(s/2, chi_-3); simple pole at s=2.  s < -12
    raises RangeError, through dirichlet_L3.
    """
    s = _require_finite("s", s)
    if s == 2.0:
        raise PoleError("hexagonal lattice zeta pole at s=2")
    l3 = dirichlet_L3(s / 2.0)  # first: its range guard precedes any zeta overflow
    return 6.0 * riemann_zeta(s / 2.0) * l3


# ----------------------------------------------------------------------------
# Power series of (sin(pi z)/(pi z))^(-s)

def sinc_power_coeffs(s: float, p: int) -> tuple[float, ...]:
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
    return tuple(alpha)
