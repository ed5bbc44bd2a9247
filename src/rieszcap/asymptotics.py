"""Conjectured asymptotic constants, the complete d=1 energy expansion for
roots of unity, the matching L2 discrepancy prediction, and log-log power-law
fits for empirical sequences.

C_{s,d} and A_d exist in closed form only for the d of _CLOSED_FORMS;
everything here treats the others as out of scope rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import ball_sphere_ratio, continuous_energy
from .errors import DegenerateFit, DomainError, PoleError, UnsupportedDimension, _require_finite, _require_int
from .special_functions import (
    bernoulli_table,
    hex_lattice_zeta,
    riemann_zeta,
    sinc_power_coeffs,
    sphere_surface_area,
)

EXPANSION_MAX_ORDER = 16

# d -> C_{s,d} as a function of s (continued; its zeta raises PoleError at s = d),
# the status of C_{-1,d} and A_d, and for `constants` the formulas of the A,
# V_{-1}, ratio and C rows of this d and the role of its C row.
_CLOSED_FORMS = {
    1: {
        "C": lambda s: 2.0 * riemann_zeta(s),
        "status": "closed-form",
        "A": "sqrt(ratio(1) * (1/6) * (2 pi)) = 1/sqrt(3)",
        "v_minus1": "4/pi",
        "ratio": "1/pi",
        "c_minus1": "2 zeta(-1) = -1/6",
        "c_role": "C_{-1,1} in BHS notation; the second-order energy coefficient on S^1 is C_{-1,1} |S^1| = -pi/3",
    },
    2: {
        "C": lambda s: (math.sqrt(3.0) / 2.0) ** (s / 2.0) * hex_lattice_zeta(s),
        "status": "conjectured",
        "A": "sqrt(ratio(2) * (-C(-1,2)) * sqrt(4 pi))",
        "v_minus1": "4/3",
        "ratio": "1/4",
        "c_minus1": "(sqrt(3)/2)^(-1/2) * zeta_hex(-1)",
        "c_role": "C_{-1,2} in BHS notation; the second-order energy coefficient on S^2 is C_{-1,2} |S^2|^(1/2) = C_{-1,2} sqrt(4 pi)",
    },
}


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept_constant: float  # e^intercept
    r_squared: float
    points_used: int


def conjectured_C(d: int, s: float) -> float:
    """C_{s,d} of the conjectured second-order energy term
    C_{s,d} |S^d|^(-s/d) N^(1+s/d) (Brauchart-Hardin-Saff notation; the
    coefficient of N^(1+s/d) itself carries the |S^d|^(-s/d) factor), for
    the d of _CLOSED_FORMS: 2 zeta(s) and (sqrt3/2)^(s/2) zeta_hex(s)."""
    d = _require_int("d", d, 1)
    if d not in _CLOSED_FORMS:
        raise UnsupportedDimension(f"no conjectured C for d={d}")
    return _CLOSED_FORMS[d]["C"](_require_finite("s", s))


def conjectured_A(d: int) -> float:
    """A_d = sqrt(ratio(d) * (-C_{-1,d}) * surface(S^d)^(1/d)) where C_{-1,d} is known."""
    c = conjectured_C(d, -1.0)
    return math.sqrt(ball_sphere_ratio(d) * (-c) * sphere_surface_area(d) ** (1.0 / d))


def roots_of_unity_energy_expansion(s: float, N: int, p: int) -> float:
    """Truncated asymptotic energy of N-th roots of unity:
    V_s(S^1) N^2 + (2 zeta(s)/(2 pi)^s) N^{1+s}
    + (2/(2 pi)^s) sum_{n<=p} alpha_n(s) zeta(s-2n) N^{1+s-2n}.
    The exclusion set {0, 1, 3, 5, ...} covers every pole in the chain."""
    s = _require_finite("s", s)
    p = _require_int("p", p, 0, EXPANSION_MAX_ORDER)
    N = _require_int("N", N, 1)
    if s == 0.0 or (s > 0.0 and s == int(s) and int(s) % 2 == 1):
        raise PoleError(f"expansion undefined at s={s} (s in {{0, 1, 3, 5, ...}})")
    front = 2.0 / (2.0 * math.pi) ** s
    terms = [
        continuous_energy(1, s) * float(N) ** 2,
        front * riemann_zeta(s) * float(N) ** (1.0 + s),
    ]
    if p > 0:
        alpha = sinc_power_coeffs(s, p)
        for n in range(1, p + 1):
            terms.append(
                front * alpha[n] * riemann_zeta(s - 2 * n) * float(N) ** (1.0 + s - 2 * n)
            )
    return math.fsum(terms)


def _l2_term_coeff(n: int) -> float:
    # 4 * (-alpha_n(-1) zeta(-1-2n)) = 4 |B_{2n+2}| pi^(2n) / (2n+2)!
    b = bernoulli_table(n + 1)[2 * n + 2]
    return 4.0 * abs(float(b)) * math.pi ** (2 * n) / math.factorial(2 * n + 2)


def predicted_l2_roots_of_unity(N: int, p: int) -> float:
    """D^2 prediction for N-th roots of unity:
    N^-2/3 + sum_{n<=p} 4 |B_{2n+2}| pi^(2n)/(2n+2)! N^(-2-2n)."""
    p = _require_int("p", p, 0, EXPANSION_MAX_ORDER)
    N = _require_int("N", N, 1)
    # plain left-to-right accumulation, large terms first; the order is pinned
    # because downstream truncation-error diagnostics sit within an ulp of the
    # rounded total at large N
    total = float(N) ** -2.0 / 3.0
    for n in range(1, p + 1):
        total += _l2_term_coeff(n) * float(N) ** (-2 - 2 * n)
    return total


def power_law_fit(samples) -> FitResult:
    """Unweighted least squares of log(value) on log(N)."""
    pairs = [(_require_finite("N", n), _require_finite("value", v)) for n, v in samples]
    if len(pairs) < 2:
        raise DomainError(f"need at least 2 samples, got {len(pairs)}")
    for n, v in pairs:
        if not (n > 0.0 and v > 0.0):
            raise DomainError(f"samples must be positive and finite, got ({n}, {v})")
    log_n = np.log([n for n, _ in pairs])
    log_v = np.log([v for _, v in pairs])
    if np.ptp(log_n) == 0.0:
        raise DegenerateFit(f"all {len(pairs)} samples share N={pairs[0][0]:g}")
    design = np.stack([log_n, np.ones_like(log_n)], axis=1)
    coef, *_ = np.linalg.lstsq(design, log_v, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = log_v - design @ coef
    ss_res = float(resid @ resid)
    centered = log_v - log_v.mean()
    ss_tot = float(centered @ centered)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(
        slope=slope,
        intercept_constant=math.exp(intercept),
        r_squared=r_squared,
        points_used=len(pairs),
    )
