"""Conjectured asymptotic constants, the complete d=1 energy expansion for
roots of unity, the matching L2 discrepancy prediction, and log-log power-law
fits for empirical sequences.

The A_d constant exists in closed form only for d in {1, 2}; everything here
treats d >= 3 as out of scope rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import ball_sphere_ratio, conjectured_C, continuous_energy
from .errors import DegenerateFit, DomainError, PoleError, UnsupportedDimension, _require_int
from .special_functions import (
    bernoulli_table,
    riemann_zeta,
    sinc_power_coeffs,
    sphere_surface_area,
)

EXPANSION_MAX_ORDER = 16


@dataclass(frozen=True)
class AsymptoticPrediction:
    d: int
    constant: float  # A_d
    exponent: float  # -1/2 - 1/(2d), exact
    terms: list | None = None  # (coefficient, exponent) refinements of D^2, d=1

    def leading(self, n: int) -> float:
        return self.constant * float(n) ** self.exponent


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept_constant: float  # e^intercept
    r_squared: float
    points_used: int


def conjectured_A(d: int) -> float:
    """A_d = sqrt(ratio(d) * (-C_{-1,d}) * surface(S^d)^(1/d)), d in {1, 2}."""
    if d not in (1, 2):
        raise UnsupportedDimension(
            f"A_d requires the closed-form C(-1,d), known only for d in {{1,2}}; got d={d}"
        )
    c = conjectured_C(d, -1.0)
    return math.sqrt(ball_sphere_ratio(d) * (-c) * sphere_surface_area(d) ** (1.0 / d))


def asymptotic_prediction(d: int, p: int = 2) -> AsymptoticPrediction:
    """Bundle A_d with the exact decay exponent; for d=1 attach the D^2
    refinement terms (coefficient, exponent) up to order p."""
    constant = conjectured_A(d)
    exponent = -0.5 - 0.5 / d
    terms = None
    if d == 1:
        terms = [(1.0 / 3.0, -2.0)]
        terms += [(_l2_term_coeff(n), -2.0 - 2.0 * n) for n in range(1, p + 1)]
    return AsymptoticPrediction(d=d, constant=constant, exponent=exponent, terms=terms)


def roots_of_unity_energy_expansion(s: float, N: int, p: int) -> float:
    """Truncated asymptotic energy of N-th roots of unity:
    V_s(S^1) N^2 + (2 zeta(s)/(2 pi)^s) N^{1+s}
    + (2/(2 pi)^s) sum_{n<=p} alpha_n(s) zeta(s-2n) N^{1+s-2n}.
    The exclusion set {0, 1, 3, 5, ...} covers every pole in the chain."""
    s = float(s)
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
        alpha = sinc_power_coeffs(s, p).coeffs
        for n in range(1, p + 1):
            terms.append(
                front * alpha[n] * riemann_zeta(s - 2 * n) * float(N) ** (1.0 + s - 2 * n)
            )
    return math.fsum(terms)


def _l2_term_coeff(n: int) -> float:
    # 4 * (-alpha_n(-1) zeta(-1-2n)) = 4 |B_{2n+2}| pi^(2n) / (2n+2)!
    b = bernoulli_table(2 * n + 2)[2 * n + 2]
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
    pairs = [(float(n), float(v)) for n, v in samples]
    if len(pairs) < 2:
        raise DomainError(f"need at least 2 samples, got {len(pairs)}")
    for n, v in pairs:
        if not (n > 0.0 and v > 0.0) or not (math.isfinite(n) and math.isfinite(v)):
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
