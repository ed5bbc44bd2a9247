import math

import mpmath as mp
import pytest

from rieszcap.asymptotics import (
    FitResult,
    conjectured_A,
    power_law_fit,
    predicted_l2_roots_of_unity,
    roots_of_unity_energy_expansion,
)
from rieszcap.discrepancy import l2_cap_discrepancy
from rieszcap.errors import (
    DegenerateFit,
    DomainError,
    PoleError,
    RangeError,
    UnsupportedDimension,
)
from rieszcap.pointsets import roots_of_unity
from rieszcap.special_functions import dirichlet_L3, riemann_zeta

# 14-digit reference constant for the d=2 rate, as published
A2_REFERENCE = 0.44679728350408


def _exact_circle_energy(n: int) -> float:
    return 2.0 * n / math.tan(math.pi / (2.0 * n))


def _exact_circle_dsq(n: int) -> mp.mpf:
    # identity route: (1/pi)(4/pi - mean distance), mean = 2 cot(pi/2N)/N
    return (1 / mp.pi) * (4 / mp.pi - 2 * mp.cot(mp.pi / (2 * n)) / n)


def test_closed_form_circle_dsq_at_4096():
    # the constants 4/pi and 1/pi are correctly rounded, so what is left is
    # the rounding of the mean distance (3.8e-9 when they were not)
    with mp.workdps(40):
        want = _exact_circle_dsq(4096)
        got = l2_cap_discrepancy(roots_of_unity(4096)).diagnostics["d_squared"]
        assert abs(got - want) / want <= 5e-10


# -------------------------------------------------------------- constants

def test_a2_reference_digits():
    assert abs(conjectured_A(2) - A2_REFERENCE) < 1e-11


def test_a2_alternate_route():
    # sqrt((3/2) (8 pi / sqrt 3)^(1/2) (-zeta(-1/2)) L3(-1/2))
    alt = math.sqrt(
        1.5
        * math.sqrt(8.0 * math.pi / math.sqrt(3.0))
        * (-riemann_zeta(-0.5))
        * dirichlet_L3(-0.5)
    )
    assert abs(alt - conjectured_A(2)) < 1e-11


def test_a1_closed_form():
    assert conjectured_A(1) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)


def test_a_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        conjectured_A(3)
    with pytest.raises(DomainError):
        conjectured_A(0)


def test_prediction_leading_matches_roots():
    # leading-order D ~ A_1 / N against the measured circle discrepancy
    measured = l2_cap_discrepancy(roots_of_unity(512)).value
    assert conjectured_A(1) / 512 == pytest.approx(measured, rel=1e-4)


# ------------------------------------------------------- energy expansion

def test_expansion_order_zero_closed_form():
    for n in (2, 10, 100):
        v = roots_of_unity_energy_expansion(-1.0, n, 0)
        assert v == pytest.approx((4.0 / math.pi) * n * n - math.pi / 3.0, rel=1e-14)


def test_expansion_small_n_half_percent():
    v = roots_of_unity_energy_expansion(-1.0, 2, 2)
    assert abs(v - 4.0) / 4.0 < 0.005


def test_expansion_truncation_scale_and_ratio():
    # p=2 omits the N^-6 term: halving-step error ratio near 2^-6
    d8 = abs(roots_of_unity_energy_expansion(-1.0, 8, 2) - _exact_circle_energy(8))
    d16 = abs(roots_of_unity_energy_expansion(-1.0, 16, 2) - _exact_circle_energy(16))
    assert 2.0**-7 <= d16 / d8 <= 2.0**-3
    assert abs(roots_of_unity_energy_expansion(-1.0, 100, 2) - _exact_circle_energy(100)) <= 100.0**-5


def test_expansion_positive_s():
    # s=2: exact energy is N^2 (zeta(2) - pi^2/6 cancellation aside) -- use
    # the direct sum as oracle at modest N where truncation is tiny
    from rieszcap.energy import riesz_energy

    for n in (16, 32):
        exact = riesz_energy(roots_of_unity(n), 2.0)
        approx = roots_of_unity_energy_expansion(2.0, n, 4)
        assert approx == pytest.approx(exact, rel=1e-10)


def test_expansion_pole_exclusions():
    for s in (0.0, 1.0, 3.0, 5.0):
        with pytest.raises(PoleError):
            roots_of_unity_energy_expansion(s, 10, 2)
    # even positive integers are fine
    roots_of_unity_energy_expansion(2.0, 10, 2)


def test_expansion_guards():
    with pytest.raises(RangeError):
        roots_of_unity_energy_expansion(-1.0, 10, 17)
    with pytest.raises(DomainError):
        roots_of_unity_energy_expansion(-1.0, 0, 2)
    with pytest.raises(DomainError):
        roots_of_unity_energy_expansion(-1.0, 10, -1)


# ------------------------------------------------------- L2 prediction

def test_predicted_l2_order_zero():
    for n in (1, 5, 64):
        assert predicted_l2_roots_of_unity(n, 0) == pytest.approx(
            n**-2 / 3.0, rel=1e-15
        )


def test_predicted_l2_first_correction():
    extra = predicted_l2_roots_of_unity(5, 1) - predicted_l2_roots_of_unity(5, 0)
    assert extra == pytest.approx((math.pi**2 / 180.0) * 5.0**-4, rel=1e-10)


def test_predicted_l2_n2_spot_value():
    v = predicted_l2_roots_of_unity(2, 1)
    assert v == pytest.approx(1.0 / 12.0 + math.pi**2 / 2880.0, rel=1e-14)
    exact = 4.0 / math.pi**2 - 1.0 / math.pi
    assert abs(v - exact) < 5e-4  # next omitted term is O(2^-8)
    assert abs(predicted_l2_roots_of_unity(2, 2) - exact) < abs(v - exact)


def test_predicted_l2_matches_bernoulli_route():
    # coefficients equal 4(-alpha_n(-1) zeta(-1-2n)) term by term
    from rieszcap.special_functions import sinc_power_coeffs

    alpha = sinc_power_coeffs(-1.0, 6)
    for n in range(1, 7):
        via_zeta = 4.0 * (-alpha[n] * riemann_zeta(-1 - 2 * n))
        via_series = predicted_l2_roots_of_unity(1, n) - predicted_l2_roots_of_unity(1, n - 1)
        assert via_series == pytest.approx(via_zeta, rel=1e-10)


def test_error_ratio_halving_property():
    # truncation-error ratio between N and 2N is 2^-(2p+4); measured D^2 from
    # the trig closed form at 60 digits so float cancellation cannot intrude
    mp.mp.dps = 60
    for p in (0, 1, 2):
        target = 2.0 ** -(2 * p + 4)
        for a, b in ((32, 64), (64, 128), (128, 256)):
            ea = abs(_exact_circle_dsq(a) - mp.mpf(predicted_l2_roots_of_unity(a, p)))
            eb = abs(_exact_circle_dsq(b) - mp.mpf(predicted_l2_roots_of_unity(b, p)))
            assert 0.5 * target <= float(eb / ea) <= 2.0 * target


def test_each_term_strictly_improves():
    mp.mp.dps = 60
    grids = {2: (4, 8, 16, 32), 3: (4, 8, 16), 4: (4, 8)}
    for pmax, ns in grids.items():
        for n in ns:
            exact = float(_exact_circle_dsq(n))
            errs = [abs(exact - predicted_l2_roots_of_unity(n, p)) for p in range(pmax + 1)]
            assert all(x > y for x, y in zip(errs, errs[1:]))


# ------------------------------------------------------------ power law

def test_fit_exact_synthetic():
    fit = power_law_fit([(n, 2.7 * n**-0.75) for n in (10, 20, 40, 80)])
    assert fit.slope == pytest.approx(-0.75, abs=1e-12)
    assert fit.intercept_constant == pytest.approx(2.7, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.points_used == 4


def test_fit_roots_slope_near_minus_one():
    samples = [
        (n, l2_cap_discrepancy(roots_of_unity(n)).value)
        for n in (64, 128, 256, 512, 1024)
    ]
    fit = power_law_fit(samples)
    assert abs(fit.slope + 1.0) < 1e-3


def test_fit_constant_sample_r_squared_one():
    fit = power_law_fit([(10, 5.0), (20, 5.0), (40, 5.0)])
    assert fit.slope == pytest.approx(0.0, abs=1e-14)
    assert fit.r_squared == 1.0


def test_fit_guards():
    with pytest.raises(DomainError):
        power_law_fit([(10, 1.0)])
    with pytest.raises(DomainError):
        power_law_fit([(10, 1.0), (20, -2.0)])
    with pytest.raises(DomainError):
        power_law_fit([(10, 1.0), (0, 2.0)])
    with pytest.raises(DegenerateFit):
        power_law_fit([(10, 1.0), (10, 2.0)])
