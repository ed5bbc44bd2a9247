"""Special-function layer: frozen oracle values plus structural identities.

Frozen constants were computed with mpmath at 40 digits (independent route:
mp.zeta / mp.gamma / Hurwitz differences); a few grid tests compare against
mpmath live.  The package itself never imports mpmath.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from rieszcap.errors import DomainError, PoleError, RangeError
from rieszcap.special_functions import (
    EM_MIN_S,
    bernoulli_table,
    dirichlet_L3,
    hex_lattice_zeta,
    hurwitz_zeta,
    riemann_zeta,
    sinc_power_coeffs,
    sphere_surface_area,
)

from oracles import HEX_AT_4, hex_lattice_sum

mp.mp.dps = 40

# mpmath, 40 digits
ZETA_M0P5 = -0.20788622497735456602
ZETA_0P5 = -1.4603545088095868129
ZETA_3 = 1.2020569031595942854
HZ_2_HALF = 4.9348022005446793094
L3_AT_1 = 0.60459978807807261686  # = pi / (3 sqrt 3)
L3_AT_2 = 0.78130241289648629687
L3_AT_HALF = 0.48086755769682862618
L3_AT_MHALF = 0.16806003892587702446
HEX_AT_3 = 11.034175734914809768
HEX_AT_6 = 6.3758815528298469067
HEX_AT_M1 = -0.20962420237108702148
LATTICE_10_10 = 6.0314391150419164435


def test_sphere_surface_area():
    assert sphere_surface_area(1) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_surface_area(2) == pytest.approx(4 * math.pi, rel=1e-15)
    assert sphere_surface_area(3) == pytest.approx(2 * math.pi**2, rel=1e-15)


@pytest.mark.parametrize("d", [*range(1, 17), 100, 342, 343, 344, 400, 454, 455, 2047])
def test_sphere_surface_area_within_two_ulps(d):
    # past d = 342 Gamma((d+1)/2) alone overflows; the area underflows from 455
    want = 2 * mp.pi ** (mp.mpf(d + 1) / 2) / mp.gamma(mp.mpf(d + 1) / 2)
    got = sphere_surface_area(d)
    assert abs(mp.mpf(got) - want) <= 2 * math.ulp(float(want))


# ------------------------------------------------------------ bernoulli

def test_bernoulli_small_values_exact():
    table = bernoulli_table(4)
    assert table[0] == Fraction(1)
    assert table[1] == Fraction(-1, 2)
    assert table[2] == Fraction(1, 6)
    assert table[4] == Fraction(-1, 30)
    assert table[6] == Fraction(1, 42)
    assert table[8] == Fraction(-1, 30)


def test_bernoulli_structure():
    table = bernoulli_table(10)
    assert len(table) == 21
    for k in range(1, 10):
        assert table[2 * k + 1] == 0
    for n in range(1, 11):
        assert (-1) ** (n + 1) * table[2 * n] > 0


def test_bernoulli_guard():
    bernoulli_table(64)  # top of the guarded range must work
    with pytest.raises(RangeError):
        bernoulli_table(65)
    with pytest.raises(DomainError):
        bernoulli_table(-1)


# -------------------------------------------------------------- hurwitz

def test_hurwitz_known_values():
    assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6, rel=1e-13)
    assert hurwitz_zeta(2.0, 0.5) == pytest.approx(HZ_2_HALF, rel=1e-13)
    # zeta(-1, a) = -(a^2 - a + 1/6)/2
    assert hurwitz_zeta(-1.0, 1.0 / 3.0) == pytest.approx(1.0 / 36.0, rel=1e-12)


def test_hurwitz_matches_mpmath_on_grid():
    for s in [-6.0, -4.5, -3.0, -1.5, -0.5, 0.5, 1.5, 2.5, 4.0, 6.0]:
        for a in [1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0]:
            want = float(mp.zeta(s, a))
            got = hurwitz_zeta(s, a)
            assert got == pytest.approx(want, rel=5e-12, abs=1e-13), (s, a)


def test_hurwitz_domain_and_pole():
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 0.5)
    for a in (0.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, a)


# ---------------------------------------------------------------- zeta

def test_zeta_classical_values():
    assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-13)
    assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-13)
    assert riemann_zeta(-1.0) == pytest.approx(-1.0 / 12.0, rel=1e-12)
    assert riemann_zeta(-3.0) == pytest.approx(1.0 / 120.0, rel=1e-12)
    assert riemann_zeta(-0.5) == pytest.approx(ZETA_M0P5, rel=1e-12)
    assert riemann_zeta(0.5) == pytest.approx(ZETA_0P5, rel=1e-12)
    assert riemann_zeta(3.0) == pytest.approx(ZETA_3, rel=1e-13)


def test_zeta_special_points():
    assert riemann_zeta(0.0) == -0.5
    assert riemann_zeta(-2.0) == 0.0
    assert riemann_zeta(-4.0) == 0.0
    assert riemann_zeta(-6.0) == 0.0
    with pytest.raises(PoleError):
        riemann_zeta(1.0)


def test_zeta_agrees_with_hurwitz_across_range():
    # Relative agreement to 1e-11 on [-6, 6] away from s=1; at the trivial
    # zeros both routes must sit below float noise in absolute terms.
    for s in np.arange(-6.0, 6.01, 0.25):
        s = float(s)
        if s == 1.0:
            continue
        z = riemann_zeta(s)
        h = hurwitz_zeta(s, 1.0)
        if s in (-2.0, -4.0, -6.0):
            assert abs(z) <= 1e-15 and abs(h) <= 1e-13
        else:
            assert z == pytest.approx(h, rel=1e-11), s


# ------------------------------------------------------------------ L3

def test_L3_classical_value_at_1():
    # Entire function: s=1 is a regular point.
    assert dirichlet_L3(1.0) == pytest.approx(L3_AT_1, rel=1e-12)


def test_L3_frozen_values():
    assert dirichlet_L3(2.0) == pytest.approx(L3_AT_2, rel=1e-12)
    assert dirichlet_L3(0.5) == pytest.approx(L3_AT_HALF, rel=1e-12)
    assert dirichlet_L3(-0.5) == pytest.approx(L3_AT_MHALF, rel=1e-12)
    assert dirichlet_L3(0.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_L3_matches_character_series():
    # chi(n): +1 for n = 1 mod 3, -1 for n = 2 mod 3, 0 otherwise.
    for s in (2.0, 3.0, 4.0):
        acc = 0.0
        for n in range(1, 200000):
            r = n % 3
            if r == 1:
                acc += n**-s
            elif r == 2:
                acc -= n**-s
        assert dirichlet_L3(s) == pytest.approx(acc, abs=1e-8)


def test_L3_matches_mpmath_on_grid():
    third, twothird = mp.mpf(1) / 3, mp.mpf(2) / 3
    for s in [-6.0, -3.5, -2.0, -0.5, 0.5, 1.5, 3.0, 5.0]:
        want = float(mp.mpf(3) ** (-s) * (mp.zeta(s, third) - mp.zeta(s, twothird)))
        assert dirichlet_L3(s) == pytest.approx(want, rel=5e-12, abs=1e-13), s


# ------------------------------------------------------- hex lattice zeta

def test_hex_zeta_frozen_values():
    assert hex_lattice_zeta(4.0) == pytest.approx(HEX_AT_4, rel=1e-12)
    assert hex_lattice_zeta(6.0) == pytest.approx(HEX_AT_6, rel=1e-12)
    assert hex_lattice_zeta(3.0) == pytest.approx(HEX_AT_3, rel=1e-12)
    assert hex_lattice_zeta(-1.0) == pytest.approx(HEX_AT_M1, rel=1e-11)


def test_hex_zeta_pole():
    with pytest.raises(PoleError):
        hex_lattice_zeta(2.0)


@pytest.mark.parametrize("s", [-6.5, -20.0, -40.0])
def test_zeta_range_guard(s):
    # Below s = -6 the Euler-Maclaurin head and pole term cancel beyond
    # 80-bit accumulation (hurwitz_zeta(-40, 1/2) used to return 3.3e27
    # where the value is 0): raise instead of answering.
    with pytest.raises(RangeError):
        hurwitz_zeta(s, 0.5)
    with pytest.raises(RangeError):
        dirichlet_L3(s)
    with pytest.raises(RangeError):
        hex_lattice_zeta(2.0 * s)
    # zeta reflects onto 1 - s > 1 and keeps answering
    assert math.isfinite(riemann_zeta(s))


def test_zeta_range_guard_edge():
    assert hurwitz_zeta(EM_MIN_S, 1.0) == pytest.approx(0.0, abs=1e-13)
    assert math.isfinite(dirichlet_L3(EM_MIN_S))
    assert math.isfinite(hex_lattice_zeta(2.0 * EM_MIN_S))


def test_hex_zeta_within_direct_sum_tail():
    for s in (3.0, 4.0, 6.0):
        value, tail_lower, tail_upper, _ = hex_lattice_sum(s, 200.0)
        gap = hex_lattice_zeta(s) - value
        assert tail_lower <= gap <= tail_upper, s
        assert tail_upper <= 10.0 * 200.0 ** (2.0 - s)  # O(R^(2-s)) scale


# ------------------------------------------------------ direct lattice sum

def test_lattice_sum_first_shell():
    value, _, _, points = hex_lattice_sum(4.0, 1.0)
    assert value == 6.0
    assert points == 6


def test_lattice_sum_shell_counts():
    # r(n) = 6 sum_{d | n} chi_-3(d): zeta_hex(s) = 6 zeta(s/2) L(s/2, chi_-3)
    # as Dirichlet series.  r(n) is the count within sqrt(n) less that
    # within sqrt(n - 1).
    chi = (0, 1, -1)
    within = [0] + [hex_lattice_sum(4.0, math.sqrt(n))[3] for n in range(1, 401)]
    for n in range(1, 401):
        want = 6 * sum(chi[k % 3] for k in range(1, n + 1) if n % k == 0)
        assert within[n] - within[n - 1] == want, n


def test_lattice_sum_frozen_value():
    value = hex_lattice_sum(10.0, 10.0)[0]
    assert value == pytest.approx(LATTICE_10_10, rel=1e-14)
    # dominated by the six unit vectors
    assert abs(value - 6.0) < 0.04


def test_lattice_sum_corrected_beats_raw():
    value, tail_lower, tail_upper, _ = hex_lattice_sum(4.0, 200.0)
    corrected = value + 0.5 * (tail_lower + tail_upper)
    truth = HEX_AT_4
    assert abs(corrected - truth) <= 0.5 * (tail_upper - tail_lower)
    assert abs(corrected - truth) < abs(value - truth)


def test_lattice_sum_value_monotone_in_radius():
    values = [hex_lattice_sum(4.0, r)[0] for r in (1.0, 2.0, 5.0, 20.0)]
    assert values == sorted(values)


# --------------------------------------------------- sinc power coefficients

def test_sinc_coeffs_constant_term():
    for s in (-3.0, -1.0, 0.0, 0.7, 2.0):
        assert sinc_power_coeffs(s, 0) == (1.0,)


def test_sinc_coeffs_first_order():
    # alpha_1(s) = s pi^2 / 6
    for s in (-2.0, -1.0, 0.5, 3.0):
        assert sinc_power_coeffs(s, 1)[1] == pytest.approx(s * math.pi**2 / 6, rel=1e-13)
    assert sinc_power_coeffs(-1.0, 1)[1] == pytest.approx(-math.pi**2 / 6, rel=1e-13)


def test_sinc_coeffs_s_minus_one_is_sinc_taylor():
    # At s=-1 the function is sinc itself: alpha_n = (-1)^n pi^(2n) / (2n+1)!
    coeffs = sinc_power_coeffs(-1.0, 6)
    for n in range(7):
        want = (-1) ** n * math.pi ** (2 * n) / math.factorial(2 * n + 1)
        assert coeffs[n] == pytest.approx(want, rel=1e-12), n


def test_sinc_coeffs_product_rule():
    # (sinc)^(-s1) (sinc)^(-s2) = (sinc)^(-(s1+s2)): coefficients convolve.
    p = 6
    for s1, s2 in [(-1.0, -1.0), (2.0, 0.5), (-3.0, 1.5)]:
        a = sinc_power_coeffs(s1, p)
        b = sinc_power_coeffs(s2, p)
        c = sinc_power_coeffs(s1 + s2, p)
        for n in range(p + 1):
            conv = math.fsum(a[k] * b[n - k] for k in range(n + 1))
            assert c[n] == pytest.approx(conv, rel=1e-11, abs=1e-13), (s1, s2, n)


def test_sinc_coeff_zeta_product_identity():
    # alpha_n(-1) zeta(-1-2n) = (-1)^(n+1) B_(2n+2) pi^(2n) / (2n+2)!,
    # and every one of these products is negative.
    table = bernoulli_table(8)
    coeffs = sinc_power_coeffs(-1.0, 6)
    assert coeffs[1] * riemann_zeta(-3.0) == pytest.approx(-math.pi**2 / 720, rel=1e-12)
    for n in range(1, 7):
        lhs = coeffs[n] * riemann_zeta(-1.0 - 2 * n)
        b = table[2 * n + 2]
        rhs = (-1) ** (n + 1) * float(b) * math.pi ** (2 * n) / math.factorial(2 * n + 2)
        assert lhs == pytest.approx(rhs, rel=1e-12), n
        assert lhs < 0.0


def test_sinc_coeffs_guard():
    sinc_power_coeffs(1.0, 32)
    with pytest.raises(RangeError):
        sinc_power_coeffs(1.0, 33)
    with pytest.raises(DomainError):
        sinc_power_coeffs(1.0, -1)
