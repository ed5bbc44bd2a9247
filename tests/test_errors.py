"""Integer arguments: every public integer parameter is checked by the same
rule (errors._require_int), so bools, floats, values below the minimum and
values above a guard fail alike, and numpy integers pass."""

import numpy as np
import pytest

from rieszcap.asymptotics import predicted_l2_roots_of_unity, roots_of_unity_energy_expansion
from rieszcap.discrepancy import sample_centers, sigma_cap, weyl_sums
from rieszcap.energy import (
    ball_sphere_ratio,
    boundary_leading_term,
    conjectured_C,
    continuous_energy,
)
from rieszcap.errors import DomainError, RangeError
from rieszcap.pointsets import (
    fibonacci_sphere,
    hammersley_square,
    random_uniform,
    roots_of_unity,
)
from rieszcap.special_functions import (
    bernoulli_table,
    harmonic_dim,
    legendre_P,
    sinc_power_coeffs,
    sphere_surface_area,
)

_FIB = fibonacci_sphere(10)

# (call with the integer under test, minimum, guard or None)
INTEGER_PARAMETERS = {
    "sphere_surface_area.d": (lambda v: sphere_surface_area(v), 1, None),
    "harmonic_dim.d": (lambda v: harmonic_dim(v, 2), 1, None),
    "harmonic_dim.l": (lambda v: harmonic_dim(2, v), 0, None),
    "bernoulli_table.m": (lambda v: bernoulli_table(v), 0, 64),
    "sinc_power_coeffs.p": (lambda v: sinc_power_coeffs(-1.0, v), 0, 32),
    "legendre_P.l": (lambda v: legendre_P(v, 0.5), 0, None),
    "continuous_energy.d": (lambda v: continuous_energy(v, -1.0), 1, None),
    "ball_sphere_ratio.d": (lambda v: ball_sphere_ratio(v), 1, None),
    "boundary_leading_term.d": (lambda v: boundary_leading_term(v, 10.0), 1, None),
    "conjectured_C.d": (lambda v: conjectured_C(v, -1.0), 1, None),
    "roots_of_unity.n": (lambda v: roots_of_unity(v), 1, None),
    "random_uniform.d": (lambda v: random_uniform(v, 5, 0), 1, None),
    "random_uniform.n": (lambda v: random_uniform(2, v, 0), 1, None),
    "fibonacci_sphere.n": (lambda v: fibonacci_sphere(v), 2, None),
    "hammersley_square.m": (lambda v: hammersley_square(v), 0, 24),
    "sigma_cap.d": (lambda v: sigma_cap(v, 0.5), 1, None),
    "sample_centers.m": (lambda v: sample_centers(2, v, 0), 1, None),
    "weyl_sums.L": (lambda v: weyl_sums(_FIB, v), 1, 256),
    "roots_of_unity_energy_expansion.N": (
        lambda v: roots_of_unity_energy_expansion(-1.0, v, 2), 1, None
    ),
    "roots_of_unity_energy_expansion.p": (
        lambda v: roots_of_unity_energy_expansion(-1.0, 8, v), 0, 16
    ),
    "predicted_l2_roots_of_unity.N": (lambda v: predicted_l2_roots_of_unity(v, 2), 1, None),
    "predicted_l2_roots_of_unity.p": (lambda v: predicted_l2_roots_of_unity(8, v), 0, 16),
}


@pytest.mark.parametrize("site", sorted(INTEGER_PARAMETERS))
def test_integer_arguments_checked_alike(site):
    call, minimum, guard = INTEGER_PARAMETERS[site]
    for bad in (True, 2.0, minimum - 1):
        with pytest.raises(DomainError):
            call(bad)
    if guard is not None:
        with pytest.raises(RangeError):
            call(guard + 1)
    call(np.int64(minimum + 1))
