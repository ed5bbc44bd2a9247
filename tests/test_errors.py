"""Integer arguments: every public integer parameter is checked by the same
rule (errors._require_int), so bools, floats, values below the minimum and
values above a guard fail alike, and numpy integers pass.  Real arguments
go through special_functions._require_finite: a string, None or a bool is
a ValidationError, inf or nan a DomainError."""

import numpy as np
import pytest

from rieszcap.asymptotics import (
    conjectured_A,
    conjectured_C,
    power_law_fit,
    predicted_l2_roots_of_unity,
    roots_of_unity_energy_expansion,
)
from rieszcap.discrepancy import sample_centers, sigma_cap, weyl_sums
from rieszcap.energy import ball_sphere_ratio, continuous_energy
from rieszcap.errors import DomainError, RangeError, ValidationError
from rieszcap.optimizer import OptimizerConfig, optimize
from rieszcap.pointsets import (
    fibonacci_sphere,
    hammersley_square,
    random_uniform,
    roots_of_unity,
)
from rieszcap.special_functions import (
    bernoulli_table,
    sinc_power_coeffs,
    sphere_surface_area,
)

_FIB = fibonacci_sphere(10)

# (call with the integer under test, minimum, guard or None)
INTEGER_PARAMETERS = {
    "sphere_surface_area.d": (lambda v: sphere_surface_area(v), 1, 2047),
    "bernoulli_table.m": (lambda v: bernoulli_table(v), 0, 64),
    "sinc_power_coeffs.p": (lambda v: sinc_power_coeffs(-1.0, v), 0, 32),
    "continuous_energy.d": (lambda v: continuous_energy(v, -1.0), 1, None),
    "ball_sphere_ratio.d": (lambda v: ball_sphere_ratio(v), 1, None),
    "conjectured_C.d": (lambda v: conjectured_C(v, -1.0), 1, None),
    "conjectured_A.d": (lambda v: conjectured_A(v), 1, None),
    "roots_of_unity.n": (lambda v: roots_of_unity(v), 1, None),
    "random_uniform.d": (lambda v: random_uniform(v, 5, 0), 1, None),
    "random_uniform.n": (lambda v: random_uniform(2, v, 0), 1, None),
    "random_uniform.seed": (lambda v: random_uniform(2, 5, v), 0, None),
    "fibonacci_sphere.n": (lambda v: fibonacci_sphere(v), 2, None),
    "hammersley_square.m": (lambda v: hammersley_square(v), 0, 24),
    "sigma_cap.d": (lambda v: sigma_cap(v, 0.5), 1, None),
    "sample_centers.m": (lambda v: sample_centers(2, v, 0), 1, None),
    "sample_centers.seed": (lambda v: sample_centers(2, 5, v), 0, None),
    "OptimizerConfig.max_iters": (lambda v: OptimizerConfig(s=-1.0, max_iters=v), 1, None),
    "OptimizerConfig.restarts": (lambda v: OptimizerConfig(s=-1.0, restarts=v), 1, None),
    "OptimizerConfig.seed": (lambda v: OptimizerConfig(s=-1.0, seed=v), 0, None),
    "optimize.threads": (
        lambda v: optimize(_FIB, OptimizerConfig(s=-1.0, max_iters=1), threads=v), 1, None
    ),
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


# (call with the real under test, a valid value)
REAL_PARAMETERS = {
    "sigma_cap.t": (lambda v: sigma_cap(2, v), 0.5),
    "roots_of_unity_energy_expansion.s": (lambda v: roots_of_unity_energy_expansion(v, 8, 2), -1.0),
    "power_law_fit.N": (lambda v: power_law_fit([(v, 0.5), (32, 0.3)]), 16.0),
    "power_law_fit.value": (lambda v: power_law_fit([(16, v), (32, 0.3)]), 0.5),
}


@pytest.mark.parametrize("site", sorted(REAL_PARAMETERS))
@pytest.mark.parametrize("bad", ["0.5", "x", None, True])
def test_real_arguments_reject_non_numbers(site, bad):
    with pytest.raises(ValidationError, match="must be a real number"):
        REAL_PARAMETERS[site][0](bad)


@pytest.mark.parametrize("site", sorted(REAL_PARAMETERS))
@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
def test_real_arguments_reject_non_finite(site, bad):
    with pytest.raises(DomainError, match="must be finite"):
        REAL_PARAMETERS[site][0](bad)


@pytest.mark.parametrize("site", sorted(REAL_PARAMETERS))
def test_real_arguments_accept_numbers_alike(site):
    call, valid = REAL_PARAMETERS[site]
    assert call(np.float64(valid)) == call(valid)
    if valid == int(valid):
        assert call(int(valid)) == call(valid)
