import math

import numpy as np
import pytest

from rieszcap.energy import riesz_energy, riesz_gradient
from rieszcap.errors import CoincidentPointsError, DomainError, ValidationError
from rieszcap.optimizer import OptimizerConfig, finite_diff_gradient, optimize
from rieszcap.pointsets import PointSet, random_uniform, roots_of_unity


def _antipodal_s1():
    return PointSet(1, np.array([[1.0, 0.0], [-1.0, 0.0]]))


# ------------------------------------------------------------------ config

def test_config_maximize_autoresolve():
    assert OptimizerConfig(s=-1.0).maximize is True
    assert OptimizerConfig(s=0.0).maximize is False
    assert OptimizerConfig(s=2.0).maximize is False


@pytest.mark.parametrize(
    "kwargs",
    [
        {"grad_tol": 0.0},
        {"grad_tol": -1e-9},
        {"max_iters": 0},
        {"restarts": 0},
        {"grad_tol": float("nan")},
        {"max_iters": -1},
        {"step_init": -0.1},
        {"step_init": 0.0},
    ],
)
def test_config_field_validation(kwargs):
    with pytest.raises(ValidationError):
        OptimizerConfig(s=-1.0, **kwargs)


# ---------------------------------------------------------------- optimize

def test_antipodal_pair_is_fixed_point():
    res = optimize(_antipodal_s1(), OptimizerConfig(s=-1.0))
    assert res.iterations == 0
    assert res.converged
    assert res.stop_reason == "grad_tol"
    assert res.energy == pytest.approx(4.0, abs=1e-15)
    np.testing.assert_array_equal(res.best.points, _antipodal_s1().points)


def test_three_points_circle_reach_equilateral():
    res = optimize(
        random_uniform(1, 3, seed=1), OptimizerConfig(s=-1.0, restarts=3, seed=7)
    )
    assert abs(res.energy - 6.0 * math.sqrt(3.0)) < 1e-8


def test_four_points_sphere_reach_tetrahedron():
    res = optimize(
        random_uniform(2, 4, seed=2), OptimizerConfig(s=-1.0, restarts=3, seed=11)
    )
    # ordered distance sum of the regular tetrahedron, edge sqrt(8/3)
    assert abs(res.energy - 12.0 * math.sqrt(8.0 / 3.0)) < 1e-6
    # equivalently: mean distance and the L2 cap discrepancy it induces
    mean = res.energy / 16.0
    assert mean == pytest.approx(0.75 * math.sqrt(8.0 / 3.0), abs=1e-7)
    dsq = 0.25 * (4.0 / 3.0 - mean)
    assert dsq == pytest.approx(0.25 * (4.0 / 3.0 - 0.75 * math.sqrt(8.0 / 3.0)), abs=1e-7)


@pytest.mark.parametrize("n", [2, 5, 9, 12])
def test_circle_matches_closed_form(n):
    res = optimize(
        random_uniform(1, n, seed=n), OptimizerConfig(s=-1.0, restarts=4, seed=n)
    )
    assert abs(res.energy - 2.0 * n / math.tan(math.pi / (2.0 * n))) < 1e-7


def test_minimization_side_recovers_roots():
    res = optimize(
        random_uniform(1, 3, seed=5), OptimizerConfig(s=2.0, restarts=3, seed=3)
    )
    assert res.energy == pytest.approx(riesz_energy(roots_of_unity(3), 2.0), abs=1e-8)


def test_trace_objective_monotone_and_iterates_feasible():
    res = optimize(
        random_uniform(2, 10, seed=4), OptimizerConfig(s=-1.0), keep_trace=True
    )
    objs = [row[1] for row in res.trace]
    assert all(b >= a for a, b in zip(objs, objs[1:]))  # ascent accepted only
    assert res.trace[0][0] == 0
    assert res.trace[-1][0] == res.iterations
    assert np.abs(np.linalg.norm(res.best.points, axis=1) - 1.0).max() < 1e-12


def test_descent_trace_monotone():
    res = optimize(
        random_uniform(2, 8, seed=6), OptimizerConfig(s=1.0), keep_trace=True
    )
    objs = [row[1] for row in res.trace]
    assert all(b <= a for a, b in zip(objs, objs[1:]))


def test_deterministic_bitwise():
    X0 = random_uniform(2, 12, seed=8)
    cfg = OptimizerConfig(s=-1.0, restarts=3, seed=21)
    a = optimize(X0, cfg)
    b = optimize(X0, cfg)
    assert np.array_equal(a.best.points, b.best.points)
    assert a.energy == b.energy
    assert a.restart_energies == b.restart_energies


def test_restarts_never_hurt():
    X0 = random_uniform(2, 6, seed=9)
    single = optimize(X0, OptimizerConfig(s=-1.0, restarts=1, seed=5))
    multi = optimize(X0, OptimizerConfig(s=-1.0, restarts=5, seed=5))
    assert multi.energy >= single.energy - 1e-12
    assert multi.restarts_used == 5
    assert len(multi.restart_energies) == 5
    assert multi.energy == pytest.approx(max(multi.restart_energies))
    # restart 0 starts at X0 in both runs, so it repeats the single run
    assert multi.restart_energies[0] == single.energy
    assert multi.restart_stop_reasons[0] == single.stop_reason
    assert multi.restart_grad_norms[0] == single.grad_norm
    assert len(multi.restart_stop_reasons) == len(multi.restart_grad_norms) == 5
    winner = multi.restart_energies.index(multi.energy)
    assert multi.restart_stop_reasons[winner] == multi.stop_reason
    assert multi.restart_grad_norms[winner] == multi.grad_norm


def test_evaluation_economy(monkeypatch):
    # every rejected trial pays for an evaluation: most Barzilai-Borwein
    # trial steps must pass the Armijo test at once
    import rieszcap.optimizer as opt

    calls = []
    counted = opt.riesz_energy_and_gradient

    def counting(X, s):
        calls.append(s)
        return counted(X, s)

    monkeypatch.setattr(opt, "riesz_energy_and_gradient", counting)
    res = optimize(random_uniform(2, 64, seed=64), OptimizerConfig(s=-1.0, grad_tol=1.92e-3))
    assert res.stop_reason == "grad_tol"
    assert res.iterations <= 400
    assert len(calls) <= 1.5 * res.iterations


def test_coincident_start_propagates():
    X0 = PointSet(2, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    for s in (1.0, -1.0):
        with pytest.raises(CoincidentPointsError):
            optimize(X0, OptimizerConfig(s=s))


def test_result_json_fields():
    res = optimize(random_uniform(1, 4, seed=3), OptimizerConfig(s=-1.0))
    blob = res.to_json()
    for key in (
        "energy",
        "grad_norm",
        "iterations",
        "restarts_used",
        "converged",
        "stop_reason",
        "restart_energies",
        "restart_stop_reasons",
        "restart_grad_norms",
        "n",
        "d",
    ):
        assert key in blob
    assert blob["n"] == 4 and blob["d"] == 1
    assert blob["restart_stop_reasons"] == [res.stop_reason]
    assert blob["restart_grad_norms"] == [res.grad_norm]


# ---------------------------------------------------- finite differences

def test_fd_matches_analytic_gradient():
    X = random_uniform(2, 20, seed=9)
    fd = finite_diff_gradient(X, -1.0, 1e-5)
    an = riesz_gradient(X, -1.0)
    assert np.linalg.norm(fd - an) / np.linalg.norm(an) < 1e-6


def test_fd_zero_at_critical_point():
    fd = finite_diff_gradient(roots_of_unity(8), -1.0, 1e-5)
    assert np.abs(fd).max() < 1e-6  # O(h^2) floor


def test_fd_step_guard():
    X = random_uniform(1, 3, seed=0)
    with pytest.raises(DomainError):
        finite_diff_gradient(X, -1.0, 1e-9)
    with pytest.raises(DomainError):
        finite_diff_gradient(X, -1.0, 1e-2)


def test_separating_close_pair_increases_distance_sum():
    # nearest pair pushed apart tangentially: sum of distances must grow
    theta = np.array([0.0, 0.05, math.pi])
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    X = PointSet(1, pts)
    g = riesz_gradient(X, -1.0)
    stepped = pts + 1e-6 * g  # ascent direction
    stepped /= np.linalg.norm(stepped, axis=1)[:, None]
    after = riesz_energy(PointSet(1, stepped), -1.0)
    assert after > riesz_energy(X, -1.0)
    # and the close pair's mutual distance specifically increased
    before_gap = np.linalg.norm(pts[0] - pts[1])
    after_gap = np.linalg.norm(stepped[0] - stepped[1])
    assert after_gap > before_gap
