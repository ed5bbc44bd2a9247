import math
import threading

import numpy as np
import pytest

from rieszcap.energy import riesz_energy, riesz_gradient
from rieszcap.errors import CoincidentPointsError, DomainError, ValidationError
from rieszcap.optimizer import _ZH_ETA, OptimizerConfig, _renormalized, optimize
from rieszcap.pointsets import (
    NORM_TOL,
    PointSet,
    fibonacci_sphere,
    loads_pointset,
    random_uniform,
    roots_of_unity,
)

from oracles import finite_diff_gradient


def _antipodal_s1():
    return PointSet(1, np.array([[1.0, 0.0], [-1.0, 0.0]]))


@pytest.fixture
def evaluations(monkeypatch):
    """The point set of every energy/gradient call the optimizer makes."""
    import rieszcap.optimizer as opt

    calls = []
    counted = opt.riesz_energy_and_gradient

    def counting(X, s, **kwargs):
        calls.append(X)
        return counted(X, s, **kwargs)

    monkeypatch.setattr(opt, "riesz_energy_and_gradient", counting)
    return calls


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
        {"grad_tol": math.inf},
        {"step_init": math.inf},
        {"s": math.inf},
        {"s": math.nan},
        {"grad_tol": "1e-6"},
        {"step_init": None},
        {"grad_tol": True},
        {"s": "abc"},
        {"s": None},
        {"s": "1.5"},
        {"s": True},
    ],
)
def test_config_field_validation(kwargs):
    # a bad integer field or a non-finite s is a DomainError (_require_int,
    # _require_finite); a non-number or a bool in a float field a ValidationError
    expected = (DomainError if kwargs.keys() & {"max_iters", "restarts"} or type(kwargs.get("s")) is float
                else ValidationError)
    with pytest.raises(expected):
        OptimizerConfig(**{"s": -1.0, **kwargs})


# ---------------------------------------------------------------- optimize

def test_overflowing_trial_backtracks(evaluations):
    # the first trial's norms overflow; it must backtrack, not reach an evaluation
    X = fibonacci_sphere(20)
    res = optimize(X, OptimizerConfig(s=-1.0, step_init=1e300))
    assert all(np.isfinite(Y.points).all() for Y in evaluations)
    assert res.energy == pytest.approx(optimize(X, OptimizerConfig(s=-1.0)).energy, rel=1e-12)


@pytest.mark.parametrize(
    "row",
    [[np.nan, 0.0, 0.0], [0.0, -np.inf, 0.0], [1e200, 1e200, 0.0], [1e-9, 0.0, 0.0]],
    ids=["nan", "inf", "overflow", "collapsed"],
)
def test_renormalized_rejects_invalid_rows(row):
    x = 2.0 * fibonacci_sphere(5).points
    x[2] = row
    before = x.copy()
    assert _renormalized(x) is None
    np.testing.assert_array_equal(x, before)


def test_renormalized_divides_rows_in_place():
    x = 3.0 * random_uniform(2, 7, seed=1).points + 0.5
    expected = x / np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
    assert _renormalized(x) is x
    np.testing.assert_array_equal(x, expected)
    assert np.abs(np.linalg.norm(x, axis=1) - 1.0).max() <= NORM_TOL


def test_antipodal_pair_is_fixed_point():
    X0 = _antipodal_s1()
    res = optimize(X0, OptimizerConfig(s=-1.0))
    assert res.iterations == 0
    assert res.converged
    assert res.stop_reason == "grad_tol"
    assert res.energy == pytest.approx(4.0, abs=1e-15)
    assert res.best is X0  # the set it evaluated, not a copy


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


def _zhang_hager_references(objs, sign):
    """C_0..C_{k-1} rebuilt from the trace objectives with the module's eta."""
    ref, weight, refs = sign * objs[0], 1.0, []
    for f in objs[1:]:
        refs.append(ref)
        grown = _ZH_ETA * weight + 1.0
        ref = (_ZH_ETA * weight * ref + sign * f) / grown
        weight = grown
    return refs


def test_trace_beats_zhang_hager_average_and_iterates_feasible():
    res = optimize(
        random_uniform(2, 10, seed=4), OptimizerConfig(s=-1.0), keep_trace=True
    )
    objs = [row[1] for row in res.trace]
    refs = _zhang_hager_references(objs, 1.0)
    assert all(f > c for f, c in zip(objs[1:], refs))  # ascent on the average
    assert res.trace[0][0] == 0
    assert res.trace[-1][0] == res.iterations
    assert np.abs(np.linalg.norm(res.best.points, axis=1) - 1.0).max() < 1e-12


def test_descent_trace_beats_zhang_hager_average():
    res = optimize(
        random_uniform(2, 8, seed=6), OptimizerConfig(s=1.0), keep_trace=True
    )
    objs = [row[1] for row in res.trace]
    refs = _zhang_hager_references(objs, -1.0)
    assert all(-f > c for f, c in zip(objs[1:], refs))


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("n, s", [(4, -1.0), (5, -1.0), (6, -1.0), (12, -1.0), (12, 1.0)])
def test_small_sets_reach_default_grad_tol(n, s, seed):
    # a monotone Armijo test stalled all ten at 2.4e-9 to 1.1e-7: the gain
    # fell below the rounding of the energy sum before grad_tol 1e-9
    res = optimize(random_uniform(2, n, seed=seed), OptimizerConfig(s=s))
    assert res.stop_reason == "grad_tol"


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


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("s", [-1.0, 1.0])
def test_evaluated_trials_are_valid_unit_sets(evaluations, s, threads):
    # trial sets skip PointSet's copy and norm check: _renormalized's guard
    # alone keeps every evaluated set valid, rejected trials included
    res = optimize(
        random_uniform(2, 24, seed=3),
        OptimizerConfig(s=s, restarts=3, seed=5, grad_tol=1e-6, step_init=1.0),
        threads=threads,
    )
    assert len(evaluations) == sum(res.restart_evaluations)
    for X in evaluations:
        assert type(X) is PointSet and X.d == 2 and X.n == 24
        assert not X.points.flags.writeable
        assert np.isfinite(X.points).all()
        assert np.abs(np.linalg.norm(X.points, axis=1) - 1.0).max() <= NORM_TOL


def test_evaluation_economy(evaluations):
    # every rejected trial pays for an evaluation: most Barzilai-Borwein
    # trial steps must pass the Armijo test at once
    res = optimize(random_uniform(2, 64, seed=64), OptimizerConfig(s=-1.0, grad_tol=1.92e-3))
    assert res.stop_reason == "grad_tol"
    assert res.iterations <= 400
    assert len(evaluations) <= 1.5 * res.iterations
    assert res.restart_evaluations == [len(evaluations)]


def test_restart_evaluations_count_calls_and_ignore_threads(evaluations):
    X0 = random_uniform(2, 16, seed=2)
    cfg = OptimizerConfig(s=-1.0, restarts=3, seed=4, grad_tol=1e-6)
    serial = optimize(X0, cfg)
    assert len(serial.restart_evaluations) == 3
    assert sum(serial.restart_evaluations) == len(evaluations)
    threaded = optimize(X0, cfg, threads=3)
    assert threaded.restart_evaluations == serial.restart_evaluations
    assert threaded.to_json() == serial.to_json()


@pytest.mark.parametrize("threads", [1, 3])
def test_one_walk_per_restart(monkeypatch, threads):
    # each restart builds one walk, in its own thread, and every evaluation
    # of that restart reuses it
    import rieszcap.optimizer as opt

    built, seen = [], []
    evaluate = opt.riesz_energy_and_gradient

    class Walk(opt._Walk):
        def __init__(self, *args):
            super().__init__(*args)
            built.append((self, threading.get_ident()))

    def recording(X, s, **kwargs):
        seen.append((kwargs["_walk"], threading.get_ident()))
        return evaluate(X, s, **kwargs)

    monkeypatch.setattr(opt, "_Walk", Walk)
    monkeypatch.setattr(opt, "riesz_energy_and_gradient", recording)
    cfg = OptimizerConfig(s=-1.0, restarts=3, seed=4, grad_tol=1e-6)
    res = optimize(random_uniform(2, 16, seed=2), cfg, threads=threads)
    assert len(built) == 3 and len({id(walk) for walk, _ in built}) == 3
    owner = {id(walk): thread for walk, thread in built}
    assert all(owner.get(id(walk)) == thread for walk, thread in seen)
    per_walk = [sum(used is walk for used, _ in seen) for walk, _ in built]
    assert sorted(per_walk) == sorted(res.restart_evaluations)
    if threads == 1:
        assert per_walk == res.restart_evaluations


def test_max_iters_stop_returns_best_accepted_iterate():
    # nonmonotone acceptance ends this run 3.3e-5 below the best energy it
    # accepted; restarts are ranked by the returned energy
    res = optimize(
        random_uniform(4, 128, seed=128),
        OptimizerConfig(s=-1.0, grad_tol=1e-6, max_iters=3000),
        keep_trace=True,
    )
    assert res.stop_reason == "max_iters"
    assert res.iterations == res.trace[-1][0] == 3000
    assert res.energy == max(row[1] for row in res.trace) > res.trace[-1][1]
    best = next(row for row in res.trace if row[1] == res.energy)
    assert res.grad_norm == best[2] and not res.converged
    assert res.restart_energies == [res.energy] and res.restart_grad_norms == [res.grad_norm]
    assert riesz_energy(res.best, -1.0) == res.energy


@pytest.mark.parametrize("restarts", [1, 2])
def test_start_within_ingest_tolerance_runs_as_given(evaluations, restarts):
    # a loaded start 5e-10 off the sphere passes INGEST_NORM_TOL, not NORM_TOL:
    # restart 0 evaluates it as given and returns an evaluated set
    pts = random_uniform(2, 16, seed=3).points.copy()
    pts[0] *= 1.0 + 5e-10
    X0 = loads_pointset("".join(",".join(map(repr, row)) + "\n" for row in pts.tolist()))
    assert abs(np.linalg.norm(X0.points[0]) - 1.0) > NORM_TOL
    res = optimize(X0, OptimizerConfig(s=-1.0, restarts=restarts, seed=2, grad_tol=1e-6))
    assert evaluations[0] is X0
    assert any(res.best is X for X in evaluations)
    assert res.restart_stop_reasons == ["grad_tol"] * restarts


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
        "restart_evaluations",
        "n",
        "d",
    ):
        assert key in blob
    assert blob["n"] == 4 and blob["d"] == 1
    assert blob["restart_stop_reasons"] == [res.stop_reason]
    assert blob["restart_grad_norms"] == [res.grad_norm]
    assert blob["restart_evaluations"] == res.restart_evaluations
    assert len(res.restart_evaluations) == 1


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
