"""Projected-gradient search for extremal configurations on S^d.

Maximizes the sum of distances (s < 0) or minimizes the Riesz s-energy
(s >= 0) by steepest ascent/descent in the tangent space, renormalizing
after every move, with uniform random restarts.  A trial step is accepted
only if it passes a nonmonotone Armijo test (Zhang & Hager 2004): its
objective f = sign * energy must reach C_k + `_ARMIJO_C` step |g|^2, where
C_k is a weighted average of the accepted objectives, not the current
one; otherwise it is backtracked.  With weight eta = `_ZH_ETA`, C_0 is
the start's objective, Q_0 = 1, and each acceptance sets
Q_{k+1} = eta Q_k + 1 and C_{k+1} = (eta Q_k C_k + f_{k+1}) / Q_{k+1}.
Because C_k lags the latest objective, a step whose gain is below the
rounding of the O(N^2) energy sum can still pass, and Barzilai-Borwein
steps are rejected less often (Raydan 1997).  C restarts with every
restart.  The first trial step is `step_init`; after each accepted step
the next trial is a Riemannian Barzilai-Borwein step
(Barzilai & Borwein 1988; Iannazzo & Porcelli 2018), alternating the long
<s,s>/<s,y> and short <s,y>/<y,y> forms.  Here s is the move and y the
change in the gradient of the minimized objective (minus the energy when
maximizing), with the old gradient projected onto the new tangent spaces.
Where <s,y> <= 0 the step doubles instead.  Each trace row records the
accepted step.  No global-optimality claim is made anywhere: `converged`
only says the tangential gradient dropped below `grad_tol`.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, field, fields
from numbers import Real

import numpy as np

from .energy import _Walk, riesz_energy_and_gradient
from .errors import ValidationError, _require_int
from .pointsets import PointSet, _unit_rows, random_uniform
from .special_functions import _require_finite

STEP_STALL = 1e-17  # backtracked step below this means float plateau
_GROWTH = 2.0
_BACKTRACK = 0.5
_ARMIJO_C = 1e-4
_ZH_ETA = 0.95  # weight of the past in the Zhang-Hager reference C_k


@dataclass(frozen=True, kw_only=True)
class OptimizerConfig:  # also the optimize command's flags, defaults and their order
    s: float
    restarts: int = 1
    seed: int = 0
    max_iters: int = 2000
    grad_tol: float = 1e-9
    step_init: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "s", _require_finite("s", self.s))
        # finite: an infinite step_init never halves below STEP_STALL
        for name in ("grad_tol", "step_init"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 < value < np.inf:
                raise ValidationError(f"{name} must be a finite number > 0, got {value!r}")
        for name, minimum in (("max_iters", 1), ("restarts", 1), ("seed", 0)):
            object.__setattr__(self, name, _require_int(name, getattr(self, name), minimum))

    @property
    def maximize(self) -> bool:
        """True for s < 0, where the sum of distances is maximized."""
        return self.s < 0.0


@dataclass(frozen=True)
class OptimizerResult:
    best: PointSet
    energy: float
    grad_norm: float
    iterations: int
    restarts_used: int
    converged: bool
    stop_reason: str
    restart_energies: list = field(default_factory=list)
    restart_stop_reasons: list = field(default_factory=list)
    restart_grad_norms: list = field(default_factory=list)
    restart_evaluations: list = field(default_factory=list)
    trace: list | None = None  # (iter, objective, grad_norm, step) rows

    def to_json(self) -> dict:
        """Every field but `best` and `trace`, lists copied, then n and d."""
        out = {f.name: copy(getattr(self, f.name)) for f in fields(self) if f.name not in ("best", "trace")}
        return {**out, "n": self.best.n, "d": self.best.d}


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # not np.vdot: OpenBLAS splits a dot product of more than 10,000 entries
    # over its threads, and the iterates would depend on the BLAS thread count
    return float(np.einsum("ij,ij->", a, b))


def _grad_sizes(g: np.ndarray) -> tuple[float, float]:
    """|g|^2 and the largest row norm of g."""
    sq = _row_dots(g, g)
    return float(sq.sum()), math.sqrt(float(sq.max()))


def _renormalized(x: np.ndarray) -> np.ndarray | None:
    """x with its rows divided by their norms, in place; None, x untouched,
    when a row is NaN, infinite, overflows or has collapsed."""
    norms = np.sqrt(_row_dots(x, x))  # einsum does not warn on overflow
    # a step that collapsed a point or overflowed; the caller backtracks
    if not (norms.min() >= 1e-8 and norms.max() < np.inf):
        return None
    x /= norms[:, None]
    return x


def _run_single(X: PointSet, cfg: OptimizerConfig, keep_trace: bool):
    sign = 1.0 if cfg.maximize else -1.0
    walk = _Walk(X.n, X.d + 1, True)  # every evaluation of this restart reuses its buffers
    energy, grad = riesz_energy_and_gradient(X, cfg.s, _walk=walk)
    evals = 1
    g2, gmax = _grad_sizes(grad)
    ref, weight = sign * energy, 1.0  # Zhang-Hager C_k and Q_k
    step = cfg.step_init
    iters = 0
    stop = "max_iters"
    trace = [(0, energy, gmax, 0.0)] if keep_trace else None
    best = (X, energy, gmax)  # the best accepted iterate, a set it evaluated
    for _ in range(cfg.max_iters):
        if gmax <= cfg.grad_tol:
            break
        while step >= STEP_STALL:
            trial = grad * (sign * step)  # the bits of x + (sign * step) * grad, one buffer
            trial += X.points
            trial = _renormalized(trial)
            if trial is not None:
                Y = _unit_rows(X.d, trial)
                e_new, g_new = riesz_energy_and_gradient(Y, cfg.s, _walk=walk)
                evals += 1
                if sign * e_new >= ref + _ARMIJO_C * step * g2:
                    break
            step *= _BACKTRACK
        else:
            stop = "step_stall"
            break
        iters += 1
        grown = _ZH_ETA * weight + 1.0
        ref = (_ZH_ETA * weight * ref + sign * e_new) / grown
        weight = grown
        # Riemannian BB: projection carries the old gradient to the new
        # tangent spaces; c is the curvature along s of -sign * energy.
        s_vec = trial - X.points
        y = g_new - (grad - _row_dots(grad, trial)[:, None] * trial)
        c = -sign * _dot(s_vec, y)
        X, energy, grad = Y, e_new, g_new
        g2, gmax = _grad_sizes(grad)
        if sign * energy >= sign * best[1]:  # ties: the latest
            best = (X, energy, gmax)
        if keep_trace:
            trace.append((iters, energy, gmax, step))
        if c <= 0.0:
            step *= _GROWTH
        elif iters % 2:
            step = _dot(s_vec, s_vec) / c
        else:
            step = c / _dot(y, y)
    if gmax <= cfg.grad_tol:
        stop = "grad_tol"
    else:  # nonmonotone acceptance may have left the best iterate behind
        X, energy, gmax = best
    return X, energy, gmax, iters, stop, evals, trace


def optimize(
    X0: PointSet, cfg: OptimizerConfig, keep_trace: bool = False, threads: int = 1
) -> OptimizerResult:
    """Best-of-restarts projected gradient from X0.

    Restart 0 starts at X0, evaluated as given; restarts 1..k-1 start from
    uniform draws seeded by children of cfg.seed, so the whole run is
    deterministic.  A restart that stops by max_iters or step_stall yields
    its best accepted iterate, a grad_tol stop its last; either is the set
    it evaluated, so `best` may be X0 itself.  Ties in the final objective
    go to the earlier restart.  `threads` > 1 runs restarts
    concurrently; selection order is by restart index either way, so the
    result does not depend on threads.  Threads pay off only at hundreds of
    points: on a 2-vCPU host with 4 restarts on S^2, 2 threads took 1.8x as
    long as one at N=64 and 0.65x as long at N=512.
    """
    threads = _require_int("threads", threads, 1)
    sign = 1.0 if cfg.maximize else -1.0
    starts = [X0]
    if cfg.restarts > 1:
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts - 1)
        starts += [random_uniform(X0.d, X0.n, seed=child) for child in children]
    if threads > 1 and cfg.restarts > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            outs = list(pool.map(lambda X: _run_single(X, cfg, keep_trace), starts))
    else:
        outs = [_run_single(X, cfg, keep_trace) for X in starts]
    sets, energies, gmaxes, iters, stops, evals, traces = zip(*outs)
    k = max(range(cfg.restarts), key=lambda k: sign * energies[k])  # ties: the earlier restart
    return OptimizerResult(
        best=sets[k],
        energy=energies[k],
        grad_norm=gmaxes[k],
        iterations=iters[k],
        restarts_used=cfg.restarts,
        converged=gmaxes[k] <= cfg.grad_tol,
        stop_reason=stops[k],
        restart_energies=list(energies),
        restart_stop_reasons=list(stops),
        restart_grad_norms=list(gmaxes),
        restart_evaluations=list(evals),
        trace=traces[k],
    )
