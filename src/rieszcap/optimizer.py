"""Projected-gradient search for extremal configurations on S^d.

Maximizes the sum of distances (s < 0) or minimizes the Riesz s-energy
(s >= 0) by steepest ascent/descent in the tangent space, renormalizing
after every move, with uniform random restarts.  A trial step is accepted
only if it passes the monotone Armijo test against the current energy;
otherwise it is backtracked.  The first trial step is `step_init`; after
each accepted step the next trial is a Riemannian Barzilai-Borwein step
(Barzilai & Borwein 1988; Iannazzo & Porcelli 2018), alternating the long
<s,s>/<s,y> and short <s,y>/<y,y> forms.  Here s is the move and y the
change in the gradient of the minimized objective (minus the energy when
maximizing), with the old gradient projected onto the new tangent spaces.
Where <s,y> <= 0 the step doubles instead.  Each trace row records the
accepted step.  No global-optimality claim is made anywhere: `converged`
only says the tangential gradient dropped below `grad_tol`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import riesz_energy, riesz_energy_and_gradient
from .errors import DomainError, ValidationError
from .pointsets import PointSet, random_uniform

STEP_STALL = 1e-17  # backtracked step below this means float plateau
_GROWTH = 2.0
_BACKTRACK = 0.5
_ARMIJO_C = 1e-4


@dataclass(frozen=True)
class OptimizerConfig:
    s: float
    max_iters: int = 2000
    grad_tol: float = 1e-9
    restarts: int = 1
    seed: int = 0
    step_init: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "s", float(self.s))
        if not self.grad_tol > 0.0:
            raise ValidationError(f"grad_tol must be > 0, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {self.restarts}")
        if not self.step_init > 0.0:
            raise ValidationError(f"step_init must be > 0, got {self.step_init}")

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
    trace: list | None = None  # (iter, objective, grad_norm, step) rows

    def to_json(self) -> dict:
        return {
            "energy": self.energy,
            "grad_norm": self.grad_norm,
            "iterations": self.iterations,
            "restarts_used": self.restarts_used,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "restart_energies": list(self.restart_energies),
            "restart_stop_reasons": list(self.restart_stop_reasons),
            "restart_grad_norms": list(self.restart_grad_norms),
            "n": self.best.n,
            "d": self.best.d,
        }


def _renormalized(x: np.ndarray) -> np.ndarray | None:
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms < 1e-8):  # step collapsed a point; caller must backtrack
        return None
    return x / norms[:, None]


def _run_single(x0: np.ndarray, d: int, cfg: OptimizerConfig, keep_trace: bool):
    sign = 1.0 if cfg.maximize else -1.0
    x = x0.copy()
    energy, grad = riesz_energy_and_gradient(PointSet(d, x), cfg.s)
    gmax = float(np.linalg.norm(grad, axis=1).max()) if x.shape[0] > 1 else 0.0
    step = cfg.step_init
    iters = 0
    stop = "max_iters"
    trace = [(0, energy, gmax, 0.0)] if keep_trace else None
    for _ in range(cfg.max_iters):
        if gmax <= cfg.grad_tol:
            stop = "grad_tol"
            break
        g2 = float(np.sum(grad * grad))
        accepted = False
        while step >= STEP_STALL:
            trial = _renormalized(x + (sign * step) * grad)
            if trial is not None:
                e_new, g_new = riesz_energy_and_gradient(PointSet(d, trial), cfg.s)
                if sign * (e_new - energy) >= _ARMIJO_C * step * g2:
                    accepted = True
                    break
            step *= _BACKTRACK
        if not accepted:
            stop = "step_stall"
            break
        iters += 1
        # Riemannian BB: projection carries the old gradient to the new
        # tangent spaces; c is the curvature along s of -sign * energy.
        s_vec = trial - x
        y = g_new - (grad - np.sum(grad * trial, axis=1, keepdims=True) * trial)
        c = -sign * float(np.sum(s_vec * y))
        x, energy, grad = trial, e_new, g_new
        gmax = float(np.linalg.norm(grad, axis=1).max())
        if keep_trace:
            trace.append((iters, energy, gmax, step))
        if c <= 0.0:
            step *= _GROWTH
        elif iters % 2:
            step = float(np.sum(s_vec * s_vec)) / c
        else:
            step = c / float(np.sum(y * y))
    if gmax <= cfg.grad_tol:
        stop = "grad_tol"
    return x, energy, gmax, iters, stop, trace


def optimize(
    X0: PointSet, cfg: OptimizerConfig, keep_trace: bool = False, threads: int = 1
) -> OptimizerResult:
    """Best-of-restarts projected gradient from X0.

    Restart 0 starts at X0; restarts 1..k-1 start from uniform draws seeded
    by children of cfg.seed, so the whole run is deterministic.  Ties in the
    final objective go to the earlier restart.  `threads` > 1 runs restarts
    concurrently; selection order is by restart index either way, so the
    result does not depend on threads.  Threads pay off only at hundreds of
    points: on a 2-vCPU host with 4 restarts on S^2, 2 threads took 1.7x as
    long as one at N=64 and 0.6x as long at N=512.
    """
    sign = 1.0 if cfg.maximize else -1.0
    ss = np.random.SeedSequence(cfg.seed)
    children = ss.spawn(cfg.restarts - 1) if cfg.restarts > 1 else []
    starts = [X0.points] + [
        random_uniform(X0.d, X0.n, seed=children[k]).points
        for k in range(cfg.restarts - 1)
    ]
    if threads > 1 and cfg.restarts > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            outs = list(
                pool.map(lambda s0: _run_single(s0, X0.d, cfg, keep_trace), starts)
            )
    else:
        outs = [_run_single(s0, X0.d, cfg, keep_trace) for s0 in starts]
    best = None
    for out in outs:
        if best is None or sign * (out[1] - best[1]) > 0.0:
            best = out
    x, energy, gmax, iters, stop, trace = best
    return OptimizerResult(
        best=PointSet(X0.d, x),
        energy=energy,
        grad_norm=gmax,
        iterations=iters,
        restarts_used=cfg.restarts,
        converged=gmax <= cfg.grad_tol,
        stop_reason=stop,
        restart_energies=[out[1] for out in outs],
        restart_stop_reasons=[out[4] for out in outs],
        restart_grad_norms=[out[2] for out in outs],
        trace=trace,
    )


def _tangent_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space at unit vector x (d vectors)."""
    dim = x.shape[0]
    order = np.argsort(np.abs(x))  # canonical vectors least aligned with x
    basis = []
    for i in order[: dim - 1]:
        v = np.zeros(dim)
        v[i] = 1.0
        v -= (v @ x) * x
        for b in basis:
            v -= (v @ b) * b
        v /= np.linalg.norm(v)
        basis.append(v)
    return np.array(basis)


def finite_diff_gradient(X: PointSet, s: float, h: float) -> np.ndarray:
    """Central-difference tangential gradient of the energy, the test oracle
    for riesz_gradient: perturb one point along a tangent basis vector,
    renormalize, difference the energies."""
    h = float(h)
    if not 1e-8 <= h <= 1e-3:
        raise DomainError(f"step h must lie in [1e-8, 1e-3], got {h}")
    pts = X.points
    out = np.zeros_like(pts)
    for j in range(X.n):
        basis = _tangent_basis(pts[j])
        for v in basis:
            plus = pts.copy()
            plus[j] = pts[j] + h * v
            plus[j] /= np.linalg.norm(plus[j])
            minus = pts.copy()
            minus[j] = pts[j] - h * v
            minus[j] /= np.linalg.norm(minus[j])
            deriv = (
                riesz_energy(PointSet(X.d, plus, norm_tol=1e-9), s)
                - riesz_energy(PointSet(X.d, minus, norm_tol=1e-9), s)
            ) / (2.0 * h)
            out[j] += deriv * v
    return out
