"""
Dense log-barrier interior-point solver for small smooth max-min programs.

Solves  maximize_x min_i f_i(x)  subject to  g_j(x) <= 0  and x >= lb,
with concave f_i and convex twice-differentiable g_j, via the epigraph
reformulation  maximize t  s.t.  t - f_i(x) <= 0.  Problems here are tiny
(around ten variables and a dozen constraints), so plain dense Newton steps
with backtracking are entirely adequate and keep the package dependency-free.

The kernel reads a problem as stacked rows, the terms f_i first and then the
constraints g_j.  A problem has ``n``, ``n_terms``, ``x0`` and ``bounds()``;
``values(x)`` gives the row values and ``evaluate(x)`` the values, their
Jacobian (one row per term or constraint) and the weighted row Hessian
w -> sum_i w_i Hessian(row_i).  ``MaxMinProblem`` stacks per-row callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

# x -> (value, gradient); treated as affine beyond first order.
TermFn = Callable[[np.ndarray], tuple[float, np.ndarray]]
# x -> (value, gradient, hessian or None for affine).
ConstraintFn = Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray | None]]
# Weights w over the rows -> sum_i w_i * Hessian(row_i), an n x n array.
WeightedHessian = Callable[[np.ndarray], np.ndarray]

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max-iterations"
STATUS_INFEASIBLE_START = "infeasible-start"

_TINY = 1e-300


class Rows(Protocol):
    """A problem as stacked rows; see the module docstring."""

    n: int
    n_terms: int
    x0: np.ndarray

    def bounds(self) -> np.ndarray: ...

    def values(self, x: np.ndarray) -> np.ndarray: ...

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, WeightedHessian]: ...


@dataclass
class MaxMinProblem:
    """
    Epigraph-ready max-min problem description.

    terms: concave objective pieces, each returning (value, gradient).
       The overall objective is their pointwise minimum.
    constraints: convex inequalities g(x) <= 0 returning (value, gradient,
       hessian); hessian None means affine.
    x0: starting point, ideally strictly feasible (phase I repairs it
       otherwise).
    lower_bounds: per-variable lower bounds; None means all zeros. Use
       -inf entries to leave a variable unbounded below.
    """

    n: int
    terms: Sequence[TermFn]
    constraints: Sequence[ConstraintFn]
    x0: np.ndarray
    lower_bounds: np.ndarray | None = None

    def bounds(self) -> np.ndarray:
        if self.lower_bounds is None:
            return np.zeros(self.n)
        return np.asarray(self.lower_bounds, dtype=float)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x)[0]

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, WeightedHessian]:
        outs = [fn(x) for fn in (*self.terms, *self.constraints)]
        vals = np.array([out[0] for out in outs], dtype=float)
        jac = np.array([out[1] for out in outs], dtype=float).reshape(len(outs), self.n)
        curved = [(i, out[2]) for i, out in enumerate(outs[self.n_terms:], self.n_terms)
                  if out[2] is not None]

        def weighted_hessian(w: np.ndarray) -> np.ndarray:
            hess = np.zeros((self.n, self.n))
            for i, h in curved:
                hess += w[i] * h
            return hess

        return vals, jac, weighted_hessian


# Fixed solver settings; deliberately unadventurous.
_T_INIT = 1.0
_T_MULT = 10.0
_GAP_TOL = 1e-8      # outer loop runs until m / t_barrier < gap_tol
_NEWTON_TOL = 1e-10  # on half the squared Newton decrement
_ARMIJO = 0.3
_BACKTRACK = 0.5
_MAX_NEWTON = 80
_MAX_OUTER = 48
KKT_TOL = 1e-3       # on the KKT residual relative to its terms' size
_FEAS_TOL = 1e-9


@dataclass
class KernelResult:
    x: np.ndarray
    value: float
    max_violation: float
    kkt_residual: float
    newton_iters: int
    outer_iters: int
    status: str
    multipliers: dict = field(default_factory=dict)


def _solve_newton_system(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve H d = -grad with diagonal equilibration and a ridge fallback."""
    d = np.sqrt(np.maximum(np.diag(hess), 1e-300))
    scaled = hess / np.outer(d, d)
    rhs = -grad / d
    ridge = 0.0
    for _ in range(6):
        try:
            step = np.linalg.solve(scaled + ridge * np.eye(len(grad)), rhs)
            return step / d
        except np.linalg.LinAlgError:
            ridge = 1e-12 if ridge == 0.0 else ridge * 100.0
    step, *_ = np.linalg.lstsq(scaled, rhs, rcond=None)
    return step / d


def _center(z: np.ndarray, t_bar: float, f0_grad: np.ndarray, problem: Rows, rows: tuple,
            lb: np.ndarray) -> tuple[np.ndarray, int]:
    """
    Newton centering of t_bar * f0 + barrier at fixed barrier weight.

    Over z = [x, e], rows = (sel, sign, coef) stands for the inequalities
    sign * row(x) + coef * e < 0 of the problem rows ``sel``, where e is the
    epigraph variable (main solve) or the slack (phase I).
    """
    sel, sign, coef = rows
    n = len(z) - 1
    bounded = np.isfinite(lb)
    lb_b = lb[bounded]

    def psi_at(point: np.ndarray) -> float:
        """Centering cost at point; +inf outside the barrier's domain."""
        slack_b = point[bounded] - lb_b
        if slack_b.size and slack_b.min() <= 0.0:
            return np.inf
        slack = -(sign * problem.values(point[:n])[sel] + coef * point[n])
        if slack.size and slack.min() <= 0.0:
            return np.inf
        return t_bar * float(f0_grad @ point) - np.log(slack_b).sum() - np.log(slack).sum()

    iters = 0
    for _ in range(_MAX_NEWTON):
        vals, jac, weighted_hessian = problem.evaluate(z[:n])
        slack = np.maximum(-(sign * vals[sel] + coef * z[n]), _TINY)
        slack_b = z[bounded] - lb_b
        psi = t_bar * float(f0_grad @ z) - np.log(slack_b).sum() - np.log(slack).sum()
        # Each barrier row's gradient over z, scaled by its inverse slack.
        scaled = np.column_stack([jac[sel] * (sign / slack)[:, None], coef / slack])
        inv = 1.0 / slack_b
        grad = t_bar * f0_grad + scaled.sum(axis=0)
        grad[bounded] -= inv
        hess = scaled.T @ scaled
        hess[bounded, bounded] += inv * inv
        weights = np.zeros(len(vals))
        weights[sel] = sign / slack
        hess[:n, :n] += weighted_hessian(weights)
        step = _solve_newton_system(hess, grad)
        decrement = -float(grad @ step)
        if decrement <= 0.0 or 0.5 * decrement <= _NEWTON_TOL:
            break
        iters += 1
        lam = math.sqrt(decrement)
        # Damped Newton: inside the quadratic-convergence region the full
        # step is taken on a domain check alone; the centering cost there
        # changes by less than float resolution, so an Armijo test on it
        # would only thrash.  Farther out, backtrack on the cost as usual.
        # Outside the domain the cost is +inf, so both tests fail there, as
        # they do on a NaN cost.
        if lam <= 0.25:
            t_step = 1.0
            while t_step > 1e-16 and not psi_at(z + t_step * step) < np.inf:
                t_step *= _BACKTRACK
            if t_step <= 1e-16:
                break
            z = z + t_step * step
        else:
            t_step = 1.0 / (1.0 + lam)
            while t_step > 1e-16:
                cand = z + t_step * step
                if psi_at(cand) <= psi - _ARMIJO * t_step * decrement:
                    break
                t_step *= _BACKTRACK
            else:
                break
            z = cand
    return z, iters


def _barrier(problem: Rows, x: np.ndarray, e: float, rows: tuple, direction: float,
             stop: Callable[[np.ndarray], bool] | None = None
             ) -> tuple[np.ndarray, float, int, int, bool]:
    """
    Barrier method over z = [x, e] for the objective direction * e: center,
    then multiply the barrier weight t by _T_MULT, until ``stop(z)`` holds,
    the duality-gap bound m / t clears _GAP_TOL, or _MAX_OUTER stages have
    run.  Returns (z, t, Newton steps, stages, whether the gap bound cleared).
    """
    z = np.append(x, e)
    lb = np.append(problem.bounds(), -np.inf)
    f0_grad = np.zeros(len(z))
    f0_grad[-1] = direction
    m = len(rows[1]) + int(np.isfinite(lb).sum())
    t_bar = _T_INIT
    newton = 0
    for stages in range(1, _MAX_OUTER + 1):
        z, it = _center(z, t_bar, f0_grad, problem, rows, lb)
        newton += it
        if stop is not None and stop(z):
            break
        if m / t_bar < _GAP_TOL:
            return z, t_bar, newton, stages, True
        t_bar *= _T_MULT
    return z, t_bar, newton, stages, False


def _max_violation(problem: Rows, x: np.ndarray) -> float:
    return float(max(problem.values(x)[problem.n_terms:], default=-1.0))


def _phase_one(x: np.ndarray, problem: Rows) -> tuple[np.ndarray, bool, int]:
    """
    Minimise the maximum constraint violation to recover a strictly
    feasible point.  Works on w = [x, s] with constraints g_j(x) - s <= 0
    plus the original lower bounds; stops as soon as s can be pushed
    negative.
    """
    n = problem.n
    lb = problem.bounds()
    x = x.copy()
    bounded = np.isfinite(lb)
    x[bounded] = np.maximum(x[bounded], lb[bounded] + 1e-9)

    cons = problem.values(x)[problem.n_terms:]
    rows = (slice(problem.n_terms, None), np.ones(cons.size), -np.ones(cons.size))
    s0 = max(float(max(cons, default=-1.0)), 0.0) + 1.0
    w, _, newton_total, _, _ = _barrier(  # minimise s
        problem, x, s0, rows, 1.0,
        stop=lambda point: _max_violation(problem, point[:n]) < -1e-12,
    )
    return w[:n], _max_violation(problem, w[:n]) < 0.0, newton_total


def solve_maxmin(problem: Rows) -> KernelResult:
    """
    Maximise the minimum of the objective terms subject to the constraints.

    Runs a standard barrier method on the epigraph form.  Returns the best
    iterate with KKT diagnostics; status is ``converged`` when the duality
    gap surrogate, the KKT residual, and feasibility all clear their
    tolerances, ``infeasible-start`` when phase I cannot find a strictly
    feasible point, and ``max-iterations`` otherwise.
    """
    n, n_t = problem.n, problem.n_terms
    lb = problem.bounds()
    x = np.asarray(problem.x0, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError("x0 must have shape (n,)")

    newton_total = 0
    bounded = np.isfinite(lb)
    if not (np.all(x[bounded] > lb[bounded]) and _max_violation(problem, x) < 0.0):
        x, ok, it = _phase_one(x, problem)
        newton_total += it
        if not ok:
            return KernelResult(
                x=x, value=float(min(problem.values(x)[:n_t])),
                max_violation=max(_max_violation(problem, x), 0.0), kkt_residual=np.inf,
                newton_iters=newton_total, outer_iters=0, status=STATUS_INFEASIBLE_START)

    vals = problem.values(x)
    m_c = len(vals) - n_t
    # Terms: e - f_i(x) < 0; constraints: g_j(x) < 0.
    sign = np.concatenate([-np.ones(n_t), np.ones(m_c)])
    coef = np.concatenate([np.ones(n_t), np.zeros(m_c)])
    t0 = float(min(vals[:n_t]))
    z, t_bar, it, outer, gap_ok = _barrier(  # maximise t
        problem, x, t0 - max(1.0, 0.1 * abs(t0)), (slice(None), sign, coef), -1.0)
    newton_total += it

    x_star, e = z[:n], float(z[n])
    vals, jac, _ = problem.evaluate(x_star)
    viol = max(float(max(vals[n_t:], default=-1.0)), 0.0)
    lam_rows = 1.0 / (t_bar * np.maximum(-(sign * vals + coef * e), _TINY))
    lam_bounds = np.zeros(n)
    slack_b = x_star[bounded] - lb[bounded]
    lam_bounds[bounded] = 1.0 / (t_bar * np.maximum(slack_b, _TINY))
    multipliers = {"terms": lam_rows[:n_t], "constraints": lam_rows[n_t:], "bounds": lam_bounds}
    kkt = kkt_residual(problem, x_star, multipliers)
    # The residual is judged relative to the size of the terms it cancels;
    # in raw units a badly scaled problem leaves dual noise proportional to
    # the multiplier magnitudes even at an optimal point.
    kkt_scale = (1.0 + float(np.sum(np.abs(lam_bounds)))
                 + float(lam_rows @ np.linalg.norm(jac, axis=1)))
    ok = gap_ok and kkt <= KKT_TOL * kkt_scale and viol <= _FEAS_TOL
    return KernelResult(
        x=x_star, value=float(min(vals[:n_t])), max_violation=viol, kkt_residual=kkt,
        newton_iters=newton_total, outer_iters=outer,
        status=STATUS_CONVERGED if ok else STATUS_MAX_ITERATIONS, multipliers=multipliers)


def kkt_residual(problem: Rows, x: np.ndarray, multipliers: dict) -> float:
    """
    KKT residual of the epigraph problem at (x, t = min_i f_i(x)).

    Sums the stationarity norm with the absolute complementary-slackness
    products for the term caps, the constraints, and the active lower
    bounds.  Zero exactly at a KKT point.
    """
    lam_t = np.asarray(multipliers["terms"], dtype=float)
    lam_g = np.asarray(multipliers["constraints"], dtype=float)
    lam_b = np.asarray(multipliers["bounds"], dtype=float)
    lb = problem.bounds()
    bounded = np.isfinite(lb)
    n_t = problem.n_terms

    vals, jac, _ = problem.evaluate(x)
    term_vals = vals[:n_t]
    stat_x = lam_g @ jac[n_t:] - lam_t @ jac[:n_t]
    stat_x[bounded] -= lam_b[bounded]
    comp = (np.sum(np.abs(lam_t * (np.min(term_vals) - term_vals)))
            + np.sum(np.abs(lam_g * vals[n_t:]))
            + np.sum(np.abs(lam_b[bounded] * (lb[bounded] - x[bounded]))))
    stat_t = -1.0 + lam_t.sum()
    stationarity = float(np.sqrt(np.sum(stat_x * stat_x) + stat_t * stat_t))
    return stationarity + float(comp)
