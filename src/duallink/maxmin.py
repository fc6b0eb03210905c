"""
Dense log-barrier interior-point solver for small smooth max-min programs.

Solves  maximize_x min_i f_i(x)  subject to  g_j(x) <= 0  and x >= lb,
with concave f_i and convex twice-differentiable g_j, via the epigraph
reformulation  maximize t  s.t.  t - f_i(x) <= 0.  Problems here are tiny
(around ten variables and a dozen constraints), so plain dense Newton steps
with backtracking are entirely adequate and keep the package dependency-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# x -> (value, gradient); treated as affine beyond first order.
TermFn = Callable[[np.ndarray], tuple[float, np.ndarray]]
# x -> (value, gradient, hessian or None for affine).  A callable may also
# carry a `value_only` attribute (x -> float); line searches use it to skip
# derivative work.
ConstraintFn = Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray | None]]

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max-iterations"
STATUS_INFEASIBLE_START = "infeasible-start"

_TINY = 1e-300


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


def _value_fn(con) -> Callable[[np.ndarray], float]:
    fast = getattr(con, "value_only", None)
    if fast is not None:
        return fast
    return lambda z: con(z)[0]


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


def _rows(fns, sign: float, coef: float) -> list:
    """
    Barrier rows over z = [x, e]: each (fn, value_fn, sign, coef) stands
    for the inequality sign * fn(x) + coef * e < 0, where e is the epigraph
    variable (main solve) or the slack (phase I).
    """
    return [(fn, _value_fn(fn), sign, coef) for fn in fns]


def _center(
    z: np.ndarray,
    t_bar: float,
    f0_grad: np.ndarray,
    rows: list,
    lb: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Newton centering of t_bar * f0 + barrier at fixed barrier weight."""
    n = len(z) - 1
    bounded = np.isfinite(lb)
    lb_b = lb[bounded]
    row = np.empty(n + 1)  # one row's gradient over z, rewritten per row
    row_x = row[:n]

    def psi_at(point: np.ndarray) -> float:
        """Centering cost at point; +inf outside the barrier's domain."""
        slack_b = point[bounded] - lb_b
        if slack_b.size and np.min(slack_b) <= 0.0:
            return np.inf
        total = t_bar * float(f0_grad @ point)
        if slack_b.size:
            total -= float(np.sum(np.log(slack_b)))
        x, e = point[:n], float(point[n])
        for _, vfn, sign, coef in rows:
            v = sign * vfn(x) + coef * e
            if v >= 0.0:
                return np.inf
            total -= math.log(-v)
        return total

    iters = 0
    for _ in range(_MAX_NEWTON):
        grad = t_bar * f0_grad.copy()
        hess = np.zeros((n + 1, n + 1))
        psi = t_bar * float(f0_grad @ z)
        slack_b = z[bounded] - lb_b
        if slack_b.size:
            psi -= float(np.sum(np.log(slack_b)))
            inv = 1.0 / slack_b
            grad[bounded] -= inv
            hess[bounded, bounded] += inv * inv
        x, e = z[:n], float(z[n])
        for fn, _, sign, coef in rows:
            out = fn(x)
            s = max(-(sign * out[0] + coef * e), _TINY)
            psi -= math.log(s)
            np.multiply(out[1], sign, out=row_x)
            row[n] = coef
            gs = row / s
            grad += gs
            hess += np.outer(gs, gs)
            # Objective terms (sign -1) are affine beyond first order.
            if sign > 0.0 and out[2] is not None:
                hess[:n, :n] += out[2] / s
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


def _barrier(
    z: np.ndarray,
    f0_grad: np.ndarray,
    rows: list,
    lb: np.ndarray,
    stop: Callable[[np.ndarray], bool] | None = None,
) -> tuple[np.ndarray, float, int, int, bool]:
    """
    Barrier outer loop: center, then multiply the barrier weight t by
    _T_MULT, until ``stop(z)`` holds, the duality-gap bound m / t clears
    _GAP_TOL, or _MAX_OUTER stages have run.  Returns (z, t, Newton steps,
    stages, whether the gap bound cleared).
    """
    m = len(rows) + int(np.isfinite(lb).sum())
    t_bar = _T_INIT
    newton = 0
    for stages in range(1, _MAX_OUTER + 1):
        z, it = _center(z, t_bar, f0_grad, rows, lb)
        newton += it
        if stop is not None and stop(z):
            break
        if m / t_bar < _GAP_TOL:
            return z, t_bar, newton, stages, True
        t_bar *= _T_MULT
    return z, t_bar, newton, stages, False


def _phase_one(x: np.ndarray, problem: MaxMinProblem) -> tuple[np.ndarray, bool, int]:
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

    rows = _rows(problem.constraints, 1.0, -1.0)

    def max_violation(point: np.ndarray) -> float:
        return max((vfn(point) for _, vfn, _, _ in rows), default=-1.0)

    s0 = max(max_violation(x), 0.0) + 1.0
    w = np.concatenate([x, [s0]])
    f0_grad = np.zeros(n + 1)
    f0_grad[n] = 1.0  # minimise s
    lb_w = np.concatenate([lb, [-np.inf]])

    w, _, newton_total, _, _ = _barrier(
        w, f0_grad, rows, lb_w, stop=lambda point: max_violation(point[:n]) < -1e-12
    )
    return w[:n], max_violation(w[:n]) < 0.0, newton_total


def solve_maxmin(problem: MaxMinProblem) -> KernelResult:
    """
    Maximise the minimum of the objective terms subject to the constraints.

    Runs a standard barrier method on the epigraph form.  Returns the best
    iterate with KKT diagnostics; status is ``converged`` when the duality
    gap surrogate, the KKT residual, and feasibility all clear their
    tolerances, ``infeasible-start`` when phase I cannot find a strictly
    feasible point, and ``max-iterations`` otherwise.
    """
    n = problem.n
    lb = problem.bounds()
    x = np.asarray(problem.x0, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError("x0 must have shape (n,)")

    newton_total = 0
    bounded = np.isfinite(lb)
    strictly_ok = np.all(x[bounded] > lb[bounded]) and all(
        _value_fn(c)(x) < 0.0 for c in problem.constraints
    )
    if not strictly_ok:
        x, ok, it = _phase_one(x, problem)
        newton_total += it
        if not ok:
            value = min(t(x)[0] for t in problem.terms)
            viol = max((_value_fn(c)(x) for c in problem.constraints), default=0.0)
            return KernelResult(
                x=x,
                value=value,
                max_violation=max(viol, 0.0),
                kkt_residual=np.inf,
                newton_iters=newton_total,
                outer_iters=0,
                status=STATUS_INFEASIBLE_START,
            )

    rows = _rows(problem.terms, -1.0, 1.0) + _rows(problem.constraints, 1.0, 0.0)
    t0 = min(t(x)[0] for t in problem.terms)
    z = np.concatenate([x, [t0 - max(1.0, 0.1 * abs(t0))]])
    lb_z = np.concatenate([lb, [-np.inf]])
    f0_grad = np.zeros(n + 1)
    f0_grad[n] = -1.0  # maximise t
    z, t_bar, it, outer, gap_ok = _barrier(z, f0_grad, rows, lb_z)
    newton_total += it

    # Every row once at x*: terms first, then constraints.
    x_star, e = z[:n], float(z[n])
    outs = [fn(x_star) for fn, *_ in rows]
    n_terms = len(problem.terms)
    value = min(out[0] for out in outs[:n_terms])
    viol = max((out[0] for out in outs[n_terms:]), default=0.0)

    lam_cons = np.array([1.0 / (t_bar * max(-(sign * out[0] + coef * e), _TINY))
                         for out, (_, _, sign, coef) in zip(outs, rows)])
    lam_bounds = np.zeros(n)
    slack_b = z[:n][bounded] - lb[bounded]
    lam_bounds[bounded] = 1.0 / (t_bar * np.maximum(slack_b, _TINY))
    multipliers = {
        "terms": lam_cons[:n_terms],
        "constraints": lam_cons[n_terms:],
        "bounds": lam_bounds,
    }
    kkt = kkt_residual(problem, x_star, multipliers)
    # The residual is judged relative to the size of the terms it cancels;
    # in raw units a badly scaled problem leaves dual noise proportional to
    # the multiplier magnitudes even at an optimal point.
    kkt_scale = 1.0 + float(np.sum(np.abs(lam_bounds)))
    for lam, out in zip(lam_cons, outs):
        kkt_scale += lam * float(np.linalg.norm(out[1]))
    status = (
        STATUS_CONVERGED
        if gap_ok and kkt <= KKT_TOL * kkt_scale and max(viol, 0.0) <= _FEAS_TOL
        else STATUS_MAX_ITERATIONS
    )
    return KernelResult(
        x=x_star,
        value=value,
        max_violation=max(viol, 0.0),
        kkt_residual=kkt,
        newton_iters=newton_total,
        outer_iters=outer,
        status=status,
        multipliers=multipliers,
    )


def kkt_residual(problem: MaxMinProblem, x: np.ndarray, multipliers: dict) -> float:
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

    term_vals = []
    term_grads = []
    for term in problem.terms:
        v, g = term(x)
        term_vals.append(v)
        term_grads.append(g)
    t = min(term_vals)

    stat_x = np.zeros(problem.n)
    comp = 0.0
    for lam, v, g in zip(lam_t, term_vals, term_grads):
        stat_x -= lam * g
        comp += abs(lam * (t - v))
    for lam, con in zip(lam_g, problem.constraints):
        v, g, _ = con(x)
        stat_x += lam * g
        comp += abs(lam * v)
    for k in range(problem.n):
        if np.isfinite(lb[k]):
            stat_x[k] -= lam_b[k]
            comp += abs(lam_b[k] * (lb[k] - x[k]))
    stat_t = -1.0 + lam_t.sum()
    stationarity = float(np.sqrt(np.sum(stat_x * stat_x) + stat_t * stat_t))
    return stationarity + comp
