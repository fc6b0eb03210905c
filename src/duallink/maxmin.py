"""
Dense primal-dual interior-point solver for small smooth max-min programs.

Solves  maximize_x min_i f_i(x)  subject to  g_j(x) <= 0  and x >= lb,
with concave f_i and convex twice-differentiable g_j, via the epigraph
reformulation  maximize t  s.t.  t - f_i(x) <= 0.  Problems here are tiny
(around ten variables and a dozen constraints), so plain dense Newton steps
with backtracking are entirely adequate and keep the package dependency-free.

The kernel reads a problem as stacked rows, the terms f_i first and then the
constraints g_j.  A problem has ``n``, ``n_terms``, ``x0`` and ``bounds()``;
``evaluate(x)`` gives the row values, a zero-argument callable that builds
their Jacobian (one row per term or constraint), and the weighted row Hessian
w -> sum_i w_i Hessian(row_i).  The Jacobian is built only where a step
needs it, so each point costs one evaluation.  ``solve_maxmin(problem,
warm)`` starts from ``warm``, the result of a nearby problem with the same
rows, when given.  ``MaxMinProblem`` stacks per-row callables.
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
# () -> the rows' Jacobian, an (n_rows, n) array, built on each call.
Jacobian = Callable[[], np.ndarray]
# Weights w over the rows -> sum_i w_i * Hessian(row_i), an n x n array.
WeightedHessian = Callable[[np.ndarray], np.ndarray]

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max-iterations"
STATUS_INFEASIBLE_START = "infeasible-start"


class Rows(Protocol):
    """A problem as stacked rows: see the module docstring."""

    n: int
    n_terms: int
    x0: np.ndarray

    def bounds(self) -> np.ndarray: ...

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, Jacobian, WeightedHessian]: ...


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

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, Jacobian, WeightedHessian]:
        outs = [fn(x) for fn in (*self.terms, *self.constraints)]
        vals = np.array([out[0] for out in outs], dtype=float)

        def jacobian() -> np.ndarray:
            return np.array([out[1] for out in outs], dtype=float).reshape(len(outs), self.n)

        curved = [(i, out[2]) for i, out in enumerate(outs[self.n_terms:], self.n_terms)
                  if out[2] is not None]

        def weighted_hessian(w: np.ndarray) -> np.ndarray:
            hess = np.zeros((self.n, self.n))
            for i, h in curved:
                hess += w[i] * h
            return hess

        return vals, jacobian, weighted_hessian


# Fixed solver settings; deliberately unadventurous.
_MU = 10.0           # each step aims the barrier weight t at _MU * m / eta
_STEP_FRAC = 0.99    # fraction-to-boundary; also a warm start's pull
_ARMIJO = 0.01       # sufficient decrease in the line search
_BACKTRACK = 0.5
_MAX_NEWTON = 200
_ETA_TOL = 1e-8      # on the surrogate duality gap eta = -F @ lam
KKT_TOL = 1e-3       # on the KKT residual relative to its terms' size
_FEAS_TOL = 1e-9     # on the constraint violation and the relative dual residual


@dataclass
class KernelResult:
    x: np.ndarray
    value: float
    max_violation: float
    kkt_residual: float
    newton_iters: int
    outer_iters: int  # primal-dual loops run, phase I included
    status: str
    multipliers: dict = field(default_factory=dict)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, by np.linalg.norm's formula."""
    return math.sqrt(v @ v)


def _solve_newton_system(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve H d = -grad with diagonal equilibration and a ridge fallback."""
    d = np.sqrt(np.maximum(np.diag(hess), 1e-300))
    scaled = hess / (d[:, None] * d)
    rhs = -grad / d
    try:
        return np.linalg.solve(scaled, rhs) / d
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(len(grad))
    for ridge in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
        try:
            return np.linalg.solve(scaled + ridge * eye, rhs) / d
        except np.linalg.LinAlgError:
            pass
    step, *_ = np.linalg.lstsq(scaled, rhs, rcond=None)
    return step / d


def _primal_dual(problem: Rows, z: np.ndarray, lam: np.ndarray | None, rows: tuple,
                 direction: float, stop: Callable[[np.ndarray], bool] | None = None
                 ) -> tuple[np.ndarray, np.ndarray, int, bool, np.ndarray, np.ndarray]:
    """
    Primal-dual interior-point loop (Boyd & Vandenberghe, Convex
    Optimization, §11.7) minimising direction * e over z = [x, e] subject to
    F(z) < 0.  F stacks sign * row(x) + coef * e for the problem rows sel,
    where rows = (sel, sign, coef) and e is the epigraph variable (main
    solve) or the slack (phase I), then lb - x for the finite lower bounds.

    lam are F's multipliers; None starts them at the least-norm multipliers
    that cancel the objective gradient, DF' lam = -c, floored at 1 / -F.  Each
    step sets the barrier weight t from the surrogate gap eta = -F @ lam,
    takes the Newton step on the modified KKT system, stops the multipliers
    short of zero, and backtracks until a candidate is accepted.  Each
    candidate inside the lower bounds is evaluated once; it must have F < 0,
    and then its Jacobian is built once and it is accepted if the barrier
    merit c @ z - sum(log(-F)) / t decreases enough, or else if the residual
    norm does.  The accepted candidate's evaluation and Jacobian serve the
    next step.  The Newton step always descends the merit, whose test does
    not depend on how the rows are scaled; on badly scaled rows the residual
    norm alone admits only tiny steps.  Returns (z, lam, Newton steps,
    whether eta and the dual residual cleared their tolerances, the row
    values and Jacobian at z), stopping early once ``stop(row values)`` holds.
    """
    sel, sign, coef = rows
    n = len(z) - 1
    k = len(sign)
    lb = problem.bounds()
    bounded = np.flatnonzero(np.isfinite(lb))
    lb_b = lb[bounded]
    m = k + bounded.size
    sign_col = sign[:, None]
    # DF's fixed entries: the e column of the row block and the bound rows.
    df_fixed = np.zeros((m, n + 1))
    df_fixed[:k, n] = coef
    df_fixed[np.arange(k, m), bounded] = -1.0
    c = np.zeros(n + 1)
    c[n] = direction

    def constraints(point: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """F at point from the problem's row values there."""
        f = np.empty(m)
        f[:k] = sign * vals[sel] + coef * point[n]
        f[k:] = lb_b - point[bounded]
        return f

    def jacobian(evaluation: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The rows' Jacobian in an evaluation, and DF built from it."""
        jac = evaluation[1]()
        df = df_fixed.copy()
        np.multiply(sign_col, jac[sel], out=df[:k, :n])
        return jac, df

    def residual(r_dual, f, lam, t):
        """Norm of the modified KKT residual: dual, then centrality."""
        return math.hypot(_norm(r_dual), _norm(lam * f + 1.0 / t))

    def merit(point, f, t):  # c @ point is direction * e
        return direction * float(point[n]) - np.log(-f).sum() / t

    evaluation = problem.evaluate(z[:n])
    f, (jac, df) = constraints(z, evaluation[0]), jacobian(evaluation)
    weights = np.zeros(len(evaluation[0]))  # the row Hessians' weights, zero off sel
    if lam is None:
        lam = np.maximum(df @ _solve_newton_system(df.T @ df, c), 1.0 / -f)
    steps = 0
    while True:
        vals, _, weighted_hessian = evaluation
        eta = -float(f @ lam)
        r_dual = c + df.T @ lam
        # The dual residual is judged relative to the size of the terms it
        # sums, as the KKT test is; in absolute units a badly scaled problem
        # can keep it above _FEAS_TOL for hundreds of steps after eta clears.
        if (stop is not None and stop(vals)) or (
                eta <= _ETA_TOL
                and _norm(r_dual) <= _FEAS_TOL * (1.0 + lam @ np.linalg.norm(df, axis=1))):
            return z, lam, steps, True, vals, jac
        if steps == _MAX_NEWTON:
            return z, lam, steps, False, vals, jac
        steps += 1
        t = _MU * m / eta
        neg_f = -f
        weights[sel] = sign * lam[:k]
        hess = df.T @ ((lam / neg_f)[:, None] * df)
        hess[:n, :n] += weighted_hessian(weights)
        grad = c + df.T @ (1.0 / (t * neg_f))  # the barrier merit's gradient
        dz = _solve_newton_system(hess, grad)
        dlam = (1.0 / t + lam * (df @ dz)) / neg_f - lam
        shrinking = dlam < 0.0
        s = _STEP_FRAC * min(1.0, float((-lam[shrinking] / dlam[shrinking]).min(initial=1.0)))
        r0, merit0 = residual(r_dual, f, lam, t), merit(z, f, t)
        slope = _ARMIJO * float(grad @ dz)
        while s > 1e-16:
            cand = z + s * dz
            if (cand[bounded] > lb_b).all():
                evaluation_c = problem.evaluate(cand[:n])
                f_c = constraints(cand, evaluation_c[0])
                if (f_c < 0.0).all():
                    jac_c, df_c = jacobian(evaluation_c)
                    lam_c = lam + s * dlam
                    if (merit(cand, f_c, t) <= merit0 + s * slope
                            or residual(c + df_c.T @ lam_c, f_c, lam_c, t)
                            <= (1.0 - _ARMIJO * s) * r0):
                        break
            s *= _BACKTRACK
        else:
            return z, lam, steps, False, vals, jac
        z, lam, f, evaluation, jac, df = cand, lam_c, f_c, evaluation_c, jac_c, df_c


def _max_violation(vals: np.ndarray, n_terms: int) -> float:
    return float(max(vals[n_terms:], default=-1.0))


def _phase_one(x: np.ndarray, problem: Rows, vals: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray, bool, int]:
    """
    Minimise the maximum constraint violation to recover a strictly
    feasible point.  Works on w = [x, s] with constraints g_j(x) - s <= 0
    plus the original lower bounds, from x moved inside them; stops as soon
    as s can be pushed negative.  ``vals``, the row values at x, save an
    evaluation unless x moved.  Returns the point, its row values, whether
    it is strictly feasible, and the Newton steps taken.
    """
    n, n_t = problem.n, problem.n_terms
    lb = problem.bounds()
    x0, x = x, x.copy()
    bounded = np.isfinite(lb)
    x[bounded] = np.maximum(x[bounded], lb[bounded] + 1e-9)
    if vals is None or not np.array_equal(x, x0):
        vals = problem.evaluate(x)[0]
    cons = vals[n_t:]
    rows = (slice(n_t, None), np.ones(cons.size), -np.ones(cons.size))
    s0 = max(float(max(cons, default=-1.0)), 0.0) + 1.0
    w, _, newton, _, vals, _ = _primal_dual(  # minimise s
        problem, np.append(x, s0), None, rows, 1.0,
        stop=lambda vals: _max_violation(vals, n_t) < -1e-12)
    return w[:n], vals, _max_violation(vals, n_t) < 0.0, newton


def solve_maxmin(problem: Rows, warm: KernelResult | None = None) -> KernelResult:
    """
    Maximise the minimum of the objective terms subject to the constraints.

    Runs the primal-dual loop on the epigraph form, from ``warm`` when
    given, the result of a nearby problem with the same rows: its point and
    multipliers, the point pulled toward x0 by the fraction-to-boundary
    margin, unless that point is not strictly feasible here.  Returns the
    last iterate with KKT diagnostics; status is ``converged`` when the
    surrogate gap, the KKT residual, and feasibility all clear their
    tolerances, ``infeasible-start`` when phase I cannot find a strictly
    feasible point, and ``max-iterations`` otherwise.
    """
    n, n_t = problem.n, problem.n_terms
    lb = problem.bounds()
    x = np.asarray(problem.x0, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError("x0 must have shape (n,)")

    newton_total, loops = 0, 1
    bounded = np.isfinite(lb)
    vals = problem.evaluate(x)[0] if np.all(x[bounded] > lb[bounded]) else None
    if vals is None or not _max_violation(vals, n_t) < 0.0:
        x, vals, ok, newton_total = _phase_one(x, problem, vals)
        loops += 1
        if not ok:
            return KernelResult(
                x=x, value=float(min(vals[:n_t])),
                max_violation=max(_max_violation(vals, n_t), 0.0), kkt_residual=np.inf,
                newton_iters=newton_total, outer_iters=1, status=STATUS_INFEASIBLE_START)

    m_c = len(vals) - n_t
    # Terms: e - f_i(x) < 0; constraints: g_j(x) < 0.
    sign = np.concatenate([-np.ones(n_t), np.ones(m_c)])
    coef = np.concatenate([np.ones(n_t), np.zeros(m_c)])
    t0 = float(min(vals[:n_t]))
    z, lam = np.append(x, t0 - max(1.0, 0.1 * abs(t0))), None
    if warm is not None:
        pulled = z + _STEP_FRAC * (np.append(warm.x, warm.value) - z)
        if (np.all(pulled[:n][bounded] > lb[bounded])
                and np.all(sign * problem.evaluate(pulled[:n])[0] + coef * pulled[n] < 0.0)):
            mult = warm.multipliers
            z, lam = pulled, np.concatenate(
                [mult["terms"], mult["constraints"], mult["bounds"][bounded]])
    z, lam, newton, done, vals, jac = _primal_dual(
        problem, z, lam, (slice(None), sign, coef), -1.0)
    newton_total += newton

    x_star = z[:n]
    viol = max(_max_violation(vals, n_t), 0.0)
    lam_rows = lam[:len(vals)]
    lam_bounds = np.zeros(n)
    lam_bounds[bounded] = lam[len(vals):]
    multipliers = {"terms": lam_rows[:n_t], "constraints": lam_rows[n_t:], "bounds": lam_bounds}
    kkt = _kkt_residual(vals, jac, n_t, lb, x_star, multipliers)
    # The residual is judged relative to the size of the terms it cancels;
    # in raw units a badly scaled problem leaves dual noise proportional to
    # the multiplier magnitudes even at an optimal point.
    kkt_scale = (1.0 + float(np.sum(np.abs(lam_bounds)))
                 + float(lam_rows @ np.linalg.norm(jac, axis=1)))
    ok = done and kkt <= KKT_TOL * kkt_scale and viol <= _FEAS_TOL
    return KernelResult(
        x=x_star, value=float(min(vals[:n_t])), max_violation=viol, kkt_residual=kkt,
        newton_iters=newton_total, outer_iters=loops,
        status=STATUS_CONVERGED if ok else STATUS_MAX_ITERATIONS, multipliers=multipliers)


def kkt_residual(problem: Rows, x: np.ndarray, multipliers: dict) -> float:
    """
    KKT residual of the epigraph problem at (x, t = min_i f_i(x)).

    Sums the stationarity norm with the absolute complementary-slackness
    products for the term caps, the constraints, and the active lower
    bounds.  Zero exactly at a KKT point.
    """
    vals, jacobian, _ = problem.evaluate(x)
    return _kkt_residual(vals, jacobian(), problem.n_terms, problem.bounds(), x, multipliers)


def _kkt_residual(vals: np.ndarray, jac: np.ndarray, n_t: int, lb: np.ndarray,
                  x: np.ndarray, multipliers: dict) -> float:
    """kkt_residual from the row values and Jacobian at x."""
    lam_t = np.asarray(multipliers["terms"], dtype=float)
    lam_g = np.asarray(multipliers["constraints"], dtype=float)
    lam_b = np.asarray(multipliers["bounds"], dtype=float)
    bounded = np.isfinite(lb)
    term_vals = vals[:n_t]
    stat_x = lam_g @ jac[n_t:] - lam_t @ jac[:n_t]
    stat_x[bounded] -= lam_b[bounded]
    comp = (np.sum(np.abs(lam_t * (np.min(term_vals) - term_vals)))
            + np.sum(np.abs(lam_g * vals[n_t:]))
            + np.sum(np.abs(lam_b[bounded] * (lb[bounded] - x[bounded]))))
    stat_t = -1.0 + lam_t.sum()
    stationarity = float(np.sqrt(np.sum(stat_x * stat_x) + stat_t * stat_t))
    return stationarity + float(comp)
