"""
Dense primal-dual interior-point solver for small smooth max-min programs.

Solves  maximize_x min_i f_i(x)  subject to  g_j(x) <= 0  and x >= 0,
with concave f_i and convex twice-differentiable g_j, via the epigraph
reformulation  maximize t  s.t.  t - f_i(x) <= 0.  Problems here are tiny
(around ten variables and a dozen constraints), so plain dense Newton steps
with backtracking are entirely adequate and keep the package dependency-free.

The kernel reads a problem as stacked rows, the terms f_i first and then the
constraints g_j.  A problem has ``n``, ``n_terms``, ``x0`` and
``evaluate(x)``, which gives the row values, a zero-argument callable that
builds their Jacobian (one row per term or constraint), and the weighted row
Hessian w -> sum_i w_i Hessian(row_i).  The Jacobian is built only where a
step needs it, so each point costs one evaluation.  Every variable is
bounded below by zero.  The kernel has no phase I: x0 must be strictly
feasible, x0 > 0 with every constraint negative, or the solve reports
``infeasible-start``.  ``solve_maxmin(problem, warm)`` starts from
``warm``, the result of a nearby problem with the same rows, when given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

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

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, Jacobian, WeightedHessian]: ...


# Fixed solver settings; deliberately unadventurous.
_MU = 10.0           # each step aims the barrier weight t at _MU * m / eta
_STEP_FRAC = 0.99    # fraction-to-boundary; also a warm start's pull
_ARMIJO = 0.01       # sufficient decrease in the line search
_BACKTRACK = 0.5
_MAX_NEWTON = 200
_ETA_TOL = 1e-8      # on the surrogate duality gap eta = -F @ lam
_FEAS_TOL = 1e-9     # on the dual residual relative to the size of its terms


@dataclass
class KernelResult:
    x: np.ndarray
    value: float
    max_violation: float
    kkt_residual: float
    newton_iters: int
    outer_iters: int  # primal-dual loops run: always 1
    status: str
    multipliers: dict = field(default_factory=dict)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, by np.linalg.norm's formula."""
    return math.sqrt(v @ v)


def _solve_newton_system(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """
    Solve H d = -grad with diagonal equilibration.  H is positive
    semidefinite, so where the equilibrated matrix is singular one ridge of
    1e-12 on its diagonal makes it definite.  A LinAlgError from the ridged
    solve propagates; it is a ValueError, which callers report as a solver
    failure.
    """
    d = np.sqrt(np.maximum(np.diag(hess), 1e-300))
    scaled = hess / (d[:, None] * d)
    rhs = -grad / d
    try:
        return np.linalg.solve(scaled, rhs) / d
    except np.linalg.LinAlgError:
        return np.linalg.solve(scaled + 1e-12 * np.eye(len(grad)), rhs) / d


def _primal_dual(problem: Rows, z: np.ndarray, lam: np.ndarray | None
                 ) -> tuple[np.ndarray, np.ndarray, int, bool, np.ndarray, np.ndarray]:
    """
    Primal-dual interior-point loop (Boyd & Vandenberghe, Convex
    Optimization, §11.7) maximising e over a strictly feasible start
    z = [x, e] subject to F(z) < 0.  F stacks e - f_i(x) for the terms,
    g_j(x) for the constraints, then -x for the bounds x >= 0.

    lam are F's multipliers; None starts them at the least-norm multipliers
    that cancel the objective gradient, DF' lam = -c, floored at 1 / -F.  Each
    step sets the barrier weight t from the surrogate gap eta = -F @ lam,
    takes the Newton step on the modified KKT system, stops the multipliers
    short of zero, and backtracks until a candidate is accepted.  Each
    candidate with x > 0 is evaluated once; it must have F < 0,
    and then its Jacobian is built once and it is accepted if the barrier
    merit c @ z - sum(log(-F)) / t decreases enough, or else if the residual
    norm does.  The accepted candidate's evaluation and Jacobian serve the
    next step.  The Newton step always descends the merit, whose test does
    not depend on how the rows are scaled; on badly scaled rows the residual
    norm alone admits only tiny steps.  Returns (z, lam, Newton steps,
    whether eta and the dual residual cleared their tolerances, the row
    values and Jacobian at z).
    """
    n, n_t = len(z) - 1, problem.n_terms
    evaluation = problem.evaluate(z[:n])
    k = len(evaluation[0])
    m = k + n
    sign = np.ones(k)
    sign[:n_t] = -1.0
    sign_col = sign[:, None]
    # DF's fixed entries: the e column of the term rows and the bound rows.
    df_fixed = np.zeros((m, n + 1))
    df_fixed[:n_t, n] = 1.0
    df_fixed[k:, :n] = -np.eye(n)
    c = np.zeros(n + 1)
    c[n] = -1.0

    def constraints(point: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """F at point from the problem's row values there."""
        f = np.empty(m)
        f[:k] = sign * vals
        f[:n_t] += point[n]
        f[k:] = -point[:n]
        return f

    def jacobian(evaluation: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The rows' Jacobian in an evaluation, and DF built from it."""
        jac = evaluation[1]()
        df = df_fixed.copy()
        np.multiply(sign_col, jac, out=df[:k, :n])
        return jac, df

    def residual(r_dual, f, lam, t):
        """Norm of the modified KKT residual: dual, then centrality."""
        return math.hypot(_norm(r_dual), _norm(lam * f + 1.0 / t))

    def merit(point, f, t):  # c @ point is -e
        return -float(point[n]) - np.log(-f).sum() / t

    f, (jac, df) = constraints(z, evaluation[0]), jacobian(evaluation)
    if lam is None:
        lam = np.maximum(df @ _solve_newton_system(df.T @ df, c), 1.0 / -f)
    steps = 0
    while True:
        vals, _, weighted_hessian = evaluation
        eta = -float(f @ lam)
        r_dual = c + df.T @ lam
        # The dual residual is judged relative to the size of the terms it
        # sums; in absolute units a badly scaled problem can keep it above
        # _FEAS_TOL for hundreds of steps after eta clears.
        if eta <= _ETA_TOL and _norm(r_dual) <= _FEAS_TOL * (
                1.0 + lam @ np.linalg.norm(df, axis=1)):
            return z, lam, steps, True, vals, jac
        if steps == _MAX_NEWTON:
            return z, lam, steps, False, vals, jac
        steps += 1
        t = _MU * m / eta
        neg_f = -f
        hess = df.T @ ((lam / neg_f)[:, None] * df)
        hess[:n, :n] += weighted_hessian(sign * lam[:k])
        grad = c + df.T @ (1.0 / (t * neg_f))  # the barrier merit's gradient
        dz = _solve_newton_system(hess, grad)
        dlam = (1.0 / t + lam * (df @ dz)) / neg_f - lam
        shrinking = dlam < 0.0
        s = _STEP_FRAC * min(1.0, float((-lam[shrinking] / dlam[shrinking]).min(initial=1.0)))
        r0, merit0 = residual(r_dual, f, lam, t), merit(z, f, t)
        slope = _ARMIJO * float(grad @ dz)
        while s > 1e-16:
            cand = z + s * dz
            if (cand[:n] > 0.0).all():
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


def _strictly_feasible(vals: np.ndarray, n_terms: int, e: float = -math.inf) -> bool:
    """Whether every constraint row is negative and every term exceeds e."""
    return bool(np.all(vals[n_terms:] < 0.0) and np.all(vals[:n_terms] > e))


def solve_maxmin(problem: Rows, warm: KernelResult | None = None) -> KernelResult:
    """
    Maximise the minimum of the objective terms subject to the constraints.

    Runs the primal-dual loop on the epigraph form from x0, which must be
    strictly feasible, or from ``warm`` when given, the result of a nearby
    problem with the same rows: its point and multipliers, the point pulled
    toward x0 by the fraction-to-boundary margin, unless that point is not
    strictly feasible here.  Returns the last iterate with KKT diagnostics.
    The status is the loop's stopping test: ``converged`` when the
    surrogate gap and the relative dual residual clear their tolerances,
    and ``max-iterations`` when the loop stops first, at its step cap or in
    a line search that finds no step.  The KKT residual is reported but not
    checked again: the loop's test bounds it, since its stationarity part
    is the loop's dual residual, its complementarity part is at most the
    gap, and every iterate is strictly feasible (``max_violation`` is 0).
    An x0 that is not strictly feasible returns at once with
    status ``infeasible-start`` and no Newton step.  An x0 outside x > 0 is
    not evaluated: the result's value is NaN and its violation the largest
    -x0_i.
    """
    n, n_t = problem.n, problem.n_terms
    x = np.asarray(problem.x0, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError("x0 must have shape (n,)")

    vals = problem.evaluate(x)[0] if np.all(x > 0.0) else None
    if vals is None or not _strictly_feasible(vals, n_t):
        return KernelResult(
            x=x, value=math.nan if vals is None else float(min(vals[:n_t])),
            max_violation=float(np.max(-x if vals is None else vals[n_t:], initial=0.0)),
            kkt_residual=math.inf, newton_iters=0, outer_iters=1, status=STATUS_INFEASIBLE_START)

    t0 = float(min(vals[:n_t]))
    z, lam = np.append(x, t0 - max(1.0, 0.1 * abs(t0))), None
    if warm is not None:
        pulled = z + _STEP_FRAC * (np.append(warm.x, warm.value) - z)
        if (np.all(pulled[:n] > 0.0)
                and _strictly_feasible(problem.evaluate(pulled[:n])[0], n_t, pulled[n])):
            mult = warm.multipliers
            z, lam = pulled, np.concatenate([mult["terms"], mult["constraints"], mult["bounds"]])
    z, lam, newton, done, vals, jac = _primal_dual(problem, z, lam)

    x_star, k = z[:n], len(vals)
    multipliers = {"terms": lam[:n_t], "constraints": lam[n_t:k], "bounds": lam[k:]}
    return KernelResult(
        x=x_star, value=float(min(vals[:n_t])),
        max_violation=float(np.max(vals[n_t:], initial=0.0)),
        kkt_residual=_kkt_residual(vals, jac, n_t, x_star, multipliers),
        newton_iters=newton, outer_iters=1,
        status=STATUS_CONVERGED if done else STATUS_MAX_ITERATIONS, multipliers=multipliers)


def _kkt_residual(vals: np.ndarray, jac: np.ndarray, n_t: int, x: np.ndarray,
                  multipliers: dict) -> float:
    """
    KKT residual of the epigraph problem at (x, t = min_i f_i(x)), from the
    row values and Jacobian at x.

    Sums the stationarity norm with the absolute complementary-slackness
    products for the term caps, the constraints, and the bounds x >= 0.
    Zero exactly at a KKT point.
    """
    lam_t = np.asarray(multipliers["terms"], dtype=float)
    lam_g = np.asarray(multipliers["constraints"], dtype=float)
    lam_b = np.asarray(multipliers["bounds"], dtype=float)
    term_vals = vals[:n_t]
    stat_x = lam_g @ jac[n_t:] - lam_t @ jac[:n_t] - lam_b
    comp = (np.sum(np.abs(lam_t * (np.min(term_vals) - term_vals)))
            + np.sum(np.abs(lam_g * vals[n_t:]))
            + np.sum(np.abs(lam_b * x)))
    stat_t = -1.0 + lam_t.sum()
    stationarity = float(np.sqrt(np.sum(stat_x * stat_x) + stat_t * stat_t))
    return stationarity + float(comp)
