"""Barrier-kernel tests: analytic optima, grid-search checks, KKT residuals."""

import numpy as np
import pytest

from duallink import solve_maxmin
from duallink.maxmin import KKT_TOL, STATUS_CONVERGED, STATUS_INFEASIBLE_START
from problems import MaxMinProblem, kkt_residual


def affine_term(coeffs, offset=0.0):
    coeffs = np.asarray(coeffs, dtype=float)

    def term(x):
        return float(coeffs @ x) + offset, coeffs

    return term


def affine_constraint(coeffs, offset):
    coeffs = np.asarray(coeffs, dtype=float)

    def con(x):
        return float(coeffs @ x) + offset, coeffs, None

    return con


def symmetric_budget_problem():
    # max min{x1, x2} s.t. x1 + x2 <= 2, x >= 0  ->  (1, 1), value 1
    return MaxMinProblem(
        n=2,
        terms=[affine_term([1, 0]), affine_term([0, 1])],
        constraints=[affine_constraint([1, 1], -2.0)],
        x0=np.array([0.5, 0.5]),
    )


def test_symmetric_budget():
    res = solve_maxmin(symmetric_budget_problem())
    assert res.status == STATUS_CONVERGED
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_weighted_budget():
    # max min{2 x1, x2} s.t. x1 + x2 <= 3: equalise 2 x1 = x2 on the budget
    # line -> (1, 2), value 2 (grid-search verified below).
    prob = MaxMinProblem(
        n=2,
        terms=[affine_term([2, 0]), affine_term([0, 1])],
        constraints=[affine_constraint([1, 1], -3.0)],
        x0=np.array([0.5, 0.5]),
    )
    res = solve_maxmin(prob)
    np.testing.assert_allclose(res.x, [1.0, 2.0], atol=1e-6)
    assert res.value == pytest.approx(2.0, abs=1e-6)

    grid = np.linspace(0.0, 3.0, 3001)
    best = max(
        min(2 * a, 3.0 - a) for a in grid
    )
    assert res.value == pytest.approx(best, abs=1e-3)


def test_single_term_cap():
    prob = MaxMinProblem(
        n=1,
        terms=[affine_term([1])],
        constraints=[affine_constraint([1], -5.0)],
        x0=np.array([1.0]),
    )
    res = solve_maxmin(prob)
    assert res.value == pytest.approx(5.0, abs=1e-6)


def test_quadratic_constraint_vs_grid():
    # max min{x1 + x2, 3 x1} s.t. x1^2 + x2^2 <= 1, x >= 0
    def ball(x):
        return float(x @ x) - 1.0, 2.0 * x, 2.0 * np.eye(2)

    prob = MaxMinProblem(
        n=2,
        terms=[affine_term([1, 1]), affine_term([3, 0])],
        constraints=[ball],
        x0=np.array([0.1, 0.1]),
    )
    res = solve_maxmin(prob)

    xs = np.linspace(0.0, 1.0, 801)
    a, b = np.meshgrid(xs, xs, indexing="ij")
    best = np.minimum(a + b, 3 * a)[a * a + b * b <= 1.0].max()
    assert res.value >= best - 2e-3
    assert res.max_violation <= 1e-9


def test_constraints_satisfied_at_solution():
    res = solve_maxmin(symmetric_budget_problem())
    assert res.max_violation <= 1e-9
    assert np.all(res.x >= -1e-12)


def test_deterministic():
    a = solve_maxmin(symmetric_budget_problem())
    b = solve_maxmin(symmetric_budget_problem())
    assert np.array_equal(a.x, b.x)
    assert a.value == b.value
    assert a.newton_iters == b.newton_iters


@pytest.mark.parametrize("x0", [[5.0, 5.0], [0.0, -1.0]], ids=["over-budget", "outside-bounds"])
def test_phase_one_recovers_from_infeasible_start(x0):
    # [5, 5] violates the budget; [0, -1] lies on and outside x >= 0, so
    # phase I first moves it inside the bounds.
    prob = symmetric_budget_problem()
    prob.x0 = np.array(x0)
    res = solve_maxmin(prob)
    assert res.status == STATUS_CONVERGED
    assert res.outer_iters == 2  # phase I, then the main loop
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)


def test_infeasible_problem_reports_status():
    # x1 <= -1 conflicts with x1 >= 0
    prob = MaxMinProblem(
        n=2,
        terms=[affine_term([1, 0]), affine_term([0, 1])],
        constraints=[affine_constraint([1, 0], 1.0)],
        x0=np.array([0.5, 0.5]),
    )
    res = solve_maxmin(prob)
    assert res.status == STATUS_INFEASIBLE_START


def test_kkt_residual_at_analytic_optimum():
    prob = symmetric_budget_problem()
    mult = {
        "terms": np.array([0.5, 0.5]),
        "constraints": np.array([0.5]),
        "bounds": np.zeros(2),
    }
    assert kkt_residual(prob, np.array([1.0, 1.0]), mult) < 1e-8


def test_kkt_residual_positive_off_optimum():
    prob = symmetric_budget_problem()
    mult = {
        "terms": np.array([0.5, 0.5]),
        "constraints": np.array([0.5]),
        "bounds": np.zeros(2),
    }
    assert kkt_residual(prob, np.array([0.5, 0.6]), mult) > 0.1


def test_kkt_residual_continuity():
    prob = symmetric_budget_problem()
    mult = {
        "terms": np.array([0.5, 0.5]),
        "constraints": np.array([0.5]),
        "bounds": np.zeros(2),
    }
    base = kkt_residual(prob, np.array([1.0, 1.0]), mult)
    nudged = kkt_residual(prob, np.array([1.0 + 1e-9, 1.0]), mult)
    assert abs(nudged - base) < 1e-6


def test_solver_kkt_residual_small_on_convergence():
    res = solve_maxmin(symmetric_budget_problem())
    assert res.kkt_residual <= KKT_TOL


def test_random_affine_problems_match_grid():
    rng = np.random.default_rng(314)
    for _ in range(5):
        c1 = rng.uniform(0.5, 2.0, 2)
        c2 = rng.uniform(0.5, 2.0, 2)
        cap = rng.uniform(1.0, 3.0)
        prob = MaxMinProblem(
            n=2,
            terms=[affine_term(c1), affine_term(c2)],
            constraints=[affine_constraint([1, 1], -cap)],
            x0=np.array([0.1, 0.1]),
        )
        res = solve_maxmin(prob)
        xs = np.linspace(0.0, cap, 601)
        a, b = np.meshgrid(xs, xs, indexing="ij")
        both = np.minimum(c1[0] * a + c1[1] * b, c2[0] * a + c2[1] * b)
        best = both[b <= cap - a + 1e-12].max()
        assert res.value >= best - 5e-3
        assert res.max_violation <= 1e-9
