"""Kernel tests for the stacked-row view of a MaxMinProblem."""

import math

import numpy as np
import pytest

from duallink import MaxMinProblem, solve_maxmin
from duallink.maxmin import STATUS_CONVERGED


def ball(x):
    return float(x @ x) - 1.0, 2.0 * x, 2.0 * np.eye(2)


def ball_problem(x0):
    # max min{x1 + x2, 3 x1} s.t. x1^2 + x2^2 <= 1, x >= 0: the optimum is
    # x1 = x2 = 1/sqrt(2), value sqrt(2), where 3 x1 is not binding.
    return MaxMinProblem(
        n=2,
        terms=[lambda x: (x[0] + x[1], np.array([1.0, 1.0])),
               lambda x: (3.0 * x[0], np.array([3.0, 0.0]))],
        constraints=[ball],
        x0=np.asarray(x0, dtype=float),
    )


def test_rows_stack_terms_then_constraints():
    prob = ball_problem([0.5, 0.25])
    x = np.array([0.5, 0.25])
    vals, jac, weighted_hessian = prob.evaluate(x)
    np.testing.assert_array_equal(vals, [0.75, 1.5, -0.6875])
    np.testing.assert_array_equal(prob.values(x), vals)
    np.testing.assert_array_equal(jac, [[1.0, 1.0], [3.0, 0.0], [1.0, 0.5]])
    # Terms are affine beyond first order: only the ball's Hessian counts.
    np.testing.assert_array_equal(weighted_hessian(np.array([5.0, 7.0, 0.5])), np.eye(2))


def test_phase_one_on_curved_constraint():
    # From outside the ball, phase I follows the constraint's curvature
    # through the adapter's weighted Hessian: it takes about 14 Newton
    # steps with it and about 160 without it.
    res = solve_maxmin(ball_problem([2.0, 1.5]))
    ref = solve_maxmin(ball_problem([0.1, 0.1]))
    assert res.status == ref.status == STATUS_CONVERGED
    assert ref.newton_iters < res.newton_iters <= ref.newton_iters + 40
    np.testing.assert_allclose(res.x, [1.0 / math.sqrt(2.0)] * 2, atol=1e-6)
    assert res.value == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert res.max_violation <= 1e-9


def test_values_are_evaluate_rows_bit_for_bit():
    prob = ball_problem([0.5, 0.25])
    rng = np.random.default_rng(4)
    for x in [prob.x0, *rng.uniform(-2.0, 2.0, (20, 2))]:
        assert prob.values(x).tobytes() == prob.evaluate(x)[0].tobytes()
