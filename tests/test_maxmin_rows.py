"""Kernel tests for the stacked-row view of a MaxMinProblem."""

import math
from collections import Counter, defaultdict

import numpy as np
import pytest

from duallink import maxmin, solve_maxmin
from duallink.maxmin import STATUS_CONVERGED
from problems import MaxMinProblem


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
    vals, jacobian, weighted_hessian = prob.evaluate(x)
    np.testing.assert_array_equal(vals, [0.75, 1.5, -0.6875])
    np.testing.assert_array_equal(jacobian(), [[1.0, 1.0], [3.0, 0.0], [1.0, 0.5]])
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


def record_evaluations(monkeypatch, cls):
    """
    Record every point at which a problem of class cls is evaluated, every
    point whose row Jacobian is built, and every point a primal-dual loop
    starts from; returns a function that checks that only loop starts were
    evaluated, or had their Jacobian built, more than once and returns
    (evaluations, repeats, Jacobian builds).
    """
    problems, starts = {}, defaultdict(set)
    evaluated, built = defaultdict(list), defaultdict(list)
    evaluate, primal_dual = cls.evaluate, maxmin._primal_dual

    def recorded_evaluate(self, x):
        problems[id(self)] = self  # keeps the id from being reused
        point = x.tobytes()
        evaluated[id(self)].append(point)
        vals, jacobian, weighted_hessian = evaluate(self, x)

        def recorded_jacobian():
            built[id(self)].append(point)
            return jacobian()

        return vals, recorded_jacobian, weighted_hessian

    def recorded_primal_dual(problem, z, *args, **kwargs):
        starts[id(problem)].add(z[:-1].tobytes())
        return primal_dual(problem, z, *args, **kwargs)

    monkeypatch.setattr(cls, "evaluate", recorded_evaluate)
    monkeypatch.setattr(maxmin, "_primal_dual", recorded_primal_dual)

    def check():
        repeats = 0
        for key, points in evaluated.items():
            counts = Counter(points)
            assert {x for x, c in counts.items() if c > 1} <= starts[key]
            repeats += len(points) - len(counts)
            assert {x for x, c in Counter(built[key]).items() if c > 1} <= starts[key]
        return sum(map(len, evaluated.values())), repeats, sum(map(len, built.values()))

    return check


def test_phase_one_and_warm_start_evaluate_each_accepted_point_once(monkeypatch):
    # From outside the ball, warm-started from the solve of the same rows:
    # phase I, then the main loop from the pulled warm point.  A point the
    # line search accepts is evaluated once; only loop starts repeat: x0 is
    # read by the feasibility test and by phase I's loop, which gets the
    # test's values for its own start, the pulled point by the warm start's
    # test and by the main loop.  Phase I's last point starts the main
    # loop's search too, and is the one point whose Jacobian is built twice.
    warm = solve_maxmin(ball_problem([0.1, 0.1]))
    check = record_evaluations(monkeypatch, MaxMinProblem)
    res = solve_maxmin(ball_problem([2.0, 1.5]), warm)
    assert res.status == STATUS_CONVERGED and res.outer_iters == 2
    evaluations, repeats, jacobians = check()
    assert repeats == 2 and evaluations > res.newton_iters
    assert jacobians < evaluations
