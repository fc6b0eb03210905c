"""Primal-dual kernel tests: warm starts along the SCA run, and multipliers."""

import numpy as np
import pytest

from duallink import ScenarioParams, solve_maxmin
from duallink import allocation
from duallink.maxmin import STATUS_CONVERGED
from problems import MaxMinProblem, kkt_residual
from test_acceptance import _random_scenario

# The KKT residual a converged solve may leave, relative to its terms' size.
KKT_TOL = 1e-3


def _kkt_scale(problem, res):
    # The size of the terms the residual cancels, as the kernel judges it.
    jac = problem.evaluate(res.x)[1]()
    lam = np.concatenate([res.multipliers["terms"], res.multipliers["constraints"]])
    return 1.0 + np.abs(res.multipliers["bounds"]).sum() + lam @ np.linalg.norm(jac, axis=1)


def _warm_and_cold(monkeypatch, run):
    """
    Run an SCA allocation and solve every warm-started subproblem a second
    time from its built start alone; returns (warm, cold) result pairs.
    """
    pairs = []

    def both(problem, warm=None):
        res = solve_maxmin(problem, warm)
        if warm is not None:
            pairs.append((problem, res, solve_maxmin(problem)))
        return res

    monkeypatch.setattr(allocation, "solve_maxmin", both)
    run()
    assert len(pairs) >= 3
    return pairs


def _draws(count):
    rng = np.random.default_rng(42)
    return [_random_scenario(rng) for _ in range(count)]


RUNS = [
    *(pytest.param(lambda a=a: allocation.capacity_allocation(ScenarioParams(), a),
                   id=f"capacity-alpha-{a}") for a in (0.1, 0.5, 0.9)),
    *(pytest.param(lambda sc=sc, a=a: allocation.sca_power_allocation(sc, a, 700.0),
                   id=f"criterion-4-draw-{i}") for i, (sc, a) in enumerate(_draws(5))),
]
KKT_RUNS = [
    RUNS[0],
    pytest.param(lambda: allocation.sca_power_allocation(ScenarioParams(), 0.9, 700.0),
                 id="gap-alpha-0.9"),
]


@pytest.mark.parametrize("run", RUNS)
def test_warm_start_matches_cold_in_fewer_steps(monkeypatch, run):
    pairs = _warm_and_cold(monkeypatch, run)
    for _, warm, cold in pairs:
        assert warm.status == cold.status == STATUS_CONVERGED
        assert warm.value == pytest.approx(cold.value, rel=1e-8, abs=0.0)
    # The second SCA iteration starts from the first solve, made at the
    # equal power split, so its multipliers fit the new subproblem worst;
    # the typical warm-started solve still takes fewer steps.
    warm_steps = np.median([warm.newton_iters for _, warm, _ in pairs])
    cold_steps = np.median([cold.newton_iters for _, _, cold in pairs])
    assert warm_steps < cold_steps


@pytest.mark.parametrize("run", KKT_RUNS)
def test_multipliers_satisfy_kkt(monkeypatch, run):
    for problem, warm, cold in _warm_and_cold(monkeypatch, run):
        for res in (warm, cold):
            assert res.status == STATUS_CONVERGED
            lam = np.concatenate(list(res.multipliers.values()))
            assert np.all(lam >= 0.0)
            residual = kkt_residual(problem, res.x, res.multipliers)
            assert residual == res.kkt_residual
            assert residual <= KKT_TOL * _kkt_scale(problem, res)


def _ball_problem(x0):
    # max min{x1 + x2, 3 x1} s.t. x1^2 + x2^2 <= 1, x >= 0: optimum at
    # x1 = x2 = 1/sqrt(2), value sqrt(2).
    return MaxMinProblem(
        n=2,
        terms=[lambda x: (x[0] + x[1], np.array([1.0, 1.0])),
               lambda x: (3.0 * x[0], np.array([3.0, 0.0]))],
        constraints=[lambda x: (float(x @ x) - 1.0, 2.0 * x, 2.0 * np.eye(2))],
        x0=np.asarray(x0, dtype=float),
    )


def test_warm_start_outside_the_problem_falls_back_to_x0():
    # A warm result from a different problem whose point lies outside this
    # one's feasible set: the pulled start is not strictly feasible, so the
    # solve starts from x0 alone and still converges.
    wide = _ball_problem([0.1, 0.1])
    wide.constraints = [lambda x: (float(x @ x) - 4.0, 2.0 * x, 2.0 * np.eye(2))]
    far = solve_maxmin(wide)
    assert float(far.x @ far.x) > 1.0

    cold = solve_maxmin(_ball_problem([0.1, 0.1]))
    warm = solve_maxmin(_ball_problem([0.1, 0.1]), far)
    assert warm.status == STATUS_CONVERGED
    assert warm.newton_iters == cold.newton_iters
    np.testing.assert_array_equal(warm.x, cold.x)
