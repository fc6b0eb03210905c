"""Kernel step tests: the Newton-system ridge and the pinned Newton path."""

import numpy as np
import pytest

from duallink import allocation, default_config
from duallink import maxmin
from duallink.maxmin import _solve_newton_system
import pins

# Newton steps of each inner solve of the default alpha grid's capacity
# runs, as pinned by `python tests/pins.py --write`.  Any change to the
# kernel's arithmetic or line search moves them; a change meant to keep the
# same iterates must leave them as they are.
DEFAULT_GRID_NEWTON_STEPS = {
    float(alpha): steps
    for alpha, steps in pins.load()["default grid newton steps"].items()}


def test_singular_hessian_takes_the_ridge_path():
    # Equilibrated, the rank-one Hessian is [[1, 1], [1, 1]], which LU
    # reports singular; the first ridge, 1e-12 on the scaled diagonal,
    # solves (H + 1e-12 diag(H)) step = -grad.
    hess = np.array([[4.0, 2.0], [2.0, 1.0]])
    grad = np.array([2.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(hess / np.outer([2.0, 1.0], [2.0, 1.0]), grad)
    step = _solve_newton_system(hess, grad)
    assert np.all(np.isfinite(step))
    ridged = hess + 1e-12 * np.diag(np.diag(hess))
    np.testing.assert_allclose(ridged @ step, -grad, rtol=1e-9)


def test_second_singular_system_raises(monkeypatch):
    # The plain solve, then one ridge; a second LinAlgError propagates.
    calls = []

    def fail(a, b):
        calls.append(a.copy())
        raise np.linalg.LinAlgError("forced")

    hess = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    grad = np.array([1.0, -2.0, 0.5])
    monkeypatch.setattr(maxmin.np.linalg, "solve", fail)
    with pytest.raises(np.linalg.LinAlgError):
        _solve_newton_system(hess, grad)
    assert len(calls) == 2
    np.testing.assert_allclose(calls[1] - calls[0], 1e-12 * np.eye(3), rtol=1e-3, atol=1e-20)


def test_default_grid_newton_steps_are_pinned(monkeypatch):
    steps = []
    solve = allocation.solve_maxmin

    def counted(problem, warm=None):
        res = solve(problem, warm)
        steps.append(res.newton_iters)
        return res

    monkeypatch.setattr(allocation, "solve_maxmin", counted)
    config = default_config()
    per_alpha = {}
    for alpha in config.grid:
        start = len(steps)
        allocation.capacity_allocation(config.scenario, alpha)
        per_alpha[alpha] = steps[start:]
    assert per_alpha == DEFAULT_GRID_NEWTON_STEPS
