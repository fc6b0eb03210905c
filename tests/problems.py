"""Test helpers for the barrier kernel: a problem of per-row callables and
the KKT residual of any problem at a given point."""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from duallink.maxmin import Jacobian, Rows, WeightedHessian, _kkt_residual

# x -> (value, gradient); treated as affine beyond first order.
TermFn = Callable[[np.ndarray], tuple[float, np.ndarray]]
# x -> (value, gradient, hessian or None for affine).
ConstraintFn = Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray | None]]


@dataclass
class MaxMinProblem:
    """
    Epigraph-ready max-min problem over x >= 0, stacked from per-row callables.

    terms: concave objective pieces, each returning (value, gradient).
       The overall objective is their pointwise minimum.
    constraints: convex inequalities g(x) <= 0 returning (value, gradient,
       hessian); hessian None means affine.
    x0: starting point, ideally strictly feasible (phase I repairs it
       otherwise).
    """

    n: int
    terms: Sequence[TermFn]
    constraints: Sequence[ConstraintFn]
    x0: np.ndarray

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


def kkt_residual(problem: Rows, x: np.ndarray, multipliers: dict) -> float:
    """The kernel's KKT residual of ``problem`` at x, from one evaluation there."""
    vals, jacobian, _ = problem.evaluate(x)
    return _kkt_residual(vals, jacobian(), problem.n_terms, x, multipliers)
