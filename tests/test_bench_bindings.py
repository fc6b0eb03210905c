"""Tooling test: every name the traced benchmark rebinds, and every result
field it reads, still exists."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from duallink import (
    ScenarioParams,
    capacity_allocation,
    sca_power_allocation,
    solve_maxmin,
)
from problems import MaxMinProblem

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_rebind_targets_resolve():
    # bench/run.py --trace 1 rebinds these module globals; a refactor that
    # drops or renames one would break the traced run.
    spans = _load_spans()
    assert spans.REBIND
    missing = [(module, name) for module, name, _ in spans.REBIND
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def test_bench_counts_read_result_fields():
    # The traced run's counts read KernelResult.newton_iters, outer_iters and
    # status, and SolveResult.iterations and objective_history.
    spans = _load_spans()
    kernel = solve_maxmin(MaxMinProblem(
        n=1,
        terms=[lambda x: (float(x[0]), np.ones(1))],
        constraints=[lambda x: (float(x[0]) - 1.0, np.ones(1), None)],
        x0=np.array([0.5]),
    ))
    assert spans._counts("maxmin.solve", (), kernel) == {
        "newton": kernel.newton_iters, "outer": kernel.outer_iters, "converged": True}
    res = sca_power_allocation(ScenarioParams(), 0.1, 700.0)
    assert spans._counts("allocation.sca", (), res) == {
        "inner": res.iterations, "accepted": len(res.objective_history) - 1}


def test_traced_solves_keep_their_warm_starts():
    # The traced run wraps solve_maxmin; a wrapper that dropped the warm
    # start would make every SCA iteration start cold and move the traced
    # Newton counts.  The steps are tests/test_maxmin_steps.py's at 0.25.
    spans = _load_spans()
    plain = capacity_allocation(ScenarioParams(), 0.25)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = capacity_allocation(ScenarioParams(), 0.25)
    assert traced == plain
    assert [s["newton"] for s in tracer.spans if s["name"] == "maxmin.solve"] == [
        35, 29, 13, 12, 9, 9]
