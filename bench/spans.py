"""
Traced runs: spans around the calls into each duallink module.

The package imports with ``from .x import y``, so a call goes through the
name bound in the calling module; wrapping the defining module alone would
miss it.  ``Tracer.installed`` therefore rebinds each name at every site in
``REBIND`` and restores the originals on exit.  Each wrapped call records a
span (id, parent, op, name, start, end) plus counts read from its return
value.  Spans stay in memory until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# (module whose global is rebound, function name, span name).  The span
# name's first component is the layer, i.e. the duallink module.
REBIND = (
    ("duallink.allocation", "solve_maxmin", "maxmin.solve"),
    ("duallink.allocation", "sca_power_allocation", "allocation.sca"),
    ("duallink.allocation", "link_gains", "link.gains"),
    ("duallink.experiments", "load_config", "experiments.load_config"),
    ("duallink.experiments", "max_feasible_arrival", "allocation.probe"),
    ("duallink.experiments", "sca_power_allocation", "allocation.sca"),
    ("duallink.experiments", "oma_max_feasible_arrival", "oma.max_feasible_arrival"),
    ("duallink.experiments", "oma_optimize", "oma.optimize"),
    ("duallink.experiments", "run_simulation", "queuesim.sim"),
    ("duallink.experiments", "mean_delay", "queuesim.delay"),
    ("duallink.experiments", "write_rows", "experiments.csv"),
    ("duallink.cli", "load_config", "experiments.load_config"),
    ("duallink.cli", "run_sweep", "experiments.run_sweep"),
    ("duallink.cli", "sca_power_allocation", "allocation.sca"),
    ("duallink.cli", "oma_optimize", "oma.optimize"),
    ("duallink.cli", "run_simulation", "queuesim.sim"),
    ("duallink.cli", "mean_delay", "queuesim.delay"),
)
# The root span of an operation: the benchmark's call to duallink.cli.main.
ROOT = "cli.main"
LAYERS = ("link", "maxmin", "allocation", "queuesim", "oma", "experiments", "cli")


def _counts(name: str, args: tuple, result) -> dict:
    """Counts read from a call's arguments and return value."""
    if name == "maxmin.solve":
        return {"newton": result.newton_iters, "outer": result.outer_iters,
                "converged": result.status == "converged"}
    if name == "allocation.sca":
        return {"inner": result.iterations,
                "accepted": len(result.objective_history) - 1}
    if name == "queuesim.sim":
        return {"slots": len(result)}
    if name == "experiments.csv":
        return {"bytes": os.path.getsize(args[0])}
    if name == ROOT and args[0][0] == "simulate":
        argv = args[0]
        return {"trace_bytes": os.path.getsize(argv[argv.index("--out") + 1])}
    return {}


class Tracer:
    """In-memory span recorder for one benchmark process (single thread)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "op": self.op, "name": name}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        span.update(_counts(name, args, result))
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in REBIND:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[dict], ops: int) -> dict[str, tuple[float, str]]:
    """
    Per-operation layer metrics from the spans of ``ops`` traced operations.

    Self time is a span's duration minus the time its child spans cover;
    calls are sequential, so the children never overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        s["self"] = s["end"] - s["start"] - child_time[s["id"]]
        by_name[s["name"]].append(s)
    names = {s["id"]: s["name"] for s in spans}

    def n(*names_):
        return sum(len(by_name[x]) for x in names_)

    def total(key, *names_):
        return sum(s.get(key, 0) for x in names_ for s in by_name[x])

    def self_ms(*names_):
        return 1e3 * total("self", *names_) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    solves = n("maxmin.solve")
    solve_s = sum(s["end"] - s["start"] for s in by_name["maxmin.solve"])
    sca_inner = total("inner", "allocation.sca")
    slots = total("slots", "queuesim.sim")
    sim_s = sum(s["end"] - s["start"] for s in by_name["queuesim.sim"])
    oma = ("oma.optimize", "oma.max_feasible_arrival")
    m = {
        "maxmin.solves": (solves / ops, "count"),
        "maxmin.ms_per_solve": (1e3 * ratio(solve_s, solves), "ms"),
        "maxmin.newton_steps": (total("newton", "maxmin.solve") / ops, "count"),
        "maxmin.newton_per_solve": (ratio(total("newton", "maxmin.solve"), solves), "count"),
        "maxmin.outer_iters": (total("outer", "maxmin.solve") / ops, "count"),
        "maxmin.converged_ratio": (ratio(total("converged", "maxmin.solve"), solves), "ratio"),
        "maxmin.self_ms": (self_ms("maxmin.solve"), "ms"),
        "allocation.probe.calls": (n("allocation.probe") / ops, "count"),
        "allocation.probe.sca_calls": (sum(
            1 for s in by_name["allocation.sca"]
            if names.get(s["parent"]) == "allocation.probe") / ops, "count"),
        "allocation.probe.self_ms": (self_ms("allocation.probe"), "ms"),
        "allocation.sca.calls": (n("allocation.sca") / ops, "count"),
        "allocation.sca.inner_solves": (sca_inner / ops, "count"),
        "allocation.sca.accepted_ratio": (
            ratio(total("accepted", "allocation.sca"), sca_inner), "ratio"),
        "allocation.sca.self_ms": (self_ms("allocation.sca"), "ms"),
        "queuesim.sim.calls": (n("queuesim.sim") / ops, "count"),
        "queuesim.sim.slots": (slots / ops, "count"),
        "queuesim.sim.ns_per_slot": (1e9 * ratio(sim_s, slots), "ns"),
        "queuesim.sim.self_ms": (self_ms("queuesim.sim"), "ms"),
        "queuesim.delay.self_ms": (self_ms("queuesim.delay"), "ms"),
        "cli.self_ms": (self_ms(ROOT), "ms"),
        "cli.trace_bytes": (total("trace_bytes", ROOT) / ops, "bytes"),
        "experiments.load_config.self_ms": (self_ms("experiments.load_config"), "ms"),
        "experiments.run_sweep.self_ms": (self_ms("experiments.run_sweep"), "ms"),
        "experiments.csv.write_ms": (self_ms("experiments.csv"), "ms"),
        "experiments.csv.bytes": (total("bytes", "experiments.csv") / ops, "bytes"),
        "oma.calls": (n(*oma) / ops, "count"),
        "oma.self_ms": (self_ms(*oma), "ms"),
        "link.gains.calls": (n("link.gains") / ops, "count"),
        "link.gains.self_ms": (self_ms("link.gains"), "ms"),
    }
    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        layer_self[s["name"].split(".")[0]] += s["self"]
    whole = sum(layer_self.values())
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (ratio(layer_self[layer], whole), "ratio")
    return m
