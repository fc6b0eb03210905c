"""
The benchmark's workloads: seeded config generation and output checks.

A workload turns a seed into a pool of operations.  One operation is one
``duallink`` command (``sweep`` or ``simulate``) on one generated config
file, with ``workers = 1``.  The checks read the files an operation wrote and
compare them with a truth that does not come from the code under test: the
CSV shape, the status column, the closed-form coincidence of the two schemes
at alpha = 0, and the queue recursion itself.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# The HC-fraction axis of the default config, which is the paper's figure.
DEFAULT_ALPHA_GRID = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25)
# sweep-se splits it into two operations of about equal cost (7-8 s each on
# a 2-vCPU Xeon), so that a run holds several operations; one pass over both
# is the whole figure.  Only the first holds the alpha = 0 anchor.
SE_GRIDS = (DEFAULT_ALPHA_GRID[0::2], DEFAULT_ALPHA_GRID[1::2])
# Seeds other than 0 move every nonzero grid point by up to this much.
# alpha = 0 stays exact: the two schemes coincide there analytically.
ALPHA_JITTER = 0.005
# The capacity probe's default bisection tolerance (max_feasible_arrival).
PROBE_REL_TOL = 1e-4
TRACE_HORIZON = 100_000
TRACE_SCENARIOS = 4

# Scenario defaults behind the criterion-4 generator: antenna gain 20 dB,
# element size half a wavelength at 300 GHz.
_DEFAULT_G_B_LINEAR = 100.0
_DEFAULT_L_X = 299792458.0 / (2.0 * 300e9)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: the subcommand and the generated config text."""

    command: str
    config: str
    out_name: str
    grid: tuple[float, ...] = ()
    horizon: int = 0

    @property
    def units(self) -> int:
        """Work done: CSV rows for a sweep, simulated slots for simulate."""
        return 2 * len(self.grid) if self.command == "sweep" else self.horizon


def _jitter(rng: np.random.Generator, seed: int, grid) -> tuple[float, ...]:
    if seed == 0:
        return tuple(grid)
    return tuple(
        a if a == 0.0 else round(a + rng.uniform(-ALPHA_JITTER, ALPHA_JITTER), 6)
        for a in grid
    )


def _config(lines: dict[str, object]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


def _se_ops(seed: int) -> list[Op]:
    """One SE sweep op per grid of SE_GRIDS; seed 0 keeps the default config."""
    rng = np.random.default_rng(seed)
    ops = []
    for grid in SE_GRIDS:
        grid = _jitter(rng, seed, grid)
        lines = {
            "axis": "alpha",
            "grid": ",".join(repr(a) for a in grid),
            "scheme": "both",
            "metrics": "se",
            "workers": 1,
            "seed": 1 if seed == 0 else int(rng.integers(1, 2**31)),
        }
        ops.append(Op("sweep", _config(lines), "sweep.csv", grid=grid))
    return ops


def _random_scenario(rng: np.random.Generator) -> dict[str, object]:
    """Same draws and ranges as acceptance criterion 4's scenario generator."""
    s_d = rng.uniform(0.5, 2.0)
    s_r = rng.uniform(0.5, 2.0)
    q_d = rng.uniform(0.1, 0.5)
    q_r = rng.uniform(0.02, q_d)
    alpha = rng.uniform(0.0, 0.3)
    return {
        "g_b": repr(10.0 * math.log10(_DEFAULT_G_B_LINEAR * s_d**2)),  # dB
        "l_x": repr(_DEFAULT_L_X * s_r / s_d),
        "q_d": repr(q_d),
        "q_r": repr(q_r),
        "alpha": repr(alpha),
    }


def _trace_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(TRACE_SCENARIOS):
        lines = _random_scenario(rng)
        lines.update(scheme="mcsc", horizon=TRACE_HORIZON,
                     seed=int(rng.integers(1, 2**31)))
        ops.append(Op("simulate", _config(lines), "trace.csv", horizon=TRACE_HORIZON))
    return ops


def _finite_nonneg(cell: str) -> bool:
    try:
        value = float(cell)
    except ValueError:
        return False
    return math.isfinite(value) and value >= 0.0


def _check_sweep_se(op: Op, out_path: str):
    with open(out_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(out_path + ".meta", encoding="utf-8") as fh:
        meta_ok = fh.readline().startswith("seed=")
    values_ok = all(
        _finite_nonneg(r[c]) for r in rows for c in ("se_h", "se_l", "se_sum", "a_star")
    )
    checks = {
        "row_count": (len(rows) == op.units, None),
        "rows_ok": (all(r["status"] == "ok" for r in rows), None),
        "meta_sidecar": (meta_ok, None),
        "se_finite": (values_ok, None),
    }
    if 0.0 in op.grid:
        at_zero = {r["scheme"]: r["a_star"] for r in rows if float(r["sweep_value"]) == 0.0}
        try:
            a_mcsc, a_oma = float(at_zero["mcsc"]), float(at_zero["oma"])
            err = abs(a_mcsc - a_oma) / a_oma
        except (KeyError, ValueError, ZeroDivisionError):
            err = math.inf
        checks["a_star_rel_err"] = (err <= PROBE_REL_TOL, err)
    return checks


def _check_trace(op: Op, out_path: str):
    """Rows = horizon, slots in order, and q_t = max(q_{t-1} - s_t, 0) + a_t."""
    rows = 0
    slots_ok = recursion_ok = True
    q_h = q_l = 0.0
    with open(out_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        col = {name: i for i, name in enumerate(next(reader))}
        i_slot, i_ah, i_al = col["slot"], col["a_h"], col["a_l"]
        i_sh, i_sl, i_qh, i_ql = col["s_h"], col["s_l"], col["q_h"], col["q_l"]
        for rec in reader:
            slots_ok &= int(rec[i_slot]) == rows
            new_h, new_l = float(rec[i_qh]), float(rec[i_ql])
            recursion_ok &= new_h == max(q_h - float(rec[i_sh]), 0.0) + int(rec[i_ah])
            recursion_ok &= new_l == max(q_l - float(rec[i_sl]), 0.0) + int(rec[i_al])
            q_h, q_l = new_h, new_l
            rows += 1
    return {
        "row_count": (rows == op.horizon, None),
        "slot_order": (slots_ok, None),
        "queue_recursion": (recursion_ok, None),
    }


@dataclass(frozen=True)
class Workload:
    """make_ops(seed) -> pool of operations; check(op, out_path) -> checks."""

    name: str
    unit_name: str  # what ops_per_s counts
    make_ops: Callable[[int], list[Op]]
    # check name -> (passed, value worth reporting or None)
    check: Callable[[Op, str], dict[str, tuple[bool, float | None]]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-se", "rows", _se_ops, _check_sweep_se),
        Workload("simulate-trace", "slots", _trace_ops, _check_trace),
    )
}
