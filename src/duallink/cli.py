"""
Command line front end.

Subcommands: ``solve`` (one allocation at the configured traffic), ``sweep``
(axis sweeps with CSV output), ``oracle`` (brute-force check of the allocator),
and ``simulate`` (queue trace export).  All accept --config, --seed, --out
and --scheme; scenario and sweep selection live in the config file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .allocation import brute_force_oracle, sca_power_allocation
from .experiments import (
    SWEEP_OUT,
    ConfigParseError,
    ConfigValidationError,
    ExperimentConfig,
    _operating_rates,
    default_config,
    load_config,
    run_sweep,
)
from .oma import oma_optimize
from .queuesim import MIN_DELAY_HORIZON, QueueTrace, mean_delay, run_simulation

# The oracle's grid holds grid_n**3 entries per axis array: 201 takes
# seconds and about 0.5 GB.
_MAX_GRID_N = 201
# Where simulate writes when neither --out nor the config names a file.
TRACE_OUT = "trace.csv"
_TRACE_HEADER = "slot,a_h,a_l,beta_d,beta_r,s_h,s_l,q_h,q_l\n"
# Trace rows formatted per write.  Whole columns as Python lists add about
# 18 MB to the peak memory of a 100,000-slot trace; blocks this size peak
# at about 0.4 MB of traced memory (1.4 MB at 4096 rows) and run about as
# fast as larger ones.
_TRACE_ROWS_PER_WRITE = 1024


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duallink",
        description="Dual-path sub-THz downlink: power allocation, queueing, sweeps.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="override the output path")
    common.add_argument(
        "--scheme", choices=("mcsc", "oma", "both"), help="override the scheme"
    )

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common],
                   help="solve one allocation at the configured traffic")
    sub.add_parser("sweep", parents=[common],
                   help="run the configured sweep and write the CSV").set_defaults(
                       default_out=SWEEP_OUT)
    oracle = sub.add_parser("oracle", parents=[common],
                            help="compare the allocator against brute force")
    oracle.add_argument("--grid-n", type=int, default=101,
                        help=f"per-axis grid resolution, 2 to {_MAX_GRID_N} (default 101)")
    sub.add_parser("simulate", parents=[common],
                   help="simulate the queues and export the trace CSV").set_defaults(
                       default_out=TRACE_OUT)
    parser.set_defaults(default_out=None)
    return parser


def _load(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else default_config()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    elif config.out is None:
        overrides["out"] = args.default_out
    if args.scheme is not None:
        overrides["scheme"] = args.scheme
    return replace(config, **overrides) if overrides else config


def _print_solve(config) -> None:
    scenario = config.scenario
    schemes = ["mcsc", "oma"] if config.scheme == "both" else [config.scheme]
    for scheme in schemes:
        if scheme == "mcsc":
            res = sca_power_allocation(scenario)
            p = res.power
            print(f"[mcsc] alpha={scenario.alpha} arrival={scenario.arrival_rate}")
            print(f"  powers mW: hc_direct={p.p_h_d*1e3:.6f} hc_ris={p.p_h_r*1e3:.6f} "
                  f"lc_direct={p.p_l_d*1e3:.6f} lc_ris={p.p_l_r*1e3:.6f}")
            print(f"  rates bit/s: hc={res.rate_h:.6e} lc={res.rate_l:.6e}")
            print(f"  gaps pkt/slot: hc={res.gap_h:.4f} lc={res.gap_l:.4f}")
            print(f"  objective={res.objective:.6f} iterations={res.iterations} "
                  f"converged={res.converged}")
        else:
            res = oma_optimize(scenario, lc_ris_assist=config.oma_lc_ris)
            print(f"[oma] alpha={scenario.alpha} arrival={scenario.arrival_rate}")
            print(f"  time_fraction={res.time_fraction:.6f}")
            print(f"  rates bit/s: hc={res.rate_h:.6e} lc={res.rate_l:.6e}")
            print(f"  gaps pkt/slot: hc={res.gap_h:.4f} lc={res.gap_l:.4f}")
            print(f"  objective={res.objective:.6f}")


def _print_oracle(config, grid_n: int) -> None:
    if not 2 <= grid_n <= _MAX_GRID_N:
        raise ConfigValidationError(f"--grid-n must be in 2..{_MAX_GRID_N}, got {grid_n}")
    scenario = config.scenario
    res = sca_power_allocation(scenario)
    p_best, obj_best = brute_force_oracle(scenario, grid_n=grid_n)
    print(f"allocator objective = {res.objective:.6f} ({res.iterations} iterations)")
    print(f"oracle    objective = {obj_best:.6f} (grid {grid_n})")
    print(f"oracle powers mW: hc_direct={p_best.p_h_d*1e3:.6f} "
          f"hc_ris={p_best.p_h_r*1e3:.6f} lc_direct={p_best.p_l_d*1e3:.6f} "
          f"lc_ris={p_best.p_l_r*1e3:.6f}")


def _run_simulate(config) -> None:
    if config.horizon < MIN_DELAY_HORIZON:
        raise ConfigValidationError(f"horizon must be >= {MIN_DELAY_HORIZON} to simulate delays")
    scenario = config.scenario
    scheme = "mcsc" if config.scheme == "both" else config.scheme
    rate_h, rate_l, _ = _operating_rates(scenario, scheme, oma_lc_ris=config.oma_lc_ris)
    trace = run_simulation(scenario, (rate_h, rate_l), config.horizon, config.seed)
    _write_trace(config.out, trace)
    stats = mean_delay(trace, scenario.alpha, scenario.arrival_rate,
                       scenario.slot_duration)
    print(f"wrote {len(trace)} slots to {config.out}")
    print(f"mean queues: hc={stats.mean_q_h:.3f} lc={stats.mean_q_l:.3f} "
          f"stable={stats.stable}")
    if stats.tau_h_slots is not None:
        print(f"hc delay: {stats.tau_h_slots:.4f} slots")
    if stats.tau_l_slots is not None:
        print(f"lc delay: {stats.tau_l_slots:.4f} slots")


def _write_trace(path: str, trace: QueueTrace) -> None:
    """Write the trace as CSV, one row per slot, floats at full precision."""
    columns = (trace.a_h, trace.a_l, trace.beta_d, trace.beta_r,
               trace.s_h, trace.s_l, trace.q_h, trace.q_l)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_TRACE_HEADER)
        for lo in range(0, len(trace), _TRACE_ROWS_PER_WRITE):
            hi = min(lo + _TRACE_ROWS_PER_WRITE, len(trace))
            cells = [map(str, range(lo, hi)), *(_cells(col[lo:hi]) for col in columns)]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _cells(col: np.ndarray) -> list[str]:
    """
    The column's values as text, formatting each distinct value once.
    Floats are told apart by their bits, so that -0.0 and 0.0 stay apart.
    """
    keys, index = np.unique(col.view(np.int64) if col.dtype == np.float64 else col,
                            return_inverse=True)
    text = list(map(str, keys.view(col.dtype).tolist()))
    return [text[i] for i in index.tolist()]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load(args)
        if args.command == "solve":
            _print_solve(config)
        elif args.command == "sweep":
            rows = run_sweep(config)
            print(f"wrote {len(rows)} rows to {config.out}")
        elif args.command == "oracle":
            _print_oracle(config, args.grid_n)
        elif args.command == "simulate":
            _run_simulate(config)
    except (FileNotFoundError, ConfigParseError, ConfigValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
