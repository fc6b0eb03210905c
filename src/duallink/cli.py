"""
Command line front end.

Subcommands: ``solve`` (one allocation at the configured traffic), ``sweep``
(axis sweeps with CSV output), ``oracle`` (brute-force check of the allocator),
and ``simulate`` (queue trace export).  All accept --config, --seed, --out
and --scheme; scenario and sweep selection live in the config file.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
import sys
from dataclasses import replace
from typing import BinaryIO

import numpy as np

from .allocation import brute_force_oracle, sca_power_allocation
from .experiments import (
    SOLVER_FAILURES,
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
from .queuesim import QueueTrace, mean_delay, run_simulation

# The oracle's work grows as grid_n**3 and its memory as grid_n**2: on the
# default config and a 2-vCPU Xeon, 401 takes 0.6 s and 11 MB traced, 1001
# about 12 s and 69 MB.
_MAX_GRID_N = 1001
# Where simulate writes when neither --out nor the config names a file.
TRACE_OUT = "trace.csv"
# The trace CSV's columns after the slot index, as QueueTrace field names.
_TRACE_COLUMNS = ("a_h", "a_l", "beta_d", "beta_r", "s_h", "s_l", "q_h", "q_l")
# Trace rows per write.  On the default 100,000-slot trace the writer peaks
# at 0.72 MB of traced memory (0.36 MB at 1024 rows, 1.4 MB at 4096); 4096
# rows write 7% faster, and 1024 rows 20% slower.
_TRACE_ROWS_PER_WRITE = 2048
# Distinct floats in a column block above which numpy generates their digits;
# below it, str is cheaper.
_SHORTEST_MIN_DISTINCT = 128


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
            res = oma_optimize(scenario)
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
    scenario = config.scenario
    scheme = "mcsc" if config.scheme == "both" else config.scheme
    # Open before any work, so that a path that cannot be written fails at
    # once, but truncate only once the trace is ready: a failed run leaves
    # an earlier file intact, and removes only a file that it created.
    created = not os.path.exists(config.out)
    fh = open(os.open(config.out, os.O_WRONLY | os.O_CREAT, 0o666), "wb")
    try:
        rate_h, rate_l, _, stable = _operating_rates(scenario, scheme)
        trace = run_simulation(scenario, (rate_h, rate_l), config.horizon, config.seed)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()
        _write_trace(fh, trace)
        fh.close()
    except BaseException:
        with contextlib.suppress(OSError):
            fh.close()
        if created and os.path.isfile(config.out):
            os.remove(config.out)
        raise
    stats = mean_delay(trace, scenario.alpha, scenario.arrival_rate,
                       scenario.slot_duration)
    print(f"wrote {len(trace)} slots to {config.out}")
    print(f"mean queues: hc={stats.mean_q_h:.3f} lc={stats.mean_q_l:.3f} "
          f"stable={stable}")
    if stats.tau_h_slots is not None:
        print(f"hc delay: {stats.tau_h_slots:.4f} slots")
    if stats.tau_l_slots is not None:
        print(f"lc delay: {stats.tau_l_slots:.4f} slots")


def _write_trace(fh: BinaryIO, trace: QueueTrace) -> None:
    """
    Write the trace to a binary file as CSV, one row per slot, floats at
    full precision.  A block of rows is one byte matrix: the columns'
    zero-padded cells with comma and newline columns between them, written
    without its zero bytes.
    """
    columns = [getattr(trace, name) for name in _TRACE_COLUMNS]
    fh.write(",".join(("slot", *_TRACE_COLUMNS)).encode() + b"\n")
    for lo in range(0, len(trace), _TRACE_ROWS_PER_WRITE):
        hi = min(lo + _TRACE_ROWS_PER_WRITE, len(trace))
        fh.write(_rows(np.arange(lo, hi), [col[lo:hi] for col in columns]))


def _rows(slots: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
    """
    CSV rows of the slots and columns, as bytes.  A function of its own, so
    that a block's temporaries are freed before the next block is built.
    """
    cells = [_cells(slots), *map(_cells, columns)]
    comma = np.full((len(slots), 1), ord(","), dtype=np.uint8)
    parts = [part for cell in cells for part in (cell, comma)]
    parts[-1] = np.full_like(comma, ord("\n"))
    block = np.concatenate(parts, axis=1)
    return block[block != 0]


def _cells(col: np.ndarray) -> np.ndarray:
    """
    The column's values as ASCII text, one zero-padded uint8 row each:
    non-negative integers cut into digits by arithmetic, other values as
    str gives them, each distinct value once and floats by their bits (-0.0
    is not 0.0).  Above _SHORTEST_MIN_DISTINCT distinct floats, numpy
    generates their digits (_shortest_cells); below it, str is cheaper.
    """
    if col.dtype.kind == "i" and col.min() >= 0:
        return _digit_cells(col)
    floats = col.dtype == np.float64
    keys, index = np.unique(col.view(np.int64) if floats else col, return_inverse=True)
    if floats and len(keys) > _SHORTEST_MIN_DISTINCT:
        return _shortest_cells(keys).take(index, axis=0)
    return _str_cells(keys.view(col.dtype)).take(index, axis=0)


def _digit_cells(col: np.ndarray) -> np.ndarray:
    """Non-negative integers as text, right-aligned in zero-padded rows."""
    text = np.empty((len(str(col.max())), len(col)), dtype=np.uint8)  # a row per digit
    rest, digit = np.divmod(col, 10)
    text[-1] = digit + ord("0")
    for row in text[-2::-1]:  # a leading zero is no byte
        more = rest > 0
        rest, digit = np.divmod(rest, 10)
        np.add(digit, ord("0"), out=row, casting="unsafe")
        row *= more
    return text.T


def _str_cells(values: np.ndarray) -> np.ndarray:
    """Values as str gives them, left-aligned in zero-padded rows."""
    text = np.array(list(map(str, values.tolist())), dtype=np.bytes_)
    return text.view(np.uint8).reshape(len(text), -1)


def _shortest_cells(bits: np.ndarray) -> np.ndarray:
    """
    The text str gives the floats with these bits (int64 view), from
    integer arithmetic where it can: Steele & White's free-format digit
    generation ("How to print floating-point numbers accurately", PLDI
    1990), in int64, for 1 <= x < 2**52.

    Such an x is m / 2**k with 1 <= k <= 52, so it splits exactly into
    whole = m >> k and a fraction r / S, with S = 2**(k + 1), r = 2 (m mod
    2**k) and half an ulp as margin M = 1.  Each step multiplies r and M by
    10 and takes the next digit u = r // S, leaving r mod S.  The digits so
    far round-trip when r < M (low) or r + M > S (high), each end counting
    too when m is even (round-half-even parses the interval's ends to x).
    Either way, the last digit is u + 1 when 2r > S: on low alone 2r < S,
    and on high alone 2r > S.  Since r < S, low holds once 10**steps
    reaches S.  The free-format output is str's shortest round trip, but
    for a tie (2r == S, whose even pick this leaves to str) or a carry out
    of the digit (u + 1 == 10); those, and every other x, go through str.
    """
    k = 1075 - (bits >> 52)  # negative bits, and so -0.0, give k > 1075
    lanes = np.flatnonzero((k >= 1) & (k <= 52))
    if len(lanes) == 0:
        return _str_cells(bits.view(np.float64))
    k = k[lanes]
    m = bits[lanes] & (2**52 - 1) | 2**52
    shift = k + 1
    scale = np.left_shift(1, shift)
    rest = scale - 1
    half = scale >> 1
    even = 1 - (m & 1)
    top = scale - even
    steps = math.ceil(int(shift.max()) * math.log10(2)) + 1
    digits = np.empty((steps, len(lanes)), dtype=np.uint8)
    stop = np.empty((steps, len(lanes)), dtype=bool)
    above = np.empty_like(stop)  # 2r > S
    tie = np.empty_like(stop)  # 2r == S
    r = (m & (half - 1)) << 1
    margin = 1
    for row in range(steps):
        r *= 10
        margin *= 10
        np.right_shift(r, shift, out=digits[row], casting="unsafe")
        r &= rest
        np.logical_or(r < even + margin, r > top - margin, out=stop[row])
        np.greater(r, half, out=above[row])
        np.equal(r, half, out=tie[row])
    last = stop.argmax(axis=0)
    at = last, np.arange(len(lanes))
    digits[at] += above[at]
    exact = (digits[at] < 10) & ~tie[at]
    digits += ord("0")
    digits[np.arange(steps)[:, None] > last] = 0  # digits past the last are no bytes
    fast = np.concatenate(
        [_digit_cells(m >> k), np.full((len(lanes), 1), ord("."), dtype=np.uint8), digits.T],
        axis=1)
    if len(lanes) == len(bits) and exact.all():
        return fast
    slow = np.ones(len(bits), dtype=bool)
    slow[lanes[exact]] = False
    slow_text = _str_cells(bits[slow].view(np.float64))
    text = np.zeros((len(bits), max(fast.shape[1], slow_text.shape[1])), dtype=np.uint8)
    text[lanes[exact], :fast.shape[1]] = fast[exact]
    text[slow, :slow_text.shape[1]] = slow_text
    return text


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
    except (OSError, ConfigParseError, ConfigValidationError, *SOLVER_FAILURES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
