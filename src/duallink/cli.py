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
from itertools import groupby
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
# Trace rows per write.  With 4096-row batches, 1024-row writes are 3%
# slower and 4096-row writes 2% faster, but peak at 1.5 MB of traced memory.
_TRACE_ROWS_PER_WRITE = 2048
# Trace rows per batch of writes, over which each float column's text table
# is built once.  On the benchmark's four seed-1 simulate-trace traces the
# writer peaks at 0.82 to 0.86 MB of traced memory (0.71 to 0.73 MB with a
# table per 2048-row block); a table per 2048-row batch writes 21% slower,
# and 8192-row batches write 7% faster but peak at 1.4 to 1.6 MB.
_TRACE_ROWS_PER_BATCH = 4096
# Distinct floats in a column's batch above which numpy generates their
# digits; below it, str is cheaper.  On queue levels, str takes 0.6 to 0.8 us
# a value and _shortest_cells about 0.2 ms a call, up to some 400 values:
# they cross near 250.
_SHORTEST_MIN_DISTINCT = 256


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
    full precision.  A block of rows is one byte matrix: the fields'
    zero-padded cells with comma and newline columns between them, written
    without its zero bytes.  The fields are found once per trace and their
    text tables built once per batch of blocks.
    """
    fh.write(",".join(("slot", *_TRACE_COLUMNS)).encode() + b"\n")
    fields = _fields([getattr(trace, name) for name in _TRACE_COLUMNS])
    for lo in range(0, len(trace), _TRACE_ROWS_PER_BATCH):
        _write_batch(fh, fields, lo, min(lo + _TRACE_ROWS_PER_BATCH, len(trace)))


def _fields(columns: list[np.ndarray]) -> list:
    """
    The columns as the writer's fields, found once per trace.  A run of
    adjacent columns that hold at most two values each is one joint field
    (keys, tops, table): its cell is the table row at the code
    sum((keys[i] == tops[i]) << i), the columns' str texts joined by commas.
    The trace has eight columns, so a code fits in uint8.  Any other column
    is a field of its own.
    """
    fields = []
    for joint, run in groupby(zip(columns, map(_two_values, columns)),
                              key=lambda pair: pair[1] is not None):
        if not joint:
            fields += [col for col, _ in run]
            continue
        keys, tops, texts = zip(*(two for _, two in run))
        table = _text_cells([",".join(text[code >> i & 1] for i, text in enumerate(texts))
                             for code in range(1 << len(keys))])
        fields.append((keys, tops, table))
    return fields


def _two_values(col: np.ndarray) -> tuple | None:
    """
    (keys, top, texts) if the column holds at most two values, floats by
    their bits (-0.0 is not 0.0): the column as compared, its larger key,
    and the str texts of its smaller and larger value.  None otherwise.
    """
    keys = col.view(np.int64) if col.dtype == np.float64 else col
    low, top = keys.min(), keys.max()
    if not ((keys == low) | (keys == top)).all():
        return None
    return keys, top, list(map(str, np.array([low, top], keys.dtype).view(col.dtype).tolist()))


def _write_batch(fh: BinaryIO, fields: list, lo: int, hi: int) -> None:
    """
    Write rows lo to hi, a block at a time, from each field's text table
    and index for the batch: a function of its own, so that a batch's
    tables are freed before the next batch's are built.
    """
    sources = [(None, np.arange(lo, hi)), *(_source(field, lo, hi) for field in fields)]
    for start in range(0, hi - lo, _TRACE_ROWS_PER_WRITE):
        fh.write(_rows(sources, slice(start, start + _TRACE_ROWS_PER_WRITE)))


def _source(field, lo: int, hi: int) -> tuple[np.ndarray | None, np.ndarray]:
    """
    The field's (table, index) over rows lo to hi; a cell is table[index].
    A joint field indexes its trace-wide table by code.  A column of
    non-negative integers has no table: its values are cut into digits per
    block.  Any other column has a table of its distinct values (floats by
    their bits), as str gives them; above _SHORTEST_MIN_DISTINCT distinct
    floats, numpy generates their digits (_shortest_cells), and below it,
    str is cheaper.
    """
    if isinstance(field, tuple):
        keys, tops, table = field
        code = np.zeros(hi - lo, dtype=np.uint8)
        for i, (col, top) in enumerate(zip(keys, tops)):
            code += (col[lo:hi] == top) * np.uint8(1 << i)
        return table, code
    col = field[lo:hi]
    if col.dtype.kind == "i" and col.min() >= 0:
        return None, col
    floats = col.dtype == np.float64
    keys, index = np.unique(col.view(np.int64) if floats else col, return_inverse=True)
    index = index.astype(np.uint16)  # a batch has fewer rows than 2**16
    if floats and len(keys) > _SHORTEST_MIN_DISTINCT:
        return _shortest_cells(keys), index
    return _str_cells(keys.view(col.dtype)), index


def _rows(sources: list, rows: slice) -> np.ndarray:
    """
    CSV rows of a block, as bytes.  A function of its own, so that a
    block's temporaries are freed before the next block is built.
    """
    cells = [_digit_cells(index[rows]) if table is None else table.take(index[rows], axis=0)
             for table, index in sources]
    comma = np.full((len(cells[0]), 1), ord(","), dtype=np.uint8)
    parts = [part for cell in cells for part in (cell, comma)]
    parts[-1] = np.full_like(comma, ord("\n"))
    block = np.concatenate(parts, axis=1)
    return block[block != 0]


def _digit_cells(col: np.ndarray) -> np.ndarray:
    """
    Non-negative integers as text, right-aligned in zero-padded rows.  Each
    digit is cut with // 10, which numpy divides by a constant without a
    division instruction (libdivide), on a uint32 copy when the values fit.
    """
    top = int(col.max())
    text = np.empty((len(str(top)), len(col)), dtype=np.uint8)  # a row per digit
    rest = col.astype(np.uint32) if top < 2**32 else col
    quot = rest // 10
    np.subtract(rest, quot * 10, out=text[-1], casting="unsafe")
    text[-1] += ord("0")
    for row in text[-2::-1]:  # a leading zero is no byte
        rest = quot
        quot = rest // 10
        np.subtract(rest, quot * 10, out=row, casting="unsafe")
        row += ord("0")
        row *= rest > 0
    return text.T


def _str_cells(values: np.ndarray) -> np.ndarray:
    """Values as str gives them, left-aligned in zero-padded rows."""
    return _text_cells(list(map(str, values.tolist())))


def _text_cells(texts: list[str]) -> np.ndarray:
    """ASCII texts left-aligned in zero-padded rows."""
    text = np.array(texts, dtype=np.bytes_)
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
    too when m is even (round-half-even parses the interval's ends to x):
    low is r < even + M and high is S - r < even + M, so the two make one
    test, |r - S/2| > (S/2 - even) - M.  Either way, the last digit is u + 1
    when 2r > S: on low alone 2r < S, and on high alone 2r > S.  The
    free-format output is str's shortest round trip, but for a tie (2r == S,
    whose even pick this leaves to str) or a carry out of the digit (u + 1
    == 10); those, and every other x, go through str.

    The test, once true, stays true, so the last digit of a lane is on the
    first row where it holds.  Low: r < even + M gives 10r mod S <= 10r <
    even + 10M (for even = 1, r <= M and 10r <= 10M).  High is the mirror
    case with S - r, which the step takes to 10 (S - r) mod S: that is 10
    (S - r) itself where 10 (S - r) < S, and where 10 (S - r) >= S the next
    r is below S <= 10 (S - r) < even + 10M, so low holds.  Since r < S,
    low holds once 10**steps reaches S, so by the last row.
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
    room = half - (1 - (m & 1))  # S/2 - even
    steps = math.ceil(int(shift.max()) * math.log10(2))
    digits = np.empty((steps, len(lanes)), dtype=np.uint8)
    stop = np.empty((steps, len(lanes)), dtype=bool)
    above = np.empty_like(stop)  # 2r > S
    tie = np.empty_like(stop)  # 2r == S
    r = (m & (half - 1)) << 1
    off = np.empty_like(r)  # r - S/2, then |r - S/2| + M
    margin = 1
    for row in range(steps):
        r *= 10
        margin *= 10
        np.right_shift(r, shift, out=digits[row], casting="unsafe")
        r &= rest
        np.subtract(r, half, out=off)
        np.greater(off, 0, out=above[row])
        np.equal(off, 0, out=tie[row])
        np.abs(off, out=off)
        off += margin
        np.greater(off, room, out=stop[row])
    first = np.empty_like(stop)  # the first row that stops, the last digit
    first[0] = stop[0]
    np.greater(stop[1:], stop[:-1], out=first[1:])
    above &= first
    digits += above
    tie &= first
    tie |= digits == 10
    exact = ~tie.any(axis=0)
    digits += ord("0")
    np.logical_not(stop, out=stop)
    digits[1:] *= stop[:-1]  # digits past the last are no bytes
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
