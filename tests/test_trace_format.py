"""Trace writer: numpy digit generation against str, and its memory budget."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from duallink import ScenarioParams, run_simulation
from duallink.cli import (
    _SHORTEST_MIN_DISTINCT,
    _TRACE_ROWS_PER_BATCH,
    _digit_cells,
    _shortest_cells,
    _write_trace,
)
from duallink.experiments import _operating_rates

# Values whose text is easy to get wrong: signed zeros, non-finite values,
# the smallest subnormal, the ends of the numpy path's range (1 and 2**52),
# ties that str breaks to even (2**50 + 0.25 and 0.75), and long decimals.
_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 0.1, 1.0, 1.0 + 2.0**-52,
          np.nextafter(1.0, 0.0), 2.0**52 - 0.5, 2.0**52, 2.0**51 + 0.5, 2.0**50 + 0.25,
          2.0**50 + 0.75, 999999.9999999999, 9.999999999999998, 123.45, -2.5]
# Values per class, and per call of the formatter.
_PER_CLASS = 245_000
_CHUNK = 65_536


def _doubles(rng: np.random.Generator) -> np.ndarray:
    """Seeded doubles from every class the formatter has to tell apart."""
    log_uniform = 10.0 ** rng.uniform(-6.0, np.log10(2.0**54), _PER_CLASS)
    scale = 10.0 ** rng.integers(0, 8, _PER_CLASS // 3)
    decimals = np.round(rng.uniform(0.0, 1e6, _PER_CLASS // 3) * scale) / scale
    integers = rng.integers(0, 2**53, _PER_CLASS).astype(np.float64)
    # Random bit patterns, nearly all outside [1, 2**52), so str's own.
    patterns = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, _PER_CLASS // 10,
                            dtype=np.int64).view(np.float64)
    # Even mantissas over [1, 2**52): both ends of their interval round-trip.
    even = (rng.integers(0x3FF0000000000000, 0x4330000000000000, _PER_CLASS,
                         dtype=np.int64) & ~1).view(np.float64)
    return np.concatenate([
        log_uniform, decimals, np.nextafter(decimals, np.inf), np.nextafter(decimals, -np.inf),
        integers, patterns, even, _EDGES])


def test_shortest_cells_match_str():
    # Over a million doubles, every cell is the text str gives, byte for byte.
    values = _doubles(np.random.default_rng(2718))
    assert len(values) >= 1_000_000
    for lo in range(0, len(values), _CHUNK):
        chunk = values[lo:lo + _CHUNK]
        text = _shortest_cells(chunk.view(np.int64))
        lines = np.concatenate([text, np.full((len(text), 1), ord("\n"), dtype=np.uint8)], axis=1)
        got = lines[lines != 0].tobytes().decode()
        want = "\n".join(map(repr, chunk.tolist())) + "\n"
        if got != want:
            bad = next(i for i, (g, w) in enumerate(zip(got.splitlines(), want.splitlines()))
                       if g != w)
            pytest.fail(f"{chunk[bad]!r}: got {got.splitlines()[bad]!r}")


def test_stop_test_is_monotone():
    # _shortest_cells takes each lane's last digit from the first row where
    # the two-sided stop test holds: in exact integers, once true it stays
    # true, it holds by the loop's last row, and it is the one comparison
    # |r - S/2| > (S/2 - even) - M.
    values = np.random.default_rng(1618).choice(_doubles(np.random.default_rng(2718)), 50_000)
    bits = values.view(np.int64)
    k = 1075 - (bits >> 52)
    inside = (k >= 1) & (k <= 52)
    assert inside.sum() > 25_000
    for x, b, k in zip(values[inside].tolist(), bits[inside].tolist(), k[inside].tolist()):
        m = b & (2**52 - 1) | 2**52
        scale = 2 ** (k + 1)
        even = 1 - (m & 1)
        r, margin = 2 * (m % 2**k), 1
        held = []
        for _ in range(math.ceil((k + 1) * math.log10(2))):
            r, margin = 10 * r % scale, 10 * margin
            stop = r < even + margin or scale - r < even + margin
            assert stop == (abs(r - scale // 2) > scale // 2 - even - margin), x
            held.append(stop)
        assert held[-1] and held == sorted(held), x


@pytest.mark.parametrize("dtype", [np.int64, np.int8])
def test_digit_cells_match_str(dtype):
    # Integer columns on both sides of the uint32 copy: each column's
    # maximum is the next of these values, so the cut runs in uint32 up to
    # 2**32 - 1 and in int64 from 2**32 on.
    values = [0, 9, 10, 99_999, 100_000, 2**32 - 1, 2**32, 2**53, 2**63 - 1]
    if dtype == np.int8:
        values = [0, 1]
    for top in range(len(values)):
        col = np.array(values[:top + 1] * 3, dtype=dtype)
        text = _digit_cells(col)
        got = [bytes(row[row != 0]).decode() for row in text]
        assert got == list(map(str, col.tolist())), values[top]


class _Discard:
    """A binary file that keeps nothing, so that only the writer's memory is traced."""

    def write(self, data) -> int:
        return len(data)


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_writer_memory_budget():
    # The writer works a batch of rows at a time: on a 100,000-slot trace its
    # traced memory peaks below 1 MB.  The scenario is criterion 4's first of
    # seed 42, with its alpha (the benchmark's first simulate-trace scenario
    # of seed 42), at its operating rates: its LC queue levels are
    # fractional, so the numpy digit pass runs its digit rows.
    rng = np.random.default_rng(42)
    s_d, s_r = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    q_d = rng.uniform(0.1, 0.5)
    q_r = rng.uniform(0.02, q_d)
    base = ScenarioParams()
    scenario = replace(base, g_b=base.g_b * s_d**2, l_x=base.l_x * s_r / s_d, q_d=q_d, q_r=q_r,
                       alpha=rng.uniform(0.0, 0.3))
    rate_h, rate_l, _, _ = _operating_rates(scenario, "mcsc")
    trace = run_simulation(scenario, (rate_h, rate_l), 100_000, seed=1)
    keys = np.unique(trace.q_l[:_TRACE_ROWS_PER_BATCH])
    assert len(keys) > _SHORTEST_MIN_DISTINCT  # the numpy digit path runs
    assert (keys % 1.0 != 0.0).sum() > _SHORTEST_MIN_DISTINCT  # on fractional lanes
    assert _traced_peak(lambda: _write_trace(_Discard(), trace)) <= 2**20
