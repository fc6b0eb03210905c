"""Trace writer: numpy digit generation against str, and its memory budget."""

import tracemalloc

import numpy as np
import pytest

from duallink import ScenarioParams, run_simulation
from duallink.cli import _shortest_cells, _write_trace

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
    # The writer works a block of rows at a time: on a 100,000-slot trace its
    # traced memory peaks below 1 MB.
    scenario = ScenarioParams()
    trace = run_simulation(scenario, (1.4e10, 9.6e10), 100_000, seed=1)
    assert len(np.unique(trace.q_l[:2048])) > 128  # the numpy digit path runs
    assert _traced_peak(lambda: _write_trace(_Discard(), trace)) <= 2**20
