"""Queue-simulation tests: evolution law, conservation, delays, stability."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from duallink import QueueTrace, ScenarioParams, mean_delay, queuesim, run_simulation
from duallink.queuesim import _LEVEL_BLOCK


@pytest.fixture(scope="module")
def scenario():
    return ScenarioParams()


def test_classify_arrivals_degenerate(scenario):
    # Each slot's arrivals are split per packet: alpha = 0 or 1 sends all
    # of them to one class.
    for alpha in (0.0, 1.0):
        trace = run_simulation(replace(scenario, alpha=alpha), (1e9, 1e9), 200, seed=1)
        assert np.all((trace.a_h if alpha == 0.0 else trace.a_l) == 0)
        assert np.sum(trace.a_h + trace.a_l) > 0
    trace = run_simulation(replace(scenario, arrival_rate=0.0), (1e9, 1e9), 200, seed=1)
    assert np.all(trace.a_h == 0) and np.all(trace.a_l == 0)


def test_classify_arrivals_fraction(scenario):
    sc = replace(scenario, alpha=0.15, arrival_rate=1000.0)
    trace = run_simulation(sc, (1e9, 1e9), 1000, seed=2)
    total = int(np.sum(trace.a_h + trace.a_l))
    sigma = math.sqrt(0.15 * 0.85 / total)
    assert abs(np.sum(trace.a_h) / total - 0.15) < 3.0 * sigma


def test_step_queues_arithmetic(scenario):
    # Both routes always up: a rate of k packet_size / slot_duration serves
    # k packets a slot.  Each slot serves, clamps at empty, then adds the
    # slot's arrivals.
    sc = replace(scenario, q_d=0.0, q_r=0.0, arrival_rate=5.0)
    trace = run_simulation(sc, (2e8, 5e8), 2000, seed=10)
    for q, a, s, k in ((trace.q_h, trace.a_h, trace.s_h, 2.0),
                       (trace.q_l, trace.a_l, trace.s_l, 5.0)):
        assert s == pytest.approx(np.full(len(trace), k), rel=1e-12)
        prev = np.concatenate([[0.0], q[:-1]])
        assert np.array_equal(q, np.maximum(prev - s, 0.0) + a)


def test_step_queues_outage_gating(scenario):
    # Both routes always blocked: nothing is served, whatever the rates.
    sc = replace(scenario, q_d=1.0, q_r=1.0)
    trace = run_simulation(sc, (1e12, 1e12), 2000, seed=11)
    assert np.all(trace.s_h == 0.0) and np.all(trace.s_l == 0.0)
    assert np.array_equal(trace.q_h, np.cumsum(trace.a_h))
    assert np.array_equal(trace.q_l, np.cumsum(trace.a_l))


def test_simulation_no_arrivals(scenario):
    sc = replace(scenario, arrival_rate=0.0)
    trace = run_simulation(sc, (1e9, 1e9), 2000, seed=3)
    assert np.all(trace.q_h == 0.0)
    assert np.all(trace.q_l == 0.0)


def test_simulation_zero_rates_diverges(scenario):
    trace = run_simulation(scenario, (0.0, 0.0), 5000, seed=4)
    assert np.all(np.diff(trace.q_l) >= 0)  # no service, never drains


def test_flow_conservation_exact(scenario):
    trace = run_simulation(scenario, (2e10, 8e10), 20000, seed=5)
    for q, a, s in ((trace.q_h, trace.a_h, trace.s_h),
                    (trace.q_l, trace.a_l, trace.s_l)):
        level = 0.0
        for t in range(len(trace)):
            level = max(level - s[t], 0.0) + a[t]
        assert level == q[-1]


def test_queue_nonnegative(scenario):
    trace = run_simulation(scenario, (1e10, 1e11), 20000, seed=6)
    assert np.min(trace.q_h) >= 0.0
    assert np.min(trace.q_l) >= 0.0


def test_seeded_reproducibility(scenario):
    t1 = run_simulation(scenario, (1.4e10, 9.6e10), 30000, seed=77)
    t2 = run_simulation(scenario, (1.4e10, 9.6e10), 30000, seed=77)
    assert t1.q_h.tobytes() == t2.q_h.tobytes()
    assert t1.q_l.tobytes() == t2.q_l.tobytes()
    assert np.array_equal(t1.a_h, t2.a_h)
    assert np.array_equal(t1.beta_d, t2.beta_d)
    t3 = run_simulation(scenario, (1.4e10, 9.6e10), 30000, seed=78)
    assert not np.array_equal(t1.a_h, t3.a_h)


def test_stability_with_service_margin(scenario):
    # 20% service margin on both streams: time averages must not drift up.
    serv = scenario.slot_duration / scenario.packet_size
    rate_h = 1.2 * scenario.alpha * scenario.arrival_rate / ((1 - scenario.q_r) * serv)
    rate_l = 1.2 * (1 - scenario.alpha) * scenario.arrival_rate / ((1 - scenario.q_d) * serv)
    trace = run_simulation(scenario, (rate_h, rate_l), 100000, seed=8)
    warm = len(trace) // 10
    mid = len(trace) // 2
    for q in (trace.q_h, trace.q_l):
        first = q[warm:mid].mean()
        second = q[mid:].mean()
        assert second <= first + max(0.05 * first, 1.0)


def _service_rates(scenario, margin_h, margin_l):
    """Rates that serve margin times each class's mean arrivals, routes allowing."""
    serv = scenario.slot_duration / scenario.packet_size
    return (margin_h * scenario.alpha * scenario.arrival_rate / ((1 - scenario.q_r) * serv),
            margin_l * (1 - scenario.alpha) * scenario.arrival_rate / ((1 - scenario.q_d) * serv))


# Loads: light (both queues mostly empty), heavy (LC served at half its
# arrival rate, so its queue never empties), no service at all, and tie:
# whole packets of service per slot, about each class's mean arrivals, so
# that a level often equals the service and the queue empties exactly.
_LOADS = {"light": (3.0, 3.0), "heavy": (1.05, 0.5), "none": (0.0, 0.0), "tie": (1.05, 1.05)}


def _load_rates(scenario, load):
    rates = _service_rates(scenario, *_LOADS[load])
    if load == "tie":
        serv = scenario.slot_duration / scenario.packet_size
        rates = tuple(round(rate * serv) / serv for rate in rates)
    return rates


@pytest.mark.parametrize("slots", [1, _LEVEL_BLOCK - 1, _LEVEL_BLOCK, _LEVEL_BLOCK + 1, 100_000])
@pytest.mark.parametrize("load", sorted(_LOADS))
def test_recursion_matches_scalar_loop(scenario, load, slots):
    # The blocked recursion on Python floats gives the bits of a slot-by-slot
    # loop on numpy scalars, with the level carried across block boundaries.
    trace = run_simulation(scenario, _load_rates(scenario, load), slots, seed=21)
    if load == "heavy":
        assert trace.q_l.min() > 0.0
    if load == "tie":
        for q, s in ((trace.q_h, trace.s_h), (trace.q_l, trace.s_l)):
            assert (s == np.round(s)).all() and s.max() > 0.0
            if slots == 100_000:
                assert (q[:-1] == s[1:]).sum() > 10  # level - s_t is exactly 0.0
    for q, a, s in ((trace.q_h, trace.a_h, trace.s_h),
                    (trace.q_l, trace.a_l, trace.s_l)):
        ref = np.empty(slots)
        level = 0.0
        for t in range(slots):
            level = max(level - s[t], 0.0) + a[t]
            ref[t] = level
        assert q.tobytes() == ref.tobytes()
    for name, dtype in (("a_h", np.int64), ("a_l", np.int64), ("beta_d", np.int8),
                        ("beta_r", np.int8), ("s_h", np.float64), ("s_l", np.float64),
                        ("q_h", np.float64), ("q_l", np.float64)):
        assert getattr(trace, name).dtype == dtype, name


def _constant_trace(level_h: float, level_l: float, slots: int) -> QueueTrace:
    zeros = np.zeros(slots)
    return QueueTrace(
        a_h=np.zeros(slots, dtype=np.int64),
        a_l=np.zeros(slots, dtype=np.int64),
        s_h=zeros, s_l=zeros,
        beta_d=np.ones(slots, dtype=np.int8),
        beta_r=np.ones(slots, dtype=np.int8),
        q_h=np.full(slots, level_h),
        q_l=np.full(slots, level_l),
    )


def test_mean_delay_constant_queue():
    trace = _constant_trace(10.0, 0.0, 1000)
    stats = mean_delay(trace, alpha=0.5, arrival=10.0, slot_duration=0.1)
    assert stats.tau_h_slots == pytest.approx(2.0)
    assert stats.tau_h_seconds == pytest.approx(0.2)


def test_mean_delay_absent_sides():
    trace = _constant_trace(0.0, 8.0, 1000)
    stats = mean_delay(trace, alpha=0.0, arrival=4.0, slot_duration=0.1)
    assert stats.tau_h_slots is None
    assert stats.tau_l_slots == pytest.approx(2.0)
    stats = mean_delay(trace, alpha=1.0, arrival=4.0, slot_duration=0.1)
    assert stats.tau_l_slots is None


def test_mean_delay_matches_md1_theory():
    # Single always-served queue at half load: service capacity exactly one
    # packet per slot, Poisson arrivals at 0.5/slot.  The fixed-service
    # single-server queue has mean occupancy rho + rho^2 / (2 (1 - rho)).
    lam = 0.5
    sc = ScenarioParams(alpha=1.0, q_d=0.0, q_r=0.0, arrival_rate=lam)
    rate_h = 1.0 * sc.packet_size / sc.slot_duration  # one packet per slot
    trace = run_simulation(sc, (rate_h, 0.0), 100000, seed=9)
    stats = mean_delay(trace, 1.0, lam, sc.slot_duration)
    rho = 0.5
    occupancy = rho + rho * rho / (2.0 * (1.0 - rho))
    tau_theory = occupancy / lam
    assert stats.tau_h_slots == pytest.approx(tau_theory, rel=0.15)


@pytest.mark.parametrize("slots", [1, 999])
def test_mean_delay_rejects_short_trace(scenario, slots):
    # Too short to judge: a 1-slot trace would give an empty warm-up mean.
    trace = run_simulation(scenario, (0.0, 0.0), slots, seed=1)
    with pytest.raises(ValueError, match="fewer than the 1000"):
        mean_delay(trace, scenario.alpha, scenario.arrival_rate, scenario.slot_duration)


def test_mean_delay_rejects_empty():
    trace = _constant_trace(1.0, 1.0, 10)
    trace.q_h = np.array([])
    trace.q_l = np.array([])
    with pytest.raises(ValueError):
        mean_delay(trace, 0.5, 1.0, 0.1)


def _loop_levels(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The reference: the queue recursion as a slot-by-slot loop."""
    q = np.empty(len(s))
    level = 0.0
    for t, (s_t, a_t) in enumerate(zip(s.tolist(), a.tolist())):
        level = (level - s_t if level > s_t else 0.0) + a_t
        q[t] = level
    return q


def _recursion_case(kind: str, slots: int) -> tuple[np.ndarray, np.ndarray]:
    """Service and arrivals of one queue, drawn for the named case."""
    rng = np.random.default_rng(31)
    a = rng.poisson(3.0, slots)
    up = rng.random(slots) < 0.7
    if kind == "ties":  # whole-packet service: the level often equals it
        return up * 5.0, a
    if kind == "blocked":  # no route, no service: the queue never empties
        return np.zeros(slots), a
    if kind == "never-empty":  # served below its arrivals after a first burst
        a[0] = 1000
        return up * 2.9, a
    if kind == "fractional":  # service just above the mean arrivals
        return up * (3.0 / 0.7 * 1.02 + 1e-9 * rng.random(slots)), a
    raise ValueError(kind)


_CASES = ("ties", "blocked", "never-empty", "fractional")


def _windows(monkeypatch, wrong_at=None, wrong=None):
    """
    Record each window that _levels fills, as (its first slot, its values
    as filled), with the start detector's answer for window number
    `wrong_at` passed through `wrong`.
    """
    windows = []
    starts, fill = queuesim._busy_period_starts, queuesim._fill_busy_periods

    def detector(s, a, level):
        right = starts(s, a, level)
        return wrong(right) if len(windows) == wrong_at else right

    def recorded(s, a, level, q):
        fill(s, a, level, q)
        windows.append(((q.ctypes.data - q.base.ctypes.data) // q.itemsize, q.copy()))

    monkeypatch.setattr(queuesim, "_busy_period_starts", detector)
    monkeypatch.setattr(queuesim, "_fill_busy_periods", recorded)
    return windows


def _wrong_slots(filled: np.ndarray, ref: np.ndarray) -> list[int]:
    return np.flatnonzero(filled.view(np.int64) != ref.view(np.int64)).tolist()


@pytest.mark.parametrize("kind", _CASES)
def test_levels_repair_a_wrong_start_detector(monkeypatch, kind):
    # The recursion gives the loop's bits on ties (level == s_t), a blocked
    # queue, one that never empties and fractional service, across a window
    # edge, even from a wrong start detector: the bit check finds the first
    # slot it gets wrong, which ends the window, and the next window starts
    # one slot after it.  Here the detector's first answer misses the first
    # start and makes slot 1 one.
    windows = _windows(monkeypatch, 0, lambda right: np.union1d(right[1:], [1]))
    s, a = _recursion_case(kind, _LEVEL_BLOCK + 300)
    q = queuesim._levels(s, a)
    ref = _loop_levels(s, a)
    assert q.tobytes() == ref.tobytes()
    bad = _wrong_slots(windows[0][1], ref[:_LEVEL_BLOCK])[0]
    assert bad <= 1
    assert [start for start, _ in windows] == [0, bad + 1, bad + 1 + _LEVEL_BLOCK]
    if kind == "ties":
        assert (q[:-1] == s[1:]).sum() > 10  # level - s_t is exactly 0.0
    if kind in ("blocked", "never-empty"):
        assert q.min() > 0.0


# Window edges, on a queue whose slot _LEVEL_BLOCK alone empties after slot
# 0: the second window's first slot empties from a positive carried level,
# so the detector seeds that level as a period with no steps; a detector
# that misses that start, repaired at the window's first slot; and one that
# makes the first window's last slot a start, repaired there.  Each maps to
# the window whose detector answer goes wrong and how, the first slot of
# each window, and the slots that the fill got wrong.
_EDGES = {
    "first-slot-empties": (None, None, [0, _LEVEL_BLOCK], []),
    "repair-at-first-slot": (1, lambda right: right[1:], [0, _LEVEL_BLOCK, _LEVEL_BLOCK + 1],
                             [_LEVEL_BLOCK]),
    "repair-at-last-slot": (0, lambda right: np.union1d(right, [_LEVEL_BLOCK - 1]),
                            [0, _LEVEL_BLOCK], [_LEVEL_BLOCK - 1]),
}


@pytest.mark.parametrize("edge", sorted(_EDGES))
def test_levels_window_edges(monkeypatch, edge):
    wrong_at, wrong, starts, wrong_slots = _EDGES[edge]
    windows = _windows(monkeypatch, wrong_at, wrong)
    s, a = _recursion_case("never-empty", _LEVEL_BLOCK + 300)
    s[_LEVEL_BLOCK] = 1e9
    ref = _loop_levels(s, a)
    assert (ref[:-1] > s[1:]).sum() == len(s) - 2  # only slot _LEVEL_BLOCK empties
    assert ref[_LEVEL_BLOCK - 1] > 0.0 and ref[_LEVEL_BLOCK] == a[_LEVEL_BLOCK]
    q = queuesim._levels(s, a)
    assert q.tobytes() == ref.tobytes()
    assert [lo for lo, _ in windows] == starts
    assert [lo + t for lo, filled in windows
            for t in _wrong_slots(filled, ref[lo:lo + len(filled)])[:1]] == wrong_slots


def test_levels_memory_budget():
    # Blocks of slots bound the recursion's temporaries: on a 100,000-slot
    # class trace it needs at most 1 MB beyond its output.
    s, a = _recursion_case("fractional", 100_000)
    tracemalloc.start()
    try:
        q = queuesim._levels(s, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - q.nbytes <= 2**20
