"""
Discrete-time simulation of the two criticality buffers.

Packets arrive in a Poisson stream, are classified high/low criticality per
packet, and drain at the allocated service rates gated by the per-slot
blockage state: the HC stream needs the reflected route up, the LC stream
the direct route.  Queue lengths are fluid (service per slot is generally a
non-integer packet count).  Delay statistics follow from the time-averaged
queue lengths divided by the per-class arrival rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .link import ScenarioParams, sample_blockage_batch

# Shortest trace whose delay estimate is reported.
MIN_DELAY_HORIZON = 1000
# Slots per block of the queue recursion.  Whole columns as Python lists
# would add about 7 MB per class to a 100,000-slot run.
_LEVEL_BLOCK = 4096


@dataclass
class QueueTrace:
    """Per-slot record of a simulation run."""

    a_h: np.ndarray       # HC arrivals per slot
    a_l: np.ndarray       # LC arrivals per slot
    s_h: np.ndarray       # HC service offered per slot (packets, gated)
    s_l: np.ndarray       # LC service offered per slot
    beta_d: np.ndarray    # direct-route availability
    beta_r: np.ndarray    # reflected-route availability
    q_h: np.ndarray       # HC queue after the slot
    q_l: np.ndarray       # LC queue after the slot

    def __len__(self) -> int:
        return len(self.q_h)


@dataclass(frozen=True)
class DelayStats:
    """Little's-law delay summary; per-class values absent when unloaded."""

    tau_h_slots: float | None
    tau_l_slots: float | None
    tau_h_seconds: float | None
    tau_l_seconds: float | None
    tau_total_slots: float | None
    mean_q_h: float
    mean_q_l: float


def run_simulation(
    scenario: ScenarioParams,
    stream_rates: tuple[float, float],
    slots: int,
    seed: int,
) -> QueueTrace:
    """
    Simulate both buffers for the given number of slots.

    Per slot: Poisson total arrivals, binomial criticality split, one joint
    blockage draw, then the queue update.  The draw order (all arrivals,
    then all splits, then all blockage uniforms) is fixed, so a seed pins
    the full trace bit for bit.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    rng = np.random.default_rng(seed)
    totals = rng.poisson(scenario.arrival_rate, slots)
    a_h = rng.binomial(totals, scenario.alpha)
    a_l = np.subtract(totals, a_h, out=totals)
    beta_d, beta_r = sample_blockage_batch(scenario.q_d, scenario.q_r, slots, rng)

    per_slot = scenario.slot_duration / scenario.packet_size
    s_h = beta_r * (per_slot * stream_rates[0])
    s_l = beta_d * (per_slot * stream_rates[1])

    return QueueTrace(
        a_h=a_h,
        a_l=a_l,
        s_h=s_h,
        s_l=s_l,
        beta_d=beta_d,
        beta_r=beta_r,
        q_h=_levels(s_h, a_h),
        q_l=_levels(s_l, a_l),
    )


def _levels(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """
    Queue after each slot, q_t = max(q_{t-1} - s_t, 0) + a_t from an empty
    queue, for service s and arrivals a.

    The loop runs on Python floats, a block of slots at a time, with the level
    carried across blocks.  For finite inputs its compare and branch gives
    the bits of max on numpy scalars (level == s_t gives +0.0 either way).
    """
    q = np.empty(len(s))
    level = 0.0
    for lo in range(0, len(s), _LEVEL_BLOCK):
        hi = lo + _LEVEL_BLOCK
        q[lo:hi] = [level := (level - s_t if level > s_t else 0.0) + a_t
                    for s_t, a_t in zip(s[lo:hi].tolist(), a[lo:hi].tolist())]
    return q


def mean_delay(
    trace: QueueTrace,
    alpha: float,
    arrival: float,
    slot_duration: float | None = None,
) -> DelayStats:
    """
    Delay statistics from the trace via Little's law.

    Time averages exclude the first tenth of the trace as start-up
    transient.  A class with zero arrival rate has no defined delay and is
    reported as absent.  ``tau_total_slots`` is the packet-averaged waiting
    time over both classes.  Raises ValueError on a trace shorter than
    MIN_DELAY_HORIZON slots, too short to judge.
    """
    if len(trace) < MIN_DELAY_HORIZON:
        raise ValueError(
            f"trace has {len(trace)} slots, fewer than the {MIN_DELAY_HORIZON} a delay needs")
    warm = len(trace) // 10
    mean_q_h = float(trace.q_h[warm:].mean())
    mean_q_l = float(trace.q_l[warm:].mean())

    rate_h = alpha * arrival
    rate_l = (1.0 - alpha) * arrival
    tau_h = mean_q_h / rate_h if rate_h > 0.0 else None
    tau_l = mean_q_l / rate_l if rate_l > 0.0 else None
    tau_total = (mean_q_h + mean_q_l) / arrival if arrival > 0.0 else None
    return DelayStats(
        tau_h_slots=tau_h,
        tau_l_slots=tau_l,
        tau_h_seconds=None if (tau_h is None or slot_duration is None) else tau_h * slot_duration,
        tau_l_seconds=None if (tau_l is None or slot_duration is None) else tau_l * slot_duration,
        tau_total_slots=tau_total,
        mean_q_h=mean_q_h,
        mean_q_l=mean_q_l,
    )
