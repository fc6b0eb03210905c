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
# Most slots per window of the queue recursion.  On a 100,000-slot class
# trace its temporaries peak near 0.5 MB (0.25 MB at 4096 slots), and it
# takes about 7 ms per class on the benchmark's seed-1 scenarios, 28% less
# than with 4096-slot windows.
_LEVEL_BLOCK = 8192


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
    queue, for service s and arrivals a, with the bits of the slot-by-slot
    loop that compares and branches:
    q_t = (q_{t-1} - s_t if q_{t-1} > s_t else 0.0) + a_t.

    It runs a window of up to _LEVEL_BLOCK slots at a time from the carried
    level.  Each window is filled by busy periods (_fill_busy_periods), then
    checked against one vectorised step of the loop from the level before
    each slot, bit for bit.  The window ends at its last slot, or at the
    first slot that fails the check: every slot before it holds the loop's
    value, by induction from the carried level, so the check's value there
    is the loop's too, and it is the next window's carried level.
    """
    q = np.empty(len(s))
    level = 0.0
    lo = 0
    while lo < len(s):
        hi = lo + _LEVEL_BLOCK
        s_w, a_w, q_w = s[lo:hi], a[lo:hi].astype(np.float64), q[lo:hi]
        _fill_busy_periods(s_w, a_w, level, q_w)
        prev = np.concatenate(([level], q_w[:-1]))
        want = np.where(prev > s_w, prev - s_w, 0.0)
        want += a_w
        wrong = np.flatnonzero(want.view(np.int64) != q_w.view(np.int64))
        end = wrong[0] if len(wrong) else len(q_w) - 1
        q_w[end] = level = want[end]
        lo += end + 1
    return q


def _busy_period_starts(s: np.ndarray, a: np.ndarray, level: float) -> np.ndarray:
    """
    The slots where the queue, at `level` before the first, empties before
    its arrivals (level <= s_t), by the Lindley prefix-minimum form.  With
    D_t = (level - s_0) + sum over 1..t of (a_{i-1} - s_i), slot t empties
    when D_t is at most floor_t = min(0, D_0, ..., D_{t-1}).  The sums round
    apart from the loop's, so near a tie the answer can be wrong; the
    caller's check catches that.
    """
    drift = np.empty(len(s) + 1)  # [0, D_0, D_1, ...]
    drift[:2] = 0.0, level - s[0]
    np.subtract(a[:-1], s[1:], out=drift[2:])
    np.cumsum(drift, out=drift)
    floor = np.minimum.accumulate(drift)
    return np.flatnonzero(drift[1:] <= floor[:-1])


def _fill_busy_periods(s: np.ndarray, a: np.ndarray, level: float, q: np.ndarray) -> None:
    """
    Fill q from `level` busy period by busy period, assuming the queue
    empties exactly at _busy_period_starts.

    A period starts at a slot t that empties, q_t = a_t, or at the carried
    level, seeded as period -1 (with no steps when slot 0 empties); after
    that the loop does only (level - s) + a.  np.cumsum adds in sequence,
    and x + (-s) is x - s in IEEE arithmetic, so one cumsum over
    [start, -s, a, -s, a, ...] gives the loop's bits.  The periods are
    grouped by length up to the next power of two, and each group is one
    cumsum along the rows of a matrix, a period per row: so short periods
    advance by position all at once, and a long one is a single row.  A
    shorter row runs on into the slots after its period, which change no
    sum before them and are not kept; they at most double a group.
    """
    starts = _busy_period_starts(s, a, level)
    q[starts] = a[starts]
    first, seed = np.append(-1, starts), np.append(level, a[starts])
    steps = np.diff(first, append=len(s)) - 1  # slots of each period after its start
    busy = np.flatnonzero(steps)
    group = np.frexp(steps[busy] - 1.0)[1]  # steps up to 2**group
    for g in np.unique(group):
        rows = busy[group == g]
        width = 1 << int(g)
        pos = first[rows, None] + np.arange(1, width + 1)
        terms = np.empty((len(rows), 2 * width + 1))
        terms[:, 0] = seed[rows]
        np.take(s, pos, out=terms[:, 1::2], mode="clip")
        np.negative(terms[:, 1::2], out=terms[:, 1::2])
        np.take(a, pos, out=terms[:, 2::2], mode="clip")
        np.cumsum(terms, axis=1, out=terms)
        used = np.arange(1, width + 1) <= steps[rows, None]
        q[pos[used]] = terms[:, 2::2][used]


def mean_delay(
    trace: QueueTrace,
    alpha: float,
    arrival: float,
    slot_duration: float,
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
        tau_h_seconds=None if tau_h is None else tau_h * slot_duration,
        tau_l_seconds=None if tau_l is None else tau_l * slot_duration,
        tau_total_slots=tau_total,
        mean_q_h=mean_q_h,
        mean_q_l=mean_q_l,
    )
