"""
Orthogonal time-sharing baseline.

Each slot is split: a fraction carries the HC stream at full power on the
reflected route, the remainder carries the LC stream at full power on the
direct beam.  Both stability gaps are affine in the fraction, so the
max-min optimal split is the weighted equalisation point clipped to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .allocation import _coeffs, _traffic, weighted_min_gap
from .link import ScenarioParams


@dataclass(frozen=True)
class OmaResult:
    """Optimised time split with the resulting slot-averaged rates and gaps."""

    time_fraction: float
    rate_h: float
    rate_l: float
    gap_h: float
    gap_l: float
    objective: float


def _phases(scenario: ScenarioParams, lc_ris_assist: bool) -> tuple[float, float, float, float]:
    """
    Spectral efficiencies [bit/s/Hz] of the full-power HC (reflector) and LC
    phases, and their service rates [packets/slot] with route availability.
    """
    w_d, w_r, noise_w, serv = _coeffs(scenario)
    w_l = w_d + w_r if lc_ris_assist else w_d
    se_h = math.log2(1.0 + w_r * scenario.p_max / noise_w)
    se_l = math.log2(1.0 + w_l * scenario.p_max / noise_w)
    return se_h, se_l, (1.0 - scenario.q_r) * serv * se_h, (1.0 - scenario.q_d) * serv * se_l


def oma_rates(
    tau: float,
    scenario: ScenarioParams,
    *,
    lc_ris_assist: bool = False,
) -> tuple[float, float]:
    """
    Slot-averaged rates [bit/s] of the two phases at time split tau.

    The HC phase beams full power toward the reflector, the LC phase toward
    the user.  ``lc_ris_assist`` optionally lets the LC phase split its
    power across both routes coherently, which adds the reflected SNR
    coefficient on top of the direct one (off by default: the baseline keeps
    the LC stream on the direct link alone).
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    return _split_rates(tau, scenario.bandwidth, *_phases(scenario, lc_ris_assist)[:2])


def _split_rates(tau: float, bandwidth: float, se_h: float, se_l: float) -> tuple[float, float]:
    return tau * bandwidth * se_h, (1.0 - tau) * bandwidth * se_l


def oma_optimize(
    scenario: ScenarioParams,
    alpha: float | None = None,
    arrival: float | None = None,
    *,
    lc_ris_assist: bool = False,
) -> OmaResult:
    """
    Best time split under the same weighted min-gap objective as the
    superposition allocator.

    With the HC gap increasing and the LC gap decreasing in tau, the optimum
    is either an endpoint or the point equalising the weighted gaps; all
    three candidates are evaluated in closed form.
    """
    alpha, arrival = _traffic(scenario, alpha, arrival)
    se_h, se_l, a_h, a_l = _phases(scenario, lc_ris_assist)

    def objective(tau: float) -> float:
        gap_h = a_h * tau - alpha * arrival
        gap_l = a_l * (1.0 - tau) - (1.0 - alpha) * arrival
        return weighted_min_gap(alpha, gap_h, gap_l)

    if alpha <= 0.0:
        candidates = [0.0]
    elif alpha >= 1.0:
        candidates = [1.0]
    else:
        candidates = [0.0, 1.0]
        denom = alpha * a_h + (1.0 - alpha) * a_l
        if denom > 0.0:
            # alpha*(a_h tau - alpha A) = (1-alpha)*(a_l (1-tau) - (1-alpha) A)
            tau_eq = (
                (1.0 - alpha) * (a_l - (1.0 - alpha) * arrival)
                + alpha * alpha * arrival
            ) / denom
            if 0.0 < tau_eq < 1.0:
                candidates.append(tau_eq)

    tau_best = max(candidates, key=objective)
    rate_h, rate_l = _split_rates(tau_best, scenario.bandwidth, se_h, se_l)
    gap_h = a_h * tau_best - alpha * arrival
    gap_l = a_l * (1.0 - tau_best) - (1.0 - alpha) * arrival
    return OmaResult(
        time_fraction=tau_best,
        rate_h=rate_h,
        rate_l=rate_l,
        gap_h=gap_h,
        gap_l=gap_l,
        objective=objective(tau_best),
    )


def oma_max_feasible_arrival(
    scenario: ScenarioParams,
    alpha: float | None = None,
    *,
    lc_ris_assist: bool = False,
) -> float:
    """
    Largest arrival rate the time-sharing baseline can stabilise.

    Both gaps are affine in the split, so feasibility reduces to fitting the
    two phase durations into one slot; the boundary is closed form.
    """
    alpha = _traffic(scenario, alpha, None)[0]
    _, _, a_h, a_l = _phases(scenario, lc_ris_assist)
    if alpha <= 0.0:
        return a_l
    if alpha >= 1.0:
        return a_h
    if a_h <= 0.0 or a_l <= 0.0:
        return 0.0
    return 1.0 / (alpha / a_h + (1.0 - alpha) / a_l)
