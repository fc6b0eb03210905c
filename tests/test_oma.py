"""Time-sharing baseline tests: rates, optimal split, dominance."""

import numpy as np
import pytest

from duallink import (
    PowerAllocation,
    ScenarioParams,
    objective_for_powers,
    oma_max_feasible_arrival,
    oma_optimize,
    sca_power_allocation,
)

RATE_DIRECT_FULL = 1.3294325812009692e11
RATE_RIS_FULL = 1.6177747546193415e10


@pytest.fixture(scope="module")
def scenario():
    return ScenarioParams()


def test_rates_endpoints(scenario):
    # With one class only, the whole slot goes to its full-power phase.
    res = oma_optimize(scenario, 0.0, 700.0)
    assert res.rate_h == 0.0
    assert res.rate_l == pytest.approx(RATE_DIRECT_FULL, rel=1e-12)
    res = oma_optimize(scenario, 1.0, 700.0)
    assert res.rate_h == pytest.approx(RATE_RIS_FULL, rel=1e-12)
    assert res.rate_l == 0.0


def test_rates_linear_in_split(scenario):
    # Each mix has its own interior split; each phase's rate scales with it.
    taus = set()
    for alpha in (0.02, 0.05, 0.1):
        res = oma_optimize(scenario, alpha, 700.0)
        tau = res.time_fraction
        taus.add(tau)
        assert 0.0 < tau < 1.0
        assert res.rate_h == pytest.approx(tau * RATE_RIS_FULL, rel=1e-12)
        assert res.rate_l == pytest.approx((1.0 - tau) * RATE_DIRECT_FULL, rel=1e-12)
    assert len(taus) == 3


def test_gaps_affine_in_split(scenario):
    # Each gap is its full-phase service rate times its share of the slot,
    # less its arrivals.
    res = oma_optimize(scenario, 0.1, 700.0)
    tau = res.time_fraction
    serv = scenario.slot_duration * scenario.bandwidth / scenario.packet_size
    full_h = (1 - scenario.q_r) * serv * RATE_RIS_FULL / scenario.bandwidth
    full_l = (1 - scenario.q_d) * serv * RATE_DIRECT_FULL / scenario.bandwidth
    assert res.gap_h == pytest.approx(full_h * tau - 0.1 * 700.0, rel=1e-9)
    assert res.gap_l == pytest.approx(full_l * (1.0 - tau) - 0.9 * 700.0, rel=1e-9)


def test_optimize_endpoint_mixes(scenario):
    res0 = oma_optimize(scenario, 0.0, 700.0)
    assert res0.time_fraction == 0.0
    res1 = oma_optimize(scenario, 1.0, 700.0)
    assert res1.time_fraction == 1.0


def test_optimize_matches_superposition_at_lc_only(scenario):
    # With no HC traffic both schemes send everything on the direct beam.
    oma = oma_optimize(scenario, 0.0, 700.0)
    full_lc = PowerAllocation(0.0, 0.0, scenario.p_max, 0.0)
    *_, obj = objective_for_powers(full_lc, scenario, 0.0, 700.0)
    assert oma.objective == pytest.approx(obj, rel=1e-12)


def test_optimize_is_grid_argmax(scenario):
    from duallink.allocation import weighted_min_gap
    from duallink.allocation import _coeffs
    import math

    w_d, w_r, noise_w, serv = _coeffs(scenario)
    a_h = (1 - scenario.q_r) * serv * math.log2(1 + w_r * scenario.p_max / noise_w)
    a_l = (1 - scenario.q_d) * serv * math.log2(1 + w_d * scenario.p_max / noise_w)
    for alpha in (0.02, 0.05, 0.08, 0.3):
        res = oma_optimize(scenario, alpha, 700.0)
        taus = np.linspace(0.0, 1.0, 1001)
        objs = [
            weighted_min_gap(alpha, a_h * t - alpha * 700.0,
                             a_l * (1 - t) - (1 - alpha) * 700.0)
            for t in taus
        ]
        best_tau = taus[int(np.argmax(objs))]
        assert abs(res.time_fraction - best_tau) <= 1e-3 + 1e-12
        assert res.objective >= max(objs) - 1e-9


def test_baseline_destabilises_early(scenario):
    # The time-shared system loses stability a little above 6% HC traffic.
    assert oma_optimize(scenario, 0.06, 700.0).objective >= 0.0
    assert oma_optimize(scenario, 0.07, 700.0).objective < 0.0


def test_superposition_dominates_baseline(scenario):
    for alpha in (0.02, 0.05, 0.10):
        mcsc = sca_power_allocation(scenario, alpha, 700.0)
        oma = oma_optimize(scenario, alpha, 700.0)
        assert mcsc.objective >= oma.objective - 1e-6


def test_max_feasible_arrival_endpoints(scenario):
    serv = scenario.slot_duration * scenario.bandwidth / scenario.packet_size
    a0 = oma_max_feasible_arrival(scenario, 0.0)
    assert a0 == pytest.approx((1 - scenario.q_d) * serv * RATE_DIRECT_FULL
                               / scenario.bandwidth, rel=1e-9)
    a1 = oma_max_feasible_arrival(scenario, 1.0)
    assert a1 == pytest.approx((1 - scenario.q_r) * serv * RATE_RIS_FULL
                               / scenario.bandwidth, rel=1e-9)
    # At the boundary the two phase durations exactly fill the slot.
    mid = oma_max_feasible_arrival(scenario, 0.5)
    assert 0.5 * mid / a1 + 0.5 * mid / a0 == pytest.approx(1.0, rel=1e-9)
    assert mid < max(a0, a1)


def test_max_feasible_arrival_zero_when_lc_undeliverable():
    sc = ScenarioParams(q_d=1.0, q_r=0.1)
    assert oma_max_feasible_arrival(sc, 0.25) == 0.0
