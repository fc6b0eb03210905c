"""Allocator tests: transform identities, closed-form anchors, oracle checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from duallink import (
    BlockageState,
    PowerAllocation,
    ScenarioParams,
    approx_sinrs,
    brute_force_oracle,
    capacity_allocation,
    g_h,
    g_l,
    link_gains,
    max_feasible_arrival,
    objective_for_powers,
    optimal_mu,
    sca_power_allocation,
    weighted_min_gap,
)

# Hand-frozen scalar chains for the default scenario.
MU_H0_REFERENCE = 7.92332609356792e4     # p = (0, 5, 0, 5) mW, direct route down
SINR_H0_REFERENCE = 0.5084803114663329   # same point, signal / (interference + noise)
GAP_L_ALL_DIRECT = 230.60280684067845    # alpha = 0, all power on the direct LC beam
GAP_H_ALL_RIS = -554.4002720842593       # alpha = 1, all power on the reflected HC beam
ARRIVAL_STAR_LC_ONLY = 930.6028068406785


@pytest.fixture(scope="module")
def scenario():
    return ScenarioParams()


@pytest.fixture(scope="module")
def gains(scenario):
    return link_gains(scenario)


def test_optimal_mu_zero_powers(scenario, gains):
    mu = optimal_mu(PowerAllocation(0, 0, 0, 0), gains, scenario.n_b, scenario.n_r)
    assert (mu.mu_h0, mu.mu_h1, mu.mu_l) == (0.0, 0.0, 0.0)


def test_optimal_mu_no_interference(scenario, gains):
    # Without LC power the HC multiplier reduces to sqrt(signal)/noise.
    p = PowerAllocation(0.002, 0.003, 0.0, 0.0)
    mu = optimal_mu(p, gains, scenario.n_b, scenario.n_r)
    w_d = scenario.n_b * gains.eta_d**2
    w_r = scenario.n_b * scenario.n_r * gains.eta_r**2
    expect_h1 = math.sqrt(w_d * p.p_h_d + w_r * p.p_h_r) / gains.noise_w
    assert mu.mu_h1 == pytest.approx(expect_h1, rel=1e-12)


def test_optimal_mu_reference_point(scenario, gains):
    p = PowerAllocation(0.0, 0.005, 0.0, 0.005)
    mu = optimal_mu(p, gains, scenario.n_b, scenario.n_r)
    assert mu.mu_h0 == pytest.approx(MU_H0_REFERENCE, rel=1e-6)


def test_g_h_zero_multiplier(scenario, gains):
    p = PowerAllocation(0.001, 0.001, 0.001, 0.001)
    assert g_h(p, 0.0, 0.0, 1, gains, scenario.n_b, scenario.n_r) == 0.0


def test_g_l_zero_multiplier(scenario, gains):
    p = PowerAllocation(0.001, 0.001, 0.001, 0.001)
    assert g_l(p, 0.0, 0.0, gains, scenario.n_b, scenario.n_r) == 0.0


def test_transform_identity_reference_point(scenario, gains):
    # At the stationary multiplier the surrogate collapses to
    # gamma - sinr; the reference sinr is the interference-loaded one.
    p = PowerAllocation(0.0, 0.005, 0.0, 0.005)
    mu = optimal_mu(p, gains, scenario.n_b, scenario.n_r)
    val = g_h(p, 1.0, mu.mu_h0, 0, gains, scenario.n_b, scenario.n_r)
    assert val == pytest.approx(1.0 - SINR_H0_REFERENCE, rel=1e-9)


def test_transform_identity_random_points(scenario, gains):
    rng = np.random.default_rng(99)
    for _ in range(100):
        p = PowerAllocation(*(rng.random(4) * scenario.p_max / 4))
        mu = optimal_mu(p, gains, scenario.n_b, scenario.n_r)
        gamma_h = rng.random() * 10.0
        gamma_l = rng.random() * 1e4
        for beta_d, mu_h in ((0, mu.mu_h0), (1, mu.mu_h1)):
            sinr_h, _ = approx_sinrs(
                gains, scenario.n_b, scenario.n_r, p, BlockageState(beta_d, 1)
            )
            val = g_h(p, gamma_h, mu_h, beta_d, gains, scenario.n_b, scenario.n_r)
            assert abs(val - (gamma_h - sinr_h)) <= 1e-9 * max(1.0, abs(gamma_h))
        _, sinr_l = approx_sinrs(
            gains, scenario.n_b, scenario.n_r, p, BlockageState(1, 1)
        )
        val = g_l(p, gamma_l, mu.mu_l, gains, scenario.n_b, scenario.n_r)
        assert abs(val - (gamma_l - sinr_l)) <= 1e-9 * max(1.0, abs(gamma_l))


def test_objective_zero_powers(scenario):
    p = PowerAllocation(0, 0, 0, 0)
    rate_h, rate_l, gap_h, gap_l, _ = objective_for_powers(p, scenario, 0.2, 700.0)
    assert rate_h == 0.0 and rate_l == 0.0
    assert gap_h == pytest.approx(-0.2 * 700.0)
    assert gap_l == pytest.approx(-0.8 * 700.0)


def test_objective_all_direct_lc(scenario):
    p = PowerAllocation(0.0, 0.0, scenario.p_max, 0.0)
    *_, gap_l, obj = objective_for_powers(p, scenario, 0.0, 700.0)
    assert gap_l == pytest.approx(GAP_L_ALL_DIRECT, rel=1e-12)
    assert obj == pytest.approx(GAP_L_ALL_DIRECT, rel=1e-12)


def test_objective_all_ris_hc(scenario):
    p = PowerAllocation(0.0, scenario.p_max, 0.0, 0.0)
    _, _, gap_h, _, obj = objective_for_powers(p, scenario, 1.0, 700.0)
    assert gap_h == pytest.approx(GAP_H_ALL_RIS, rel=1e-12)
    assert obj == pytest.approx(GAP_H_ALL_RIS, rel=1e-12)


def test_hc_rate_uses_worse_availability_case(scenario):
    # Strong LC direct power ruins HC decoding when the direct route is up;
    # the reported HC rate must reflect that case, not the blocked one.
    p = PowerAllocation(0.0, 0.005, 0.005, 0.0)
    gains = link_gains(scenario)
    rate_h, *_ = objective_for_powers(p, scenario, 0.5, 700.0)
    sinr_h1, _ = approx_sinrs(gains, scenario.n_b, scenario.n_r, p, BlockageState(1, 1))
    assert rate_h == pytest.approx(scenario.bandwidth * math.log2(1 + sinr_h1), rel=1e-12)


def test_weighted_min_gap_conventions():
    assert weighted_min_gap(0.0, -123.0, 10.0) == 10.0
    assert weighted_min_gap(1.0, 10.0, -123.0) == 10.0
    assert weighted_min_gap(0.25, 8.0, 4.0) == pytest.approx(2.0)


def test_oracle_corners_only():
    sc = ScenarioParams()
    p_best, obj_best = brute_force_oracle(sc, 0.0, 700.0, grid_n=2)
    corners = [
        PowerAllocation(0, 0, 0, 0),
        PowerAllocation(sc.p_max, 0, 0, 0),
        PowerAllocation(0, sc.p_max, 0, 0),
        PowerAllocation(0, 0, sc.p_max, 0),
        PowerAllocation(0, 0, 0, sc.p_max),
    ]
    best = max(objective_for_powers(c, sc, 0.0, 700.0)[4] for c in corners)
    assert obj_best == pytest.approx(best, rel=1e-12)
    assert p_best.p_l_d == pytest.approx(sc.p_max)


def test_oracle_rejects_tiny_grid(scenario):
    with pytest.raises(ValueError):
        brute_force_oracle(scenario, 0.0, 700.0, grid_n=1)


def test_oracle_concentrates_lc_direct(scenario):
    p_best, _ = brute_force_oracle(scenario, 0.0, 700.0, grid_n=21)
    assert p_best.p_l_d >= 0.95 * scenario.p_max


def test_oracle_concentrates_hc_ris(scenario):
    p_best, _ = brute_force_oracle(scenario, 1.0, 700.0, grid_n=21)
    assert p_best.p_h_r >= 0.95 * scenario.p_max


def test_sca_all_lc_matches_closed_form(scenario):
    res = sca_power_allocation(scenario, 0.0, 700.0)
    assert res.converged
    assert res.objective == pytest.approx(GAP_L_ALL_DIRECT, rel=1e-4)
    assert res.power.p_l_d >= 0.99 * scenario.p_max


def test_sca_monotone_objective(scenario):
    for alpha in (0.0, 0.05, 0.15):
        res = sca_power_allocation(scenario, alpha, 700.0)
        hist = res.objective_history
        for a, b in zip(hist, hist[1:]):
            assert b >= a - 1e-9 * max(1.0, abs(a))


def test_sca_equalizes_weighted_gaps(scenario):
    res = sca_power_allocation(scenario, 0.1, 700.0)
    assert res.objective == pytest.approx(0.1 * res.gap_h, rel=1e-4)
    assert res.objective == pytest.approx(0.9 * res.gap_l, rel=1e-4)


def test_sca_respects_constraints(scenario):
    gains = link_gains(scenario)
    for alpha in (0.0, 0.1, 0.25):
        res = sca_power_allocation(scenario, alpha, 700.0)
        p = res.power
        tol = 1e-9 * scenario.p_max
        assert p.total <= scenario.p_max + tol
        assert min(p.as_array()) >= -tol
        for beta_d in (0, 1):
            sinr_h, _ = approx_sinrs(
                gains, scenario.n_b, scenario.n_r, p, BlockageState(beta_d, 1)
            )
            cap = scenario.bandwidth * math.log2(1.0 + sinr_h)
            assert res.rate_h <= cap * (1.0 + 1e-9)
        _, sinr_l = approx_sinrs(
            gains, scenario.n_b, scenario.n_r, p, BlockageState(1, 1)
        )
        cap_l = scenario.bandwidth * math.log2(1.0 + sinr_l)
        assert res.rate_l <= cap_l * (1.0 + 1e-9)


def test_sca_beats_oracle_matched_outage(scenario):
    # Equal blockage on both routes: both streams face the same outage.
    sc = replace(scenario, q_d=0.2, q_r=0.2)
    res = sca_power_allocation(sc, 0.3, 700.0)
    _, obj = brute_force_oracle(sc, 0.3, 700.0, grid_n=41)
    assert res.objective >= obj - 0.01 * abs(obj)


def test_sca_deterministic(scenario):
    a = sca_power_allocation(scenario, 0.1, 700.0)
    b = sca_power_allocation(scenario, 0.1, 700.0)
    assert a.power == b.power
    assert a.objective == b.objective


def test_alt_surrogate_variant_still_converges(scenario):
    res = sca_power_allocation(scenario, 0.1, 700.0, alt_hc_surrogate=True)
    ref = sca_power_allocation(scenario, 0.1, 700.0)
    assert res.converged
    # The alternate coefficient pairing misreads the direct-beam strength,
    # so it cannot beat the matched surrogate by more than solver noise.
    assert res.objective <= ref.objective + 1e-3 * max(1.0, abs(ref.objective))


def test_max_feasible_arrival_lc_only(scenario):
    a_star = max_feasible_arrival(scenario, 0.0)
    assert a_star == pytest.approx(ARRIVAL_STAR_LC_ONLY, rel=2e-4)


def test_max_feasible_arrival_zero_when_undeliverable():
    sc = ScenarioParams(q_d=1.0, q_r=0.1)
    assert max_feasible_arrival(sc, 0.0) == pytest.approx(0.0, abs=1e-3)


def test_max_feasible_arrival_peaks_at_zero_mix(scenario):
    a0 = max_feasible_arrival(scenario, 0.0)
    for alpha in (0.05, 0.15):
        assert max_feasible_arrival(scenario, alpha) <= a0 + 1e-6 * a0


def test_max_feasible_arrival_lc_only_tight(scenario):
    a_star = max_feasible_arrival(scenario, 0.0)
    assert a_star == pytest.approx(ARRIVAL_STAR_LC_ONLY, rel=1e-6)


@pytest.mark.parametrize("alpha", [0.05, 0.15, 0.3, 1.0])
def test_capacity_is_tight_for_gap_allocator(scenario, alpha):
    # Judged by the gap-form allocator, which the capacity run does not use:
    # just below a* both queues can be stabilised, just above they cannot.
    a_star = capacity_allocation(scenario, alpha).objective
    below = sca_power_allocation(scenario, alpha, a_star * (1.0 - 1e-5))
    above = sca_power_allocation(scenario, alpha, a_star * (1.0 + 1e-3))
    assert below.objective >= 0.0
    assert above.objective < 0.0


def test_capacity_allocation_balances_gaps_at_a_star(scenario):
    res = capacity_allocation(scenario, 0.1)
    assert res.converged
    assert res.objective == max_feasible_arrival(scenario, 0.1)
    rate_h, rate_l, gap_h, gap_l, _ = objective_for_powers(
        res.power, scenario, 0.1, res.objective
    )
    assert (res.rate_h, res.rate_l, res.gap_h, res.gap_l) == (rate_h, rate_l, gap_h, gap_l)
    assert max(abs(gap_h), abs(gap_l)) <= 1e-6 * res.objective
