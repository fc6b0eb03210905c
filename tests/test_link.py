"""Link-model tests: gains, array responses, SINRs, blockage sampling."""

import math
from dataclasses import replace

import numpy as np
import pytest

from duallink import (
    BlockageState,
    PowerAllocation,
    ScenarioParams,
    approx_sinrs,
    array_response,
    direct_gain,
    exact_sinrs,
    link_gains,
    noise_power,
    rates,
    ris_gain,
    sample_blockage,
    sample_blockage_batch,
)
from duallink.link import SPEED_OF_LIGHT

# Frozen scalar evaluations of the gain / SINR chains for the default
# scenario (computed once by hand from the closed forms).
ETA_D = 7.904671334972175e-4
ETA_R = 1.1344663594925461e-7
NOISE_W = 3.981071705534985e-11
SNR_DIRECT_FULL = 1.0044946050410768e4
SNR_RIS_FULL = 2.069012995118319
RATE_DIRECT_FULL = 1.3294325812009692e11


@pytest.fixture(scope="module")
def scenario():
    return ScenarioParams()


@pytest.fixture(scope="module")
def gains(scenario):
    return link_gains(scenario)


def test_noise_power_identity():
    assert noise_power(1.0, 1.0) == 1.0


def test_noise_power_default_band():
    assert noise_power(3.981e-21, 1e10) == pytest.approx(3.981e-11, rel=1e-12)
    assert noise_power(3.981e-21, 2e10) == pytest.approx(7.962e-11, rel=1e-12)


@pytest.mark.parametrize("n0,bw", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
def test_noise_power_rejects_nonpositive(n0, bw):
    with pytest.raises(ValueError):
        noise_power(n0, bw)


def test_direct_gain_unity_by_construction():
    sc = ScenarioParams(f=SPEED_OF_LIGHT / (4.0 * math.pi), d_bu=1.0,
                        g_b=1.0, g_u=1.0, k_a=0.0,
                        phi_bu=0.0, phi_br=0.2, phi_rb=0.0, phi_ru=0.5)
    assert direct_gain(sc) == pytest.approx(1.0, rel=1e-12)


def test_direct_gain_default(scenario):
    assert direct_gain(scenario) == pytest.approx(ETA_D, rel=1e-12)


def test_direct_gain_distance_scaling():
    sc = ScenarioParams(k_a=0.0)
    sc2 = replace(sc, d_bu=2 * sc.d_bu, phi_bu=sc.phi_bu, phi_br=sc.phi_br,
                  phi_rb=sc.phi_rb, phi_ru=sc.phi_ru)
    assert direct_gain(sc2) == pytest.approx(direct_gain(sc) / 2.0, rel=1e-12)


def test_ris_gain_unity_by_construction():
    sc = ScenarioParams(g_b=1.0, g_u=1.0, k_a=0.0)
    area = 4.0 * math.pi * sc.d_br * sc.d_ru
    sc = replace(sc, l_x=math.sqrt(area), l_y=math.sqrt(area))
    assert ris_gain(sc) == pytest.approx(1.0, rel=1e-12)


def test_ris_gain_default(scenario):
    assert ris_gain(scenario) == pytest.approx(ETA_R, rel=1e-12)


def test_ris_gain_distance_scaling():
    sc = ScenarioParams(k_a=0.0)
    angles = dict(phi_bu=sc.phi_bu, phi_br=sc.phi_br, phi_rb=sc.phi_rb,
                  phi_ru=sc.phi_ru)
    sc2 = replace(sc, d_br=2 * sc.d_br, d_ru=2 * sc.d_ru, l_x=sc.l_x,
                  l_y=sc.l_y, **angles)
    assert ris_gain(sc2) == pytest.approx(ris_gain(sc) / 4.0, rel=1e-12)


def test_gains_scale_with_antenna_gains(scenario):
    boosted = replace(scenario, g_b=4 * scenario.g_b, g_u=9 * scenario.g_u)
    assert direct_gain(boosted) == pytest.approx(6.0 * direct_gain(scenario), rel=1e-12)
    assert ris_gain(boosted) == pytest.approx(6.0 * ris_gain(scenario), rel=1e-12)


def test_gains_decrease_with_absorption(scenario):
    humid = replace(scenario, k_a=10 * scenario.k_a)
    assert direct_gain(humid) < direct_gain(scenario)
    assert ris_gain(humid) < ris_gain(scenario)


def test_direct_gain_dominates_ris_gain(gains):
    assert gains.eta_d / gains.eta_r > 1e3


def test_array_response_single_element():
    np.testing.assert_allclose(array_response(1, 1.2345), [1.0 + 0j])


def test_array_response_broadside():
    np.testing.assert_allclose(array_response(4, 0.0), np.ones(4, dtype=complex))


def test_array_response_endfire_pair():
    np.testing.assert_allclose(
        array_response(2, math.pi / 2), [1.0, -1.0], atol=1e-12
    )


def test_array_response_unit_modulus():
    resp = array_response(33, 0.7321)
    np.testing.assert_allclose(np.abs(resp), 1.0, rtol=1e-12)


def test_array_response_rejects_empty():
    with pytest.raises(ValueError):
        array_response(0, 0.1)


def test_approx_sinrs_fully_blocked(scenario, gains):
    p = PowerAllocation(0.003, 0.003, 0.002, 0.002)
    out = approx_sinrs(gains, scenario.n_b, scenario.n_r, p, BlockageState(0, 0))
    assert out == (0.0, 0.0)


def test_approx_sinrs_full_power_direct(scenario, gains):
    p = PowerAllocation(0.01, 0.0, 0.0, 0.0)
    sinr_h, sinr_l = approx_sinrs(gains, scenario.n_b, scenario.n_r, p,
                                  BlockageState(1, 1))
    assert sinr_h == pytest.approx(SNR_DIRECT_FULL, rel=1e-12)
    assert sinr_l == 0.0


def test_approx_sinrs_full_power_ris(scenario, gains):
    p = PowerAllocation(0.0, 0.0, 0.0, 0.01)
    _, sinr_l = approx_sinrs(gains, scenario.n_b, scenario.n_r, p,
                             BlockageState(0, 1))
    assert sinr_l == pytest.approx(SNR_RIS_FULL, rel=1e-12)


def test_approx_sinrs_monotonicity(scenario, gains):
    rng = np.random.default_rng(11)
    b = BlockageState(1, 1)
    for _ in range(50):
        p = PowerAllocation(*(rng.random(4) * 0.0025))
        base_h, base_l = approx_sinrs(gains, scenario.n_b, scenario.n_r, p, b)
        up_h = PowerAllocation(p.p_h_d + 1e-4, p.p_h_r + 1e-4, p.p_l_d, p.p_l_r)
        up_l = PowerAllocation(p.p_h_d, p.p_h_r, p.p_l_d + 1e-4, p.p_l_r + 1e-4)
        h1, _ = approx_sinrs(gains, scenario.n_b, scenario.n_r, up_h, b)
        h2, l2 = approx_sinrs(gains, scenario.n_b, scenario.n_r, up_l, b)
        assert h1 >= base_h
        assert h2 <= base_h
        assert l2 >= base_l


def test_rates_zero_and_unity():
    assert rates(0.0, 0.0, 1e10) == (0.0, 0.0)
    assert rates(1.0, 1.0, 1.0) == (1.0, 1.0)


def test_rates_direct_link_anchor():
    r_h, _ = rates(SNR_DIRECT_FULL, 0.0, 1e10)
    assert r_h == pytest.approx(RATE_DIRECT_FULL, rel=1e-12)


def test_rates_monotone_and_linear_in_bandwidth():
    r1, _ = rates(3.0, 0.0, 1e9)
    r2, _ = rates(4.0, 0.0, 1e9)
    r3, _ = rates(3.0, 0.0, 2e9)
    assert r2 > r1
    assert r3 == pytest.approx(2 * r1, rel=1e-12)


def test_exact_sinrs_fully_blocked(scenario):
    q = scenario.p_max / 4
    p = PowerAllocation(q, q, q, q)
    assert exact_sinrs(scenario, p, BlockageState(0, 0)) == (0.0, 0.0)


def test_exact_matches_approx_for_orthogonal_beams(scenario, gains):
    # Sine-space separation at a multiple of 2/n_b makes the two beams
    # exactly orthogonal; reflector broadside at the BS keeps its profile
    # matched.  The approximation then becomes exact.
    rng = np.random.default_rng(5)
    for m in (1, 3, 5):
        sc = replace(
            scenario,
            phi_bu=math.asin(0.05),
            phi_br=math.asin(0.05 + 2.0 * m / scenario.n_b),
            phi_rb=0.0,
            phi_ru=0.61,
        )
        for _ in range(3):
            p = PowerAllocation(*(rng.random(4) * 0.0025))
            for b in (BlockageState(1, 1), BlockageState(0, 1), BlockageState(0, 0)):
                exact = exact_sinrs(sc, p, b)
                approx = approx_sinrs(gains, sc.n_b, sc.n_r, p, b)
                for e, a in zip(exact, approx):
                    assert abs(e - a) <= 1e-12 * max(1.0, abs(a))


def test_exact_close_to_approx_default_geometry(scenario, gains):
    q = scenario.p_max / 4
    p = PowerAllocation(q, q, q, q)
    b = BlockageState(1, 1)
    exact = exact_sinrs(scenario, p, b)
    approx = approx_sinrs(gains, scenario.n_b, scenario.n_r, p, b)
    for e, a in zip(exact, approx):
        assert abs(e - a) / a < 0.05


def test_exact_deviates_for_misaligned_panel(scenario, gains):
    # A panel pointed straight at the user leaves the reflector direction
    # off the orthogonal beam grid; leakage must then show up.
    sc = replace(scenario, phi_bu=0.0, phi_br=0.1631278103849276,
                 phi_rb=0.0, phi_ru=scenario.phi_ru)
    q = scenario.p_max / 4
    p = PowerAllocation(q, q, q, q)
    _, sinr_l = exact_sinrs(sc, p, BlockageState(1, 1))
    _, approx_l = approx_sinrs(gains, sc.n_b, sc.n_r, p, BlockageState(1, 1))
    assert abs(sinr_l - approx_l) / approx_l > 0.01


def test_sample_blockage_degenerate_cases():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert sample_blockage(1.0, 1.0, rng) == BlockageState(0, 0)
        assert sample_blockage(0.0, 0.0, rng) == BlockageState(1, 1)


def test_sample_blockage_rejects_bad_order():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_blockage(0.1, 0.3, rng)


def test_sample_blockage_marginals_and_nesting():
    rng = np.random.default_rng(42)
    n = 1_000_000
    beta_d, beta_r = sample_blockage_batch(0.3, 0.1, n, rng)
    q_d_hat = 1.0 - beta_d.mean()
    q_r_hat = 1.0 - beta_r.mean()
    assert abs(q_d_hat - 0.3) < 3.0 * math.sqrt(0.3 * 0.7 / n)
    assert abs(q_r_hat - 0.1) < 3.0 * math.sqrt(0.1 * 0.9 / n)
    # reflected route never blocked alone
    assert not np.any((beta_d == 1) & (beta_r == 0))


def test_blockage_state_rejects_impossible_combo():
    with pytest.raises(ValueError):
        BlockageState(1, 0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioParams(q_d=0.1, q_r=0.3)
    with pytest.raises(ValueError):
        ScenarioParams(p_max=0.0)
    with pytest.raises(ValueError):
        ScenarioParams(alpha=1.5)


@pytest.mark.parametrize("field, value", [
    ("p_max", math.nan), ("bandwidth", math.inf), ("arrival_rate", math.nan),
    ("arrival_rate", math.inf), ("k_a", math.nan), ("l_x", math.nan),
    ("q_d", math.nan), ("alpha", math.nan), ("n_b", 64.7), ("n_r", math.nan),
])
def test_scenario_rejects_nan_inf_and_fractional_counts(field, value):
    with pytest.raises(ValueError):
        ScenarioParams(**{field: value})


def test_default_element_size_is_half_wavelength(scenario):
    assert scenario.l_x == pytest.approx(scenario.wavelength / 2.0, rel=1e-12)
    assert scenario.l_y == scenario.l_x


def test_power_allocation_total():
    p = PowerAllocation(0.001, 0.002, 0.003, 0.004)
    assert p.total == pytest.approx(0.01)
    with pytest.raises(ValueError):
        PowerAllocation(-1e-9, 0.0, 0.0, 0.0)
