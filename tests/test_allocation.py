"""Allocator tests: transform identities, closed-form anchors, oracle checks."""

import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from duallink import (
    BlockageState,
    PowerAllocation,
    ScenarioParams,
    approx_sinrs,
    brute_force_oracle,
    capacity_allocation,
    default_config,
    g_h,
    g_l,
    link_gains,
    max_feasible_arrival,
    objective_for_powers,
    oma_max_feasible_arrival,
    optimal_mu,
    sca_power_allocation,
    solve_maxmin,
    weighted_min_gap,
)
from duallink import allocation
from duallink.allocation import _build_subproblem, _coeffs, _objective_terms_np, _sca
from duallink.link import decoding_forms
from problems import MaxMinProblem
from test_acceptance import _random_scenario
from test_maxmin_rows import record_evaluations

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


def _subproblem(scenario, gains, p, mu, alpha=0.1, arrival=700.0):
    """The allocator's inner problem in gap form, as the SCA loop builds it."""
    w_d, w_r, noise_w, serv = _coeffs(scenario)
    return _build_subproblem(
        p, mu, scenario, (alpha, 1.0 - alpha),
        (-alpha * alpha * arrival, -(1.0 - alpha) ** 2 * arrival),
        decoding_forms(w_d, w_r), noise_w, serv,
    )


def test_sca_surrogates_are_the_checked_surrogates(scenario, gains):
    # The three surrogate rows SCA optimises equal g_h (direct route down,
    # up) and g_l at the matching physical point, so the transform identity
    # checked against approx_sinrs covers the code the allocator runs.
    rng = np.random.default_rng(5)
    n_b, n_r = scenario.n_b, scenario.n_r
    for _ in range(100):
        p = PowerAllocation(*(rng.random(4) * scenario.p_max / 4))
        p_mu = PowerAllocation(*(rng.random(4) * scenario.p_max / 4))
        mu_ref = optimal_mu(p_mu, gains, n_b, n_r)
        mu = type(mu_ref)(*(m * rng.uniform(0.5, 2.0)
                            for m in (mu_ref.mu_h0, mu_ref.mu_h1, mu_ref.mu_l)))
        gamma_h = rng.random() * 20.0
        gamma_l = rng.random() * 2e4
        x = np.zeros(8)
        x[:4] = p.as_array() / scenario.p_max
        x[6], x[7] = gamma_h, gamma_l
        sub = _subproblem(scenario, gains, p, mu)
        # Rows: terms, two rate caps, the three surrogates, the budget.
        sur_h0, sur_h1, sur_l = sub.evaluate(x)[0][sub.n_terms + 2:sub.n_terms + 5]
        checks = (
            (sur_h0, g_h(p, gamma_h, mu.mu_h0, 0, gains, n_b, n_r), gamma_h),
            (sur_h1, g_h(p, gamma_h, mu.mu_h1, 1, gains, n_b, n_r), gamma_h),
            (sur_l, g_l(p, gamma_l, mu.mu_l, gains, n_b, n_r), gamma_l),
        )
        for value, ref, gamma in checks:
            assert abs(value - ref) <= 1e-9 * max(1.0, abs(gamma))


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.7, 0.9])
def test_stacked_rows_match_finite_differences(scenario, gains, alpha):
    # evaluate() returns the row values, their Jacobian and the weighted row
    # Hessian.  Central differences with steps of 1e-4 x_k are compared in
    # the variables' own scale (diag(x) J and diag(x) H diag(x)).  The
    # affine rows (the terms and the budget) are checked exactly; each curved
    # row's Hessian is checked on its own.
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = PowerAllocation(*(rng.uniform(0.05, 1.0, 4) * scenario.p_max / 4))
        mu = optimal_mu(p, gains, scenario.n_b, scenario.n_r)
        sub = _subproblem(scenario, gains, p, mu, alpha=alpha)
        x = np.concatenate([rng.uniform(0.05, 0.24, 4), rng.uniform(0.1, 5.0, 2),
                            [rng.uniform(0.1, 20.0), rng.uniform(1.0, 2e4)]])
        vals, jacobian, weighted_hessian = sub.evaluate(x)
        jac = jacobian()
        h = 1e-4 * x
        steps = np.diag(h)
        jac_fd = np.column_stack([
            (sub.evaluate(x + d)[0] - sub.evaluate(x - d)[0]) / (2.0 * hk)
            for d, hk in zip(steps, h)])
        assert np.abs((jac_fd - jac) * x).max() <= 1e-6 * np.abs(jac * x).max()

        units = np.eye(len(vals))
        for i in (0, 1, 7):
            assert np.array_equal(jac[i], sub.lin[i])
            assert not weighted_hessian(units[i]).any()
        for i in range(2, 7):
            def row(y, i=i):
                return sub.evaluate(y)[0][i]

            hess_fd = np.array([[
                (row(x + di + dj) - row(x + di - dj) - row(x - di + dj) + row(x - di - dj))
                / (4.0 * hi * hj) for dj, hj in zip(steps, h)] for di, hi in zip(steps, h)])
            scaled = weighted_hessian(units[i]) * np.outer(x, x)
            err = np.abs(hess_fd * np.outer(x, x) - scaled).max()
            # Second differences carry a rounding floor near 2e-8 |row|.
            assert err <= 1e-6 * np.abs(scaled).max() + 1e-7 * abs(vals[i])
        w = rng.uniform(0.5, 2.0, len(vals))
        np.testing.assert_allclose(
            weighted_hessian(w), sum(wi * weighted_hessian(u) for wi, u in zip(w, units)),
            rtol=1e-12, atol=0.0)


def test_default_grid_evaluates_each_point_once(monkeypatch):
    # The line search evaluates each candidate once and hands the accepted
    # one's evaluation and Jacobian to the next Newton step.  Each of the
    # grid's 26 inner solves reads its start twice, once to test it and once
    # in the loop; no other point is evaluated twice.  The loop builds each
    # Jacobian once: the residual test's serves the accepted point, and the
    # last point's serves the KKT residual.
    check = record_evaluations(monkeypatch, allocation._Subproblem)
    config = default_config()
    for alpha in config.grid:
        capacity_allocation(config.scenario, alpha)
    evaluations, repeats, jacobians = check()
    assert evaluations <= 764
    assert repeats == 26
    assert jacobians <= 436


def test_array_rows_match_per_row_callables(scenario, gains):
    # The allocator's stacked rows and a MaxMinProblem of per-row callables
    # over the same rows are one problem: the kernel reaches the same point
    # from the built start and through phase I from an infeasible one.
    p = PowerAllocation(0.001, 0.004, 0.003, 0.002)
    mu = optimal_mu(p, gains, scenario.n_b, scenario.n_r)
    sub = _subproblem(scenario, gains, p, mu)

    def row(i):
        def fn(x):
            vals, jacobian, weighted_hessian = sub.evaluate(x)
            unit = np.zeros(len(vals))
            unit[i] = 1.0
            return vals[i], jacobian()[i], weighted_hessian(unit)
        return fn

    m = len(sub.evaluate(sub.x0)[0])
    terms = [lambda x, fn=row(i): fn(x)[:2] for i in range(sub.n_terms)]
    constraints = [row(i) for i in range(sub.n_terms, m)]
    for shift in (0.0, 0.3):
        x0 = sub.x0 + shift
        assert (sub.evaluate(x0)[0][-1] > 0.0) == (shift > 0.0)  # the power budget
        arrays = replace(sub, x0=x0)
        callables = MaxMinProblem(n=8, terms=terms, constraints=constraints, x0=x0.copy())
        a, b = solve_maxmin(arrays), solve_maxmin(callables)
        assert a.status == b.status == "converged"
        np.testing.assert_allclose(a.x, b.x, rtol=0.0, atol=1e-9)
        # Same Newton path up to rounding: dropping the per-row Hessians
        # would cost about 70% more steps.
        assert abs(a.newton_iters - b.newton_iters) <= 0.1 * a.newton_iters


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


def _grid_oracle_4d(scenario, alpha, arrival, grid_n):
    """The grid oracle over the whole simplex grid, budget slack included."""
    w_d, w_r, noise_w, serv = _coeffs(scenario)
    forms = decoding_forms(w_d, w_r)
    step = scenario.p_max / (grid_n - 1)

    idx = np.arange(grid_n)
    jj, kk, ll = np.meshgrid(idx, idx, idx, indexing="ij")
    mask = (jj + kk + ll) <= (grid_n - 1)
    j = jj[mask]
    k = kk[mask]
    m = ll[mask]
    tri_sum = j + k + m

    best_obj = -np.inf
    best_p = (0.0, 0.0, 0.0, 0.0)
    for i in range(grid_n):
        sel = tri_sum <= (grid_n - 1 - i)
        p_h_r = j[sel] * step
        p_l_d = k[sel] * step
        p_l_r = m[sel] * step
        obj = _objective_terms_np(
            (i * step, p_h_r, p_l_d, p_l_r), forms, noise_w, serv,
            scenario.q_d, scenario.q_r, alpha, arrival, alpha, 1.0 - alpha,
        )[4]
        t = int(np.argmax(obj))
        if obj[t] > best_obj:
            best_obj = float(obj[t])
            best_p = (i * step, float(p_h_r[t]), float(p_l_d[t]), float(p_l_r[t]))
    return PowerAllocation(*best_p), best_obj


@pytest.mark.parametrize("grid_n", [2, 5, 21])
@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("n_r", [None, 10**8])  # w_d >> w_r, and mostly w_r > w_d
def test_oracle_face_search_matches_full_grid(n_r, alpha, grid_n):
    # The oracle searches only the full-budget face.  Its maximum equals the
    # whole grid's bit for bit.  Its powers differ from the full search's only
    # on a tie: the LC term binds, the leftover HC power buys nothing, and the
    # full search stopped short of the budget (12 of the 90 cases here, all
    # with no LC power at alpha = 0.5 or 0.9).
    rng = np.random.default_rng(42)
    for _ in range(3):
        sc, _ = _random_scenario(rng)
        sc = sc if n_r is None else replace(sc, n_r=n_r)
        p_ref, obj_ref = _grid_oracle_4d(sc, alpha, 700.0, grid_n)
        p, obj = brute_force_oracle(sc, alpha, 700.0, grid_n=grid_n)
        assert obj == obj_ref
        step = sc.p_max / (grid_n - 1)
        assert np.rint(p.as_array() / step).sum() == grid_n - 1
        assert objective_for_powers(p, sc, alpha, 700.0)[4] == obj
        if p != p_ref:
            assert np.rint(p_ref.as_array() / step).sum() < grid_n - 1


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


def test_rejected_iterate_stops_unconverged(scenario, monkeypatch):
    # An inner solve whose point is worse than the start is rejected: the
    # run stops after it and must not report convergence.
    def worse(problem, warm=None):
        res = solve_maxmin(problem, warm)
        res.x[:4] = [1.0, 0.0, 0.0, 0.0]  # all power on the blockage-prone HC beam
        return res

    monkeypatch.setattr("duallink.allocation.solve_maxmin", worse)
    res = sca_power_allocation(scenario, 0.1, 700.0)
    assert res.converged is False
    assert res.iterations == 1
    assert len(res.objective_history) == 1


def _closed_form_cases():
    rng = np.random.default_rng(42)
    cases = [(*_random_scenario(rng), False) for _ in range(5)]
    return cases + [(ScenarioParams(), alpha, True) for alpha in (0.0, 0.1, 1.0)]


@pytest.mark.parametrize("sc, alpha, stop_when_nonneg", _closed_form_cases())
def test_solve_result_is_closed_form_of_its_powers(sc, alpha, stop_when_nonneg):
    # The reported rates, gaps and objective are the closed-form evaluation
    # of the reported powers, and the last accepted objective in the history.
    res = sca_power_allocation(sc, alpha, 700.0, stop_when_nonneg=stop_when_nonneg)
    assert (res.rate_h, res.rate_l, res.gap_h, res.gap_l, res.objective) == (
        objective_for_powers(res.power, sc, alpha, 700.0)
    )
    assert res.objective == res.objective_history[-1]


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


def _far_reflector():
    # Longer reflector elements make the reflected LC beam the stronger one.
    base = ScenarioParams()
    return replace(base, l_x=100 * base.l_x)


def _closed_form_a_star(sc, alpha):
    # a* with one stream absent: all power on the better beam of the other.
    w_d, w_r, noise_w, serv = _coeffs(sc)
    if alpha >= 1.0:
        return (1.0 - sc.q_r) * serv * math.log2(1.0 + w_r * sc.p_max / noise_w)
    return (1.0 - sc.q_d) * serv * math.log2(1.0 + max(w_d, w_r) * sc.p_max / noise_w)


ENDPOINTS = [
    pytest.param(ScenarioParams(), 0.0, "p_l_d", id="default-alpha-0"),
    pytest.param(ScenarioParams(), 1.0, "p_h_r", id="default-alpha-1"),
    pytest.param(_far_reflector(), 0.0, "p_l_r", id="far-reflector-alpha-0"),
    pytest.param(_far_reflector(), 1.0, "p_h_r", id="far-reflector-alpha-1"),
]


@pytest.mark.parametrize("sc, alpha, route", ENDPOINTS)
def test_capacity_allocation_closed_form_at_endpoints(sc, alpha, route):
    res = capacity_allocation(sc, alpha)
    assert res.objective == pytest.approx(_closed_form_a_star(sc, alpha), rel=1e-15, abs=0.0)
    assert res.iterations == 0 and res.converged
    assert res.objective_history == [res.objective]
    powers = asdict(res.power)
    assert powers.pop(route) == sc.p_max
    assert set(powers.values()) == {0.0}
    assert (res.gap_h, res.gap_l) == (0.0, 0.0)


@pytest.mark.parametrize("sc, alpha, route", ENDPOINTS)
def test_sca_never_beats_endpoint_closed_form(sc, alpha, route):
    # With the other class nearly absent (weight 1e3 on its capacity term)
    # the SCA runs its inner solves; min(1e3 t_other, t) <= t, so it stays
    # below the closed form of the remaining class, and comes close to it.
    weights = (1.0, 1e3) if alpha >= 1.0 else (1e3, 1.0)
    res = _sca(sc, alpha, 0.0, weights, (0.0, 0.0))
    closed = _closed_form_a_star(sc, alpha)
    assert res.iterations > 0
    assert closed * (1.0 - 1e-2) <= res.objective <= closed * (1.0 + 1e-12)
    assert getattr(res.power, route) >= 0.98 * sc.p_max


@pytest.mark.parametrize("sc, alpha, route", ENDPOINTS)
def test_gap_allocation_closed_form_at_endpoints(sc, alpha, route):
    # The gap form shares the capacity form's endpoint optimum.
    res = sca_power_allocation(sc, alpha, 700.0)
    assert res.iterations == 0 and res.converged
    powers = asdict(res.power)
    assert powers.pop(route) == sc.p_max
    assert set(powers.values()) == {0.0}
    assert res.objective_history == [res.objective]
    _, obj = brute_force_oracle(sc, alpha, 700.0, grid_n=21)
    assert obj <= res.objective


def test_gap_allocation_endpoints_equal_frozen_gaps(scenario):
    assert sca_power_allocation(scenario, 0.0, 700.0).objective == GAP_L_ALL_DIRECT
    assert sca_power_allocation(scenario, 1.0, 700.0).objective == GAP_H_ALL_RIS


def test_capacity_endpoints_make_no_inner_solve(monkeypatch):
    def fail(problem, warm=None):
        raise AssertionError("inner solve at an endpoint")

    monkeypatch.setattr(allocation, "solve_maxmin", fail)
    for sc, alpha, _ in (case.values for case in ENDPOINTS):
        assert capacity_allocation(sc, alpha).iterations == 0
        for stop_when_nonneg in (False, True):
            res = sca_power_allocation(sc, alpha, 700.0, stop_when_nonneg=stop_when_nonneg)
            assert res.iterations == 0


def test_max_feasible_arrival_lc_only_equals_time_sharing(scenario):
    # With no HC traffic superposition and time sharing coincide.
    assert max_feasible_arrival(scenario, 0.0) == pytest.approx(
        oma_max_feasible_arrival(scenario, 0.0), rel=1e-15, abs=0.0)


def _reduced_form_a_star(sc, alpha):
    """
    The value of one feasible allocation for 0 < alpha < 1, hence a lower
    bound on a*: no LC power on the reflector beam, a tight budget and
    p_hd = (w_r p_hr / N) p_ld, which makes both HC cases decode at
    w_r p_hr / N; p_hr is bisected until the two capacity terms meet.
    """
    w_d, w_r, noise_w, _ = _coeffs(sc)
    weights = (1.0 / alpha, 1.0 / (1.0 - alpha))

    def terms(p_hr):
        k = w_r * p_hr / noise_w
        p_ld = (sc.p_max - p_hr) / (1.0 + k)
        _, _, gap_h, gap_l, _ = objective_for_powers(
            PowerAllocation(k * p_ld, p_hr, p_ld, 0.0), sc, alpha, 0.0)
        return weights[0] * gap_h, weights[1] * gap_l

    lo, hi = 0.0, sc.p_max
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        hc, lc = terms(mid)
        lo, hi = (mid, hi) if hc < lc else (lo, mid)
    return max(min(terms(lo)), min(terms(hi)))


def _interior_cases():
    rng = np.random.default_rng(42)
    grid = [(ScenarioParams(), a) for a in default_config().grid if 0.0 < a < 1.0]
    return grid + [_random_scenario(rng) for _ in range(20)]


@pytest.mark.parametrize("sc, alpha", _interior_cases())
def test_capacity_allocation_reaches_reduced_form(sc, alpha):
    ref = _reduced_form_a_star(sc, alpha)
    assert ref > 0.0
    assert capacity_allocation(sc, alpha).objective >= ref * (1.0 - 1e-9)
