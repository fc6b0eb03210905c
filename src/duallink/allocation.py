"""
Queue-stabilising power allocation for the superposition scheme.

For a given traffic mix (HC fraction alpha, arrival rate) the allocator
maximises the minimum weighted stability gap of the two queues over the four
transmit powers.  The rate expressions make the problem non-convex; each
outer iteration replaces the SINR ratios by their quadratic-transform
surrogates at fixed auxiliary multipliers and solves the resulting convex
program with the log-barrier kernel; one such run on reweighted gaps finds
the largest stabilisable arrival rate.  A simplex-grid brute-force search
over the closed-form objective serves as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .link import LinkGains, PowerAllocation, ScenarioParams, link_gains
from .maxmin import (
    STATUS_INFEASIBLE_START,
    BarrierSettings,
    MaxMinProblem,
    solve_maxmin,
)

# Guard for square-root arguments; p = 0 is a legitimate boundary point.
_SQRT_FLOOR = 1e-30
# Powers are clamped to this fraction of the budget when computing the
# auxiliary multipliers, so a stream that hit zero can re-enter.
_MU_POWER_FLOOR = 1e-12


@dataclass(frozen=True)
class AuxiliaryMu:
    """Quadratic-transform multipliers: HC with/without the direct route, LC."""

    mu_h0: float
    mu_h1: float
    mu_l: float


@dataclass
class SolveResult:
    """Outcome of one allocator run at fixed traffic mix."""

    power: PowerAllocation
    rate_h: float
    rate_l: float
    gap_h: float
    gap_l: float
    sinr_h: float
    sinr_l: float
    objective: float
    iterations: int
    converged: bool
    objective_history: list[float] = field(default_factory=list)


def _coeffs(scenario: ScenarioParams, gains: LinkGains | None = None):
    """Per-watt SNR coefficients of both beams, noise power, service factor."""
    g = gains or link_gains(scenario)
    w_d = scenario.n_b * g.eta_d**2
    w_r = scenario.n_b * scenario.n_r * g.eta_r**2
    serv = scenario.slot_duration * scenario.bandwidth / scenario.packet_size
    return w_d, w_r, g.noise_w, serv


def weighted_min_gap(alpha: float, gap_h: float, gap_l: float) -> float:
    """
    Weighted min of the stability gaps, excluding zero-weight terms.

    At alpha = 0 (or 1) the absent stream would pin the plain weighted min
    at zero regardless of the allocation, so the degenerate term is dropped.
    """
    if alpha <= 0.0:
        return (1.0 - alpha) * gap_l
    if alpha >= 1.0:
        return alpha * gap_h
    return min(alpha * gap_h, (1.0 - alpha) * gap_l)


def g_h(
    p: PowerAllocation,
    gamma_h: float,
    mu: float,
    beta_d: int,
    gains: LinkGains,
    n_b: int,
    n_r: int,
    alt_hc_surrogate: bool = False,
) -> float:
    """
    HC surrogate constraint value at fixed multiplier mu.

    Nonpositive values certify that gamma_h is achievable at the given
    powers for the given direct-route availability (reflected route up).
    ``alt_hc_surrogate`` switches the direct-beam terms to the reflected
    coefficient, an alternate pairing kept only for comparison.
    """
    w_d = n_b * gains.eta_d**2
    w_r = n_b * n_r * gains.eta_r**2
    w_direct = w_r if alt_hc_surrogate else w_d
    sig = beta_d * w_direct * p.p_h_d + w_r * p.p_h_r
    interf = beta_d * w_direct * p.p_l_d + w_r * p.p_l_r + gains.noise_w
    return gamma_h - 2.0 * mu * math.sqrt(max(sig, _SQRT_FLOOR)) + mu * mu * interf


def g_l(
    p: PowerAllocation,
    gamma_l: float,
    mu: float,
    gains: LinkGains,
    n_b: int,
    n_r: int,
) -> float:
    """LC surrogate constraint value; evaluated with both routes available."""
    w_d = n_b * gains.eta_d**2
    w_r = n_b * n_r * gains.eta_r**2
    sig = w_d * p.p_l_d + w_r * p.p_l_r
    return gamma_l - 2.0 * mu * math.sqrt(max(sig, _SQRT_FLOOR)) + mu * mu * gains.noise_w


def optimal_mu(
    p: PowerAllocation,
    gains: LinkGains,
    n_b: int,
    n_r: int,
    alt_hc_surrogate: bool = False,
) -> AuxiliaryMu:
    """Stationary multipliers sqrt(signal)/(interference + noise) per ratio."""
    w_d = n_b * gains.eta_d**2
    w_r = n_b * n_r * gains.eta_r**2
    w_direct = w_r if alt_hc_surrogate else w_d

    def mu_h(beta_d: int) -> float:
        sig = beta_d * w_direct * p.p_h_d + w_r * p.p_h_r
        interf = beta_d * w_direct * p.p_l_d + w_r * p.p_l_r + gains.noise_w
        return math.sqrt(sig) / interf

    sig_l = w_d * p.p_l_d + w_r * p.p_l_r
    return AuxiliaryMu(
        mu_h0=mu_h(0),
        mu_h1=mu_h(1),
        mu_l=math.sqrt(sig_l) / gains.noise_w,
    )


def _objective_terms_np(p_h_d, p_h_r, p_l_d, p_l_r, w_d, w_r, noise_w, serv,
                        q_d, q_r, alpha, arrival, w_h, w_l):
    """Vectorised closed-form rates, gaps and min(w_h gap_h, w_l gap_l)."""
    sinr_h1 = (w_d * p_h_d + w_r * p_h_r) / (w_d * p_l_d + w_r * p_l_r + noise_w)
    sinr_h0 = (w_r * p_h_r) / (w_r * p_l_r + noise_w)
    sinr_h = np.minimum(sinr_h0, sinr_h1)
    sinr_l = (w_d * p_l_d + w_r * p_l_r) / noise_w
    se_h = np.log2(1.0 + sinr_h)
    se_l = np.log2(1.0 + sinr_l)
    gap_h = (1.0 - q_r) * serv * se_h - alpha * arrival
    gap_l = (1.0 - q_d) * serv * se_l - (1.0 - alpha) * arrival
    if w_h <= 0.0:
        obj = w_l * gap_l
    elif w_l <= 0.0:
        obj = w_h * gap_h
    else:
        obj = np.minimum(w_h * gap_h, w_l * gap_l)
    return se_h, se_l, gap_h, gap_l, obj


def objective_for_powers(
    p: PowerAllocation,
    scenario: ScenarioParams,
    alpha: float | None = None,
    arrival: float | None = None,
    weights: tuple[float, float] | None = None,
) -> tuple[float, float, float, float, float]:
    """
    Closed-form evaluation of rates, stability gaps, and the objective.

    The HC rate is capped by the worse of the two direct-route availability
    cases (the stream must stay decodable when that route is down); the LC
    rate assumes both routes up since it is only delivered then.
    Returns (rate_h, rate_l, gap_h, gap_l, min(w_h gap_h, w_l gap_l)) with
    rates in bit/s, gaps in packets/slot, weights (alpha, 1 - alpha) by default.
    """
    alpha = scenario.alpha if alpha is None else alpha
    arrival = scenario.arrival_rate if arrival is None else arrival
    w_h, w_l = (alpha, 1.0 - alpha) if weights is None else weights
    w_d, w_r, noise_w, serv = _coeffs(scenario)
    se_h, se_l, gap_h, gap_l, obj = _objective_terms_np(
        p.p_h_d, p.p_h_r, p.p_l_d, p.p_l_r, w_d, w_r, noise_w, serv,
        scenario.q_d, scenario.q_r, alpha, arrival, w_h, w_l,
    )
    return (
        float(se_h) * scenario.bandwidth,
        float(se_l) * scenario.bandwidth,
        float(gap_h),
        float(gap_l),
        float(obj),
    )


def _sparse_linear(pairs, offset: float = 0.0, floor: float | None = None):
    """Closure for a linear form with at most two nonzero coefficients."""
    if len(pairs) == 0:
        value = offset if floor is None else max(offset, floor)
        return lambda x: value
    if len(pairs) == 1:
        ((i0, c0),) = pairs
        if floor is None:
            return lambda x: c0 * x[i0] + offset
        return lambda x: max(c0 * x[i0] + offset, floor)
    (i0, c0), (i1, c1) = pairs
    if floor is None:
        return lambda x: c0 * x[i0] + c1 * x[i1] + offset
    return lambda x: max(c0 * x[i0] + c1 * x[i1] + offset, floor)


def _realized_sinrs(p: PowerAllocation, w_d, w_r, noise_w) -> tuple[float, float]:
    sinr_h1 = (w_d * p.p_h_d + w_r * p.p_h_r) / (w_d * p.p_l_d + w_r * p.p_l_r + noise_w)
    sinr_h0 = (w_r * p.p_h_r) / (w_r * p.p_l_r + noise_w)
    sinr_l = (w_d * p.p_l_d + w_r * p.p_l_r) / noise_w
    return min(sinr_h0, sinr_h1), sinr_l


def _build_subproblem(
    p: PowerAllocation,
    mu: AuxiliaryMu,
    scenario: ScenarioParams,
    weights: tuple[float, float],
    offsets: tuple[float, float],
    w_d: float,
    w_r: float,
    noise_w: float,
    serv: float,
    alt_hc_surrogate: bool,
) -> MaxMinProblem:
    """
    Convex inner problem over scaled variables
    x = [u_hd, u_hr, u_ld, u_lr, r_h, r_l, gamma_h, gamma_l]
    with u = power / p_max and r = rate / bandwidth.  Objective terms are
    w (1 - q) serv r + offset per stream; a zero weight drops its term.
    """
    p_max = scenario.p_max
    q_d, q_r = scenario.q_d, scenario.q_r
    ln2 = math.log(2.0)
    w_direct = w_r if alt_hc_surrogate else w_d

    terms = []

    def make_term(r_idx: int, slope: float, offset: float):
        grad = np.zeros(8)
        grad[r_idx] = slope

        def term(x):
            return slope * x[r_idx] + offset, grad

        term.value_only = lambda x: slope * x[r_idx] + offset
        return term

    w_h, w_l = weights
    if w_h > 0.0:
        terms.append(make_term(4, w_h * (1.0 - q_r) * serv, offsets[0]))
    if w_l > 0.0:
        terms.append(make_term(5, w_l * (1.0 - q_d) * serv, offsets[1]))

    def make_rate_cap(r_idx: int, g_idx: int):
        def cap(x):
            gam = x[g_idx]
            val = x[r_idx] - math.log2(1.0 + gam)
            grad = np.zeros(8)
            grad[r_idx] = 1.0
            grad[g_idx] = -1.0 / ((1.0 + gam) * ln2)
            hess = np.zeros((8, 8))
            hess[g_idx, g_idx] = 1.0 / ((1.0 + gam) ** 2 * ln2)
            return val, grad, hess

        cap.value_only = lambda x: x[r_idx] - math.log2(1.0 + x[g_idx])
        return cap

    def make_surrogate(g_idx: int, mu_val: float, a_pairs, b_pairs, b_off: float):
        # gamma - 2 mu sqrt(a.x) + mu^2 (b.x + b_off); a, b in watts per unit
        # power, given as sparse (index, coefficient) pairs.
        a_vec = np.zeros(8)
        for i, c in a_pairs:
            a_vec[i] = c
        base_grad = np.zeros(8)
        for i, c in b_pairs:
            base_grad[i] = mu_val**2 * c
        base_grad[g_idx] = 1.0
        outer_aa = np.outer(a_vec, a_vec)
        a_of = _sparse_linear(a_pairs, floor=_SQRT_FLOOR)
        lin_of = _sparse_linear(
            tuple((i, mu_val**2 * c) for i, c in b_pairs),
            offset=mu_val**2 * b_off,
        )

        def value_only(x) -> float:
            return x[g_idx] - 2.0 * mu_val * math.sqrt(a_of(x)) + lin_of(x)

        def surrogate(x):
            a_val = a_of(x)
            root = math.sqrt(a_val)
            grad = base_grad - (mu_val / root) * a_vec
            hess = (mu_val / (2.0 * a_val * root)) * outer_aa
            return x[g_idx] - 2.0 * mu_val * root + lin_of(x), grad, hess

        surrogate.value_only = value_only
        return surrogate

    budget_grad = np.zeros(8)
    budget_grad[:4] = 1.0

    def budget(x):
        return x[0] + x[1] + x[2] + x[3] - 1.0, budget_grad, None

    budget.value_only = lambda x: x[0] + x[1] + x[2] + x[3] - 1.0

    # Signal / interference coefficients (watts per unit u), sparse pairs.
    a_h0 = ((1, w_r * p_max),)
    b_h0 = ((3, w_r * p_max),)
    a_h1 = ((0, w_direct * p_max), (1, w_r * p_max))
    b_h1 = ((2, w_direct * p_max), (3, w_r * p_max))
    a_l = ((2, w_d * p_max), (3, w_r * p_max))

    constraints = [
        make_rate_cap(4, 6),
        make_rate_cap(5, 7),
        make_surrogate(6, mu.mu_h0, a_h0, b_h0, noise_w),
        make_surrogate(6, mu.mu_h1, a_h1, b_h1, noise_w),
        make_surrogate(7, mu.mu_l, a_l, (), noise_w),
        budget,
    ]

    # A strictly feasible start: powers pulled inside the simplex, SINR
    # targets halfway to their surrogate caps, rates halfway to capacity.
    u0 = np.maximum(p.as_array() / p_max, 1e-10) * 0.995
    total = float(np.sum(u0))
    if total >= 0.999:
        u0 *= 0.999 / total
    x0 = np.zeros(8)
    x0[:4] = u0

    def cap_of(mu_val, a_pairs, b_pairs, b_off):
        a_val = max(sum(c * x0[i] for i, c in a_pairs), _SQRT_FLOOR)
        lin = sum(c * x0[i] for i, c in b_pairs)
        return 2.0 * mu_val * math.sqrt(a_val) - mu_val**2 * (lin + b_off)

    gam_h0 = 0.5 * min(cap_of(mu.mu_h0, a_h0, b_h0, noise_w),
                       cap_of(mu.mu_h1, a_h1, b_h1, noise_w))
    gam_l0 = 0.5 * cap_of(mu.mu_l, a_l, (), noise_w)
    x0[6] = max(gam_h0, 1e-14)
    x0[7] = max(gam_l0, 1e-14)
    x0[4] = 0.5 * math.log2(1.0 + x0[6])
    x0[5] = 0.5 * math.log2(1.0 + x0[7])

    return MaxMinProblem(n=8, terms=terms, constraints=constraints, x0=x0)


def sca_power_allocation(
    scenario: ScenarioParams,
    alpha: float | None = None,
    arrival: float | None = None,
    *,
    rel_tol: float = 1e-6,
    max_iters: int = 100,
    stop_when_nonneg: bool = False,
    alt_hc_surrogate: bool = False,
    barrier_settings: BarrierSettings | None = None,
) -> SolveResult:
    """
    Iterative allocator for min(alpha gap_h, (1 - alpha) gap_l): alternate
    the multiplier update with the convex inner solve from an equal power
    split until the objective settles.

    The reported objective sequence is the true closed-form objective at the
    accepted iterates and is nondecreasing up to solver noise; an iterate
    that fails to improve is rejected and iteration stops.  With
    ``stop_when_nonneg`` the loop exits as soon as the objective reaches
    zero, which is all a feasibility test needs.
    """
    alpha = scenario.alpha if alpha is None else alpha
    arrival = scenario.arrival_rate if arrival is None else arrival
    return _sca(scenario, alpha, arrival, (alpha, 1.0 - alpha),
                (-alpha * alpha * arrival, -(1.0 - alpha) ** 2 * arrival),
                rel_tol=rel_tol, max_iters=max_iters, stop_when_nonneg=stop_when_nonneg,
                alt_hc_surrogate=alt_hc_surrogate, barrier_settings=barrier_settings)


def capacity_allocation(
    scenario: ScenarioParams,
    alpha: float | None = None,
    *,
    alt_hc_surrogate: bool = False,
) -> SolveResult:
    """
    Largest stabilisable arrival rate a* and the allocation attaining it.

    A is stabilisable exactly when both gaps are nonnegative at some power
    split, so a* = max over powers of min((1 - q_r) serv se_h / alpha,
    (1 - q_d) serv se_l / (1 - alpha)): the gap objective weighted by
    (1/alpha, 1/(1 - alpha)) at zero arrivals, found by one SCA run.  At
    alpha = 0 or 1 the absent stream's term is dropped.  The objective is
    a*; the gaps are those at a*, zero up to solver tolerance.
    """
    alpha = scenario.alpha if alpha is None else alpha
    weights = (1.0 / alpha if alpha > 0.0 else 0.0,
               1.0 / (1.0 - alpha) if alpha < 1.0 else 0.0)
    res = _sca(scenario, alpha, 0.0, weights, (0.0, 0.0), alt_hc_surrogate=alt_hc_surrogate)
    res.gap_h, res.gap_l = objective_for_powers(res.power, scenario, alpha, res.objective)[2:4]
    return res


def _sca(scenario, alpha, arrival, weights, offsets, *, rel_tol=1e-6, max_iters=100,
         stop_when_nonneg=False, alt_hc_surrogate=False, barrier_settings=None):
    """SCA loop for min(w_h gap_h, w_l gap_l) at ``arrival``; offsets: negated weighted demands."""
    gains = link_gains(scenario)
    w_d, w_r, noise_w, serv = _coeffs(scenario, gains)

    quarter = scenario.p_max / 4.0
    p = PowerAllocation(quarter, quarter, quarter, quarter)
    obj = objective_for_powers(p, scenario, alpha, arrival, weights)[4]
    history = [obj]
    converged = False
    iterations = 0

    for _ in range(max_iters):
        if stop_when_nonneg and obj >= 0.0:
            break
        floor = _MU_POWER_FLOOR * scenario.p_max
        p_mu = PowerAllocation(*np.maximum(p.as_array(), floor))
        mu = optimal_mu(p_mu, gains, scenario.n_b, scenario.n_r, alt_hc_surrogate)
        problem = _build_subproblem(
            p, mu, scenario, weights, offsets,
            w_d, w_r, noise_w, serv, alt_hc_surrogate,
        )
        result = solve_maxmin(problem, barrier_settings)
        if result.status == STATUS_INFEASIBLE_START:
            raise RuntimeError(
                "inner solve lost feasibility: "
                f"violation={result.max_violation:.3e}, kkt={result.kkt_residual:.3e}"
            )
        iterations += 1
        p_new = PowerAllocation(*(np.clip(result.x[:4], 0.0, None) * scenario.p_max))
        obj_new = objective_for_powers(p_new, scenario, alpha, arrival, weights)[4]
        if obj_new < obj - 1e-9 * max(1.0, abs(obj)):
            converged = True  # no further progress available from this surrogate
            break
        p = p_new
        history.append(obj_new)
        if abs(obj_new - obj) <= rel_tol * max(1.0, abs(obj_new)):
            obj = obj_new
            converged = True
            break
        obj = obj_new

    rate_h, rate_l, gap_h, gap_l, obj = objective_for_powers(p, scenario, alpha, arrival, weights)
    sinr_h, sinr_l = _realized_sinrs(p, w_d, w_r, noise_w)
    return SolveResult(
        power=p,
        rate_h=rate_h,
        rate_l=rate_l,
        gap_h=gap_h,
        gap_l=gap_l,
        sinr_h=sinr_h,
        sinr_l=sinr_l,
        objective=obj,
        iterations=iterations,
        converged=converged,
        objective_history=history,
    )


def brute_force_oracle(
    scenario: ScenarioParams,
    alpha: float | None = None,
    arrival: float | None = None,
    grid_n: int = 101,
) -> tuple[PowerAllocation, float]:
    """
    Exhaustive search over a simplex grid of power allocations.

    All four powers range over multiples of p_max/(grid_n-1) with total at
    most p_max; the closed-form objective needs no inner optimisation, so
    the search is exact on the grid.  Intended as an independent check of
    the iterative allocator.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    alpha = scenario.alpha if alpha is None else alpha
    arrival = scenario.arrival_rate if arrival is None else arrival
    w_d, w_r, noise_w, serv = _coeffs(scenario)
    q_d, q_r = scenario.q_d, scenario.q_r
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
        if not np.any(sel):
            break
        p_h_r = j[sel] * step
        p_l_d = k[sel] * step
        p_l_r = m[sel] * step
        *_, obj = _objective_terms_np(
            i * step, p_h_r, p_l_d, p_l_r,
            w_d, w_r, noise_w, serv, q_d, q_r, alpha, arrival, alpha, 1.0 - alpha,
        )
        t = int(np.argmax(obj))
        if obj[t] > best_obj:
            best_obj = float(obj[t])
            best_p = (i * step, float(p_h_r[t]), float(p_l_d[t]), float(p_l_r[t]))
    return PowerAllocation(*best_p), best_obj


def max_feasible_arrival(
    scenario: ScenarioParams,
    alpha: float | None = None,
    *,
    alt_hc_surrogate: bool = False,
) -> float:
    """Largest arrival rate the allocator can stabilise: capacity_allocation's a*."""
    return capacity_allocation(scenario, alpha, alt_hc_surrogate=alt_hc_surrogate).objective
