"""
Queue-stabilising power allocation for the superposition scheme.

For a given traffic mix (HC fraction alpha, arrival rate) the allocator
maximises the minimum weighted stability gap of the two queues over the four
transmit powers.  The rate expressions make the problem non-convex; each
outer iteration replaces the SINR ratios by their quadratic-transform
surrogates at fixed auxiliary multipliers and solves the resulting convex
program with the interior-point kernel, started from the previous
iteration's solution and multipliers; one such run on reweighted gaps finds
the largest stabilisable arrival rate.  When only one class carries traffic
both the gap and the capacity optimum are closed form and no inner solve
runs.  A brute-force search of the closed-form objective over the
simplex grid's full-budget face serves as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .link import (
    LinkGains,
    PowerAllocation,
    ScenarioParams,
    decoding_forms,
    decoding_sinrs,
    link_gains,
    ratio_parts,
    route_coefficients,
)
from .maxmin import STATUS_INFEASIBLE_START, solve_maxmin

# Guard for square-root arguments; p = 0 is a legitimate boundary point.
_SQRT_FLOOR = 1e-30
# Powers are clamped to this fraction of the budget when computing the
# auxiliary multipliers, so a stream that hit zero can re-enter.
_MU_POWER_FLOOR = 1e-12
# SCA stops once the objective changes by at most this much relative to
# max(1, |objective|), or after this many inner solves.
_SCA_REL_TOL = 1e-6
_SCA_MAX_ITERS = 100
_LN2 = math.log(2.0)


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


def _traffic(scenario: ScenarioParams, alpha, arrival) -> tuple[float, float]:
    """(alpha, arrival), the scenario's own where None, checked by ScenarioParams."""
    checked = replace(scenario, alpha=scenario.alpha if alpha is None else alpha,
                      arrival_rate=scenario.arrival_rate if arrival is None else arrival)
    return checked.alpha, checked.arrival_rate


def _coeffs(scenario: ScenarioParams):
    """Per-watt SNR coefficients of both beams, noise power, service factor."""
    g = link_gains(scenario)
    w_d, w_r = route_coefficients(g, scenario.n_b, scenario.n_r)
    serv = scenario.slot_duration * scenario.bandwidth / scenario.packet_size
    return w_d, w_r, g.noise_w, serv


def weighted_min_gap(alpha: float, gap_h: float, gap_l: float) -> float:
    """
    Weighted min of the stability gaps, excluding zero-weight terms.

    At alpha = 0 (or 1) the absent stream would pin the plain weighted min
    at zero regardless of the allocation, so the degenerate term is dropped.
    """
    return float(_weighted_min(alpha, 1.0 - alpha, gap_h, gap_l))


def _weighted_min(w_h, w_l, gap_h, gap_l):
    """min(w_h gap_h, w_l gap_l), dropping a term whose weight is not positive."""
    if w_h <= 0.0:
        return w_l * gap_l
    if w_l <= 0.0:
        return w_h * gap_h
    return np.minimum(w_h * gap_h, w_l * gap_l)


def _surrogate(gamma: float, mu: float, signal: float, interference: float) -> float:
    """Quadratic-transform surrogate gamma - 2 mu sqrt(signal) + mu^2 interference."""
    return gamma - 2.0 * mu * math.sqrt(max(signal, _SQRT_FLOOR)) + mu * mu * interference


def g_h(
    p: PowerAllocation,
    gamma_h: float,
    mu: float,
    beta_d: int,
    gains: LinkGains,
    n_b: int,
    n_r: int,
) -> float:
    """
    HC surrogate constraint value at fixed multiplier mu.

    Nonpositive values certify that gamma_h is achievable at the given
    powers for the given direct-route availability (reflected route up).
    """
    form = decoding_forms(*route_coefficients(gains, n_b, n_r))[beta_d]
    return _surrogate(gamma_h, mu, *ratio_parts(form, p.as_tuple(), gains.noise_w))


def g_l(
    p: PowerAllocation,
    gamma_l: float,
    mu: float,
    gains: LinkGains,
    n_b: int,
    n_r: int,
) -> float:
    """LC surrogate constraint value; evaluated with both routes available."""
    form = decoding_forms(*route_coefficients(gains, n_b, n_r))[2]
    return _surrogate(gamma_l, mu, *ratio_parts(form, p.as_tuple(), gains.noise_w))


def optimal_mu(p: PowerAllocation, gains: LinkGains, n_b: int, n_r: int) -> AuxiliaryMu:
    """Stationary multipliers sqrt(signal)/(interference + noise) per ratio."""
    return _multipliers(p, decoding_forms(*route_coefficients(gains, n_b, n_r)), gains.noise_w)


def _multipliers(p: PowerAllocation, forms, noise_w: float) -> AuxiliaryMu:
    parts = (ratio_parts(f, p.as_tuple(), noise_w) for f in forms)
    return AuxiliaryMu(*(math.sqrt(sig) / interf for sig, interf in parts))


def _objective_terms_np(p, forms, noise_w, serv, q_d, q_r, alpha, arrival, w_h, w_l):
    """
    Vectorised closed-form spectral efficiencies, gaps, the objective
    min(w_h gap_h, w_l gap_l) and the decoding SINRs at powers p.
    """
    sinr_h0, sinr_h1, sinr_l = decoding_sinrs(forms, p, noise_w)
    sinr_h = np.minimum(sinr_h0, sinr_h1)
    se_h = np.log2(1.0 + sinr_h)
    se_l = np.log2(1.0 + sinr_l)
    gap_h = (1.0 - q_r) * serv * se_h - alpha * arrival
    gap_l = (1.0 - q_d) * serv * se_l - (1.0 - alpha) * arrival
    return se_h, se_l, gap_h, gap_l, _weighted_min(w_h, w_l, gap_h, gap_l), sinr_h, sinr_l


def objective_for_powers(
    p: PowerAllocation,
    scenario: ScenarioParams,
    alpha: float | None = None,
    arrival: float | None = None,
) -> tuple[float, float, float, float, float]:
    """
    Closed-form evaluation of rates, stability gaps, and the objective.

    The HC rate is capped by the worse of the two direct-route availability
    cases (the stream must stay decodable when that route is down); the LC
    rate assumes both routes up since it is only delivered then.
    Returns (rate_h, rate_l, gap_h, gap_l, min(alpha gap_h, (1 - alpha) gap_l))
    with rates in bit/s and gaps in packets/slot.
    """
    alpha, arrival = _traffic(scenario, alpha, arrival)
    w_d, w_r, noise_w, serv = _coeffs(scenario)
    res = _evaluate(p, decoding_forms(w_d, w_r), noise_w, serv, scenario, alpha, arrival,
                    (alpha, 1.0 - alpha))
    return res.rate_h, res.rate_l, res.gap_h, res.gap_l, res.objective


def _evaluate(p, forms, noise_w, serv, scenario, alpha, arrival, weights) -> SolveResult:
    """
    Closed-form SolveResult at powers p from the true decoding forms, noise
    and service factor, as a run that made no inner solve reports it.
    """
    se_h, se_l, gap_h, gap_l, obj, sinr_h, sinr_l = (float(v) for v in _objective_terms_np(
        p.as_tuple(), forms, noise_w, serv, scenario.q_d, scenario.q_r, alpha, arrival, *weights))
    bandwidth = scenario.bandwidth
    return SolveResult(p, se_h * bandwidth, se_l * bandwidth, gap_h, gap_l, sinr_h, sinr_l, obj,
                       iterations=0, converged=True, objective_history=[obj])


@dataclass
class _Subproblem:
    """
    The SCA inner problem as stacked rows over the scaled variables
    x = [u_hd, u_hr, u_ld, u_lr, r_h, r_l, gamma_h, gamma_l]: each row is
    lin @ x + const, less 2 mu sqrt(a @ x) on the three surrogate rows and
    log2(1 + gamma) on the two rate caps.  Row order: the terms, the rate
    caps (HC, LC), the surrogates (HC direct down, HC direct up, LC), the
    power budget; rows 0-1, 2-3, 4-6 and 7.  ``evaluate`` builds the
    Jacobian and the curvatures only when the kernel asks for them.
    """

    lin: np.ndarray
    const: np.ndarray
    a: np.ndarray
    mu: np.ndarray
    x0: np.ndarray
    n: int = 8
    n_terms: int = 2

    def evaluate(self, x: np.ndarray):
        arg = np.maximum(self.a @ x, _SQRT_FLOOR)
        root = np.sqrt(arg)
        gam1 = 1.0 + x[6:8]
        vals = self.lin @ x + self.const
        vals[2:4] -= np.log2(gam1)
        vals[4:7] -= 2.0 * self.mu * root
        gam_h, gam_l = float(gam1[0]), float(gam1[1])

        def jacobian() -> np.ndarray:
            jac = self.lin.copy()
            jac[2, 6] -= 1.0 / (gam_h * _LN2)
            jac[3, 7] -= 1.0 / (gam_l * _LN2)
            jac[4:7] -= (self.mu / root)[:, None] * self.a
            return jac

        def weighted_hessian(w: np.ndarray) -> np.ndarray:
            curv_sur = self.mu / (2.0 * arg * root)
            hess = self.a.T @ ((w[4:7] * curv_sur)[:, None] * self.a)
            hess[6, 6] += w[2] * (1.0 / (gam_h * gam_h * _LN2))
            hess[7, 7] += w[3] * (1.0 / (gam_l * gam_l * _LN2))
            return hess

        return vals, jacobian, weighted_hessian


def _build_subproblem(p: PowerAllocation, mu: AuxiliaryMu, scenario: ScenarioParams,
                      weights: tuple[float, float], offsets: tuple[float, float],
                      forms, noise_w: float, serv: float) -> _Subproblem:
    """
    Convex inner problem at multipliers mu, with u = power / p_max and
    r = rate / bandwidth.  Objective terms are w (1 - q) serv r + offset per
    stream, both weights positive.  ``forms`` are the decoding forms
    (HC direct down, HC direct up, LC); surrogate j reads
    gamma - 2 mu_j sqrt(signal_j) + mu_j^2 (interference_j + noise).
    """
    p_max = scenario.p_max
    lin = np.zeros((8, 8))
    const = np.zeros(8)
    lin[0, 4] = weights[0] * (1.0 - scenario.q_r) * serv
    lin[1, 5] = weights[1] * (1.0 - scenario.q_d) * serv
    const[:2] = offsets
    lin[2, 4] = lin[3, 5] = 1.0  # r - log2(1 + gamma)
    mus = np.array([mu.mu_h0, mu.mu_h1, mu.mu_l])
    a = np.zeros((3, 8))
    for j, (g_idx, (sig, interf)) in enumerate(zip((6, 6, 7), forms)):
        row = 4 + j
        lin[row, g_idx] = 1.0
        for i, c in sig:
            a[j, i] = c * p_max
        for i, c in interf:
            lin[row, i] = mus[j]**2 * (c * p_max)
        const[row] = mus[j]**2 * noise_w
    lin[7, :4] = 1.0  # the budget u_hd + u_hr + u_ld + u_lr <= 1
    const[7] = -1.0

    # A strictly feasible start: powers pulled inside the simplex, SINR
    # targets halfway to their surrogate caps, rates halfway to capacity.
    # With zero targets a surrogate row's value is minus its cap.
    u0 = np.maximum(p.as_array() / p_max, 1e-10) * 0.995
    total = float(np.sum(u0))
    if total >= 0.999:
        u0 *= 0.999 / total
    x0 = np.zeros(8)
    x0[:4] = u0
    sub = _Subproblem(lin, const, a, mus, x0)
    caps = -sub.evaluate(x0)[0][4:7]
    x0[6:8] = np.maximum(0.5 * np.array([min(caps[0], caps[1]), caps[2]]), 1e-14)
    x0[4:6] = 0.5 * np.log2(1.0 + x0[6:8])
    return sub


def sca_power_allocation(
    scenario: ScenarioParams,
    alpha: float | None = None,
    arrival: float | None = None,
    *,
    stop_when_nonneg: bool = False,
) -> SolveResult:
    """
    Iterative allocator for min(alpha gap_h, (1 - alpha) gap_l): alternate
    the multiplier update with the convex inner solve from an equal power
    split until the objective settles.

    The reported objective sequence is the true closed-form objective at the
    accepted iterates and is nondecreasing up to solver noise; an iterate
    that makes the objective worse is rejected and iteration stops with
    ``converged`` false.  With ``stop_when_nonneg`` the loop exits as soon
    as the objective reaches zero, which is all a feasibility test needs.
    At alpha = 0 or 1 the optimum is closed form, as in
    capacity_allocation, and no inner solve runs (``iterations`` is 0).
    """
    alpha, arrival = _traffic(scenario, alpha, arrival)
    return _sca(scenario, alpha, arrival, (alpha, 1.0 - alpha),
                (-alpha * alpha * arrival, -(1.0 - alpha) ** 2 * arrival),
                stop_when_nonneg=stop_when_nonneg)


def capacity_allocation(scenario: ScenarioParams, alpha: float | None = None) -> SolveResult:
    """
    Largest stabilisable arrival rate a* and the allocation attaining it.

    A is stabilisable exactly when both gaps are nonnegative at some power
    split, so a* = max over powers of min((1 - q_r) serv se_h / alpha,
    (1 - q_d) serv se_l / (1 - alpha)): the gap objective weighted by
    (1/alpha, 1/(1 - alpha)) at zero arrivals, found by one SCA run.  The
    objective is a*; the gaps are those at a*, zero up to solver tolerance.

    At alpha = 0 or 1 the absent stream's term is dropped and the optimum is
    closed form, so no inner solve runs (``iterations`` is 0):
    - alpha = 0: only sinr_l = (w_d p_ld + w_r p_lr)/N counts, at most
      max(w_d, w_r) P/N, attained with all of P on the better LC beam;
    - alpha = 1: sinr_h <= sinr_h0 = w_r p_hr/(w_r p_lr + N) <= w_r P/N,
      attained with all of P on the reflected HC beam.
    The gap form is increasing in the remaining class's SINR as well, so
    sca_power_allocation shares these optima.
    """
    alpha = _traffic(scenario, alpha, None)[0]
    weights = (1.0 / alpha if alpha > 0.0 else 0.0,
               1.0 / (1.0 - alpha) if alpha < 1.0 else 0.0)
    res = _sca(scenario, alpha, 0.0, weights, (0.0, 0.0))
    res.gap_h, res.gap_l = objective_for_powers(res.power, scenario, alpha, res.objective)[2:4]
    return res


def _sca(scenario, alpha, arrival, weights, offsets, *, stop_when_nonneg=False):
    """
    SCA loop for min(w_h gap_h, w_l gap_l) at ``arrival``; offsets: negated
    weighted demands.  A weight that is not positive leaves one class, whose
    optimum is capacity_allocation's closed form.
    """
    w_d, w_r, noise_w, serv = _coeffs(scenario)
    forms = decoding_forms(w_d, w_r)

    def closed_form(p):
        return _evaluate(p, forms, noise_w, serv, scenario, alpha, arrival, weights)

    p_max = scenario.p_max
    if weights[1] <= 0.0:
        return closed_form(PowerAllocation(0.0, p_max, 0.0, 0.0))
    if weights[0] <= 0.0:
        return closed_form(PowerAllocation(0.0, 0.0, p_max, 0.0) if w_d >= w_r
                           else PowerAllocation(0.0, 0.0, 0.0, p_max))

    quarter = p_max / 4.0
    best = closed_form(PowerAllocation(quarter, quarter, quarter, quarter))
    history = best.objective_history
    converged = False
    iterations = 0
    result = None

    for _ in range(_SCA_MAX_ITERS):
        obj = best.objective
        if stop_when_nonneg and obj >= 0.0:
            break
        p_mu = PowerAllocation(*np.maximum(best.power.as_array(), _MU_POWER_FLOOR * p_max))
        mu = _multipliers(p_mu, forms, noise_w)
        problem = _build_subproblem(best.power, mu, scenario, weights, offsets, forms, noise_w, serv)
        result = solve_maxmin(problem, warm=result)
        if result.status == STATUS_INFEASIBLE_START:
            raise RuntimeError(
                "inner solve lost feasibility: "
                f"violation={result.max_violation:.3e}, kkt={result.kkt_residual:.3e}"
            )
        iterations += 1
        new = closed_form(PowerAllocation(*(np.clip(result.x[:4], 0.0, None) * p_max)))
        if new.objective < obj - 1e-9 * max(1.0, abs(obj)):
            break  # a worse iterate: reject it and stop unconverged
        best = new
        history.append(new.objective)
        if abs(new.objective - obj) <= _SCA_REL_TOL * max(1.0, abs(new.objective)):
            converged = True
            break

    best.iterations, best.converged, best.objective_history = iterations, converged, history
    return best


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

    Only the face where the budget is spent is searched: p_h_r appears in
    the HC signals alone (LC is decoded after HC is cancelled), and both HC
    ratios rise with it, so handing p_h_r the leftover budget never lowers
    min(alpha gap_h, (1 - alpha) gap_l).  Each p_h_d index i is one
    vectorised pass over the (p_l_d, p_l_r) triangle; the first maximum in
    i wins.  Where extra HC power buys nothing the maximum ties with
    interior points, and the face point is returned.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    alpha, arrival = _traffic(scenario, alpha, arrival)
    w_d, w_r, noise_w, serv = _coeffs(scenario)
    forms = decoding_forms(w_d, w_r)
    top = grid_n - 1
    step = scenario.p_max / top
    idx = np.arange(grid_n)
    k, m = np.nonzero(np.add.outer(idx, idx) <= top)  # LC grid indices, k + m <= top

    best_obj = -np.inf
    best_p = (0.0, 0.0, 0.0, 0.0)
    for i in range(grid_n):
        lc = k + m <= top - i
        p = (i * step, (top - i - k[lc] - m[lc]) * step, k[lc] * step, m[lc] * step)
        obj = _objective_terms_np(p, forms, noise_w, serv, scenario.q_d, scenario.q_r,
                                  alpha, arrival, alpha, 1.0 - alpha)[4]
        t = int(np.argmax(obj))
        if obj[t] > best_obj:
            best_obj = float(obj[t])
            best_p = (p[0], float(p[1][t]), float(p[2][t]), float(p[3][t]))
    return PowerAllocation(*best_p), best_obj


def max_feasible_arrival(scenario: ScenarioParams, alpha: float | None = None) -> float:
    """Largest arrival rate the allocator can stabilise: capacity_allocation's a*."""
    return capacity_allocation(scenario, alpha).objective
