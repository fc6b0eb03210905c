"""
Queue-stabilising power allocation for the superposition scheme.

For a given traffic mix (HC fraction alpha, arrival rate) the allocator
maximises the minimum weighted stability gap of the two queues over the four
transmit powers.  The rate expressions make the problem non-convex; each
outer iteration replaces the SINR ratios by their quadratic-transform
surrogates at fixed auxiliary multipliers and solves the resulting convex
program with the interior-point kernel, started from the previous
iteration's solution and multipliers; one such run on reweighted gaps finds
the largest stabilisable arrival rate, which is closed form when only one
class carries traffic.  A simplex-grid brute-force search
over the closed-form objective serves as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

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
from .maxmin import STATUS_INFEASIBLE_START, KernelResult, solve_maxmin

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
    if alpha <= 0.0:
        return (1.0 - alpha) * gap_l
    if alpha >= 1.0:
        return alpha * gap_h
    return min(alpha * gap_h, (1.0 - alpha) * gap_l)


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
    return _surrogate(gamma_h, mu, *ratio_parts(form, astuple(p), gains.noise_w))


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
    return _surrogate(gamma_l, mu, *ratio_parts(form, astuple(p), gains.noise_w))


def optimal_mu(p: PowerAllocation, gains: LinkGains, n_b: int, n_r: int) -> AuxiliaryMu:
    """Stationary multipliers sqrt(signal)/(interference + noise) per ratio."""
    return _multipliers(p, decoding_forms(*route_coefficients(gains, n_b, n_r)), gains.noise_w)


def _multipliers(p: PowerAllocation, forms, noise_w: float) -> AuxiliaryMu:
    parts = (ratio_parts(f, astuple(p), noise_w) for f in forms)
    return AuxiliaryMu(*(math.sqrt(sig) / interf for sig, interf in parts))


def _objective_terms_np(p, forms, noise_w, serv, q_d, q_r, alpha, arrival, w_h, w_l):
    """Vectorised closed-form rates, gaps and min(w_h gap_h, w_l gap_l) at powers p."""
    sinr_h0, sinr_h1, sinr_l = decoding_sinrs(forms, p, noise_w)
    sinr_h = np.minimum(sinr_h0, sinr_h1)
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
    weights = (alpha, 1.0 - alpha) if weights is None else weights
    w_d, w_r, noise_w, serv = _coeffs(scenario)
    return _evaluate(p, decoding_forms(w_d, w_r), noise_w, serv, scenario, alpha, arrival, weights)


def _evaluate(p, forms, noise_w, serv, scenario, alpha, arrival, weights):
    """objective_for_powers from the true decoding forms, noise and service factor."""
    se_h, se_l, gap_h, gap_l, obj = _objective_terms_np(
        astuple(p), forms, noise_w, serv, scenario.q_d, scenario.q_r, alpha, arrival, *weights)
    bandwidth = scenario.bandwidth
    return float(se_h) * bandwidth, float(se_l) * bandwidth, float(gap_h), float(gap_l), float(obj)


@dataclass
class _Subproblem:
    """
    The SCA inner problem as stacked rows over the scaled variables
    x = [u_hd, u_hr, u_ld, u_lr, r_h, r_l, gamma_h, gamma_l]: each row is
    lin @ x + const, less 2 mu sqrt(a @ x) on the three surrogate rows and
    log2(1 + gamma) on the two rate caps.  Row order: the terms, the rate
    caps (HC, LC), the surrogates (HC direct down, HC direct up, LC), the
    power budget.  ``warm`` is the previous SCA iteration's inner solve,
    the kernel's start; its rows have the same layout.
    """

    n_terms: int
    lin: np.ndarray
    const: np.ndarray
    a: np.ndarray
    mu: np.ndarray
    x0: np.ndarray
    n: int = 8
    warm: KernelResult | None = None

    def bounds(self) -> np.ndarray:
        return np.zeros(self.n)

    def _parts(self, x):
        k = self.n_terms
        arg = np.maximum(self.a @ x, _SQRT_FLOOR)
        root = np.sqrt(arg)
        vals = self.lin @ x + self.const
        vals[k:k + 2] -= np.log2(1.0 + x[6:8])
        vals[k + 2:k + 5] -= 2.0 * self.mu * root
        return vals, arg, root

    def values(self, x: np.ndarray) -> np.ndarray:
        return self._parts(x)[0]

    def evaluate(self, x: np.ndarray):
        k = self.n_terms
        vals, arg, root = self._parts(x)
        gam1 = 1.0 + x[6:8]
        jac = self.lin.copy()
        jac[[k, k + 1], [6, 7]] -= 1.0 / (gam1 * _LN2)
        jac[k + 2:k + 5] -= (self.mu / root)[:, None] * self.a
        curv_cap = 1.0 / (gam1**2 * _LN2)
        curv_sur = self.mu / (2.0 * arg * root)

        def weighted_hessian(w: np.ndarray) -> np.ndarray:
            hess = self.a.T @ ((w[k + 2:k + 5] * curv_sur)[:, None] * self.a)
            hess[[6, 7], [6, 7]] += w[k:k + 2] * curv_cap
            return hess

        return vals, jac, weighted_hessian


def _build_subproblem(p: PowerAllocation, mu: AuxiliaryMu, scenario: ScenarioParams,
                      weights: tuple[float, float], offsets: tuple[float, float],
                      forms, noise_w: float, serv: float) -> _Subproblem:
    """
    Convex inner problem at multipliers mu, with u = power / p_max and
    r = rate / bandwidth.  Objective terms are w (1 - q) serv r + offset per
    stream; a zero weight drops its term.  ``forms`` are the decoding forms
    (HC direct down, HC direct up, LC); surrogate j reads
    gamma - 2 mu_j sqrt(signal_j) + mu_j^2 (interference_j + noise).
    """
    p_max = scenario.p_max
    slopes = (weights[0] * (1.0 - scenario.q_r) * serv,
              weights[1] * (1.0 - scenario.q_d) * serv)
    streams = [k for k in (0, 1) if weights[k] > 0.0]
    k = len(streams)
    lin = np.zeros((k + 6, 8))
    const = np.zeros(k + 6)
    for row, stream in enumerate(streams):
        lin[row, 4 + stream] = slopes[stream]
        const[row] = offsets[stream]
    lin[k, 4] = lin[k + 1, 5] = 1.0  # r - log2(1 + gamma)
    mus = np.array([mu.mu_h0, mu.mu_h1, mu.mu_l])
    a = np.zeros((3, 8))
    for j, (g_idx, (sig, interf)) in enumerate(zip((6, 6, 7), forms)):
        row = k + 2 + j
        lin[row, g_idx] = 1.0
        for i, c in sig:
            a[j, i] = c * p_max
        for i, c in interf:
            lin[row, i] = mus[j]**2 * (c * p_max)
        const[row] = mus[j]**2 * noise_w
    lin[k + 5, :4] = 1.0  # the budget u_hd + u_hr + u_ld + u_lr <= 1
    const[k + 5] = -1.0

    # A strictly feasible start: powers pulled inside the simplex, SINR
    # targets halfway to their surrogate caps, rates halfway to capacity.
    # With zero targets a surrogate row's value is minus its cap.
    u0 = np.maximum(p.as_array() / p_max, 1e-10) * 0.995
    total = float(np.sum(u0))
    if total >= 0.999:
        u0 *= 0.999 / total
    x0 = np.zeros(8)
    x0[:4] = u0
    sub = _Subproblem(k, lin, const, a, mus, x0)
    caps = -sub.values(x0)[k + 2:k + 5]
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
    """
    alpha = scenario.alpha if alpha is None else alpha
    arrival = scenario.arrival_rate if arrival is None else arrival
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
    """
    alpha = scenario.alpha if alpha is None else alpha
    weights = (1.0 / alpha if alpha > 0.0 else 0.0,
               1.0 / (1.0 - alpha) if alpha < 1.0 else 0.0)
    if 0.0 < alpha < 1.0:
        res = _sca(scenario, alpha, 0.0, weights, (0.0, 0.0))
    else:
        res = _single_stream(scenario, alpha, weights)
    res.gap_h, res.gap_l = objective_for_powers(res.power, scenario, alpha, res.objective)[2:4]
    return res


def _single_stream(scenario, alpha, weights):
    """capacity_allocation's closed-form optimum at alpha <= 0 or alpha >= 1."""
    w_d, w_r, noise_w, serv = _coeffs(scenario)
    forms = decoding_forms(w_d, w_r)
    p_max = scenario.p_max
    if alpha >= 1.0:
        p = PowerAllocation(0.0, p_max, 0.0, 0.0)
    elif w_d >= w_r:
        p = PowerAllocation(0.0, 0.0, p_max, 0.0)
    else:
        p = PowerAllocation(0.0, 0.0, 0.0, p_max)
    evals = _evaluate(p, forms, noise_w, serv, scenario, alpha, 0.0, weights)
    return _result(p, evals, forms, noise_w, 0, True, [evals[4]])


def _sca(scenario, alpha, arrival, weights, offsets, *, stop_when_nonneg=False):
    """SCA loop for min(w_h gap_h, w_l gap_l) at ``arrival``; offsets: negated weighted demands."""
    w_d, w_r, noise_w, serv = _coeffs(scenario)
    forms = decoding_forms(w_d, w_r)

    def closed_form(p):
        return _evaluate(p, forms, noise_w, serv, scenario, alpha, arrival, weights)

    quarter = scenario.p_max / 4.0
    p = PowerAllocation(quarter, quarter, quarter, quarter)
    # (rate_h, rate_l, gap_h, gap_l, objective) at the accepted powers p.
    evals = closed_form(p)
    history = [evals[4]]
    converged = False
    iterations = 0
    result = None

    for _ in range(_SCA_MAX_ITERS):
        obj = history[-1]
        if stop_when_nonneg and obj >= 0.0:
            break
        floor = _MU_POWER_FLOOR * scenario.p_max
        p_mu = PowerAllocation(*np.maximum(p.as_array(), floor))
        mu = _multipliers(p_mu, forms, noise_w)
        problem = _build_subproblem(p, mu, scenario, weights, offsets, forms, noise_w, serv)
        problem.warm = result  # start from the previous solve's point and multipliers
        result = solve_maxmin(problem)
        if result.status == STATUS_INFEASIBLE_START:
            raise RuntimeError(
                "inner solve lost feasibility: "
                f"violation={result.max_violation:.3e}, kkt={result.kkt_residual:.3e}"
            )
        iterations += 1
        p_new = PowerAllocation(*(np.clip(result.x[:4], 0.0, None) * scenario.p_max))
        evals_new = closed_form(p_new)
        obj_new = evals_new[4]
        if obj_new < obj - 1e-9 * max(1.0, abs(obj)):
            break  # a worse iterate: reject it and stop unconverged
        p, evals = p_new, evals_new
        history.append(obj_new)
        if abs(obj_new - obj) <= _SCA_REL_TOL * max(1.0, abs(obj_new)):
            converged = True
            break

    return _result(p, evals, forms, noise_w, iterations, converged, history)


def _result(p, evals, forms, noise_w, iterations, converged, history):
    """SolveResult at powers p from their closed-form evaluation ``evals``."""
    rate_h, rate_l, gap_h, gap_l, obj = evals
    sinr_h0, sinr_h1, sinr_l = decoding_sinrs(forms, astuple(p), noise_w)
    return SolveResult(
        power=p,
        rate_h=rate_h,
        rate_l=rate_l,
        gap_h=gap_h,
        gap_l=gap_l,
        sinr_h=min(sinr_h0, sinr_h1),
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
        if not np.any(sel):
            break
        p_h_r = j[sel] * step
        p_l_d = k[sel] * step
        p_l_r = m[sel] * step
        *_, obj = _objective_terms_np(
            (i * step, p_h_r, p_l_d, p_l_r), forms, noise_w, serv,
            scenario.q_d, scenario.q_r, alpha, arrival, alpha, 1.0 - alpha,
        )
        t = int(np.argmax(obj))
        if obj[t] > best_obj:
            best_obj = float(obj[t])
            best_p = (i * step, float(p_h_r[t]), float(p_l_d[t]), float(p_l_r[t]))
    return PowerAllocation(*best_p), best_obj


def max_feasible_arrival(scenario: ScenarioParams, alpha: float | None = None) -> float:
    """Largest arrival rate the allocator can stabilise: capacity_allocation's a*."""
    return capacity_allocation(scenario, alpha).objective
