"""Dual-path sub-THz downlink toolkit: link model, queue-stability power
allocation, queue simulation, time-sharing baseline, and sweep experiments."""

from .allocation import (
    AuxiliaryMu,
    SolveResult,
    brute_force_oracle,
    capacity_allocation,
    g_h,
    g_l,
    max_feasible_arrival,
    objective_for_powers,
    optimal_mu,
    sca_power_allocation,
    weighted_min_gap,
)
from .experiments import (
    ConfigParseError,
    ConfigValidationError,
    ExperimentConfig,
    SweepRow,
    default_config,
    load_config,
    read_rows,
    run_sweep,
    spectral_efficiency,
)
from .link import (
    BlockageState,
    LinkGains,
    PowerAllocation,
    ScenarioParams,
    approx_sinrs,
    array_response,
    default_geometry,
    direct_gain,
    exact_sinrs,
    link_gains,
    noise_power,
    ris_gain,
    sample_blockage_batch,
)
from .maxmin import KernelResult, MaxMinProblem, kkt_residual, solve_maxmin
from .oma import OmaResult, oma_max_feasible_arrival, oma_optimize
from .queuesim import (
    DelayStats,
    QueueTrace,
    mean_delay,
    run_simulation,
)

__all__ = [
    "AuxiliaryMu", "BlockageState", "ConfigParseError",
    "ConfigValidationError", "DelayStats", "ExperimentConfig", "KernelResult",
    "LinkGains", "MaxMinProblem", "OmaResult", "PowerAllocation", "QueueTrace",
    "ScenarioParams", "SolveResult", "SweepRow", "approx_sinrs",
    "array_response", "brute_force_oracle", "capacity_allocation",
    "default_config", "default_geometry", "direct_gain", "exact_sinrs", "g_h",
    "g_l", "kkt_residual", "link_gains", "load_config", "max_feasible_arrival",
    "mean_delay", "noise_power", "objective_for_powers",
    "oma_max_feasible_arrival", "oma_optimize", "optimal_mu", "read_rows",
    "ris_gain", "run_simulation", "run_sweep",
    "sample_blockage_batch", "sca_power_allocation", "solve_maxmin",
    "spectral_efficiency", "weighted_min_gap",
]

__version__ = "0.1.0"
