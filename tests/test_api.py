"""Package surface: every exported name resolves and is listed once, and the
entry points reject bad traffic overrides."""

import math

import pytest

import duallink


def test_all_names_resolve_once():
    missing = [name for name in duallink.__all__ if not hasattr(duallink, name)]
    assert missing == []
    assert len(set(duallink.__all__)) == len(duallink.__all__)


# Each entry point that takes traffic overrides, called as fn(scenario, alpha,
# arrival); those not in TAKES_ARRIVAL ignore the arrival rate.
_QUARTER = duallink.PowerAllocation(*[0.0025] * 4)
TRAFFIC_ENTRY_POINTS = {
    "objective_for_powers": lambda sc, a, arr: duallink.objective_for_powers(
        _QUARTER, sc, a, arr),
    "sca_power_allocation": duallink.sca_power_allocation,
    "capacity_allocation": lambda sc, a, arr: duallink.capacity_allocation(sc, a),
    "brute_force_oracle": lambda sc, a, arr: duallink.brute_force_oracle(
        sc, a, arr, grid_n=5),
    "oma_optimize": duallink.oma_optimize,
    "oma_max_feasible_arrival": lambda sc, a, arr: duallink.oma_max_feasible_arrival(sc, a),
    "spectral_efficiency": lambda sc, a, arr: duallink.spectral_efficiency(sc, a),
}
TAKES_ARRIVAL = ("objective_for_powers", "sca_power_allocation", "brute_force_oracle",
                 "oma_optimize")
BAD_TRAFFIC = [
    *(pytest.param(name, alpha, 700.0, id=f"{name}-alpha-{alpha}")
      for name in TRAFFIC_ENTRY_POINTS for alpha in (math.nan, -0.2, 1.5, 1e-200)),
    *(pytest.param(name, 0.1, arrival, id=f"{name}-arrival-{arrival}")
      for name in TAKES_ARRIVAL for arrival in (math.nan, -1.0, math.inf, 1e300)),
]


@pytest.mark.parametrize("name, alpha, arrival", BAD_TRAFFIC)
def test_bad_traffic_overrides_are_rejected(name, alpha, arrival):
    # The overrides get the checks ScenarioParams applies to its own alpha
    # and arrival_rate, so no entry point returns a number for them: nor for
    # an alpha in (0, 1e-30) or an arrival rate above 1e120, which overflow
    # the kernel.
    with pytest.raises(ValueError):
        TRAFFIC_ENTRY_POINTS[name](duallink.ScenarioParams(), alpha, arrival)
