"""
Standing byte-identity pins: SHA-256 digests of CLI outputs and of every
interior-point kernel result on two sets of allocator runs.

    PYTHONPATH=src python tests/pins.py          # print what is pinned, then the digests
    PYTHONPATH=src python tests/pins.py --write  # regenerate every pin

``tests/test_pins.py`` checks every digest in ``tests/data/pins.json``, so a
change meant to keep every output proves it by passing the tests.  The same
file holds the values that older tests read as their pins: the default
``simulate`` trace digest and stdout, the ``oracle`` stdout and the Newton
steps of the default grid.  A change that moves a number on purpose
regenerates all of them, and ``tests/data/sweep_default.csv``, with
``--write``, and lists the moved pins; printing the hashed kernel lines
before and after shows which solve moved.

The pins are bit-level, like ``tests/data/sweep_default.csv``: they were
taken with Python 3.11.7 and numpy 2.4.6 (scipy-openblas 0.3.31), and hold
for that build.  The trace and sweep pins also assume numpy's Generator
streams.

The criterion-4 traces are ``simulate`` (mcsc, 20,000 slots) on the first
four criterion-4 draws (seed 42), where the HC queue empties often and the
LC queue never does.

Kernel results are hashed field by field, floats as ``float.hex``, for:
- the default alpha grid, in capacity form and in gap form at the default
  arrival rate;
- the first 20 criterion-4 draws (seed 42), in capacity form, in gap form
  at 700 packets/slot and with ``stop_when_nonneg``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace

import numpy as np

from duallink import allocation, default_config
from duallink import cli
from test_acceptance import _random_scenario

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
PINS = os.path.join(DATA, "pins.json")
GOLDEN_SWEEP = os.path.join(DATA, "sweep_default.csv")
CRITERION_4_DRAWS = 20
CRITERION_4_TRACES = 4
CRITERION_4_HORIZON = 20_000


def _sha256(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


@contextlib.contextmanager
def _in_fresh_directory():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def _outputs(stdout: str, outputs: list[str]) -> dict[str, str]:
    """Digests of the named outputs: the stdout, or files in the working directory."""
    digests = {}
    for name in outputs:
        if name == "stdout":
            digests[name] = _sha256(stdout)
        else:
            with open(name, "rb") as fh:
                digests[name] = _sha256(fh.read())
    return digests


def _main(argv: list[str]) -> str:
    """The CLI's stdout; raises unless it exits 0."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"duallink {' '.join(argv)} exited {code}")
    return stdout.getvalue()


def _run_cli(argv: list[str], outputs: list[str], config: str | None = None) -> dict[str, str]:
    """Run the CLI in a fresh directory; digests of the named outputs."""
    with _in_fresh_directory():
        if config is not None:
            with open("run.cfg", "w") as fh:
                fh.write(config)
            argv = [*argv, "--config", "run.cfg"]
        return _outputs(_main(argv), outputs)


def solve_both() -> dict[str, str]:
    """`duallink solve --scheme both` on the default config."""
    return _run_cli(["solve", "--scheme", "both"], ["stdout"])


def sweep_metrics_both() -> dict[str, str]:
    """`duallink sweep` on the default config with ``metrics = both``."""
    return _run_cli(["sweep"], ["sweep.csv", "sweep.csv.meta"], "metrics = both\n")


def simulate_oma() -> dict[str, str]:
    """`duallink simulate --scheme oma` on the default config."""
    return _run_cli(["simulate", "--scheme", "oma"], ["stdout", "trace.csv"])


def simulate_criterion_4() -> dict[str, str]:
    """`duallink simulate` (mcsc) on the first criterion-4 draws."""
    rng = np.random.default_rng(42)
    digests = {}
    for i in range(CRITERION_4_TRACES):
        scenario, alpha = _random_scenario(rng)
        config = replace(default_config(), scenario=replace(scenario, alpha=alpha),
                         scheme="mcsc", horizon=CRITERION_4_HORIZON, out="trace.csv")
        with _in_fresh_directory():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                cli._run_simulate(config)
            for item, digest in _outputs(stdout.getvalue(), ["stdout", "trace.csv"]).items():
                digests[f"draw {i} {item}"] = digest
    return digests


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in np.ravel(values))


def _kernel_line(res) -> str:
    """Every KernelResult field as text, floats as float.hex."""
    mult = " ".join(f"{key}={_hex(value)}" for key, value in res.multipliers.items())
    return (f"x={_hex(res.x)} value={_hex(res.value)} max_violation={_hex(res.max_violation)} "
            f"kkt_residual={_hex(res.kkt_residual)} newton_iters={res.newton_iters} "
            f"outer_iters={res.outer_iters} status={res.status} {mult}")


def _kernel_runs():
    """(set, label, run) for every allocator run whose kernel results are pinned."""
    config = default_config()
    for alpha in config.grid:
        yield "default grid", f"capacity alpha={alpha}", (
            lambda a=alpha: allocation.capacity_allocation(config.scenario, a))
        yield "default grid", f"gap alpha={alpha}", (
            lambda a=alpha: allocation.sca_power_allocation(config.scenario, a))
    rng = np.random.default_rng(42)
    for i in range(CRITERION_4_DRAWS):
        sc, alpha = _random_scenario(rng)
        yield "criterion-4 draws", f"draw {i} capacity", (
            lambda sc=sc, a=alpha: allocation.capacity_allocation(sc, a))
        yield "criterion-4 draws", f"draw {i} gap", (
            lambda sc=sc, a=alpha: allocation.sca_power_allocation(sc, a, 700.0))
        yield "criterion-4 draws", f"draw {i} stop_when_nonneg", (
            lambda sc=sc, a=alpha: allocation.sca_power_allocation(
                sc, a, 700.0, stop_when_nonneg=True))


def kernel_lines() -> dict[str, list[str]]:
    """The hashed text of every pinned kernel result, one line per solve, by set."""
    results = []
    solve = allocation.solve_maxmin

    def recorded(problem, warm=None):
        res = solve(problem, warm)
        results.append(res)
        return res

    lines: dict[str, list[str]] = {}
    allocation.solve_maxmin = recorded
    try:
        for group, label, run in _kernel_runs():
            del results[:]
            run()
            lines.setdefault(group, []).extend(
                f"{label} solve {k}: {_kernel_line(res)}" for k, res in enumerate(results))
    finally:
        allocation.solve_maxmin = solve
    return lines


def kernel_results() -> dict[str, str]:
    """Digests of the kernel-result lines, one per set."""
    return {group: _sha256("\n".join(text) + "\n") for group, text in kernel_lines().items()}


def simulate_default() -> dict[str, str]:
    """The default `duallink simulate`: trace digest, and stdout with the path as <out>."""
    with _in_fresh_directory():
        stdout = _main(["simulate", "--out", "trace.csv"])
        return {"trace.csv": _outputs(stdout, ["trace.csv"])["trace.csv"],
                "stdout": stdout.replace("trace.csv", "<out>")}


def oracle_default() -> dict[str, str]:
    """`duallink oracle --grid-n 101` on the default config, digit for digit."""
    return {"stdout": _main(["oracle", "--grid-n", "101"])}


def default_grid_newton_steps() -> dict[str, list[int]]:
    """Newton steps of each inner solve of the default grid's capacity runs, by alpha."""
    steps = []
    solve = allocation.solve_maxmin

    def counted(problem, warm=None):
        res = solve(problem, warm)
        steps.append(res.newton_iters)
        return res

    per_alpha = {}
    allocation.solve_maxmin = counted
    try:
        config = default_config()
        for alpha in config.grid:
            del steps[:]
            allocation.capacity_allocation(config.scenario, alpha)
            per_alpha[repr(alpha)] = list(steps)
    finally:
        allocation.solve_maxmin = solve
    return per_alpha


def write_golden_sweep() -> None:
    """Regenerate tests/data/sweep_default.csv with the default `duallink sweep`."""
    with _in_fresh_directory():
        _main(["sweep"])
        shutil.copyfile("sweep.csv", GOLDEN_SWEEP)


# Pin name -> the function that computes its digests; tests/test_pins.py
# checks each.
GROUPS = {
    "solve --scheme both": solve_both,
    "sweep metrics = both": sweep_metrics_both,
    "simulate --scheme oma": simulate_oma,
    "simulate criterion-4 draws": simulate_criterion_4,
    "kernel results": kernel_results,
}
# Pin name -> the function that computes its values; the tests named in the
# module docstring read them.
VALUES = {
    "simulate default": simulate_default,
    "oracle --grid-n 101": oracle_default,
    "default grid newton steps": default_grid_newton_steps,
}


def load() -> dict[str, dict]:
    with open(PINS) as fh:
        return json.load(fh)


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print("usage: python tests/pins.py [--write]", file=sys.stderr)
        return 2
    if not argv:
        for group, text in kernel_lines().items():
            for line in text:
                print(f"{group}: {line}")
    pins = {name: compute() for name, compute in GROUPS.items()}
    for name, digests in pins.items():
        for item, digest in digests.items():
            print(f"{digest}  {name}: {item}")
    values = {name: compute() for name, compute in VALUES.items()}
    for name, items in values.items():
        for item, value in items.items():
            print(f"{name}: {item} = {value!r}")
    if argv:
        with open(PINS, "w") as fh:
            json.dump({**pins, **values}, fh, indent=2)
            fh.write("\n")
        print(f"wrote {PINS}")
        write_golden_sweep()
        print(f"wrote {GOLDEN_SWEEP}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
