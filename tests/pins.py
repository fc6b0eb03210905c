"""
Standing byte-identity pins: SHA-256 digests of CLI outputs and of every
interior-point kernel result on two sets of allocator runs.

    PYTHONPATH=src python tests/pins.py          # print what is hashed, then the digests
    PYTHONPATH=src python tests/pins.py --write  # regenerate tests/data/pins.json

``tests/test_pins.py`` checks every digest in ``tests/data/pins.json``, so a
change meant to keep every output proves it by passing the tests.  A change
that moves a number on purpose regenerates the file with ``--write`` and
lists the moved pins; printing the hashed kernel lines before and after
shows which solve moved.

The pins are bit-level, like ``tests/data/sweep_default.csv``: they were
taken with Python 3.11.7 and numpy 2.4.6 (scipy-openblas 0.3.31), and hold
for that build.  The trace and sweep pins also assume numpy's Generator
streams.

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
import sys
import tempfile

import numpy as np

from duallink import allocation, default_config
from duallink import cli
from test_acceptance import _random_scenario

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "pins.json")
CRITERION_4_DRAWS = 20


def _sha256(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _run_cli(argv: list[str], outputs: list[str], config: str | None = None) -> dict[str, str]:
    """
    Run the CLI in a fresh directory; digests of the named outputs: its
    stdout, or files it writes there.
    """
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if config is not None:
                with open("run.cfg", "w") as fh:
                    fh.write(config)
                argv = [*argv, "--config", "run.cfg"]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"duallink {' '.join(argv)} exited {code}")
            digests = {}
            for name in outputs:
                if name == "stdout":
                    digests[name] = _sha256(stdout.getvalue())
                else:
                    with open(name, "rb") as fh:
                        digests[name] = _sha256(fh.read())
        finally:
            os.chdir(cwd)
    return digests


def solve_both() -> dict[str, str]:
    """`duallink solve --scheme both` on the default config."""
    return _run_cli(["solve", "--scheme", "both"], ["stdout"])


def sweep_metrics_both() -> dict[str, str]:
    """`duallink sweep` on the default config with ``metrics = both``."""
    return _run_cli(["sweep"], ["sweep.csv", "sweep.csv.meta"], "metrics = both\n")


def simulate_oma() -> dict[str, str]:
    """`duallink simulate --scheme oma` on the default config."""
    return _run_cli(["simulate", "--scheme", "oma"], ["stdout", "trace.csv"])


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


# Pin name -> the function that computes its digests.
GROUPS = {
    "solve --scheme both": solve_both,
    "sweep metrics = both": sweep_metrics_both,
    "simulate --scheme oma": simulate_oma,
    "kernel results": kernel_results,
}


def load() -> dict[str, dict[str, str]]:
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
    if argv:
        with open(PINS, "w") as fh:
            json.dump(pins, fh, indent=2)
            fh.write("\n")
        print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
