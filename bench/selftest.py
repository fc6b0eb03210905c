"""
Self-test of the benchmark itself (not part of the package's test suite).

    python3 bench/selftest.py

Runs each workload's traced run twice on one seed and requires identical
layer counts, and checks that tracing leaves no wrapper behind.  Takes
about two minutes, most of it in the sweep-se passes.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

from spans import REBIND, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    """The metrics that are counts or ratios of counts, not times."""
    return {
        name: m["value"] for name, m in result["metrics"].items()
        if m["unit"] in ("count", "bytes", "ratio") and not name.endswith("self_share")
    }


class TracedCountsRepeat(unittest.TestCase):
    def test_two_traced_runs_give_identical_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = traced_run(workload, 3), traced_run(workload, 3)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertGreater(counts(first)["link.gains.calls"], 0)
                self.assertEqual(counts(first), counts(second))


class TracerRestoresBindings(unittest.TestCase):
    def test_installed_rebinds_then_restores(self):
        import importlib

        sites = [(importlib.import_module(m), attr) for m, attr, _ in REBIND]
        before = [getattr(module, attr) for module, attr in sites]
        with Tracer().installed():
            during = [getattr(module, attr) for module, attr in sites]
        after = [getattr(module, attr) for module, attr in sites]
        self.assertTrue(all(d is not b for d, b in zip(during, before)))
        self.assertEqual(after, before)


if __name__ == "__main__":
    unittest.main()
