"""Tooling test: every name the traced benchmark rebinds still exists."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_bench_rebind_targets_resolve():
    # bench/run.py --trace 1 rebinds these module globals; a refactor that
    # drops or renames one would break the traced run.
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.REBIND
    missing = [(module, name) for module, name, _ in spans.REBIND
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
