"""The benchmark's per-layer table must name code that still exists."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    importlib.import_module("hopfchar.cli")
    spans = _load_spans()
    missing = [prefix for prefix, module, attribute, _ in spans.TARGETS
               if not spans._resolve(sys.modules.get(f"hopfchar.{module}"), attribute)]
    assert missing == []
