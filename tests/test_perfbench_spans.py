"""The benchmark's traced spans name functions that exist, so removing or
renaming a traced layer shows up here instead of as a silently absent span."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# spans of functions that were fused away; the next change to the benchmark drops them
ALWAYS_ABSENT = {"model.equivariant_layernorm_so3", "autodiff.exact_sum",
                 "autodiff.paste_blocks"}


def test_every_span_names_a_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = {f"{module}.{name}" for module, name in tracing.SPANS
               if not callable(getattr(importlib.import_module(f"so2frames.{module}"),
                                       name, None))}
    assert missing <= ALWAYS_ABSENT
