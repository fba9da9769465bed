"""The names perfbench/bench_trace.py wraps must exist where it wraps them.

The traced benchmark pass replaces each ``targets()`` attribute on its owner
module or class for the duration of a run, so renaming or inlining one of
them breaks the benchmark.  This guard runs in the tier-1 suite.
"""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"


def _bench_trace():
    spec = importlib.util.spec_from_file_location("_bench_trace_under_test", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_name_is_an_attribute_of_its_owner():
    targets = _bench_trace().targets()
    assert targets
    missing = [f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}"
               for t in targets if t.attr not in vars(t.owner)]
    assert missing == []
