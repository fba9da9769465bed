"""The names perfbench/bench_trace.py wraps must exist where it wraps them,
and the pipeline must still call them.

The traced benchmark pass replaces each ``targets()`` attribute on its owner
module or class for the duration of a run, so renaming or inlining one of
them breaks the benchmark, and a wrapped name the pipeline no longer calls
reads as a layer metric of zero.  These guards run in the tier-1 suite.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from coopguide import evaluation, simulator
from coopguide.config import build_config, load_config_file

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "perfbench" / "bench_trace.py"


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


def test_one_traced_nlos_lap_reaches_every_wrapped_layer():
    # one lap of nlos.cfg at its own seed runs init solves, realignments and
    # false-target association, so each layer the benchmark reports is called
    bench_trace = _bench_trace()
    overrides = load_config_file(str(ROOT / "configs" / "nlos.cfg"))
    overrides["trajectory.laps"] = 1
    config = build_config(overrides)
    recorder = bench_trace.SpanRecorder()
    with bench_trace.installed(recorder):
        log = simulator.run_scenario(config)
        evaluation.evaluate_log(simulator.EventLog.loads(log.dumps()))
    spans = Counter(recorder.names)
    silent = sorted({t.span for t in bench_trace.targets() if t.span} - set(spans))
    assert silent == []
    # the two count-only hooks: accepted init and realignment solves
    assert recorder.counts["alignment.init_accepted"] >= 1
    assert recorder.counts["guider.realign.accepted"] >= 1
    # one output and one streamed batch per reference tick
    assert spans["guider.current_output"] == spans["guider.transform_and_stream"] > 0
