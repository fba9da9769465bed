"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import sys

import bench
import bench_trace
from coopguide import alignment

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _names(section):
    return {m["name"] for m in SPEC[section]}


def test_minimal_run_yields_every_named_metric():
    untraced = bench.measure_untraced("nlos", 11, seconds=0)
    assert untraced.correct and untraced.attempted == bench.MIN_UNTRACED_REPS
    assert set(untraced.metrics) == _names("end_to_end")
    assert all(v > 0 for v in untraced.metrics.values())

    traced = bench.measure_traced("nlos", 11, seconds=0)
    assert traced.correct and traced.attempted == 1 + bench.MIN_TRACED_REPS
    assert set(traced.metrics) == _names("per_layer")


def test_counts_are_consistent():
    config = bench.make_config("drift_none", 1)
    recorder = bench_trace.SpanRecorder()
    solver = alignment.solve_alignment_arrays.__code__
    solves = 0

    def profile(frame, event, arg):
        nonlocal solves
        if event == "call" and frame.f_code is solver:
            solves += 1

    sys.setprofile(profile)
    try:
        with bench_trace.installed(recorder):
            outcome = bench.run_once(config)
    finally:
        sys.setprofile(None)
    m = bench_trace.layer_metrics(recorder)

    assert not outcome.errors
    assert m["guider.ingest_vio.calls"] == outcome.vio_delivered
    assert m["tracker.update.calls"] >= m["tracker.history_insert.calls"] > 0
    assert m["alignment.solve_realign.calls"] > 0
    assert m["alignment.solve_init.calls"] + m["alignment.solve_realign.calls"] == solves


def test_traced_run_restores_every_wrapped_attribute():
    before = [(t.owner, t.attr, vars(t.owner)[t.attr]) for t in bench_trace.targets()]
    config = bench.make_config("drift_none", 1)
    recorder = bench_trace.SpanRecorder()
    try:
        with bench_trace.installed(recorder):
            assert all(vars(owner)[attr] is not raw for owner, attr, raw in before)
            bench.run_once(config)
            raise KeyboardInterrupt  # restoration must survive any exit
    except KeyboardInterrupt:
        pass
    assert all(vars(owner)[attr] is raw for owner, attr, raw in before)
    assert recorder.names


def test_self_time_excludes_children():
    recorder = bench_trace.SpanRecorder()
    inner = recorder.wrap("inner", lambda: sum(range(10000)))
    outer = recorder.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    total = recorder.durations()
    self_s = recorder.self_times()
    assert len(total["inner"]) == 3 and recorder.parents == [-1, 0, 0, 0]
    assert abs(self_s["outer"] - (total["outer"][0] - sum(total["inner"]))) < 1e-12
    assert self_s["inner"] == sum(total["inner"])
