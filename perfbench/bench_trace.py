"""Span recorder and layer wrappers for the traced benchmark pass.

Each wrapper is installed at the attribute its caller looks up, e.g.
``coopguide.guider.solve_alignment_arrays`` (realignment) and
``coopguide.tracker.solve_alignment_arrays`` (initialization), and only for
the duration of :func:`installed`; untraced runs execute unpatched code.
``coopguide.geometry`` is deliberately not wrapped: ``wrap_heading`` alone
is called ~258k times per run, so a wrapper would distort its callers.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from coopguide import evaluation, guider, simulator, tracker


class SpanRecorder:
    """In-memory spans (name, start, end, parent) plus event counters.

    Spans are kept as parallel lists indexed by span id; ``parents[i]`` is
    the id of the span open when span ``i`` started, or -1.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, func: Callable,
             on_result: Optional[Callable[[Counter, Any], None]] = None,
             on_error: Optional[Callable[[Counter, BaseException], None]] = None) -> Callable:
        """Return ``func`` wrapped in a span named ``name``.

        ``on_result(counts, result)`` / ``on_error(counts, exc)`` run after
        the span closes, so counter bookkeeping is not charged to the layer.
        """
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack, counts = self.parents, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                ends[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(counts, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        return wrapper

    def count_only(self, func: Callable, on_result: Callable[[Counter, Any], None]) -> Callable:
        """Wrap ``func`` with a counter hook but no span (for cheap predicates)."""
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            on_result(counts, result)
            return result

        return wrapper

    # -- derived views ---------------------------------------------------

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end in zip(self.names, self.starts, self.ends):
            out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Per name: summed duration minus the time covered by child spans."""
        child = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += self.ends[i] - self.starts[i] - child[i]
        return out

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV: id,parent,name,start_s,end_s.

        Times are relative to the first span's start.
        """
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")


# ---------------------------------------------------------------------------
# wrapped layer entry points


def _count_adopted(counts: Counter, result) -> None:
    if result is not None:
        counts["guider.reinit.adopted"] += 1


def _count_gate(counts: Counter, decision) -> None:
    if decision.accepted:
        counts["tracker.gate.accepted"] += 1


def _count_iterations(counts: Counter, result) -> None:
    counts["alignment.lm_iterations"] += result.iterations


def _count_stale(counts: Counter, exc: BaseException) -> None:
    if isinstance(exc, tracker.StaleMeasurementError):
        counts["tracker.history_insert.stale"] += 1


def _passes(key: str) -> Callable[[Counter, bool], None]:
    def hook(counts: Counter, passed: bool) -> None:
        if passed:
            counts[key] += 1
    return hook


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``span`` None means count-only."""

    owner: Any
    attr: str
    span: Optional[str]
    on_result: Optional[Callable] = None
    on_error: Optional[Callable] = None


def targets() -> list[Target]:
    """The attributes the traced pass wraps, at the module/class callers use."""
    G, H, E = guider.Guider, tracker.HistoryBuffer, simulator.EventLog
    return [
        Target(simulator, "run_scenario", "simulator.run_scenario"),
        Target(simulator, "plant_step", "simulator.plant_step"),
        Target(simulator, "lidar_detect", "simulator.lidar_detect"),
        Target(E, "dumps", "simulator.dumps"),
        Target(E, "loads", "simulator.loads"),
        Target(G, "ingest_vio", "guider.ingest_vio"),
        Target(G, "ingest_detections", "guider.ingest_detections"),
        Target(G, "current_output", "guider.current_output"),
        Target(G, "transform_and_stream", "guider.transform_and_stream"),
        Target(G, "_realign", "guider.realign"),
        Target(guider, "try_initialize", "tracker.try_initialize", _count_adopted),
        Target(guider, "associate", "tracker.associate", _count_gate),
        Target(guider, "build_correspondence_arrays", "alignment.build_correspondences"),
        Target(guider, "solve_alignment_arrays", "alignment.solve_realign", _count_iterations),
        Target(guider, "degeneracy_check", None, _passes("guider.realign.accepted")),
        Target(tracker, "build_correspondence_arrays", "alignment.build_correspondences"),
        Target(tracker, "solve_alignment_arrays", "alignment.solve_init", _count_iterations),
        Target(tracker, "degeneracy_check", None, _passes("alignment.init_accepted")),
        Target(H, "insert", "tracker.history_insert", on_error=_count_stale),
        Target(H, "estimate_at", "tracker.estimate_at"),
        Target(tracker, "predict", "tracker.predict"),
        Target(tracker, "update", "tracker.update"),
        Target(evaluation, "evaluate_log", "evaluation.evaluate_log"),
    ]


@contextlib.contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every wrapper for the block, restoring the originals after."""
    saved = []
    try:
        for target in targets():
            raw = vars(target.owner)[target.attr]
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            if target.span is None:
                wrapped = recorder.count_only(func, target.on_result)
            else:
                wrapped = recorder.wrap(target.span, func, target.on_result, target.on_error)
            saved.append((target.owner, target.attr, raw))
            setattr(target.owner, target.attr,
                    classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
        yield recorder
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# per-layer metrics


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: per-layer metrics that are counts or ratios of counts; they must repeat
#: exactly between runs of the same seed
COUNT_METRICS = (
    "simulator.plant_step.calls", "simulator.lidar_detect.calls",
    "simulator.log_bytes", "simulator.log_records",
    "guider.ingest_vio.calls", "guider.ingest_detections.calls",
    "guider.current_output.calls", "guider.transform_and_stream.calls",
    "guider.reinit.calls", "guider.reinit.adopted",
    "guider.realign.calls", "guider.realign.accepted",
    "tracker.history_insert.calls", "tracker.history_insert.stale",
    "tracker.estimate_at.calls", "tracker.predict.calls", "tracker.update.calls",
    "tracker.replay_ratio", "tracker.associate.calls", "tracker.gate.accept_ratio",
    "alignment.solve_init.calls", "alignment.solve_realign.calls",
    "alignment.lm_iterations", "alignment.accept_ratio",
    "alignment.build_correspondences.calls",
)


def layer_metrics(recorder: SpanRecorder, scale: float = 1.0) -> dict[str, float]:
    """Per-layer calls, busy seconds, self seconds, latency tails and ratios.

    Every time is multiplied by ``scale`` (host seconds to reported seconds).
    """
    durations = recorder.durations()
    self_s = recorder.self_times()
    counts = recorder.counts

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    def busy(name: str) -> float:
        return math.fsum(durations.get(name, ())) * scale

    m: dict[str, float] = {
        "simulator.run_scenario.s": busy("simulator.run_scenario"),
        "simulator.loop.self_s": self_s.get("simulator.run_scenario", 0.0) * scale,
    }
    for name in ("simulator.plant_step", "simulator.lidar_detect",
                 "guider.current_output", "guider.transform_and_stream",
                 "tracker.estimate_at", "tracker.predict", "tracker.update",
                 "tracker.associate", "alignment.solve_init",
                 "alignment.solve_realign", "alignment.build_correspondences"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = busy(name)
    m["simulator.dumps.s"] = busy("simulator.dumps")
    m["simulator.loads.s"] = busy("simulator.loads")
    for name in ("guider.ingest_vio", "guider.ingest_detections"):
        ordered = sorted(durations.get(name, ()))
        m[f"{name}.calls"] = len(ordered)
        m[f"{name}.s"] = busy(name)
        m[f"{name}.self_s"] = self_s.get(name, 0.0) * scale
        m[f"{name}.p50_us"] = _quantile(ordered, 0.50) * scale * 1e6
        m[f"{name}.p99_us"] = _quantile(ordered, 0.99) * scale * 1e6
    m["guider.reinit.calls"] = calls("tracker.try_initialize")
    m["guider.reinit.adopted"] = counts["guider.reinit.adopted"]
    m["guider.realign.calls"] = calls("guider.realign")
    m["guider.realign.accepted"] = counts["guider.realign.accepted"]
    m["tracker.history_insert.calls"] = calls("tracker.history_insert")
    m["tracker.history_insert.s"] = busy("tracker.history_insert")
    m["tracker.history_insert.stale"] = counts["tracker.history_insert.stale"]
    m["tracker.replay_ratio"] = _ratio(m["tracker.update.calls"],
                                       m["tracker.history_insert.calls"])
    m["tracker.gate.accept_ratio"] = _ratio(counts["tracker.gate.accepted"],
                                            m["tracker.associate.calls"])
    m["tracker.try_initialize.s"] = busy("tracker.try_initialize")
    m["alignment.lm_iterations"] = counts["alignment.lm_iterations"]
    solves = m["alignment.solve_init.calls"] + m["alignment.solve_realign.calls"]
    m["alignment.accept_ratio"] = _ratio(
        counts["alignment.init_accepted"] + counts["guider.realign.accepted"], solves)
    m["evaluation.evaluate_log.s"] = busy("evaluation.evaluate_log")
    return m
