"""Workloads, the measured `run` pipeline and the measurement loops.

One repetition is ``coopguide run`` without the disk write, in this
process: ``build_config`` (done once, timed separately as set-up) then
``run_scenario`` -> ``EventLog.dumps`` -> ``EventLog.loads`` ->
``evaluate_log``.  Every pipeline call goes through the module attribute
(``simulator.run_scenario``, ...) so the traced pass can wrap it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

import numpy
import scipy

from coopguide import evaluation, simulator
from coopguide.config import ScenarioConfig, build_config, load_config_file

import bench_trace
from host_speed import REFERENCE_S, timed_reference, to_reference_speed

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

#: distinct scenario seeds per untraced run; accuracy is their mean, which
#: narrows the seed-to-seed spread of the accuracy metrics
SUB_SEEDS = 16
SUB_SEED_STRIDE = 1000
#: every sub-seed runs once, and the first twice so determinism is checked
MIN_UNTRACED_REPS = SUB_SEEDS + 1
MIN_TRACED_REPS = 2
SETUP_REPEATS = 11


@dataclass(frozen=True)
class Workload:
    config: str                    # relative to the repository root
    overrides: Mapping[str, Any]


#: One lap of each config: the configs fly identical laps, so one lap keeps
#: each workload's mechanism, and ~1 s repetitions give each run 20-40 samples
#: of host speed (see host_speed.py).  Why each workload was chosen:
#: README.md and BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    "drift_high": Workload("configs/drift_sweep.cfg",
                           {"trajectory.laps": 1, "vio_drift.x": 0.8}),
    "drift_none": Workload("configs/drift_sweep.cfg",
                           {"trajectory.laps": 1, "vio_drift.x": 0.0}),
    "nlos": Workload("configs/nlos.cfg", {"trajectory.laps": 1}),
}


def sub_seeds(seed: int) -> list[int]:
    return [seed + SUB_SEED_STRIDE * j for j in range(SUB_SEEDS)]


def _overrides(name: str) -> dict[str, Any]:
    workload = WORKLOADS[name]
    overrides = load_config_file(str(ROOT / workload.config))
    overrides.update(workload.overrides)
    return overrides


def default_seed(name: str) -> int:
    return build_config(_overrides(name)).seed


def make_config(name: str, seed: int) -> ScenarioConfig:
    return build_config(_overrides(name), seed=seed)


# ---------------------------------------------------------------------------
# one repetition


@dataclass
class RunOutcome:
    """What one pipeline repetition produced, minus the large objects."""

    seed: int
    wall_s: float
    digest: str
    rel_loc_rmse: float
    path_dev: float
    end_t: float
    log_bytes: int
    log_records: int
    vio_delivered: int
    errors: list[str] = field(default_factory=list)


def run_once(config: ScenarioConfig) -> RunOutcome:
    """Time one pipeline repetition, then check its outputs."""
    start = time.perf_counter()
    log = simulator.run_scenario(config)
    text = log.dumps()
    loaded = simulator.EventLog.loads(text)
    report = evaluation.evaluate_log(loaded)
    wall_s = time.perf_counter() - start

    errors = []
    if loaded.records != log.records:
        errors.append("EventLog.loads(dumps()) does not reproduce the records")
    if report.failure:
        errors.append("scenario aborted with FAIL")
    if not (math.isfinite(report.rel_loc_rmse) and math.isfinite(report.mean_path_deviation)):
        errors.append("non-finite accuracy metric")
    end_t = log.records[-1][1]
    # VIO samples arriving after the last tick are logged but never delivered
    vio_delivered = sum(1 for r in log.records if r[0] == "VIO" and r[2] <= end_t + 1e-9)
    data = text.encode("utf-8")
    return RunOutcome(
        seed=config.seed,
        wall_s=wall_s,
        digest=hashlib.sha256(data).hexdigest(),
        rel_loc_rmse=report.rel_loc_rmse,
        path_dev=report.mean_path_deviation,
        end_t=end_t,
        log_bytes=len(data),
        log_records=len(log.records),
        vio_delivered=vio_delivered,
        errors=errors,
    )


def _attempt(config: ScenarioConfig, recorder: Optional[bench_trace.SpanRecorder] = None
             ) -> Optional[RunOutcome]:
    """One repetition, traced when ``recorder`` is given; None if it raised."""
    try:
        if recorder is None:
            return run_once(config)
        with bench_trace.installed(recorder):
            return run_once(config)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Measurement:
    metrics: dict[str, float]
    attempted: int
    failed: int
    context: dict[str, Any]
    samples: dict[str, list[float]]
    recorder: Optional[bench_trace.SpanRecorder] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0


class _Tally:
    """Counts attempts and failures; checks byte determinism per seed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}

    def record(self, outcome: Optional[RunOutcome], extra_errors=()) -> bool:
        self.attempted += 1
        if outcome is None:
            self.failed += 1
            return False
        errors = list(outcome.errors) + list(extra_errors)
        first = self.digests.setdefault(outcome.seed, outcome.digest)
        if outcome.digest != first:
            errors.append(f"seed {outcome.seed}: dumps() sha256 differs between repetitions")
        for err in errors:
            print(f"check failed: {err}", file=sys.stderr)
        if errors:
            self.failed += 1
        return not errors


def _more(start: float, seconds: float, last_cycle: float) -> bool:
    """Whether another repetition of ~last_cycle fits in the time budget."""
    return time.perf_counter() - start + last_cycle <= seconds


def measure_setup(name: str, seed: int) -> list[float]:
    """Fresh-process import + config build times at reference speed.

    One discarded warm-up first fills the bytecode and file caches, which a
    user's second invocation finds warm too.
    """
    workload = WORKLOADS[name]
    args = [sys.executable, str(PROBE), str(ROOT), str(ROOT / workload.config),
            json.dumps(dict(workload.overrides)), str(seed)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(args, capture_output=True, text=True, timeout=120, check=True)
        if i:
            elapsed, ref_a, ref_b = map(float, done.stdout.split()[-3:])
            times.append(to_reference_speed(elapsed, ref_a, ref_b))
    return times


def context(name: str, seed: int, outcome: RunOutcome, config: ScenarioConfig) -> dict[str, Any]:
    """Where and on what the numbers were measured; compare only like hosts."""
    return {
        "workload": name,
        "seed": seed,
        "simulated_s": outcome.end_t,
        "ticks": round(outcome.end_t * config["scenario.tick_rate"]),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "reference_s": REFERENCE_S,
    }


def measure_untraced(name: str, seed: int, seconds: float) -> Measurement:
    """End-to-end metrics: set-up, wall time, peak RSS, accuracy.

    After set-up, repetitions cycle through the sub-seeds until the time
    budget is spent; each is timed between two reference timings and
    rescaled to reference speed.
    """
    setup = measure_setup(name, seed)
    configs = [make_config(name, s) for s in sub_seeds(seed)]
    start = time.perf_counter()
    tally = _Tally()
    host_walls: list[float] = []
    walls: list[float] = []
    accuracy: dict[int, tuple[float, float]] = {}
    first: Optional[RunOutcome] = None
    before = timed_reference()
    last_cycle = 0.0
    rep = 0
    while rep < MIN_UNTRACED_REPS or _more(start, seconds, last_cycle):
        cycle_start = time.perf_counter()
        outcome = _attempt(configs[rep % SUB_SEEDS])
        after = timed_reference()
        rep += 1
        last_cycle = time.perf_counter() - cycle_start
        if tally.record(outcome):
            host_walls.append(outcome.wall_s)
            walls.append(to_reference_speed(outcome.wall_s, before, after))
            accuracy.setdefault(outcome.seed, (outcome.rel_loc_rmse, outcome.path_dev))
            first = first or outcome
        before = after
    if first is None:
        raise RuntimeError("no repetition completed its output checks")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rel_loc_rmse_m": statistics.fmean(a[0] for a in accuracy.values()),
        "path_dev_m": statistics.fmean(a[1] for a in accuracy.values()),
    }
    ctx = context(name, seed, first, configs[0])
    ctx["sub_seeds"] = sorted(accuracy)
    return Measurement(metrics, tally.attempted, tally.failed, ctx,
                       {"setup_s": setup, "wall_s": walls, "host_wall_s": host_walls})


def measure_traced(name: str, seed: int, seconds: float) -> Measurement:
    """Per-layer metrics from traced repetitions, plus the tracing overhead.

    Untraced and traced repetitions of one seed alternate (U T T U T ...);
    all must produce the same log bytes, and every count must repeat.  Times
    are rescaled to reference speed like the end-to-end wall time.
    """
    start = time.perf_counter()
    config = make_config(name, seed)
    tally = _Tally()
    untraced: list[float] = []
    traced: list[dict[str, float]] = []
    first: Optional[RunOutcome] = None
    recorder: Optional[bench_trace.SpanRecorder] = None
    before = timed_reference()
    last_cycle = 0.0
    rep = 0
    while rep < 1 + MIN_TRACED_REPS or _more(start, seconds, last_cycle):
        is_traced = rep in (1, 2) or (rep > 2 and rep % 2 == 0)
        cycle_start = time.perf_counter()
        rec = bench_trace.SpanRecorder() if is_traced else None
        outcome = _attempt(config, rec)
        after = timed_reference()
        rep += 1
        last_cycle = time.perf_counter() - cycle_start
        scale = to_reference_speed(1.0, before, after)
        before = after
        errors = []
        if rec is not None and outcome is not None:
            layers = bench_trace.layer_metrics(rec, scale)
            layers["simulator.log_bytes"] = outcome.log_bytes
            layers["simulator.log_records"] = outcome.log_records
            layers["trace.wall_s"] = outcome.wall_s * scale
            if layers["guider.ingest_vio.calls"] != outcome.vio_delivered:
                errors.append(f"guider.ingest_vio.calls = {layers['guider.ingest_vio.calls']} "
                              f"but {outcome.vio_delivered} VIO records were delivered")
            if traced:
                errors += [f"{key} = {layers[key]} differs from {traced[0][key]} "
                           "in an earlier traced repetition"
                           for key in bench_trace.COUNT_METRICS
                           if layers[key] != traced[0][key]]
        if tally.record(outcome, errors):
            first = first or outcome
            if rec is None:
                untraced.append(outcome.wall_s * scale)
            else:
                traced.append(layers)
                recorder = rec
    if not traced or not untraced:
        raise RuntimeError("no traced or untraced repetition completed its output checks")
    # counts repeat exactly (checked above); times are medians
    metrics = {key: value if key in bench_trace.COUNT_METRICS
               else statistics.median(t[key] for t in traced)
               for key, value in traced[0].items()}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    # a ratio, not a difference: the difference of two noisy medians of
    # nearly equal times reads 0 or below 0
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"]
    return Measurement(metrics, tally.attempted, tally.failed,
                       context(name, seed, first, config),
                       {"untraced_wall_s": untraced,
                        "traced_wall_s": [t["trace.wall_s"] for t in traced]},
                       recorder)
