"""Scenario engine: sensors, drift, plant, determinism, frame conservation."""

import heapq
import math
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from coopguide import eventlog, simulator
from coopguide.config import ConfigError, build_config, load_config_file
from coopguide.eventlog import EventLog, LogParseError, streamed_references
from coopguide.geometry import Frame, rot_z, wrap_heading
from coopguide.guider import GuiderStatus
from coopguide.paths import Trajectory, generate_trajectory, polyline_distance
from coopguide.simulator import (
    DRAW_BLOCK,
    PlantParams,
    PlantState,
    ReferenceBatch,
    _draws,
    drift_offsets,
    lidar_detect,
    line_of_sight,
    plant_step,
    primary_pose,
    run_scenario,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RNG = np.random.default_rng(0)


def _bits(*values) -> bytes:
    """The exact IEEE bits of floats and float arrays, in order."""
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


# ---------------------------------------------------------------------------
# random sub-streams and drift


def _drift_oracle(rate, sigma, rng, dt, n):
    """The offsets at ticks 0..n-1, stepped one tick and one ``standard_normal``
    call at a time: the per-tick arithmetic that ``drift_offsets`` sums in
    blocks."""
    (rx, ry, rz), offset = rate, (0.0, 0.0, 0.0)
    out = [offset]
    for _ in range(n - 1):
        ox, oy, oz = offset
        ox, oy, oz = ox + rx * dt, oy + ry * dt, oz + rz * dt
        if sigma > 0.0:
            scale = sigma * math.sqrt(dt)
            nx, ny, nz = rng.standard_normal(3).tolist()
            ox, oy, oz = ox + scale * nx, oy + scale * ny, oz + scale * nz
        offset = (ox, oy, oz)
        out.append(offset)
    return out


def _config_offsets(cfg):
    """The drift offset series of a run of ``cfg``, as ``run_scenario`` reads it."""
    v = cfg.values
    return drift_offsets((v["vio_drift.x"], v["vio_drift.y"], v["vio_drift.z"]),
                         v["vio_drift.sigma"],
                         simulator._stream_rng(cfg.seed, simulator._STREAM_DRIFT),
                         1.0 / v["scenario.tick_rate"])


def test_draws_equal_one_call_per_value():
    n = 3 * DRAW_BLOCK + 7
    for method, args, shape in (("random", (), ()), ("normal", (0.0, 0.3), (3,)),
                                ("standard_normal", (), (3,))):
        blocked = _draws(partial(getattr(np.random.default_rng(5), method), *args), shape)
        rng = np.random.default_rng(5)
        want = [getattr(rng, method)(*args, size=shape or None) for _ in range(n)]
        got = list(islice(blocked, n))
        assert all(type(x) is float for g in got for x in (g if shape else [g])), method
        assert _bits(*got) == _bits(*want), method


@pytest.mark.parametrize("rate, sigma", [((0.3, -0.2, 0.05), 0.0),
                                         ((0.0, 0.0, 0.0), 0.04),
                                         ((0.3, -0.2, 0.05), 0.04)])
def test_drift_offsets_equal_the_per_tick_oracle(rate, sigma):
    dt, rng = 0.02, np.random.default_rng(9)
    got = list(islice(drift_offsets(rate, sigma, rng, dt), 600))
    want = _drift_oracle(rate, sigma, np.random.default_rng(9), dt, 600)
    assert _bits(*got) == _bits(*want)
    assert got[0] == [0.0, 0.0, 0.0]
    if sigma == 0.0:   # a rate-only series leaves its generator undrawn
        assert rng.bit_generator.state == np.random.default_rng(9).bit_generator.state


def test_vio_sample_constant_drift_accumulates_linearly():
    offsets = drift_offsets([0.1, 0.0, 0.0], 0.0, np.random.default_rng(1), 0.01)
    series = np.array(list(islice(offsets, 1001)))   # ticks 0..1000: 10 s at 100 Hz
    assert np.allclose(series[-1], [1.0, 0.0, 0.0], atol=1e-9)
    # VIO-perceived velocity includes the drift rate
    assert np.allclose(np.diff(series, axis=0) / 0.01, [0.1, 0.0, 0.0])


def test_random_walk_drift_variance_growth():
    # offset variance after t seconds is sigma^2 * t; Monte Carlo against the
    # direct sampling oracle of the terminal distribution
    sigma = 0.05
    t_final = 100.0
    n_paths = 2000
    steps = 400
    dt = t_final / steps
    finals = np.empty(n_paths)
    for i in range(n_paths):
        rng = np.random.default_rng(10_000 + i)
        # the offset after `steps` ticks: its draws are the first 400 of 512
        offsets = drift_offsets((0.0, 0.0, 0.0), sigma, rng, dt)
        finals[i] = next(islice(offsets, steps, None))[0]
    var = float(np.var(finals))
    oracle = sigma ** 2 * t_final  # 0.25
    assert abs(var - oracle) < 0.05 * 5  # CI half-width ~ oracle*sqrt(2/n)*3


# ---------------------------------------------------------------------------
# lidar_detect and occlusion


def _noise(seed, sigma):
    """A detection-noise sub-stream as ``run_scenario`` reads it."""
    return _draws(partial(np.random.default_rng(seed).normal, 0.0, sigma), (3,))


def test_lidar_detect_noise_within_3_sigma():
    sigma = 0.1
    noise = _noise(2, sigma)
    hits = 0
    n = 2000
    for _ in range(n):
        dets = lidar_detect(0.0, np.array([1.0, 2.0, 3.0]), np.zeros(3),
                            (), (), noise, sigma)
        err = np.linalg.norm(np.array(dets[0][1:4]) - [1, 2, 3])
        if err < 3 * sigma * math.sqrt(3):
            hits += 1
    assert hits / n > 0.99


def test_lidar_detect_occluded_target_emits_nothing():
    wall = (-1.0, 1.0, 1.0, 1.0)  # segment y=1, x in [-1, 1]
    dets = lidar_detect(0.0, np.array([0.0, 2.0, 1.0]), np.zeros(3),
                        (), (wall,), _noise(3, 0.1), 0.1)
    assert dets == []
    # move the primary to the side: line of sight restored
    dets = lidar_detect(0.0, np.array([0.0, 2.0, 1.0]), np.array([5.0, 0.0, 0.0]),
                        (), (wall,), _noise(3, 0.1), 0.1)
    assert len(dets) == 1 and dets[0].track_id == 0


def test_lidar_detect_false_targets_have_distinct_ids():
    dets = lidar_detect(0.0, np.array([0.0, 2.0, 1.0]), np.zeros(3),
                        ((5.0, 5.0, 1.0), (-5.0, 5.0, 1.0)), (),
                        _noise(4, 0.1), 0.1)
    assert sorted(d.track_id for d in dets) == [0, 1, 2]


def test_line_of_sight_basics():
    wall = (-1.0, 1.0, 1.0, 1.0)
    assert not line_of_sight((0.0, 0.0), (0.0, 2.0), (wall,))
    assert line_of_sight((0.0, 0.0), (2.0, 0.5), (wall,))


# ---------------------------------------------------------------------------
# plant


def _refs(points):
    stamps, positions, headings = zip(*points)
    return ReferenceBatch(Trajectory(Frame.VIO, stamps, positions, headings))


def test_plant_step_equilibrium():
    params = PlantParams()
    state = PlantState(np.array([1.0, 1.0, 1.0]), 0.0, np.zeros(3), 0.0)
    refs = _refs([(0.0, [1, 1, 1], 0.0)])
    out = plant_step(state, refs, 0.5, 0.01, params)
    assert np.allclose(out.position, [1, 1, 1])
    assert np.allclose(out.velocity, 0.0)


def test_plant_step_first_order_response():
    params = PlantParams(time_constant=0.5, max_speed=100.0)
    state = PlantState(np.zeros(3), 0.0, np.zeros(3), 0.0)
    refs = _refs([(0.0, [1, 0, 0], 0.0)])
    dt = 0.001
    t = 0.0
    for _ in range(500):  # 0.5 s = one time constant
        state = plant_step(state, refs, t, dt, params)
        t += dt
    assert state.position[0] == pytest.approx(1 - math.exp(-1.0), abs=0.005)


def test_plant_step_velocity_saturation():
    params = PlantParams(time_constant=0.5, max_speed=2.0)
    state = PlantState(np.zeros(3), 0.0, np.zeros(3), 0.0)
    refs = _refs([(0.0, [10, 0, 0], 0.0)])
    t = 0.0
    for _ in range(200):
        state = plant_step(state, refs, t, 0.01, params)
        assert np.linalg.norm(state.velocity) <= 2.0 + 1e-12
        t += 0.01


def test_plant_step_requires_positive_dt():
    with pytest.raises(ValueError):
        plant_step(PlantState(np.zeros(3), 0.0, np.zeros(3), 0.0), (), 0.0, 0.0,
                   PlantParams())


def numpy_interp_refs(refs, t):
    """The reference interpolation on the batch's arrays, as before its
    float lists (oracle)."""
    stamps = refs.stamps
    hi = int(stamps.searchsorted(t, side="right"))
    if hi == len(stamps):
        return refs.positions[-1].tolist(), float(refs.headings[-1])
    if hi <= 1 and t <= stamps[0]:
        return refs.positions[0].tolist(), float(refs.headings[0])
    s0, s1 = stamps[hi - 1:hi + 1].tolist()
    h0, h1 = refs.headings[hi - 1:hi + 1].tolist()
    (x0, y0, z0), (x1, y1, z1) = refs.positions[hi - 1:hi + 1].tolist()
    u = (t - s0) / (s1 - s0)
    pos = [x0 + u * (x1 - x0), y0 + u * (y1 - y0), z0 + u * (z1 - z0)]
    return pos, wrap_heading(h0 + u * wrap_heading(h1 - h0))


def numpy_plant_step(state, refs, t, dt, params):
    """``plant_step`` on array state and the batch's arrays, as before its
    float path (oracle)."""
    p = np.asarray(state.position, dtype=float)
    if not refs:
        return PlantState(p, state.heading, np.zeros(3), 0.0)
    target, target_heading = numpy_interp_refs(refs, t)
    inv_tau = 1.0 / params.time_constant
    v = (np.asarray(target) - p) * inv_tau
    speed = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if speed > params.max_speed:
        v = v * (params.max_speed / speed)
    rate = wrap_heading(target_heading - state.heading) * inv_tau
    rate = max(-params.max_heading_rate, min(params.max_heading_rate, rate))
    return PlantState(p + v * dt, wrap_heading(state.heading + rate * dt), v, rate)


def test_plant_step_is_bit_identical_to_the_array_update():
    rng = np.random.default_rng(71)
    saturated = 0
    for case in range(300):
        params = PlantParams(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.2, 3.0)),
                             float(rng.uniform(0.1, 2.0)))
        n = int(rng.integers(1, 6))
        stamps = np.cumsum(rng.uniform(0.05, 0.5, n))
        refs = None if case % 10 == 0 else Trajectory(
            Frame.VIO, stamps, rng.normal(0.0, 3.0, (n, 3)), rng.uniform(-math.pi, math.pi, n))
        state = PlantState(tuple(rng.normal(0.0, 3.0, 3).tolist()),
                           float(rng.uniform(-math.pi, math.pi)), (0.0, 0.0, 0.0), 0.0)
        t = float(rng.uniform(stamps[0] - 0.2, stamps[-1] + 0.2))
        for _ in range(20):
            dt = float(rng.uniform(0.001, 0.05))
            got = plant_step(state, refs and ReferenceBatch(refs), t, dt, params)
            want = numpy_plant_step(state, refs, t, dt, params)
            assert _bits(got.position, got.heading, got.velocity, got.heading_rate) == \
                _bits(want.position, want.heading, want.velocity, want.heading_rate)
            saturated += math.hypot(*got.velocity) >= params.max_speed - 1e-12
            state, t = got, t + dt
    assert saturated > 100


def test_drift_models_step_bit_identical_to_the_array_updates():
    # the rate-only drift shares the walk's generator: it must draw nothing
    rng = np.random.default_rng(72)
    for case in range(20):
        rate = rng.normal(0.0, 1.0, 3)
        sigma = float(rng.uniform(0.0, 1.0))
        dt = float(rng.uniform(0.001, 0.1))
        rng_walk, rng_ref = np.random.default_rng(case), np.random.default_rng(case)
        rng_both, rng_both_ref = np.random.default_rng(case), np.random.default_rng(case)
        constant = drift_offsets(rate, 0.0, rng_walk, dt)
        walk = drift_offsets((0.0, 0.0, 0.0), sigma, rng_walk, dt)
        both = drift_offsets(rate, sigma, rng_both, dt)
        constant_ref = walk_ref = both_ref = np.zeros(3)
        assert next(constant) == next(walk) == next(both) == [0.0, 0.0, 0.0]
        for _ in range(200):
            constant_ref = constant_ref + rate * dt
            walk_ref = walk_ref + sigma * math.sqrt(dt) * rng_ref.standard_normal(3)
            both_ref = ((both_ref + rate * dt)
                        + sigma * math.sqrt(dt) * rng_both_ref.standard_normal(3))
            assert _bits(next(constant)) == _bits(constant_ref)
            assert _bits(next(walk)) == _bits(walk_ref)
            assert _bits(next(both)) == _bits(both_ref)


# ---------------------------------------------------------------------------
# motion patterns


def test_primary_square_pattern_stays_on_perimeter():
    v = build_config({}).values
    half = v["primary.size"] / 2
    cx, cy, cz = v["primary.center"]
    for t in np.linspace(0, 60, 500):
        pos, _ = primary_pose(v, float(t))
        on_x = abs(abs(pos[0] - cx) - half) < 1e-9
        on_y = abs(abs(pos[1] - cy) - half) < 1e-9
        assert on_x or on_y
        assert abs(pos[0] - cx) <= half + 1e-9 and abs(pos[1] - cy) <= half + 1e-9
        assert pos[2] == cz


def test_primary_line_pattern_ping_pongs():
    v = build_config({"primary.pattern": "line", "primary.size": 4.0,
                      "primary.speed": 1.0}).values
    xs = [primary_pose(v, float(t))[0][0] for t in np.linspace(0, 16, 400)]
    assert min(xs) >= -2.0 - 1e-9 and max(xs) <= 2.0 + 1e-9
    assert max(xs) - min(xs) > 3.9  # actually sweeps the segment


def test_generate_trajectory_circle_properties():
    v = build_config({"trajectory.laps": 2}).values
    traj = generate_trajectory(v)
    cx, cy, cz = v["trajectory.center"]
    for p in traj.positions:
        r = math.hypot(p[0] - cx, p[1] - cy)
        assert r == pytest.approx(4.0, abs=1e-9)
        assert p[2] == cz
    # stamps advance at the configured spacing; length covers the laps
    total = traj.stamps[-1] - traj.stamps[0]
    assert total == pytest.approx(2 * 2 * math.pi * 4.0 / 0.5, abs=1.0)


def test_generate_trajectory_waypoints_constant_speed():
    v = build_config({
        "trajectory.pattern": "waypoints",
        "trajectory.waypoints": "0,0,1; 4,0,1; 4,3,1",
        "trajectory.speed": 1.0,
    }).values
    traj = generate_trajectory(v)
    assert traj.stamps[-1] - traj.stamps[0] == pytest.approx(7.0, abs=0.5)
    d = np.linalg.norm(traj.positions[1] - traj.positions[0])
    assert d == pytest.approx(1.0 * v["trajectory.spacing"], abs=1e-9)


def test_polyline_distance():
    line = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert polyline_distance(line, np.array([0.5, 1.0, 0.0])) == pytest.approx(1.0)
    assert polyline_distance(line, np.array([2.0, 0.0, 0.0])) == pytest.approx(1.0)
    # a desired path shorter than one spacing has a single point
    assert polyline_distance(line[:1], np.array([3.0, 4.0, 0.0])) == 5.0


# ---------------------------------------------------------------------------
# event log serialization


def test_event_log_round_trip_exact():
    cfg = build_config({"trajectory.laps": 1, "scenario.duration": 20.0})
    log = run_scenario(cfg)
    text = log.dumps()
    back = EventLog.loads(text)
    assert back.records == log.records
    assert back.dumps() == text
    # == alone would let 3.0 pass for 3: every field keeps its logged type
    assert [tuple(map(type, r)) for r in back.records] == \
        [tuple(map(type, r)) for r in log.records]
    types = {r[0]: tuple(map(type, r)) for r in back.records}
    assert set(types) >= {"H", "DET", "REF", "EST"}
    assert types["H"][1:] == (str, str) and types["EST"][2] is str
    assert types["DET"][3] is int and types["REF"][3] is int


def test_event_log_truncated_raises_with_line_number():
    cfg = build_config({"trajectory.laps": 1, "scenario.duration": 5.0})
    log = run_scenario(cfg)
    lines = log.dumps().splitlines()
    with pytest.raises(LogParseError):
        EventLog.loads("\n".join(lines[:-1]))  # END removed
    corrupted = list(lines)
    idx = next(i for i, ln in enumerate(corrupted) if ln.startswith("TS "))
    corrupted[idx] = corrupted[idx].rsplit(" ", 1)[0]  # drop one field
    with pytest.raises(LogParseError) as exc_info:
        EventLog.loads("\n".join(corrupted))
    assert exc_info.value.lineno == idx + 1


#: one well-formed line per record tag
RECORD_LINES = {
    "H": "H scenario.seed 5",
    "TS": "TS 0.1 1.0 2.0 1.5 -0.25",
    "DET": "DET 0.1 0.15 0 1.0 2.0 1.5 0.1",
    "VIO": "VIO 0.1 0.12 5.0 -3.0 1.0 0.1 0.2 0.0 0.7 0.125",
    "REF": "REF 0.2 0.22 17 5.0 -3.0 1.0 0.7",
    "EST": "EST 0.2 tracking 1.0 2.0 1.5 0.25 5.0 -3.0 1.0 0.7",
    "FAIL": "FAIL 3.0",
    "END": "END 3.0",
}


def test_record_lines_cover_every_tag():
    assert set(RECORD_LINES) == set(eventlog._RECORD_FIELDS)
    assert len(RECORD_LINES) == 8


@pytest.mark.parametrize("line", [
    "TP 0.1 1.0 2.0 1.5 0.25",    # primary pose: primary_pose(values, t)
    "DR 0.1 0.01 0.0 -0.02",      # drift offset: drift_offsets, value k at tick k
    "XYZ 0.1",
])
def test_event_log_rejects_unknown_tag(line):
    with pytest.raises(LogParseError) as exc_info:
        EventLog.loads(f"END 0.0\n{line}\nEND 3.0\n")
    assert exc_info.value.lineno == 2
    assert "unknown record tag" in str(exc_info.value)


@pytest.mark.parametrize("tag", sorted(RECORD_LINES))
def test_event_log_rejects_wrong_field_count_on_every_tag(tag):
    line = RECORD_LINES[tag]
    log = EventLog.loads(f"END 0.0\n{line}\nEND 3.0\n")
    assert log.dumps().splitlines()[1] == line
    for broken in (line + " junk", line.rsplit(" ", 1)[0]):
        with pytest.raises(LogParseError) as exc_info:
            EventLog.loads(f"END 0.0\n{broken}\nEND 3.0\n")
        assert exc_info.value.lineno == 2
        assert "fields" in str(exc_info.value)


@pytest.mark.parametrize("tag", sorted(set(RECORD_LINES) - {"H"}))
def test_event_log_rejects_non_finite_number_in_every_float_field(tag):
    fields = RECORD_LINES[tag].split(" ")
    for i, field in enumerate(fields[1:], start=1):
        try:
            float(field)
        except ValueError:
            continue  # the EST status
        for bad in ("nan", "inf", "-inf", "NaN", "Infinity", "-INF"):
            broken = " ".join(fields[:i] + [bad] + fields[i + 1:])
            with pytest.raises(LogParseError) as exc_info:
                EventLog.loads(f"END 0.0\n{broken}\nEND 3.0\n")
            assert exc_info.value.lineno == 2


def test_event_log_parses_an_est_line_of_each_status_without_a_finiteness_call(monkeypatch):
    # every status name holds an "n"; only the number fields are pre-tested
    calls = []
    isfinite = math.isfinite
    monkeypatch.setattr(math, "isfinite", lambda v: calls.append(v) or isfinite(v))
    for status in GuiderStatus:
        line = RECORD_LINES["EST"].replace("tracking", status.value)
        log = EventLog.loads(f"{line}\nEND 3.0\n")
        assert log.records[0][2] == status.value
    assert calls == [3.0] * len(GuiderStatus)   # the END line's "N" only


@pytest.mark.parametrize("line", [
    "EST 0.2 bogus 1.0 2.0 1.5 0.25 5.0 -3.0 1.0 0.7",
    "EST 0.2 Tracking 1.0 2.0 1.5 0.25 5.0 -3.0 1.0 0.7",
    "EST 0.2 GuiderStatus.TRACKING 1.0 2.0 1.5 0.25 5.0 -3.0 1.0 0.7",
])
def test_event_log_rejects_an_est_status_outside_guider_status(line):
    with pytest.raises(LogParseError) as exc_info:
        EventLog.loads(f"END 0.0\n{line}\nEND 3.0\n")
    assert exc_info.value.lineno == 2
    assert "status" in str(exc_info.value)


@pytest.mark.parametrize("tag", sorted(set(RECORD_LINES) - {"H"}))
def test_event_log_rejects_a_digit_group_underscore_in_every_number_field(tag):
    # float("1_0.5") is 10.5 and int("1_0") is 10; dumps never writes "_"
    fields = RECORD_LINES[tag].split(" ")
    for i, field in enumerate(fields[1:], start=1):
        if not field[-1].isdigit():
            continue  # the EST status
        bad = "1_" + field.lstrip("-")
        assert float(bad) == float("1" + field.lstrip("-"))
        broken = " ".join(fields[:i] + [bad] + fields[i + 1:])
        with pytest.raises(LogParseError) as exc_info:
            EventLog.loads(f"END 0.0\n{broken}\nEND 3.0\n")
        assert exc_info.value.lineno == 2
        assert "underscore" in str(exc_info.value)


@pytest.mark.parametrize("bad", ["\t", "\xa0", "\u2003", "\x85"])
@pytest.mark.parametrize("tag", sorted(RECORD_LINES))
def test_event_log_rejects_a_tab_or_a_non_ascii_character_naming_its_line(tag, bad):
    # float() and int() strip a tab or a non-ASCII space around a number;
    # dumps writes neither
    line = RECORD_LINES[tag]
    head, _, last = line.rpartition(" ")
    for broken in (line + bad, f"{head} {bad}{last}"):
        with pytest.raises(LogParseError) as exc_info:
            EventLog.loads(f"END 0.0\n{broken}\nEND 3.0\n")
        assert exc_info.value.lineno == 2
        assert "tab or non-ASCII" in str(exc_info.value)


@pytest.mark.parametrize("line, canonical", [
    ("TS 0.1 1.0 2.0 1.5 +0.25", "TS 0.1 1.0 2.0 1.5 0.25"),
    ("TS 0.1 1.0 2.0 01.5 -0.25", "TS 0.1 1.0 2.0 1.5 -0.25"),
    ("TS 0.1 1.0 2.0 1.5 2.5e-1", "TS 0.1 1.0 2.0 1.5 0.25"),
    ("TS 0.1 1.0 2.0 1.5 .25", "TS 0.1 1.0 2.0 1.5 0.25"),
    ("DET 0.1 0.15 00 1.0 2.0 1.5 0.1", "DET 0.1 0.15 0 1.0 2.0 1.5 0.1"),
])
def test_event_log_checks_numbers_by_value_and_dumps_the_canonical_text(line, canonical):
    log = EventLog.loads(f"{line}\nEND 3.0\n")
    assert log.records == EventLog.loads(f"{canonical}\nEND 3.0\n").records
    text = log.dumps()
    assert text == f"{canonical}\nEND 3.0\n"
    assert EventLog.loads(text).dumps() == text


def test_event_log_rejects_points_payload_ref_record():
    # the earlier REF form: n then (stamp x y z heading) per point
    old = "REF 0.2 0.22 2 0.2 1.0 2.0 1.5 0.1 0.3 1.0 2.1 1.5 0.2"
    with pytest.raises(LogParseError) as exc_info:
        EventLog.loads(f"{old}\nEND 3.0\n")
    assert exc_info.value.lineno == 1


@pytest.mark.parametrize("name", ["baseline.cfg", "nlos.cfg"])
def test_streamed_references_rebuild_every_pushed_batch(monkeypatch, name):
    pushed = []
    push = heapq.heappush

    def capture(heap, item):
        if item[2] == "ref":
            pushed.append(item)
        push(heap, item)

    cfg = build_config({**load_config_file(str(CONFIGS / name)),
                        "trajectory.laps": 1, "scenario.duration": 20.0})
    assert cfg["vio.initial_heading"] != 0.0  # pre-init batches are rotated too
    monkeypatch.setattr(simulator.heapq, "heappush", capture)
    log = run_scenario(cfg)
    monkeypatch.undo()
    rebuilt = streamed_references(EventLog.loads(log.dumps()))
    assert len(rebuilt) == len(pushed) == len(list(log.iter_tag("REF")))
    first_est = next(r[1] for r in log.iter_tag("EST"))
    assert rebuilt[0][0] < first_est < rebuilt[-1][0]  # batches before and after init
    for (t_emit, t_arrive, batch), (arrival, _, _, streamed) in zip(rebuilt, pushed):
        assert t_arrive == arrival and t_emit < t_arrive
        assert batch.frame is streamed.frame is Frame.VIO
        for field in ("stamps", "positions", "headings"):
            assert getattr(batch, field).tobytes() == getattr(streamed, field).tobytes()


@pytest.mark.parametrize("name", ["baseline.cfg", "nlos.cfg"])
def test_each_ref_after_initialization_carries_the_transform_of_its_est(name):
    # one transform tuple per reference tick feeds the EST and the REF record
    cfg = build_config({**load_config_file(str(CONFIGS / name)), "trajectory.laps": 1})
    log = EventLog.loads(run_scenario(cfg).dumps())
    est = {r[1]: tuple(r[7:11]) for r in log.iter_tag("EST")}
    refs = [r for r in log.iter_tag("REF") if r[1] >= min(est)]
    assert refs
    for ref in refs:
        assert tuple(ref[4:8]) == est[ref[1]]


def test_streamed_references_rejects_point_count_mismatch():
    log = run_scenario(build_config({"trajectory.laps": 1, "scenario.duration": 3.0}))
    i = next(i for i, r in enumerate(log.records) if r[0] == "REF")
    rec = log.records[i]
    log.records[i] = rec[:3] + (rec[3] + 1,) + rec[4:]
    with pytest.raises(ValueError, match="points"):
        streamed_references(log)


# ---------------------------------------------------------------------------
# full scenario behavior


def test_noiseless_circle_small_deviation():
    cfg = build_config({
        "trajectory.laps": 1,
        "detection.sigma": 0.0001,
    })
    log = run_scenario(cfg)
    assert not log.failed
    ts, pos, _ = log.truth()
    mask = ts >= 2.0
    dev = np.hypot(np.hypot(pos[mask, 0], pos[mask, 1]) - 4.0, pos[mask, 2] - 1.5)
    assert float(dev.mean()) < 0.05


def test_drift_run_completes_with_nonempty_log():
    # fixed-seed regression snapshot: these values were captured from the
    # shipped implementation and pin the whole closed-loop numeric path
    from coopguide.evaluation import evaluate_log

    cfg = build_config({
        "trajectory.laps": 1,
        "vio_drift.x": 0.3,
        "alignment.window": 8.0,
        "alignment.max_cost": 0.2,
        "alignment.estimate_drift": True,
    })
    log = run_scenario(cfg)
    assert not log.failed
    assert len(log.estimates()[0]) == 263
    assert len(list(log.iter_tag("DET"))) > 100
    report = evaluate_log(log)
    assert report.rel_loc_rmse == pytest.approx(0.06765714734727046, rel=1e-9)
    assert report.mean_path_deviation == pytest.approx(0.17078993144895513, rel=1e-9)


def test_determinism_byte_identical():
    over = {
        "trajectory.laps": 1,
        "scenario.duration": 30.0,
        "vio_drift.sigma": 0.05,
        "scenario.seed": 77,
    }
    a = run_scenario(build_config(over)).dumps()
    b = run_scenario(build_config(over)).dumps()
    assert a == b
    c = run_scenario(build_config({**over, "scenario.seed": 78})).dumps()
    assert c != a


def test_conservation_of_frames():
    # mapping any logged V-frame pose back through the true transform, with
    # the drift offset rebuilt from the drift sub-stream as the simulator
    # reads it, recovers the logged ground truth (noise-free VIO)
    cfg = build_config({
        "trajectory.laps": 1,
        "scenario.duration": 30.0,
        "vio_drift.x": 0.4,
        "vio.noise_sigma": 0.0,
    })
    log = run_scenario(cfg)
    theta0 = cfg["vio.initial_heading"]
    t0 = np.asarray(cfg["vio.initial_offset"])
    R_inv = rot_z(-theta0)
    ts_t, ts_p, ts_h = log.truth()
    tick_rate = cfg["scenario.tick_rate"]
    dt = 1.0 / tick_rate
    n_ticks = int(round(cfg["scenario.duration"] * tick_rate)) + 1
    drift = {k * dt: offset for k, offset in zip(range(n_ticks), _config_offsets(cfg))}
    checked = 0
    truth_by_t = {t: p for t, p in zip(ts_t, ts_p)}
    for rec in log.iter_tag("VIO"):
        t = rec[1]
        if t not in truth_by_t or t not in drift:
            continue
        vio_pos = np.array(rec[3:6])
        recovered = R_inv @ (vio_pos - t0 - drift[t])
        assert np.allclose(recovered, truth_by_t[t], atol=1e-9)
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("key, value", [("vio_drift.x", 0.3), ("vio_drift.sigma", 0.05)])
def test_a_drift_value_set_alone_drifts_the_vio_frame(key, value):
    # each drift term counts as written, with no selector naming it: the last
    # VIO sample sits off the truth mapped by the initial transform by the
    # offset drift_offsets rebuilds (noise-free VIO)
    base = {"trajectory.laps": 1, "scenario.duration": 10.0}
    cfg = build_config({**base, key: value})
    log = run_scenario(cfg)
    plain = run_scenario(build_config(base))
    assert [r for r in log.records if r[0] != "H"] != \
        [r for r in plain.records if r[0] != "H"]
    vio = next(r for r in reversed(log.records) if r[0] == "VIO")
    ts_t, ts_p, _ = log.truth()
    truth = ts_p[list(ts_t).index(vio[1])]
    gap = np.array(vio[3:6]) - rot_z(cfg["vio.initial_heading"]) @ truth \
        - np.asarray(cfg["vio.initial_offset"])
    offset = next(islice(_config_offsets(cfg), int(round(vio[1] * cfg["scenario.tick_rate"])),
                         None))
    assert np.allclose(gap, offset, atol=1e-9)
    assert np.linalg.norm(gap) > 0.05
    if key == "vio_drift.x":
        assert gap == pytest.approx([0.3 * vio[1], 0.0, 0.0], abs=1e-9)


def test_delay_bounds_respected():
    cfg = build_config({"trajectory.laps": 1, "scenario.duration": 20.0})
    log = run_scenario(cfg)
    for rec in log.iter_tag("DET"):
        delay = rec[2] - rec[1]
        assert cfg["detection.delay_mean"] - 1e-12 <= delay
        assert delay <= cfg["detection.delay_mean"] + cfg["detection.delay_jitter"] + 1e-12
    for rec in log.iter_tag("VIO"):
        delay = rec[2] - rec[1]
        assert cfg["comm.delay_mean"] - 1e-12 <= delay
        assert delay <= cfg["comm.delay_mean"] + cfg["comm.delay_jitter"] + 1e-12


def test_each_random_quantity_reads_back_from_the_log_in_its_stream_order():
    # every random quantity of one lap, read back from the log, equals the
    # one-call-per-value draws of its own sub-stream, in log order
    cfg = build_config({**load_config_file(str(CONFIGS / "baseline.cfg")),
                        "trajectory.laps": 1, "vio.noise_sigma": 0.05,
                        "vio_drift.sigma": 0.05,
                        "false_targets.positions": "3.4,0.6,1.5; 2.0,6.8,1.5"})
    v = cfg.values
    log = run_scenario(cfg)
    assert not log.failed
    stream = partial(simulator._stream_rng, cfg.seed)

    # delays: one uniform per DET batch, VIO sample and REF batch, each exact
    det_batches = {}
    for r in log.iter_tag("DET"):
        det_batches.setdefault(r[1], r[2])
    for tag, records, index, mean, jitter in (
            ("DET", det_batches.items(), simulator._STREAM_DET_DELAY,
             v["detection.delay_mean"], v["detection.delay_jitter"]),
            ("VIO", [r[1:3] for r in log.iter_tag("VIO")], simulator._STREAM_VIO_DELAY,
             v["comm.delay_mean"], v["comm.delay_jitter"]),
            ("REF", [r[1:3] for r in log.iter_tag("REF")], simulator._STREAM_REF_DELAY,
             v["comm.delay_mean"], v["comm.delay_jitter"])):
        rng = stream(index)
        assert len(records) > 100, tag
        assert all(arrive == t + mean + jitter * float(rng.random())
                   for t, arrive in records), tag

    # detection noise: DET minus the truth (track 0) or the hovering target
    truth = {r[1]: r[2:5] for r in log.iter_tag("TS")}
    targets = (None, *v["false_targets.positions"])
    rng = stream(simulator._STREAM_DET_NOISE)
    seen = set()
    for r in log.iter_tag("DET"):
        noise = rng.normal(0.0, v["detection.sigma"], 3)
        _, t, _, track, x, y, z, _ = r
        origin = targets[track] if track else truth[t]
        assert np.allclose(np.subtract((x, y, z), origin), noise, rtol=0.0, atol=1e-9)
        seen.add(track)
    assert seen == {0, 1, 2}

    # VIO noise and drift walk: VIO minus the truth mapped into V, on shared ticks
    dt = 1.0 / v["scenario.tick_rate"]
    n_ticks = int(round(log.records[-1][1] / dt)) + 1
    offsets = _drift_oracle((v["vio_drift.x"], v["vio_drift.y"], v["vio_drift.z"]),
                            v["vio_drift.sigma"], stream(simulator._STREAM_DRIFT), dt,
                            n_ticks)
    rng = stream(simulator._STREAM_VIO_NOISE)
    R0, t0 = rot_z(v["vio.initial_heading"]), np.asarray(v["vio.initial_offset"])
    checked = 0
    for r in log.iter_tag("VIO"):
        noise = rng.normal(0.0, v["vio.noise_sigma"], 3)
        t = r[1]
        if t in truth:
            gap = np.asarray(r[3:6]) - (R0 @ truth[t] + t0)
            want = np.asarray(offsets[int(round(t / dt))]) + noise
            assert np.allclose(gap, want, rtol=0.0, atol=1e-9)
            checked += 1
    assert checked > 1000
    assert np.linalg.norm(offsets[-1]) > 0.05


def test_figure_eight_closed_loop():
    cfg = build_config({
        "trajectory.pattern": "eight",
        "trajectory.radius": 4.0,
        "trajectory.laps": 1,
        "scenario.duration": 40.0,
        "scenario.tick_rate": 50.0,
    })
    log = run_scenario(cfg)
    assert not log.failed
    et, epos, _, _ = log.estimates()
    assert len(et) > 50
    ts, pos, _ = log.truth()
    ti = np.column_stack([np.interp(et, ts, pos[:, i]) for i in range(3)])
    err = np.linalg.norm(epos - ti, axis=1)
    assert float(np.sqrt(np.mean(err ** 2))) < 0.25


def test_waypoint_closed_loop():
    cfg = build_config({
        "trajectory.pattern": "waypoints",
        "trajectory.waypoints": "4,0,1.5; 4,6,1.5; -2,6,1.5",
        "trajectory.laps": 1,
        "scenario.tick_rate": 50.0,
    })
    log = run_scenario(cfg)
    assert not log.failed
    ts, pos, _ = log.truth()
    # reaches the final waypoint
    assert np.linalg.norm(pos[-1] - np.array([-2.0, 6.0, 1.5])) < 0.5


def test_failure_recorded_at_high_drift_without_compensation():
    # with the drift term disabled and a tight window, 1.0 m/s drift breaks
    # the constant-transform model and the run aborts on the deviation radius
    cfg = build_config({
        "trajectory.laps": 2,
        "vio_drift.x": 1.0,
        "alignment.window": 5.0,
        "alignment.max_cost": 2.5,
    })
    log = run_scenario(cfg)
    assert log.failed


def test_invalid_config_rejected_before_start():
    with pytest.raises(ConfigError):
        build_config({"trajectory.pattern": "spiral"})
    with pytest.raises(ConfigError):
        build_config({"detection.rate": 0.0})
    with pytest.raises(ConfigError):
        build_config({"unknown.key": 1.0})
