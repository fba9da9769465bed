"""Guider pipeline: initialization, status machine, reference streaming."""

import math
from pathlib import Path

import numpy as np
import pytest

from coopguide import guider
from coopguide.alignment import AlignmentConfig
from coopguide.config import build_config, load_config_file
from coopguide.evaluation import evaluate_log
from coopguide.geometry import (
    Detection,
    TimedPose,
    rot_z,
    wrap_heading,
)
from coopguide.guider import (
    Guider,
    GuiderError,
    GuiderStatus,
)
from coopguide.paths import STREAM_HORIZON, Trajectory
from coopguide.tracker import (
    GATE_CRITICAL,
    HistoryBuffer,
    innovation,
    predict,
    update,
)

from columns import corrected, detection_columns, interpolate_pose

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
THETA = 0.8
T_OFFSET = np.array([5.0, -3.0, 1.0])
R_LV = rot_z(THETA)


def secondary_position(t, speed=0.5, radius=4.0):
    ang = speed / radius * t
    return np.array([radius * math.cos(ang), radius * math.sin(ang), 1.0])


def secondary_velocity(t, speed=0.5, radius=4.0):
    omega = speed / radius
    ang = omega * t
    return radius * omega * np.array([-math.sin(ang), math.cos(ang), 0.0])


def secondary_heading(t, speed=0.5, radius=4.0):
    return wrap_heading(speed / radius * t + math.pi / 2)


def pose_record(t, position, heading=0.0, velocity=(0.0, 0.0, 0.0), rate=0.0):
    return TimedPose(t, *map(float, position), heading, *map(float, velocity), rate)


def detection_record(t, position, track):
    return Detection(t, *map(float, position), 0.15, track)


def position_of(record):
    """x, y, z of a pose or detection record, as an array."""
    return np.array(record[1:4])


def vio_pose(t):
    """True V-frame pose of the circling secondary (no drift, no noise)."""
    return pose_record(
        t,
        R_LV @ secondary_position(t) + T_OFFSET,
        wrap_heading(secondary_heading(t) + THETA),
        R_LV @ secondary_velocity(t),
        0.5 / 4.0,
    )


def detection(t, track=0, offset=(0.0, 0.0, 0.0)):
    return detection_record(t, secondary_position(t) + np.asarray(offset, float), track)


def make_guider():
    return Guider(AlignmentConfig(window=15.0), 1.0)


def drive(guider, t0, t1, det_offset=None, vio_on=True, det_on=True):
    """Feed noiseless detection (10 Hz) and VIO (30 Hz) streams over [t0, t1)."""
    k0 = int(round(t0 / 0.1))
    k1 = int(round(t1 / 0.1))
    for k in range(k0, k1):
        t = 0.1 * k
        if det_on:
            off = det_offset if det_offset is not None else (0, 0, 0)
            guider.ingest_detections([detection(t, offset=off)])
        if vio_on:
            for j in range(3):
                guider.ingest_vio(vio_pose(t + j / 30.0))
    return 0.1 * k1


def test_initialization_transition():
    g = make_guider()
    assert g.status(0.0) is GuiderStatus.UNINITIALIZED
    t = drive(g, 0.0, 8.0)
    assert g.initialized
    assert g.status(t) is GuiderStatus.TRACKING
    out = g.current_output(t)
    assert np.allclose(position_of(out.secondary_pose_in_l), secondary_position(t), atol=0.05)
    ox, _, oy, _, theta, oz, _ = g._history.latest_state.mean
    assert abs(wrap_heading(theta - THETA)) < 1e-3
    assert np.allclose([ox, oy, oz], T_OFFSET, atol=0.02)


def test_empty_detection_batch_is_noop():
    g = make_guider()
    g.ingest_detections([])
    assert g.status(0.0) is GuiderStatus.UNINITIALIZED


def test_detection_batch_with_differing_stamps_is_rejected():
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    state = (len(g._track_buffers[0]), len(g._fused_detections), len(g._history))
    with pytest.raises(ValueError, match="share one stamp"):
        g.ingest_detections([detection(t), detection(t + 0.05, track=1)])
    assert (len(g._track_buffers[0]), len(g._fused_detections), len(g._history)) == state
    assert 1 not in g._track_buffers


def _ingest_state(g):
    return (len(g._track_buffers[0]), len(g._fused_detections), len(g._vio_buffer),
            len(g._history), g._history.latest_state.mean)


@pytest.mark.parametrize("field", ["x", "z", "sigma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_detection_batch_with_a_non_finite_value_is_rejected(field, value):
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    state = _ingest_state(g)
    bad = detection(t, track=1)._replace(**{field: value})
    with pytest.raises(ValueError, match="finite"):
        g.ingest_detections([detection(t), bad])
    assert _ingest_state(g) == state
    assert 1 not in g._track_buffers


def test_detection_batch_with_two_detections_of_one_track_is_rejected():
    # the second detection would miss its track buffer, yet association
    # could still fuse it
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    state = _ingest_state(g)
    with pytest.raises(ValueError, match="one detection per track id"):
        g.ingest_detections([detection(t, offset=(0.3, 0.0, 0.0)), detection(t)])
    assert _ingest_state(g) == state


def test_high_drift_lap_tracks_through_the_drift_without_reinitializing(monkeypatch):
    # drift_sweep.cfg at 0.8 m/s: the frame's offset rate follows the drift,
    # so the gate keeps passing and the first adoption is the only one
    # (an agent filter without a drift correction re-initialized 51 times
    # per lap)
    from coopguide.simulator import run_scenario

    adoptions = []
    adopt = Guider._adopt
    monkeypatch.setattr(Guider, "_adopt",
                        lambda self, *a: adoptions.append(1) or adopt(self, *a))
    overrides = load_config_file(str(CONFIGS / "drift_sweep.cfg"))
    overrides.update({"trajectory.laps": 1, "vio_drift.x": 0.8})
    log = run_scenario(build_config(overrides))
    assert not log.failed
    assert 1 <= len(adoptions) <= 3


def test_innovations_are_chi_square_consistent_on_the_baseline_run(monkeypatch):
    # The normalized innovation squared of the gated candidate is chi-square
    # with 3 dof when the fixed noise model fits: mean 3, 5% above the gate
    # (Bar-Shalom, Li and Kirubarajan 2001, §5.4).
    from coopguide.simulator import run_scenario

    nis = []
    associate = guider.associate

    def record(*args):
        decision = associate(*args)
        if decision.detection is not None:
            nis.append(decision.mahalanobis_sq)
        return decision

    monkeypatch.setattr(guider, "associate", record)
    log = run_scenario(build_config(load_config_file(str(CONFIGS / "baseline.cfg"))))
    assert not log.failed
    assert len(nis) > 1000
    assert 2.55 <= np.mean(nis) <= 3.45
    assert 0.025 <= np.mean(np.array(nis) > GATE_CRITICAL) <= 0.10


def _position_covariance(state, pose):
    """The covariance of the position Rz(theta)^T (p_V - o) of ``pose`` in L
    under the state's covariance of (ox, oy, theta, oz)."""
    P = np.zeros((7, 7))
    for (i, j), v in zip([(i, j) for i in range(5) for j in range(i, 5)], state.planar):
        P[i, j] = P[j, i] = v
    c00, c01, c11 = state.vertical
    P[5:, 5:] = [[c00, c01], [c01, c11]]
    c, s = math.cos(state.mean[4]), math.sin(state.mean[4])
    J = np.zeros((3, 7))
    J[:2, 0] = -c, s
    J[:2, 2] = -s, -c
    J[:, 4] = pose.y, -pose.x, 0.0
    J[2, 5] = -1.0
    return J @ P @ J.T


def test_baseline_nees_is_consistent(monkeypatch):
    # The normalized estimation error squared of each output's position
    # against the truth, over the filter's own covariance of that position,
    # has mean 3 when the filter is consistent (Bar-Shalom, Li and
    # Kirubarajan 2001, §5.4); an agent filter fusing every VIO sample read
    # 4.96 here.
    from coopguide.simulator import run_scenario

    outputs = []
    current_output = Guider.current_output

    def recording(self, t):
        out = current_output(self, t)
        pose = out.secondary_pose_in_l
        outputs.append((t, [pose.x, pose.y, pose.z],
                        _position_covariance(self._history.estimate_at(t), pose)))
        return out

    monkeypatch.setattr(Guider, "current_output", recording)
    log = run_scenario(build_config(load_config_file(str(CONFIGS / "baseline.cfg"))))
    assert not log.failed and len(outputs) > 700
    ts_t, ts_p, _ = log.truth()
    nees = []
    for t, position, covariance in outputs:
        truth = [np.interp(t, ts_t, ts_p[:, i]) for i in range(3)]
        error = np.subtract(position, truth)
        nees.append(float(error @ np.linalg.solve(covariance, error)))
    assert np.mean(nees) < 4.0


def test_the_gate_accepts_the_secondary_within_half_a_second_of_each_restoration(
        monkeypatch):
    # criterion 6's scenario: after each occlusion of the secondary, the
    # gate accepts one of its detections within 0.5 s of the first one
    from coopguide.simulator import run_scenario

    from test_acceptance import NLOS_SCENARIO

    accepted = []
    associate = guider.associate

    def record(detections, *args):
        decision = associate(detections, *args)
        if decision.accepted and decision.detection.track_id == 0:
            accepted.append(decision.detection.stamp)
        return decision

    monkeypatch.setattr(guider, "associate", record)
    log = run_scenario(build_config(NLOS_SCENARIO))
    det0 = log.detection_stamps(0)
    restorations = det0[1:][np.diff(det0) > 1.0]
    assert len(restorations) >= 5
    accepted = np.sort(accepted)
    lags = [accepted[accepted >= r][0] - r for r in restorations]
    assert max(lags) <= 0.5, dict(zip(restorations.tolist(), lags))


def test_trajectory_rejects_malformed_arrays():
    ok = dict(stamps=[0.0, 1.0], positions=np.zeros((2, 3)), headings=[0.0, 0.0])
    assert len(Trajectory(**ok)) == 2
    bad = [
        dict(ok, positions=np.zeros((3, 3))),          # shape mismatches
        dict(ok, positions=np.zeros((2, 2))),
        dict(ok, headings=[0.0]),
        dict(ok, stamps=[[0.0, 1.0]]),
        dict(stamps=1.0, positions=np.zeros((1, 3)), headings=[0.0]),
        dict(ok, stamps=[0.0, np.nan]),                # non-finite values
        dict(ok, positions=[[0.0, 0.0, 0.0], [0.0, np.inf, 0.0]]),
        dict(ok, headings=[0.0, np.nan]),
        dict(ok, stamps=[1.0, 1.0]),                   # not strictly increasing
        dict(ok, stamps=[1.0, 0.0]),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            Trajectory(**kwargs)


def test_trajectory_wraps_headings():
    headings = [3 * math.pi / 2, -math.pi, math.pi, -0.0, 7.0]
    traj = Trajectory(np.arange(5.0), np.zeros((5, 3)), headings)
    assert [repr(h) for h in traj.headings.tolist()] == [repr(wrap_heading(h)) for h in headings]
    assert np.all(traj.headings > -math.pi) and np.all(traj.headings <= math.pi)


def test_streamed_cuts_the_horizon_window_like_a_brute_force_mask():
    # with the identity transform a batch is the cut alone, bit for bit
    rng = np.random.default_rng(3)
    stamps = np.cumsum(rng.uniform(0.1, 1.0, 50))
    traj = Trajectory(stamps, rng.normal(size=(50, 3)), rng.uniform(-3, 3, 50))
    assert stamps[-1] - stamps[0] > 2 * STREAM_HORIZON

    def ending_on(stamp):
        # the start whose window ends exactly on ``stamp``
        start = stamp - STREAM_HORIZON
        while start + STREAM_HORIZON < stamp:
            start = np.nextafter(start, math.inf)
        while start + STREAM_HORIZON > stamp:
            start = np.nextafter(start, -math.inf)
        assert start + STREAM_HORIZON == stamp
        return start

    starts = [
        stamps[10],                                    # starts on a stamp
        stamps[0],
        stamps[-1],                                    # the last stamp alone
        ending_on(stamps[40]),                         # ends on a stamp
        ending_on(stamps[25]),
        stamps[5] + 1e-9,                              # starts between two stamps
        stamps[0] - STREAM_HORIZON - 1.0,              # before the path: empty
        stamps[0] - 0.5 * STREAM_HORIZON,              # runs into the path
        stamps[-1] + 1e-9,                             # after the path: empty
        stamps[-1] + 5.0,
    ]
    starts += rng.uniform(stamps[0] - STREAM_HORIZON - 1.0, stamps[-1] + 1.0, 200).tolist()
    empty = 0
    for start in starts:
        mask = (start <= stamps) & (stamps <= start + STREAM_HORIZON)
        got = traj.streamed(start, np.zeros(3), 0.0)
        assert len(got) == mask.sum()
        assert np.array_equal(got.stamps, stamps[mask])
        assert np.array_equal(got.positions, traj.positions[mask])
        assert np.array_equal(got.headings, traj.headings[mask])
        empty += not mask.any()
    assert empty >= 3
    assert traj.streamed(ending_on(stamps[40]), np.zeros(3), 0.0).stamps[-1] == stamps[40]


def test_uninitialized_output_raises():
    g = make_guider()
    with pytest.raises(GuiderError):
        g.current_output(0.0)


def test_gate_rejected_detection_leaves_estimate_untouched():
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    before = g.current_output(t).secondary_pose_in_l
    # a detection 10 m away fails the Euclidean pre-gate
    g.ingest_detections([detection_record(t, secondary_position(t) + np.array([10.0, 0, 0]),
                                          7)])
    after = g.current_output(t).secondary_pose_in_l
    assert np.array_equal(position_of(before), position_of(after))


def test_detection_staleness_maps_to_dead_reckoning():
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    t = drive(g, t, t + 2.0, det_on=False)  # NLOS: VIO only
    assert g.status(t) is GuiderStatus.DEAD_RECKONING_VIO
    out = g.current_output(t)
    assert np.allclose(position_of(out.secondary_pose_in_l), secondary_position(t), atol=0.05)
    # recovery on stream resumption
    t = drive(g, t, t + 1.0)
    assert g.status(t) is GuiderStatus.TRACKING


def test_vio_staleness_maps_to_heading_frozen():
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    frozen = g.current_output(t).secondary_pose_in_l
    t = drive(g, t, t + 2.0, vio_on=False)  # comms lost: detections only
    assert g.status(t) is GuiderStatus.HEADING_FROZEN
    out = g.current_output(t)
    # the detections wait for VIO; the pose rides the last VIO sample, whose
    # velocity turns at its heading rate (the secondary flies a circle)
    assert out.secondary_pose_in_l.heading_rate == pytest.approx(frozen.heading_rate, abs=1e-12)
    assert np.allclose(position_of(out.secondary_pose_in_l), secondary_position(t), atol=0.05)
    t = drive(g, t, t + 1.0)
    assert g.status(t) is GuiderStatus.TRACKING


def test_batches_waiting_for_a_stale_vio_link_stay_within_the_history_span():
    # detection batches stamped after the newest VIO sample wait for it; while
    # VIO stays stale the list keeps at most a history span of them
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    fused = len(g._history)
    t = drive(g, t, t + 5.0, vio_on=False)
    stamps = [stamp for stamp, _ in g._pending]
    assert stamps == sorted(stamps) and len(g._history) == fused
    assert stamps[-1] == pytest.approx(t - 0.1)
    assert stamps[-1] - stamps[0] <= g._history.span < stamps[-1] - stamps[0] + 0.1 + 1e-9


def test_batches_waiting_through_a_vio_outage_are_not_fused_against_its_chord():
    # after a 5 s outage the first VIO sample covers the waiting batches; the
    # VIO position at their stamps would be the chord across the outage, not
    # the circle the secondary flew, so those batches are dropped
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    t = drive(g, t, t + 5.0, vio_on=False)
    errors = []
    for _ in range(10):
        t = drive(g, t, t + 0.1)
        out = g.current_output(t)
        errors.append(np.linalg.norm(position_of(out.secondary_pose_in_l) - secondary_position(t)))
    assert max(errors) < 0.01


def _bits(*values) -> bytes:
    """The exact IEEE bits of floats and float tuples, in order."""
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


def _state_bits(state) -> bytes:
    return _bits(state.stamp, state.mean, state.planar, state.vertical)


@pytest.mark.parametrize("vio_rate", [None, 27.0])
def test_each_fused_detection_is_the_predict_and_update_of_its_prior(monkeypatch, vio_rate):
    # one nlos lap, every association and every fused detection checked
    # against the filter's steps taken afresh: the VIO position is the
    # nine-field interpolation's, and an in-order posterior is update of
    # the newest posterior predicted to its stamp, with the innovation
    # computed again, bit for bit.  Both sensors sample on the tick grid:
    # at the config's 30 Hz VIO every detection stamp is a VIO stamp, at
    # 27 Hz two in five lie between two VIO samples.
    from coopguide.simulator import run_scenario

    guiders, paired, between, fused = [], [], [], []
    fuse, associate, insert = Guider._fuse, guider.associate, HistoryBuffer.insert

    def fusing(self, stamp, detections):
        guiders.append(self)
        return fuse(self, stamp, detections)

    def associating(detections, prior, vio):
        want = interpolate_pose(guiders[-1]._vio_buffer, detections[0].stamp)[1:4]
        assert type(vio) is tuple and _bits(*vio) == _bits(*want)
        paired.append(vio)
        between.append(not guiders[-1]._vio_buffer.holds(detections[0].stamp))
        return associate(detections, prior, vio)

    def inserting(self, z, prior, terms):
        in_order = not self._stamps or z.stamp >= self._stamps[-1]
        newest = self.latest_state
        out = insert(self, z, prior, terms)
        if in_order:
            predicted = predict(newest, max(0.0, z.stamp - newest.stamp))
            want = update(predicted, innovation(predicted, z.lidar, z.vio, z.variance))
            assert _state_bits(out) == _state_bits(want)
            fused.append(z)
        return out

    monkeypatch.setattr(Guider, "_fuse", fusing)
    monkeypatch.setattr(guider, "associate", associating)
    monkeypatch.setattr(HistoryBuffer, "insert", inserting)
    overrides = load_config_file(str(CONFIGS / "nlos.cfg"))
    overrides["trajectory.laps"] = 1
    if vio_rate is not None:
        overrides["vio.rate"] = vio_rate
    log = run_scenario(build_config(overrides))
    assert not log.failed
    assert len(paired) > 300 and len(fused) > 250
    assert sum(between) == 0 if vio_rate is None else sum(between) > 100


def test_batches_inside_a_vio_outage_or_before_the_history_are_dropped(monkeypatch):
    # neither kind of batch reaches the gate or the history
    g = make_guider()
    t0 = drive(g, 0.0, 8.0)
    calls = []
    associate = guider.associate
    monkeypatch.setattr(guider, "associate", lambda *a: calls.append(a) or associate(*a))
    t1 = drive(g, t0, t0 + 5.0, vio_on=False)
    waiting = [stamp for stamp, _ in g._pending]
    assert len(waiting) > 10 and calls == []
    drive(g, t1, t1 + 0.1)   # VIO resumes: every waiting batch lies in the outage
    assert [a[0][0].stamp for a in calls] == [pytest.approx(t1)]
    assert not set(waiting) & set(g._fused_detections.stamps.tolist())
    calls.clear()
    history = (len(g._history), g._history.latest_state, g._consecutive_rejects)
    stale = g._history.anchor_state.stamp - 0.05
    g.ingest_detections([detection(stale, track=1)])   # older than the anchor
    assert calls == [] and g._track_buffers[1].holds(stale)
    assert (len(g._history), g._history.latest_state, g._consecutive_rejects) == history


def test_non_finite_vio_sample_is_dropped(monkeypatch):
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    assert g.status(t) is GuiderStatus.TRACKING
    good = vio_pose(t)
    nan, inf = float("nan"), float("inf")
    g.ingest_vio(good._replace(x=nan, y=0.0, z=0.0))
    g.ingest_vio(good._replace(vx=0.0, vy=inf, vz=0.0))
    g.ingest_vio(good._replace(heading_rate=nan))
    g.ingest_vio(good._replace(stamp=nan))
    t = drive(g, t, t + 1.0)
    out = g.current_output(t)
    assert out.status is GuiderStatus.TRACKING
    assert np.all(np.isfinite(position_of(out.secondary_pose_in_l)))
    assert np.allclose(position_of(out.secondary_pose_in_l), secondary_position(t), atol=0.05)
    # persistent gate failures re-initialize over the VIO buffer without raising
    calls = []
    try_initialize = guider.try_initialize
    monkeypatch.setattr(guider, "try_initialize",
                        lambda *a: calls.append(1) or try_initialize(*a))
    t = drive(g, t, t + 0.5, det_offset=(6.0, 0.0, 0.0))
    assert calls
    assert np.all(np.isfinite(position_of(g.current_output(t).secondary_pose_in_l)))


def _est_records(monkeypatch, overrides, ingest=None):
    """EST records of a one-lap default run, ``ingest`` wrapping both ingest calls."""
    from coopguide.simulator import run_scenario

    if ingest is not None:
        for name in ("ingest_vio", "ingest_detections"):
            monkeypatch.setattr(Guider, name, ingest(getattr(Guider, name)))
    log = run_scenario(build_config({"trajectory.laps": 1, "scenario.duration": 25.0,
                                     **overrides}))
    monkeypatch.undo()
    return list(log.iter_tag("EST"))


def test_duplicate_deliveries_are_fused_once(monkeypatch):
    # every VIO sample and detection batch delivered twice: the second copy
    # holds a stamp already buffered and changes nothing
    def twice(method):
        return lambda self, item: (method(self, item), method(self, item))[0]

    plain = _est_records(monkeypatch, {})
    assert len(plain) > 100
    assert _est_records(monkeypatch, {}, twice) == plain
    # a batch is a duplicate when any of its tracks holds its stamp
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    g.ingest_detections([detection(t)])
    g.ingest_detections([detection(t), detection(t, track=1, offset=(0.2, 0.0, 0.0))])
    assert 1 not in g._track_buffers and len(g._pending) == 1


def test_late_detection_batches_keep_the_buffers_in_stamp_order(monkeypatch):
    # a delay jitter above the 0.1 s detection period delivers batches out of
    # stamp order; the track buffers and the fused detections stay sorted
    arrivals, checked = [], []

    def checking(method):
        def ingest(self, item):
            method(self, item)
            if method.__name__ == "ingest_detections":
                arrivals.append(item[0].stamp)
                for buf in (*self._track_buffers.values(), self._fused_detections):
                    stamps = buf.stamps.tolist()
                    assert stamps == sorted(stamps)
                checked.append(self._history is not None)
        return ingest

    est = _est_records(monkeypatch, {"detection.delay_jitter": 0.15}, checking)
    assert arrivals != sorted(arrivals)
    assert len(est) > 100 and sum(checked) > 100


def _floats(value, n):
    """Whether ``value`` is a tuple of ``n`` floats."""
    return type(value) is tuple and len(value) == n and all(type(v) is float for v in value)


def test_the_filter_records_hold_floats(monkeypatch):
    # TrackerState and Measurement store what they are given, so the records
    # the filter builds from a run's own input must hold plain floats: the
    # adopted state, a predict and an update of it, and every fused
    # measurement
    adopted, inserted = [], []
    try_initialize, insert = guider.try_initialize, HistoryBuffer.insert

    def initialize(*args):
        out = try_initialize(*args)
        if out is not None:
            adopted.append(out[0])
        return out

    def inserting(self, z, *prior_and_terms):
        inserted.append(z)
        return insert(self, z, *prior_and_terms)

    monkeypatch.setattr(guider, "try_initialize", initialize)
    monkeypatch.setattr(HistoryBuffer, "insert", inserting)
    assert len(_est_records(monkeypatch, {})) > 100
    assert adopted and len(inserted) > 100
    state = adopted[0]
    z = next(z for z in inserted if z.stamp > state.stamp)
    predicted = predict(state, z.stamp - state.stamp)
    for s in (state, predicted, corrected(predicted, z)):
        assert type(s.stamp) is float
        assert _floats(s.mean, 7) and _floats(s.planar, 15) and _floats(s.vertical, 3)
    for z in inserted:
        assert _floats((z.stamp, z.variance), 2) and _floats(z.lidar, 3) and _floats(z.vio, 3)


def test_baseline_initializes_with_a_vio_link_delay_of_0_2_s():
    # a VIO delivery delay 0.15 s above the detection delay puts the newest
    # detection more than STALE_TOLERANCE past the newest VIO sample; the
    # state is seeded from an older detection instead (at the default 0.02 s
    # the first EST is at 4.6 s)
    from coopguide.simulator import run_scenario

    overrides = load_config_file(str(CONFIGS / "baseline.cfg"))
    overrides.update({"scenario.duration": 15.0, "comm.delay_mean": 0.2})
    log = run_scenario(build_config(overrides))
    assert next(log.iter_tag("EST"), None) is not None


def test_baseline_lap_tracks_through_a_vio_link_delay_of_0_2_s():
    # with VIO 0.2 s behind the detections, each detection batch arrives
    # before VIO covers its stamp and waits for it (an agent filter that
    # fused such VIO samples as heading-only measurements held the one-lap
    # RMSE at 0.208 m)
    from coopguide.simulator import run_scenario

    overrides = load_config_file(str(CONFIGS / "baseline.cfg"))
    overrides.update({"trajectory.laps": 1, "comm.delay_mean": 0.2})
    report = evaluate_log(run_scenario(build_config(overrides)))
    assert report.rel_loc_rmse < 0.08


def test_occlusion_does_not_readopt_the_fused_track_from_its_last_detection(monkeypatch):
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    before = g._history
    last_fused = g._fused_detections.row(-1)
    offered = []
    try_initialize = guider.try_initialize
    monkeypatch.setattr(guider, "try_initialize",
                        lambda buffers, *a: offered.append(sorted(buffers))
                        or try_initialize(buffers, *a))
    # a wall hides the secondary; a hovering false target 6 m away, outside
    # the pre-gate, keeps arriving and fails the gate batch after batch
    clutter = secondary_position(t) + np.array([6.0, 0.0, 0.0])
    for k in range(int(round(t / 0.1)), int(round((t + 0.9) / 0.1))):
        tk = 0.1 * k
        g.ingest_detections([detection_record(tk, clutter, 5)])
        for j in range(3):
            g.ingest_vio(vio_pose(tk + j / 30.0))
    assert g._history is before
    assert g._fused_detections.row(-1) == last_fused
    assert offered and all(ids == [5] for ids in offered)


def test_stream_of_non_finite_vio_reads_as_heading_frozen():
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    for k in range(10):
        tk = t + 0.1 * k
        g.ingest_detections([detection(tk)])
        g.ingest_vio(TimedPose(tk, float("nan"), 0.0, 0.0))
    assert g.status(t + 1.0) is GuiderStatus.HEADING_FROZEN
    assert np.all(np.isfinite(position_of(g.current_output(t + 1.0).secondary_pose_in_l)))


def test_small_motion_freezes_transform():
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    # secondary hovers: windowed path length decays below the threshold
    hover = secondary_position(t)
    hover_heading = secondary_heading(t)
    for k in range(int(t / 0.1), int((t + 20.0) / 0.1)):
        tk = 0.1 * k
        g.ingest_detections([detection_record(tk, hover, 0)])
        for j in range(3):
            tv = tk + j / 30.0
            g.ingest_vio(pose_record(tv, R_LV @ hover + T_OFFSET,
                                     wrap_heading(hover_heading + THETA)))
    t = t + 20.0
    assert g.status(t) is GuiderStatus.TRANSFORM_FROZEN
    assert g.initialized  # the frame is kept, not dropped


def test_realign_freezes_unobservable_window_without_solving(monkeypatch):
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    solve = guider.solve_alignment_arrays
    calls = []

    def counting_solve(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(guider, "solve_alignment_arrays", counting_solve)
    g._realign(t)
    assert len(calls) == 1
    assert g.status(t) is GuiderStatus.TRACKING
    before = g._history.latest_state
    # same VIO window, but the fused detections hover at one point
    hover = secondary_position(t)
    g._fused_detections = detection_columns(detection_record(0.1 * k, hover, 0)
                                            for k in range(int(t / 0.1) + 1))
    g._realign(t)
    assert len(calls) == 1
    assert g.status(t) is GuiderStatus.TRANSFORM_FROZEN
    assert g._history.latest_state is before   # the check leaves the frame as it is


def test_transform_round_trip():
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    out = g.current_output(t)
    *translation, theta = out.transform_l_to_s
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-10, 10, 3)
        y = rot_z(theta) @ x + translation
        assert np.allclose(rot_z(theta).T @ (y - translation), x, atol=1e-12)


def test_transform_and_stream_drops_completed_and_transforms():
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    i = np.arange(20)
    traj = Trajectory(t - 5.0 + i,
                      np.column_stack([i, np.zeros(20), np.ones(20)]), 0.1 * i)
    output = g.current_output(t)
    out = g.transform_and_stream(traj, output)
    # points with stamp < t dropped; horizon keeps stamps <= t + 10
    kept = [k for k in range(20) if t <= traj.stamps[k] <= t + 10.0]
    assert len(out) == len(kept)
    assert np.array_equal(out.stamps, traj.stamps[kept])
    # mapped bit for bit with the transform of the output it was given
    *translation, theta = output.transform_l_to_s
    assert np.array_equal(out.positions, traj.positions[kept] @ rot_z(theta).T + translation)
    assert np.array_equal(out.headings, wrap_heading(traj.headings[kept] + theta))


def test_streamed_references_recover_lidar_frame_trajectory():
    # Closed-loop consistency (zero drift, noiseless): mapping the streamed
    # V-frame references back through the true transform reproduces the
    # desired L-frame trajectory.
    g = make_guider()
    t = drive(g, 0.0, 10.0)
    stamps = [t + 0.5 * i for i in range(10)]
    desired = Trajectory(stamps,
                         [secondary_position(s) for s in stamps],
                         [secondary_heading(s) for s in stamps])
    out = g.transform_and_stream(desired, g.current_output(t))
    for got_p, got_h, src_p, src_h in zip(out.positions, out.headings,
                                          desired.positions, desired.headings):
        back_p = rot_z(THETA).T @ (got_p - T_OFFSET)
        assert np.allclose(back_p, src_p, atol=0.02)
        assert abs(wrap_heading(got_h - THETA - src_h)) < 0.02


def test_stream_paused_when_heading_frozen():
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    t = drive(g, t, t + 2.0, vio_on=False)
    assert g.status(t) is GuiderStatus.HEADING_FROZEN
    traj = Trajectory([t + 1.0], [secondary_position(t)], [0.0])
    assert g.transform_and_stream(traj, g.current_output(t)) is None


def test_reinitialization_after_persistent_gate_failure():
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    # teleport the secondary: detections jump 6 m, VIO jumps consistently
    jump = np.array([6.0, 0.0, 0.0])
    for k in range(int(t / 0.1), int((t + 6.0) / 0.1)):
        tk = 0.1 * k
        g.ingest_detections([detection(tk, offset=jump)])
        for j in range(3):
            tv = tk + j / 30.0
            g.ingest_vio(pose_record(
                tv,
                R_LV @ (secondary_position(tv) + jump) + T_OFFSET,
                wrap_heading(secondary_heading(tv) + THETA),
                R_LV @ secondary_velocity(tv),
                0.125,
            ))
    t = t + 6.0
    assert g.initialized
    out = g.current_output(t)
    assert np.allclose(position_of(out.secondary_pose_in_l),
                       secondary_position(t) + jump, atol=0.1)
