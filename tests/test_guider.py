"""Guider pipeline: initialization, status machine, reference streaming."""

import math
from collections import deque

import numpy as np
import pytest

from coopguide import guider
from coopguide.alignment import AlignmentConfig
from coopguide.geometry import Detection, Frame, RelativeTransform, TimedPose, rot_z, wrap_heading
from coopguide.guider import (
    Guider,
    GuiderConfig,
    GuiderError,
    GuiderStatus,
    Trajectory,
    TrajectoryPoint,
)
from coopguide.tracker import TrackerConfig

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


def vio_pose(t):
    """True V-frame pose of the circling secondary (no drift, no noise)."""
    return TimedPose(
        t, Frame.VIO,
        R_LV @ secondary_position(t) + T_OFFSET,
        wrap_heading(secondary_heading(t) + THETA),
        R_LV @ secondary_velocity(t),
        0.5 / 4.0,
    )


def detection(t, track=0, offset=(0.0, 0.0, 0.0)):
    return Detection(t, secondary_position(t) + np.asarray(offset, float), 0.15, track)


def make_guider(**kwargs):
    return Guider(
        AlignmentConfig(window=15.0),
        TrackerConfig(),
        GuiderConfig(**kwargs),
    )


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
    assert np.allclose(out.secondary_pose_in_l.position, secondary_position(t), atol=0.05)
    assert abs(wrap_heading(g.active_transform.heading - THETA)) < 1e-3
    assert np.allclose(g.active_transform.translation, T_OFFSET, atol=0.02)


def test_empty_detection_batch_is_noop():
    g = make_guider()
    g.ingest_detections([])
    assert g.status(0.0) is GuiderStatus.UNINITIALIZED


def test_uninitialized_output_raises():
    g = make_guider()
    with pytest.raises(GuiderError):
        g.current_output(0.0)
    traj = Trajectory(Frame.LIDAR, (TrajectoryPoint(1.0, np.zeros(3)),))
    with pytest.raises(GuiderError):
        g.transform_and_stream(traj, 0.0)


def test_gate_rejected_detection_leaves_estimate_untouched():
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    before = g.current_output(t).secondary_pose_in_l
    # a detection 10 m away fails the Euclidean pre-gate
    g.ingest_detections([Detection(t, secondary_position(t) + np.array([10.0, 0, 0]),
                                   0.15, 7)])
    after = g.current_output(t).secondary_pose_in_l
    assert np.array_equal(before.position, after.position)


def test_detection_staleness_maps_to_dead_reckoning():
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    t = drive(g, t, t + 2.0, det_on=False)  # NLOS: VIO only
    assert g.status(t) is GuiderStatus.DEAD_RECKONING_VIO
    out = g.current_output(t)
    assert np.allclose(out.secondary_pose_in_l.position, secondary_position(t), atol=0.05)
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
    # heading stopped updating but position still corrects from detections
    assert out.secondary_pose_in_l.heading_rate == pytest.approx(frozen.heading_rate, abs=1e-12)
    assert np.allclose(out.secondary_pose_in_l.position, secondary_position(t), atol=0.05)
    t = drive(g, t, t + 1.0)
    assert g.status(t) is GuiderStatus.TRACKING


def test_small_motion_freezes_transform():
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    # secondary hovers: windowed path length decays below the threshold
    hover = secondary_position(t)
    hover_heading = secondary_heading(t)
    for k in range(int(t / 0.1), int((t + 20.0) / 0.1)):
        tk = 0.1 * k
        g.ingest_detections([Detection(tk, hover, 0.15, 0)])
        for j in range(3):
            tv = tk + j / 30.0
            g.ingest_vio(TimedPose(tv, Frame.VIO, R_LV @ hover + T_OFFSET,
                                   wrap_heading(hover_heading + THETA)))
    t = t + 20.0
    assert g.status(t) is GuiderStatus.TRANSFORM_FROZEN
    before = g.active_transform
    assert before is not None  # transform unchanged, not dropped


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
    before = g.active_transform
    # same VIO window, but the fused detections hover at one point
    hover = secondary_position(t)
    g._fused_detections = deque(Detection(0.1 * k, hover, 0.15, 0)
                                for k in range(int(t / 0.1) + 1))
    g._realign(t)
    assert len(calls) == 1
    assert g.status(t) is GuiderStatus.TRANSFORM_FROZEN
    assert g.active_transform is before


def test_transform_round_trip():
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    out = g.current_output(t)
    T = out.transform_l_to_s
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-10, 10, 3)
        assert np.allclose(T.inverse().apply(T.apply(x)), x, atol=1e-12)


def test_transform_and_stream_drops_completed_and_transforms():
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    pts = tuple(TrajectoryPoint(t - 5.0 + i, np.array([i, 0.0, 1.0]), 0.1 * i)
                for i in range(20))
    traj = Trajectory(Frame.LIDAR, pts)
    out = g.transform_and_stream(traj, t)
    # points with stamp < t dropped; horizon keeps stamps <= t + 10
    kept = [p for p in pts if t <= p.stamp <= t + 10.0]
    assert len(out) == len(kept)
    assert out.frame is Frame.VIO
    T = g.current_output(t).transform_l_to_s
    for got, src in zip(out.points, kept):
        assert np.allclose(got.position, T.apply(src.position), atol=1e-9)
        assert got.heading == pytest.approx(wrap_heading(src.heading + T.heading), abs=1e-9)


def test_streamed_references_recover_lidar_frame_trajectory():
    # Closed-loop consistency (zero drift, noiseless): mapping the streamed
    # V-frame references back through the true transform reproduces the
    # desired L-frame trajectory.
    g = make_guider()
    t = drive(g, 0.0, 10.0)
    pts = tuple(TrajectoryPoint(t + 0.5 * i,
                                secondary_position(t + 0.5 * i),
                                secondary_heading(t + 0.5 * i))
                for i in range(10))
    out = g.transform_and_stream(Trajectory(Frame.LIDAR, pts), t)
    true_T = RelativeTransform(T_OFFSET, THETA, Frame.LIDAR, Frame.VIO)
    back = true_T.inverse()
    for got, src in zip(out.points, pts):
        assert np.allclose(back.apply(got.position), src.position, atol=0.02)
        assert abs(wrap_heading(back.apply_heading(got.heading) - src.heading)) < 0.02


def test_stream_paused_when_heading_frozen():
    g = make_guider()
    t = drive(g, 0.0, 8.0)
    t = drive(g, t, t + 2.0, vio_on=False)
    assert g.status(t) is GuiderStatus.HEADING_FROZEN
    traj = Trajectory(Frame.LIDAR, (TrajectoryPoint(t + 1.0, secondary_position(t)),))
    assert g.transform_and_stream(traj, t) is None


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
            g.ingest_vio(TimedPose(
                tv, Frame.VIO,
                R_LV @ (secondary_position(tv) + jump) + T_OFFSET,
                wrap_heading(secondary_heading(tv) + THETA),
                R_LV @ secondary_velocity(tv),
                0.125,
            ))
    t = t + 6.0
    assert g.initialized
    out = g.current_output(t)
    assert np.allclose(out.secondary_pose_in_l.position,
                       secondary_position(t) + jump, atol=0.1)
