"""Metrics: windowed alignment, ATE, path deviation, tracked/untracked split."""

import math

import numpy as np
import pytest

from coopguide.config import build_config
from coopguide.evaluation import (
    EvaluationError,
    absolute_trajectory_error,
    align_first_window,
    evaluate_log,
    format_report,
    mean_path_deviation,
)
from coopguide.geometry import rot_z
from coopguide.guider import DETECTION_STALENESS
from coopguide.simulator import EventLog, ReferencePath, generate_trajectory, run_scenario


def _circle_traj(n=400, radius=4.0, dt=0.1, z=1.5):
    t = np.arange(n) * dt
    ang = 0.125 * t
    pos = np.column_stack([radius * np.cos(ang), radius * np.sin(ang), np.full(n, z)])
    return t, pos


# ---------------------------------------------------------------------------
# align_first_window


def test_align_identity_for_equal_trajectories():
    t, pos = _circle_traj()
    T = align_first_window((t, pos), (t, pos), window=20.0)
    assert np.allclose(T.translation, 0.0, atol=1e-12)
    assert abs(T.heading) < 1e-12


def test_align_recovers_constant_transform():
    t, pos = _circle_traj()
    theta = math.pi / 4
    offset = np.array([1.0, 0.0, 0.0])
    moved = pos @ rot_z(theta).T + offset
    # moved plays the ground truth: fit maps pos onto moved
    T = align_first_window((t, pos), (t, moved), window=20.0)
    assert T.heading == pytest.approx(theta, abs=1e-9)
    assert np.allclose(T.translation, offset, atol=1e-9)


def test_align_ignores_post_window_drift():
    t, pos = _circle_traj()
    drifted = pos.copy()
    drifted[t > 20.0] += np.array([5.0, 0.0, 0.0])  # drift after the window
    T = align_first_window((t, drifted), (t, pos), window=20.0)
    assert np.allclose(T.translation, 0.0, atol=1e-9)
    assert abs(T.heading) < 1e-9


def test_align_insufficient_overlap_raises():
    t, pos = _circle_traj(n=10)
    with pytest.raises(EvaluationError):
        align_first_window((t, pos), (t + 100.0, pos), window=20.0)


# ---------------------------------------------------------------------------
# absolute_trajectory_error


def test_ate_zero_for_identical():
    t, pos = _circle_traj()
    assert absolute_trajectory_error((t, pos), (t, pos)) == (0.0, 0.0)


def test_ate_axis_separation():
    t, pos = _circle_traj()
    lifted = pos + np.array([0.0, 0.0, 0.3])
    ate_2d, ate_3d = absolute_trajectory_error((t, lifted), (t, pos))
    assert ate_2d == pytest.approx(0.0, abs=1e-12)
    assert ate_3d == pytest.approx(0.3, abs=1e-12)


def test_ate_rmse_definition():
    t = np.array([0.0, 1.0])
    gt = np.zeros((2, 3))
    est = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    ate_2d, ate_3d = absolute_trajectory_error((t, est), (t, gt))
    assert ate_2d == pytest.approx(math.sqrt(0.5))
    assert ate_3d == pytest.approx(math.sqrt(0.5))


def test_ate_invariant_under_common_rigid_transform():
    t, pos = _circle_traj()
    est = pos + np.random.default_rng(1).normal(0, 0.1, pos.shape)
    base = absolute_trajectory_error((t, est), (t, pos))
    T = rot_z(1.1)
    offset = np.array([3.0, -4.0, 2.0])
    moved = absolute_trajectory_error(
        (t, est @ T.T + offset), (t, pos @ T.T + offset))
    assert moved[0] == pytest.approx(base[0], rel=1e-9)
    assert moved[1] == pytest.approx(base[1], rel=1e-9)


# ---------------------------------------------------------------------------
# mean_path_deviation


def _circle_path(values=None):
    v = build_config(values or {}).values
    return ReferencePath(v, generate_trajectory(v))


def test_path_deviation_zero_on_path():
    path = _circle_path()
    pts = np.array([[4.0, 0.0, 1.5], [0.0, 4.0, 1.5], [-4.0, 0.0, 1.5]])
    assert mean_path_deviation(pts, path) == pytest.approx(0.0, abs=1e-12)


def test_path_deviation_constant_offset():
    path = _circle_path()
    pts = np.array([[4.5, 0.0, 1.5], [0.0, 4.5, 1.5]])
    assert mean_path_deviation(pts, path) == pytest.approx(0.5, abs=1e-12)


def test_path_deviation_symmetric_mean():
    path = _circle_path()
    pts = np.array([[4.5, 0.0, 1.5], [3.5, 0.0, 1.5]])
    assert mean_path_deviation(pts, path) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# tracked/untracked split


def _synthetic_log(errors_visible, errors_hidden):
    """Log with constant-position truth and estimates offset by known errors.

    The hidden phase starts 0.2 s more than DETECTION_STALENESS after the
    last detection, so the tracked label matches the construction exactly.
    """
    log = EventLog()
    cfg = build_config({})
    from coopguide.config import format_value
    for key, value in cfg.effective_items():
        log.append(("H", key, format_value(value)))
    t = 0.0
    k = 0
    for phase, err in (("vis", errors_visible), ("hid", errors_hidden)):
        if phase == "hid":
            t += DETECTION_STALENESS
        for _ in range(40):
            log.append(("TS", t, 1.0, 2.0, 3.0, 0.0))
            if phase == "vis":
                log.append(("DET", t, t + 0.05, 0, 1.0, 2.0, 3.0, 0.15))
            log.append(("EST", t, "tracking", 1.0 + err, 2.0, 3.0, 0.0,
                        0.0, 0.0, 0.0, 0.0))
            t += 0.2
            k += 1
    log.append(("END", t))
    return log


def test_split_tracked_rmse_constructed_fixture():
    report = evaluate_log(_synthetic_log(0.1, 0.3))
    tracked, untracked = report.tracked_rmse, report.untracked_rmse
    assert tracked == pytest.approx(0.1, abs=1e-9)
    assert untracked == pytest.approx(0.3, abs=1e-9)


def test_split_no_occlusion_reports_absent_untracked():
    report = evaluate_log(_all_visible_log())
    tracked, untracked = report.tracked_rmse, report.untracked_rmse
    assert untracked is None
    assert tracked == pytest.approx(0.1, abs=1e-9)


def _all_visible_log():
    log = EventLog()
    cfg = build_config({})
    from coopguide.config import format_value
    for key, value in cfg.effective_items():
        log.append(("H", key, format_value(value)))
    t = 0.0
    for _ in range(40):
        log.append(("TS", t, 1.0, 2.0, 3.0, 0.0))
        log.append(("DET", t, t + 0.05, 0, 1.0, 2.0, 3.0, 0.15))
        log.append(("EST", t, "tracking", 1.1, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        t += 0.2
    log.append(("END", t))
    return log


# ---------------------------------------------------------------------------
# end-to-end over real logs


def test_evaluate_log_full_run():
    cfg = build_config({"trajectory.laps": 1, "detection.sigma": 0.05})
    log = run_scenario(cfg)
    report = evaluate_log(log)
    assert report.ate_2d <= report.ate_3d + 1e-12
    assert report.rel_loc_rmse < 0.2
    assert report.mean_path_deviation < 0.2
    assert not report.failure
    assert len(report.stamps) == len(report.errors_3d)
    text = format_report(report)
    assert "ate_3d" in text and "failure = false" in text


def test_metrics_identical_after_serialize_reload():
    cfg = build_config({"trajectory.laps": 1, "scenario.duration": 30.0})
    log = run_scenario(cfg)
    direct = evaluate_log(log)
    reloaded = evaluate_log(EventLog.loads(log.dumps()))
    assert direct.ate_2d == reloaded.ate_2d
    assert direct.ate_3d == reloaded.ate_3d
    assert direct.mean_path_deviation == reloaded.mean_path_deviation
    assert direct.rel_loc_rmse == reloaded.rel_loc_rmse
    assert np.array_equal(direct.errors_3d, reloaded.errors_3d)


def test_align_then_ate_bounded_by_interpolation_error():
    # spec invariant: on drift-free data the pipeline ATE is at the numerical
    # floor when the same series is compared against itself through the
    # alignment path (100 Hz truth sampling)
    cfg = build_config({"trajectory.laps": 1, "scenario.duration": 30.0})
    log = run_scenario(cfg)
    ts_t, ts_p, _ = log.truth()
    T = align_first_window((ts_t, ts_p), (ts_t, ts_p), window=20.0)
    aligned = ts_p @ T.rotation.T + T.translation
    ate_2d, ate_3d = absolute_trajectory_error((ts_t, aligned), (ts_t, ts_p))
    assert ate_3d < 1e-6


def test_log_config_round_trip():
    config = build_config({"trajectory.laps": 1,
                           "scenario.duration": 10.0,
                           "vio_drift.sigma": 0.07,
                           "false_targets.positions": "3.4,0.6,1.5"})
    back = run_scenario(config).config()
    assert back.values == config.values
    assert back.alignment == config.alignment
