"""Metrics: windowed alignment, ATE, path deviation, tracked/untracked split."""

import math
from pathlib import Path

import numpy as np
import pytest

from coopguide import evaluation
from coopguide.alignment import closed_form_align
from coopguide.config import build_config, format_value, load_config_file
from coopguide.evaluation import (
    ALIGN_WINDOW,
    EvaluationError,
    absolute_trajectory_error,
    align_first_window,
    evaluate_log,
    format_report,
    mean_path_deviation,
)
from coopguide.eventlog import EventLog
from coopguide.geometry import interp_columns, rot_z
from coopguide.guider import DETECTION_STALENESS
from coopguide.paths import ReferencePath, generate_trajectory
from coopguide.simulator import run_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _circle_traj(n=400, radius=4.0, dt=0.1, z=1.5):
    t = np.arange(n) * dt
    ang = 0.125 * t
    pos = np.column_stack([radius * np.cos(ang), radius * np.sin(ang), np.full(n, z)])
    return t, pos


# ---------------------------------------------------------------------------
# align_first_window


def test_align_identity_for_equal_trajectories():
    t, pos = _circle_traj()
    t_fit, heading = align_first_window(t, pos, pos)
    assert np.allclose(t_fit, 0.0, atol=1e-12)
    assert abs(heading) < 1e-12


def test_align_recovers_constant_transform():
    t, pos = _circle_traj()
    theta = math.pi / 4
    offset = np.array([1.0, 0.0, 0.0])
    moved = pos @ rot_z(theta).T + offset
    # moved plays the ground truth: fit maps pos onto moved
    t_fit, heading = align_first_window(t, pos, moved)
    assert heading == pytest.approx(theta, abs=1e-9)
    assert np.allclose(t_fit, offset, atol=1e-9)


def test_align_ignores_post_window_drift():
    t, pos = _circle_traj()
    drifted = pos.copy()
    drifted[t > 20.0] += np.array([5.0, 0.0, 0.0])  # drift after the window
    t_fit, heading = align_first_window(t, drifted, pos)
    assert np.allclose(t_fit, 0.0, atol=1e-9)
    assert abs(heading) < 1e-9


def test_align_insufficient_overlap_raises():
    # one pair in the first window: the second comes 30 s after the first
    t, pos = _circle_traj(n=2, dt=30.0)
    with pytest.raises(EvaluationError, match="1 samples"):
        align_first_window(t, pos, pos)
    with pytest.raises(EvaluationError, match="1 samples"):
        align_first_window(t[:1], pos[:1], pos[:1])


# ---------------------------------------------------------------------------
# absolute_trajectory_error


def test_ate_zero_for_identical():
    t, pos = _circle_traj()
    assert absolute_trajectory_error(pos, pos) == (0.0, 0.0)


def test_ate_axis_separation():
    t, pos = _circle_traj()
    lifted = pos + np.array([0.0, 0.0, 0.3])
    ate_2d, ate_3d = absolute_trajectory_error(lifted, pos)
    assert ate_2d == pytest.approx(0.0, abs=1e-12)
    assert ate_3d == pytest.approx(0.3, abs=1e-12)


def test_ate_rmse_definition():
    gt = np.zeros((2, 3))
    est = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    ate_2d, ate_3d = absolute_trajectory_error(est, gt)
    assert ate_2d == pytest.approx(math.sqrt(0.5))
    assert ate_3d == pytest.approx(math.sqrt(0.5))


def test_ate_invariant_under_common_rigid_transform():
    _, pos = _circle_traj()
    est = pos + np.random.default_rng(1).normal(0, 0.1, pos.shape)
    base = absolute_trajectory_error(est, pos)
    T = rot_z(1.1)
    offset = np.array([3.0, -4.0, 2.0])
    moved = absolute_trajectory_error(est @ T.T + offset, pos @ T.T + offset)
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


def _header_log():
    """An event log holding the config echo of the defaults."""
    log = EventLog()
    for key, value in build_config({}).effective_items():
        log.append(("H", key, format_value(value)))
    return log


def _synthetic_log(errors_visible, errors_hidden):
    """Log with constant-position truth and estimates offset by known errors.

    The hidden phase starts 0.2 s more than DETECTION_STALENESS after the
    last detection, so the tracked label matches the construction exactly.
    """
    log = _header_log()
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
    log = _header_log()
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
    t_fit, heading = align_first_window(ts_t, ts_p, ts_p)
    aligned = ts_p @ rot_z(heading).T + t_fit
    ate_2d, ate_3d = absolute_trajectory_error(aligned, ts_p)
    assert ate_3d < 1e-6


def test_log_config_round_trip():
    config = build_config({"trajectory.laps": 1,
                           "scenario.duration": 10.0,
                           "vio_drift.sigma": 0.07,
                           "false_targets.positions": "3.4,0.6,1.5"})
    back = run_scenario(config).config()
    assert back.values == config.values
    assert back.alignment == config.alignment


# ---------------------------------------------------------------------------
# one estimate-truth pairing per log


def test_evaluate_log_raises_when_estimates_and_truth_do_not_overlap():
    log = _header_log()
    t, pos = _circle_traj(n=40, dt=0.2)
    for k in range(40):
        log.append(("TS", t[k], *pos[k].tolist(), 0.0))
    for k in range(40):   # every estimate after the last truth stamp
        log.append(("EST", t[k] + 10.0, "tracking", *pos[k].tolist(),
                    0.0, 0.0, 0.0, 0.0, 0.0))
    log.append(("END", 20.0))
    with pytest.raises(EvaluationError, match="do not overlap"):
        evaluate_log(log)


def _reference_align_first_window(traj, ground_truth):
    # the pairing-per-metric form that evaluate_log replaced, kept as oracle
    t_traj, p_traj = traj
    t_gt, p_gt = ground_truth
    if len(t_traj) == 0 or len(t_gt) == 0:
        raise EvaluationError("empty trajectory")
    start = max(t_traj[0], t_gt[0])
    end = min(t_traj[-1], t_gt[-1])
    if end <= start:
        raise EvaluationError("trajectories do not overlap in time")
    mask = (t_traj >= start) & (t_traj <= min(start + ALIGN_WINDOW, end))
    if int(mask.sum()) < 2:
        raise EvaluationError("insufficient overlap")
    gt_at = interp_columns(t_traj[mask], t_gt, p_gt)
    return closed_form_align(p_traj[mask], gt_at)


def _reference_absolute_trajectory_error(aligned, ground_truth):
    t_traj, p_traj = aligned
    t_gt, p_gt = ground_truth
    start = max(t_traj[0], t_gt[0]) if len(t_traj) and len(t_gt) else 0.0
    end = min(t_traj[-1], t_gt[-1]) if len(t_traj) and len(t_gt) else -1.0
    mask = (t_traj >= start) & (t_traj <= end)
    if not len(t_traj) or not len(t_gt) or not mask.any():
        raise EvaluationError("empty overlap between trajectory and ground truth")
    gt_at = interp_columns(t_traj[mask], t_gt, p_gt)
    delta = p_traj[mask] - gt_at
    ate_2d = float(np.sqrt(np.mean(delta[:, 0] ** 2 + delta[:, 1] ** 2)))
    ate_3d = float(np.sqrt(np.mean(np.einsum("ij,ij->i", delta, delta))))
    return ate_2d, ate_3d


def _assert_matches_reference(log, monkeypatch):
    fits = []
    align = evaluation.align_first_window
    monkeypatch.setattr(evaluation, "align_first_window",
                        lambda *a: fits.append(align(*a)) or fits[-1])
    report = evaluate_log(log)
    est_t, est_p, _, _ = log.estimates()
    ts_t, ts_p, _ = log.truth()
    t, theta = _reference_align_first_window((est_t, est_p), (ts_t, ts_p))
    ate = _reference_absolute_trajectory_error((est_t, est_p @ rot_z(theta).T + t),
                                               (ts_t, ts_p))
    delta = est_p - interp_columns(est_t, ts_t, ts_p)
    rel_loc_rmse = float(np.sqrt(np.mean(np.linalg.norm(delta, axis=1) ** 2)))
    [(t_fit, theta_fit)] = fits
    assert np.array_equal(t_fit, t) and theta_fit == theta
    assert (report.ate_2d, report.ate_3d) == ate
    assert report.rel_loc_rmse == rel_loc_rmse
    return report


@pytest.mark.parametrize("name, overrides", [
    ("baseline.cfg", {}),
    ("nlos.cfg", {}),
    ("drift_sweep.cfg", {"vio_drift.x": 0.8}),
])
def test_one_pairing_reproduces_the_per_metric_pairings_on_one_lap_logs(
        name, overrides, monkeypatch):
    values = load_config_file(str(CONFIGS / name))
    values.update(overrides, **{"trajectory.laps": 1})
    _assert_matches_reference(run_scenario(build_config(values)), monkeypatch)


def test_ate_leaves_out_an_estimate_after_the_last_truth_that_rel_loc_rmse_keeps(
        monkeypatch):
    log = _header_log()
    t, pos = _circle_traj(n=40, dt=0.2)
    for k in range(40):
        log.append(("TS", t[k], *pos[k].tolist(), 0.0))
        log.append(("EST", t[k], "tracking", *pos[k].tolist(), 0.0, 0.0, 0.0, 0.0, 0.0))
    # 3 m off the truth held at its last sample, 0.6 s after that sample
    late = (pos[-1] + [3.0, 0.0, 0.0]).tolist()
    log.append(("EST", t[-1] + 0.6, "tracking", *late, 0.0, 0.0, 0.0, 0.0, 0.0))
    log.append(("END", t[-1] + 0.6))
    report = _assert_matches_reference(log, monkeypatch)
    assert report.ate_3d < 1e-9
    assert report.rel_loc_rmse == pytest.approx(math.sqrt(9.0 / 41))
    assert report.errors_3d[-1] == pytest.approx(3.0)


def test_evaluate_log_interpolates_the_truth_once(monkeypatch):
    calls = []
    interp = evaluation.interp_columns
    monkeypatch.setattr(evaluation, "interp_columns",
                        lambda *a: calls.append(1) or interp(*a))
    evaluate_log(_synthetic_log(0.1, 0.3))
    assert len(calls) == 1
