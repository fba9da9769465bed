"""Acceptance suite: one test per criterion, one PASS line printed per test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The drift sweep (criterion 5) is the long pole: ~9 values x 10 seeds
x ~500 simulated seconds, executed through the CLI sweep path with two
workers, budgeted under 5 minutes.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from coopguide.alignment import AlignmentConfig, closed_form_align, solve_alignment_arrays
from coopguide.cli import main
from coopguide.config import build_config
from coopguide.evaluation import evaluate_log, format_report
from coopguide.eventlog import EventLog
from coopguide.geometry import rot_z, wrap_heading
from coopguide.simulator import run_scenario
from coopguide.tracker import (
    GATE_CRITICAL,
    HistoryBuffer,
    Measurement,
    TrackerState,
    associate,
)
from coopguide.geometry import Detection

from columns import fuse


@contextlib.contextmanager
def criterion(number: int, title: str):
    detail = {}
    try:
        yield detail
    except BaseException:
        print(f"[criterion {number}] FAIL - {title}")
        raise
    extra = f" ({detail['note']})" if "note" in detail else ""
    print(f"[criterion {number}] PASS - {title}{extra}")


def _circle_points(n=50, radius=4.0, z=1.0):
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang),
                            np.full(n, z)])


def test_criterion_1_alignment_exact_recovery():
    with criterion(1, "alignment exact recovery, 100 noiseless cases") as d:
        pts = _circle_points(50)
        start = time.perf_counter()
        for case in range(100):
            rng = np.random.default_rng(100 + case)
            t_star = rng.uniform(-10.0, 10.0, 3)
            theta_star = rng.uniform(-math.pi, math.pi)
            vio = pts @ rot_z(theta_star).T + t_star
            res = solve_alignment_arrays(0.1 * np.arange(len(pts)), pts, vio)
            assert res.converged
            assert np.linalg.norm(res.translation - t_star) < 1e-6
            assert abs(wrap_heading(res.heading - theta_star)) < 1e-8
            t_cf, theta_cf = closed_form_align(pts, vio)
            assert np.linalg.norm(res.translation - t_cf) < 1e-6
            assert abs(wrap_heading(res.heading - theta_cf)) < 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0
        d["note"] = f"{elapsed:.2f} s"


@pytest.mark.parametrize("estimate_drift", [False, True])
def test_criterion_2_robust_alignment(estimate_drift):
    model = "with drift" if estimate_drift else "no drift"
    with criterion(2, f"robust recovery with 20% outliers at 5 m, {model}") as d:
        pts = _circle_points(50)
        cfg = AlignmentConfig(max_cost=5.0, estimate_drift=estimate_drift)
        passed = 0
        for case in range(100):
            rng = np.random.default_rng(1000 + case)
            t_star = rng.uniform(-10.0, 10.0, 3)
            theta_star = rng.uniform(-math.pi, math.pi)
            vio = pts @ rot_z(theta_star).T + t_star
            vio = vio + rng.normal(0.0, 0.05, vio.shape)
            for i in rng.choice(50, size=10, replace=False):
                direction = rng.normal(0.0, 1.0, 3)
                vio[i] += 5.0 * direction / np.linalg.norm(direction)
            res = solve_alignment_arrays(0.1 * np.arange(len(pts)), pts, vio, config=cfg)
            ok = (np.linalg.norm(res.translation - t_star) < 0.05
                  and abs(wrap_heading(res.heading - theta_star)) < 0.01)
            passed += int(ok)
        assert passed >= 95
        d["note"] = f"{passed}/100 within 0.05 m / 0.01 rad"


def test_criterion_3_replay_equivalence():
    with criterion(3, "1000 interleavings replay equivalence") as d:
        # unit diagonal covariance over (ox, rx, oy, ry, theta) and (oz, rz)
        planar = tuple(1.0 if i == j else 0.0 for i in range(5) for j in range(i, 5))
        anchor = TrackerState(0.0, (0.0,) * 7, planar, (1.0, 0.0, 1.0))
        worst = 0.0
        for case in range(100):
            rng = np.random.default_rng(3000 + case)
            measurements = []
            t = 0.0
            for _ in range(12):
                t += float(rng.uniform(0.02, 0.15))
                lidar = tuple(rng.normal(0.0, 3.0, 3).tolist())
                vio = tuple(rng.normal(0.0, 1.0, 3).tolist())
                measurements.append(Measurement(t, lidar, vio, float(rng.uniform(0.05, 0.5))))
            ordered = HistoryBuffer(anchor, span=1e9)
            for z in measurements:
                expected = fuse(ordered, z)
            want = np.concatenate([expected.mean, expected.planar, expected.vertical])
            for perm_i in range(10):
                buf = HistoryBuffer(anchor, span=1e9)
                for i in rng.permutation(len(measurements)):
                    fuse(buf, measurements[i])
                got = buf.latest_state
                got = np.concatenate([got.mean, got.planar, got.vertical])
                worst = max(worst, float(np.max(np.abs(got - want))))
                assert np.allclose(got, want, atol=1e-9)
        d["note"] = f"max deviation {worst:.2e}"


def test_criterion_4_gate_calibration():
    with criterion(4, "chi-square gate acceptance rate at p=0.95") as d:
        rng = np.random.default_rng(4000)
        # (ox, rx, oy, ry, theta) with variances 0.3, 0.01, 0.3, 0.01 and
        # 0.01, and (oz, rz) with 0.3 and 0.01
        planar = (0.3, 0.0, 0.0, 0.0, 0.0, 0.01, 0.0, 0.0, 0.0, 0.3, 0.0, 0.0, 0.01, 0.0, 0.01)
        state = TrackerState(0.0, (0.5, 0.0, -0.3, 0.0, 0.8, 0.2, 0.0), planar, (0.3, 0.0, 0.01))
        sigma = 0.15
        lidar = np.array([3.0, 1.0, 1.0])
        c, s = math.cos(0.8), math.sin(0.8)
        # h(x) = Rz(theta) d + o and the rows of its Jacobian over (ox, oy,
        # theta, oz): theta couples x and y
        h = rot_z(0.8) @ lidar + np.array([0.5, -0.3, 0.2])
        H = np.array([[1.0, 0.0, -s * lidar[0] - c * lidar[1], 0.0],
                      [0.0, 1.0, c * lidar[0] - s * lidar[1], 0.0],
                      [0.0, 0.0, 0.0, 1.0]])
        S = H @ np.diag([0.3, 0.3, 0.01, 0.3]) @ H.T + sigma ** 2 * np.eye(3)
        # an innovation beyond the 2 m pre-gate has d^2 >= 4 / max eig(S),
        # above the gate: the pre-gate rejects nothing the chi-square test keeps
        assert 4.0 / np.linalg.eigvalsh(S)[-1] > GATE_CRITICAL
        L = np.linalg.cholesky(S)
        det = Detection(0.0, *lidar.tolist(), sigma, track_id=0)
        accepted = 0
        trials = 10_000
        for _ in range(trials):
            vio = h + L @ rng.normal(0.0, 1.0, 3)
            if associate([det], state, vio.tolist()).accepted:
                accepted += 1
        rate = accepted / trials
        assert 0.93 <= rate <= 0.97
        d["note"] = f"rate {rate:.4f}"


SWEEP_SCENARIO = """
# drift sweep analog: 4 m circle at 0.5 m/s, 10 laps, square primary motion
scenario.seed = 1
scenario.tick_rate = 50.0
scenario.truth_log_decimation = 5
trajectory.pattern = circle
trajectory.radius = 4.0
trajectory.speed = 0.5
trajectory.center = 0,0,1.5
trajectory.laps = 10
primary.pattern = square
primary.size = 3.0
primary.speed = 0.5
alignment.window = 8.0
alignment.max_cost = 0.2
alignment.estimate_drift = true
guider.realign_period = 2.0
sweep.parameter = vio_drift.x
sweep.values = 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8
sweep.runs_per_value = 10
"""


@pytest.mark.slow
def test_criterion_5_drift_sweep(tmp_path):
    with criterion(5, "drift sweep 0-0.8 m/s, 10 seeds each") as d:
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(SWEEP_SCENARIO, encoding="utf-8")
        out = tmp_path / "sweep_out"
        start = time.perf_counter()
        code = main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--jobs", "2"])
        elapsed = time.perf_counter() - start
        assert code == 0
        rows = (out / "aggregate.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 90
        by_value: dict[float, list[tuple[float, float, bool]]] = {}
        for row in rows:
            value, _run, dev, rmse, failed = row.split(",")
            by_value.setdefault(float(value), []).append(
                (float(dev), float(rmse), failed == "1"))
        drifts = sorted(by_value)
        assert drifts == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        mean_dev = {v: float(np.mean([r[0] for r in by_value[v]])) for v in drifts}
        mean_rmse = {v: float(np.mean([r[1] for r in by_value[v]])) for v in drifts}
        failures = {v: sum(r[2] for r in by_value[v]) for v in drifts}

        for v in drifts:
            if v <= 0.7 + 1e-9:
                assert failures[v] == 0, f"failures at drift {v}: {failures[v]}"
            assert mean_dev[v] <= 0.9, f"deviation {mean_dev[v]:.3f} at drift {v}"
            assert mean_rmse[v] <= 0.6, f"rel-loc RMSE {mean_rmse[v]:.3f} at drift {v}"

        # non-decreasing within 2x the zero-drift noise floor
        dev_floor = mean_dev[0.0]
        rmse_floor = mean_rmse[0.0]
        for lo, hi in zip(drifts, drifts[1:]):
            assert mean_dev[hi] >= mean_dev[lo] - 2.0 * dev_floor
            assert mean_rmse[hi] >= mean_rmse[lo] - 2.0 * rmse_floor

        assert elapsed < 300.0
        d["note"] = (f"{elapsed:.0f} s; dev {mean_dev[0.0]:.2f}->"
                     f"{mean_dev[0.8]:.2f} m, rmse {mean_rmse[0.0]:.2f}->"
                     f"{mean_rmse[0.8]:.2f} m, failures@0.8={failures[0.8]}")


NLOS_SCENARIO = {
    "scenario.seed": 11,
    "primary.pattern": "line",
    "primary.size": 2.0,
    "primary.speed": 0.3,
    "primary.center": "0,-4,3",
    "trajectory.pattern": "circle",
    "trajectory.radius": 3.0,
    "trajectory.center": "0,3,1.5",
    "trajectory.laps": 10,
    "vio_drift.sigma": 0.04,
    "false_targets.positions": "3.4,0.6,1.5; 2.0,6.8,1.5",
    "nlos.walls": "-4,-0.5,-1,-0.5",
    "scenario.tick_rate": 50.0,
    "scenario.truth_log_decimation": 5,
}


def test_criterion_6_nlos_with_false_targets():
    with criterion(6, "NLOS loops with occluder wall and false targets") as d:
        log = run_scenario(build_config(NLOS_SCENARIO))
        assert not log.failed
        report = evaluate_log(log)
        tracked, untracked = report.tracked_rmse, report.untracked_rmse
        assert tracked is not None and untracked is not None
        assert tracked < untracked
        assert tracked <= 0.25

        ts_t, ts_p, _ = log.truth()
        est_t, est_p, _, _ = log.estimates()
        truth_at = np.column_stack([np.interp(est_t, ts_t, ts_p[:, i])
                                    for i in range(3)])
        err = np.linalg.norm(est_p - truth_at, axis=1)

        # relative localization recovers below 0.25 m within 5 s of each
        # visibility restoration
        det0 = log.detection_stamps(0)
        gaps = np.diff(det0)
        restorations = det0[1:][gaps > 1.0]
        assert len(restorations) >= 5  # one NLOS window per lap
        for r in restorations:
            mask = (est_t >= r) & (est_t <= r + 5.0)
            assert mask.any()
            assert float(err[mask].min()) < 0.25, f"no recovery after t={r:.1f}"

        # false-target tracks never capture the estimate
        for ft in ((3.4, 0.6, 1.5), (2.0, 6.8, 1.5)):
            dist = np.linalg.norm(est_p - np.asarray(ft), axis=1)
            assert float(dist.min()) > 0.5

        d["note"] = (f"tracked {tracked:.3f} m < untracked {untracked:.3f} m, "
                     f"{len(restorations)} NLOS windows")


def test_criterion_7_synthetic_ate_hand_computed():
    with criterion(7, "evaluation pipeline vs hand-computed ATE") as d:
        # circle truth; estimate equals truth for the first 20 s (so the
        # first-window alignment is exactly the identity) and then drifts
        # linearly in z
        from coopguide.config import format_value

        cfg = build_config({})
        log = EventLog()
        for key, value in cfg.effective_items():
            log.append(("H", key, format_value(value)))
        dt = 0.1
        n = 600
        drift_rate = 0.02
        t_arr = np.arange(n) * dt
        errs = []
        for t in t_arr:
            ang = 0.125 * t
            x, y, z = 4 * math.cos(ang), 4 * math.sin(ang), 1.5
            log.append(("TS", float(t), x, y, z, 0.0))
            dz = drift_rate * (t - 20.0) if t > 20.0 else 0.0
            errs.append(dz)
            log.append(("EST", float(t), "tracking", x, y, z + dz, 0.0,
                        0.0, 0.0, 0.0, 0.0))
        log.append(("END", float(t_arr[-1])))

        report = evaluate_log(log)
        errs = np.asarray(errs)
        ate_3d_hand = math.sqrt(float(np.mean(errs ** 2)))
        assert abs(report.ate_3d - ate_3d_hand) < 1e-9
        assert abs(report.ate_2d - 0.0) < 1e-9
        assert abs(report.rel_loc_rmse - ate_3d_hand) < 1e-9
        d["note"] = f"ate_3d {report.ate_3d:.6f} == hand {ate_3d_hand:.6f}"


def test_criterion_8_determinism():
    with criterion(8, "byte-identical logs and metrics for a fixed seed") as d:
        overrides = {
            "scenario.seed": 42,
            "trajectory.laps": 1,
            "scenario.duration": 40.0,
            "vio_drift.sigma": 0.05,
            "detection.sigma": 0.15,
        }
        log_a = run_scenario(build_config(overrides))
        log_b = run_scenario(build_config(overrides))
        bytes_a = log_a.dumps().encode()
        bytes_b = log_b.dumps().encode()
        assert bytes_a == bytes_b
        report_a = format_report(evaluate_log(log_a))
        report_b = format_report(evaluate_log(EventLog.loads(log_b.dumps())))
        assert report_a == report_b
        d["note"] = f"{len(bytes_a)} bytes identical"
