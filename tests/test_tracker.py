"""Frame filter contracts: prediction, correction, gating, replay, init."""

import math

import numpy as np
import pytest
from scipy.special import gammainc

from coopguide import tracker
from coopguide.alignment import AlignmentConfig
from coopguide.geometry import (
    Detection,
    TimedPose,
    rot_z,
    wrap_heading,
)
from coopguide.guider import Guider
from coopguide.tracker import (
    HistoryBuffer,
    Measurement,
    StaleMeasurementError,
    TrackerState,
    associate,
    innovation,
    predict,
    try_initialize,
)

from columns import corrected, detection_columns, fuse, pose_columns


# ---------------------------------------------------------------------------
# oracles


def oracle_chi2_critical(p, dof, lo=0.0, hi=100.0):
    """Bisection on the regularized incomplete gamma CDF of the chi-square."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gammainc(dof / 2.0, mid / 2.0) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


#: the (row, column) of each entry of ``TrackerState.planar``
PLANAR = [(i, j) for i in range(5) for j in range(i, 5)]
#: the offset entries (ox, oy, oz) and the rate entries (rx, ry, rz) of the
#: 7-state (ox, rx, oy, ry, theta, oz, rz)
OFFSET = [0, 2, 5]
RATE = [1, 3, 6]


def dense(state):
    """The 7-vector mean and the 7x7 covariance that a state's blocks form."""
    P = np.zeros((7, 7))
    for (i, j), v in zip(PLANAR, state.planar):
        P[i, j] = P[j, i] = v
    c00, c01, c11 = state.vertical
    P[5:, 5:] = [[c00, c01], [c01, c11]]
    return np.array(state.mean), P


def from_dense(stamp, m, P):
    return TrackerState(stamp, tuple(np.asarray(m, float).tolist()),
                        tuple(float(P[i, j]) for i, j in PLANAR),
                        (float(P[5, 5]), float(P[5, 6]), float(P[6, 6])))


def dense_predict(m, P, dt):
    """Reference prediction with dense 7x7 algebra."""
    F = np.eye(7)
    F[0, 1] = F[2, 3] = F[5, 6] = dt
    qo, qr, qh = tracker.PROCESS_NOISE
    Q = np.zeros((7, 7))
    for a in (0, 2, 5):
        Q[a:a + 2, a:a + 2] = [[qo * dt + qr * dt ** 3 / 3, qr * dt ** 2 / 2],
                               [qr * dt ** 2 / 2, qr * dt]]
    Q[4, 4] = qh * dt
    return F @ m, F @ P @ F.T + Q


def dense_model(m, lidar):
    """h(x) = Rz(theta) d + o and its 3x7 Jacobian at the mean ``m``."""
    d = np.asarray(lidar, float)
    c, s = math.cos(m[4]), math.sin(m[4])
    H = np.zeros((3, 7))
    H[[0, 1, 2], OFFSET] = 1.0
    H[:, 4] = np.array([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]]) @ d
    return rot_z(m[4]) @ d + m[OFFSET], H


def dense_update(m, P, lidar, vio, r):
    """Reference joint EKF correction (dense gain, 7x7 covariance) and the
    squared Mahalanobis distance of its innovation."""
    h, H = dense_model(m, lidar)
    y = np.asarray(vio, float) - h
    S = H @ P @ H.T + r * np.eye(3)
    K = np.linalg.solve(S, H @ P).T
    mean = m + K @ y
    mean[4] = wrap_heading(mean[4])
    P_new = P - K @ S @ K.T
    return mean, 0.5 * (P_new + P_new.T), float(y @ np.linalg.solve(S, y))


def state_from(stamp, mean7, planar_diag=(1.0,) * 5, vertical_diag=(1.0, 1.0)):
    """A state with the given mean and diagonal blocks."""
    diag = iter(map(float, planar_diag))
    planar = tuple(next(diag) if i == j else 0.0 for i, j in PLANAR)
    c00, c11 = map(float, vertical_diag)
    return TrackerState(stamp, tuple(map(float, mean7)), planar, (c00, 0.0, c11))


def make_state(stamp=0.0, offset=(0, 0, 0), rate=(0, 0, 0), theta=0.0, var=1.0):
    (ox, oy, oz), (rx, ry, rz) = offset, rate
    return state_from(stamp, (ox, rx, oy, ry, theta, oz, rz), (var,) * 5, (var, var))


def _meas(stamp, lidar, vio, sigma=1.0):
    return Measurement(stamp, tuple(np.asarray(lidar, float).tolist()),
                       tuple(np.asarray(vio, float).tolist()), sigma ** 2)


def _random_state(rng, stamp):
    # symmetric PSD blocks; theta near +-pi half of the time
    edge = rng.uniform(-0.05, 0.05) + (math.pi if rng.uniform() < 0.5 else -math.pi)
    theta = wrap_heading(edge if rng.uniform() < 0.5 else float(rng.uniform(-3.0, 3.0)))
    scale = np.array([0.3, 0.05, 0.3, 0.05, 0.1, 0.3, 0.05])
    A = rng.normal(size=(7, 7)) * scale[:, None]
    P = A @ A.T + np.diag(scale ** 2) * 1e-3
    P[5:, :5] = P[:5, 5:] = 0.0
    m = rng.normal(0.0, 2.0, 7) * [1.0, 0.1, 1.0, 0.1, 0.0, 1.0, 0.1]
    m[4] = theta
    return from_dense(stamp, m, P)


def _random_detection(rng, state, turn=0.3):
    """A lidar position and a VIO position near h(x), the latter with the
    heading turned by up to ``turn``: the update moves theta across +-pi
    when the state's theta is near it."""
    d = rng.normal(0.0, 3.0, 3)
    m = np.array(state.mean)
    vio = rot_z(m[4] + rng.uniform(-turn, turn)) @ d + m[OFFSET] + rng.normal(0.0, 0.2, 3)
    return d.tolist(), vio.tolist(), float(rng.uniform(1e-3, 0.5))


# ---------------------------------------------------------------------------
# predict


def test_predict_constant_velocity():
    s = make_state(offset=(0, 0, 0), rate=(1, 0, -0.5))
    out = predict(s, 0.5)
    assert np.allclose(np.array(out.mean)[OFFSET], [0.5, 0, -0.25])
    assert out.stamp == 0.5


def test_predict_zero_dt_is_identity():
    s = make_state(offset=(1, 2, 3), rate=(0.1, 0.2, 0.3), theta=0.5)
    assert predict(s, 0.0) is s


def test_predict_rejects_negative_dt():
    with pytest.raises(ValueError):
        predict(make_state(), -0.1)


def test_predict_covariance_grows_and_stays_symmetric():
    s = make_state(var=0.1)
    P_out, P_s = dense(predict(s, 1.0))[1], dense(s)[1]
    assert np.allclose(P_out, P_out.T)
    assert np.all(np.diag(P_out) > np.diag(P_s))


# ---------------------------------------------------------------------------
# update


def test_update_equal_weight_fusion_1d_slice():
    # z: the offset's prior variance equals the detection's
    s = make_state(var=1.0)
    out = corrected(s, _meas(0.0, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], sigma=1.0))
    assert out.mean[5] == pytest.approx(0.5)
    assert out.vertical[0] == pytest.approx(0.5)


def test_update_non_informative_measurement_is_identity():
    s = make_state(offset=(1, 2, 3), rate=(0.5, 0, 0), var=2.0)
    out = corrected(s, _meas(0.0, [1.0, 1.0, 1.0], [50.0, 50.0, 50.0], sigma=1e7))
    for got, want in ((out.mean, s.mean), (out.planar, s.planar), (out.vertical, s.vertical)):
        assert np.allclose(got, want, atol=1e-9)


def test_update_sequence_matches_batch_ls_oracle():
    # with theta known (zero variance) the model is linear in (o, r), so
    # same-stamp updates equal information-form batch least squares over
    # the six offset and rate states
    rng = np.random.default_rng(21)
    theta = 0.7
    m0 = rng.normal(0.0, 0.1, 7)
    m0[4] = theta
    diag = rng.uniform(0.5, 2.0, 7)
    state0 = state_from(0.0, m0, [*diag[:4], 0.0], diag[5:])
    keep = [0, 1, 2, 3, 5, 6]
    lam = np.diag(1.0 / diag[keep])
    eta = lam @ m0[keep]
    state = state0
    for _ in range(5):
        d, p, r = rng.normal(0.0, 2.0, 3), rng.normal(0.0, 2.0, 3), float(rng.uniform(0.05, 0.5))
        state = corrected(state, _meas(0.0, d, p, math.sqrt(r)))
        H = np.zeros((3, 6))
        H[[0, 1, 2], [0, 2, 4]] = 1.0
        lam = lam + H.T @ H / r
        eta = eta + H.T @ (p - rot_z(theta) @ d) / r
    P_b = np.linalg.inv(lam)
    mean, P = dense(state)
    assert np.allclose(mean[keep], P_b @ eta, atol=1e-9)
    assert mean[4] == theta
    assert np.allclose(P[np.ix_(keep, keep)], P_b, atol=1e-9)


def test_update_wraps_heading_innovation_across_boundary():
    # theta = 3.1 and a VIO position turned 0.2 rad further: theta moves up
    # past pi and is wrapped, as in the dense oracle
    s = state_from(0.0, (0, 0, 0, 0, 3.1, 0, 0), (1.0, 1.0, 1.0, 1.0, 0.5))
    d = [3.0, 0.0, 0.0]
    z = _meas(0.0, d, rot_z(3.3) @ np.array(d), sigma=0.1)
    out = corrected(s, z)
    m, _, _ = dense_update(*dense(s), z.lidar, z.vio, z.variance)
    assert -math.pi < out.mean[4] < 0.0
    assert out.mean[4] == pytest.approx(m[4], abs=1e-12)


def test_update_rejects_singular_innovation():
    s = state_from(0.0, np.zeros(7), (0.0,) * 5, (0.0, 0.0))
    with pytest.raises(ValueError):
        innovation(s, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        associate([Detection(0.0, 1.0, 0.0, 0.0, 0.0, 0)], s, [1.0, 0.0, 0.0])


def test_covariance_psd_through_random_cycles():
    # Spec invariant: symmetric PSD through 1e4 random predict/update cycles.
    rng = np.random.default_rng(22)
    state = make_state(var=1.0)
    for i in range(10_000):
        state = predict(state, float(rng.uniform(0.0, 0.2)))
        d, p, r = _random_detection(rng, state)
        state = corrected(state, _meas(state.stamp, d, p, math.sqrt(r)))
        if i % 100 == 0:
            assert float(np.linalg.eigvalsh(dense(state)[1])[0]) > -1e-9
    assert float(np.linalg.eigvalsh(dense(state)[1])[0]) > -1e-9


def test_frame_filter_matches_dense_7_state_oracle():
    # predict, update and the gate against the dense 7-state EKF, on random
    # states with theta near +-pi half of the time, so that the update
    # wraps theta
    rng = np.random.default_rng(23)
    wraps = gated = 0
    for i in range(5000):
        state = _random_state(rng, float(i))
        dt = [0.0, 1e-3, 0.02, 0.5, 3.0][i % 5]
        pred = predict(state, dt)
        m, P = dense_predict(*dense(state), dt)
        got_m, got_P = dense(pred)
        assert np.allclose(got_m, m, atol=1e-9) and np.allclose(got_P, P, atol=1e-9)
        d, p, r = _random_detection(rng, pred)
        out = corrected(pred, _meas(pred.stamp, d, p, math.sqrt(r)))
        m, P, d2 = dense_update(got_m, got_P, d, p, r)
        got_m, got_P = dense(out)
        assert wrap_heading(got_m[4] - m[4]) == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(np.delete(got_m, 4), np.delete(m, 4), atol=1e-9)
        assert np.allclose(got_P, P, atol=1e-9)
        assert np.all(got_P[5:, :5] == 0.0)
        # the gate tests the innovation that the update applies
        decision = associate([Detection(pred.stamp, *d, math.sqrt(r), 0)], pred, p)
        if decision.detection is not None:   # inside the Euclidean pre-gate
            gated += 1
            assert decision.mahalanobis_sq == pytest.approx(d2, rel=1e-9, abs=1e-12)
            assert decision.terms == innovation(pred, d, p, math.sqrt(r) ** 2)
        wraps += abs(out.mean[4] - pred.mean[4]) > math.pi
    assert wraps > 100 and gated > 4000, (wraps, gated)


def test_update_input_state_is_not_mutated():
    rng = np.random.default_rng(25)
    state = _random_state(rng, 0.0)
    before = repr((state.stamp, state.mean, state.planar, state.vertical))
    d, p, r = _random_detection(rng, state)
    corrected(state, _meas(0.0, d, p, math.sqrt(r)))
    assert repr((state.stamp, state.mean, state.planar, state.vertical)) == before


@pytest.mark.parametrize("step", [0, 1, 2])
def test_every_step_of_every_kind_rejects_a_non_positive_innovation_variance(step):
    # one detection is three scalar steps, x, y and z; with diagonal blocks
    # and theta known their innovation variances are p00 + r, p22 + r and
    # c00 + r, so the first negative r makes exactly the chosen step the
    # first whose variance is not positive
    state = state_from(0.0, np.zeros(7), (10.0, 1.0, 5.0, 1.0, 0.0), (1.0, 1.0))
    for bad in ((-11.0, -7.0, -3.0)[step], -math.inf, math.nan):
        with pytest.raises(ValueError, match="singular innovation covariance"):
            innovation(state, (1.0, 2.0, 3.0), (0.5, 0.5, 0.5), bad)


# ---------------------------------------------------------------------------
# the VIO pose in L


def _vio_pose(t, pos, heading=0.0, vel=(0, 0, 0), rate=0.0):
    return TimedPose(t, *map(float, pos), heading, *map(float, vel), rate)


def _det(t, pos, sigma=0.15, track=0):
    return Detection(t, *map(float, pos), sigma, track)


def _position(record):
    """x, y, z of a pose or detection record, as an array."""
    return np.array(record[1:4])


def _velocity(pose):
    return np.array(pose[5:8])


def test_make_vio_measurement_identity_rotation():
    # theta = 0: the pose in L is the VIO position less the offset
    state = make_state(offset=(-1.0, 1.0, 0.0))
    assert np.allclose(_position(state.pose(_vio_pose(1.5, [0, 2, 0]))), [1, 1, 0])


def test_make_vio_measurement_rotation_direction():
    # theta = pi/2: the V->L rotation is by -pi/2, so a V-frame +y
    # displacement becomes a +x displacement in L
    state = make_state(theta=math.pi / 2)
    assert np.allclose(_position(state.pose(_vio_pose(1.5, [0, 1, 0]))), [1, 0, 0],
                       atol=1e-12)


def test_make_vio_measurement_consistent_with_alignment_convention():
    # End-to-end convention check: build a scene in L, map it to V with a
    # known transform, recover it with the closed-form aligner, and confirm
    # that the frame maps the V-frame positions back to L.
    from coopguide.alignment import closed_form_align

    rng = np.random.default_rng(31)
    pts_l = rng.uniform(-3, 3, (20, 3))
    t_star = np.array([4.0, -2.0, 1.0])
    theta_star = 1.1
    pts_v = pts_l @ rot_z(theta_star).T + t_star
    t_hat, theta_hat = closed_form_align(pts_l, pts_v)
    state = make_state(offset=t_hat, theta=theta_hat)
    for p_l, p_v in zip(pts_l, pts_v):
        assert np.allclose(_position(state.pose(_vio_pose(0.5, p_v))), p_l, atol=1e-9)


def test_make_vio_measurement_heading_component():
    state = make_state(theta=0.3)
    assert state.pose(_vio_pose(0.5, [0, 0, 0], heading=0.3)).heading == \
        pytest.approx(0.0, abs=1e-15)


def test_make_heading_measurement_values():
    pose = make_state(theta=0.25).pose(_vio_pose(0.0, [0, 0, 0], heading=1.0, rate=0.1))
    assert (pose.heading, pose.heading_rate) == (pytest.approx(0.75), 0.1)


def test_make_heading_measurement_wraps():
    pose = make_state(theta=0.5).pose(_vio_pose(0.0, [0, 0, 0], heading=-3.0))
    assert pose.heading == pytest.approx(-3.5 + 2 * math.pi)


def test_make_heading_measurement_identity_theta():
    assert make_state().pose(_vio_pose(0.0, [0, 0, 0], heading=0.77)).heading == \
        pytest.approx(0.77)


def test_heading_estimate_invariant_to_two_pi_shifts():
    # Spec invariant: adding 2*pi*k to a VIO heading leaves the pose in L
    # unchanged (the heading is wrapped before theta is taken off)
    state = make_state(theta=0.3)
    base = _vio_pose(0.0, [1, 2, 3], heading=2.5, rate=0.2)
    assert state.pose(base) == state.pose(base._replace(heading=2.5 + 4 * math.pi))
    assert state.pose(base) == state.pose(base._replace(heading=2.5 - 2 * math.pi))


def test_vio_measurement_with_drift_rate_follows_truth():
    # drifting VIO: given the frame's offset and rate, the pose in L is the
    # L-frame truth, velocity included
    theta = 0.6
    o0, drift_rate = np.array([2.0, -1.0, 0.5]), np.array([0.3, -0.1, 0.05])
    vel_l = np.array([0.4, 0.2, 0.0])
    start = np.array([1.0, 1.0, 1.0])
    R_vl = rot_z(theta)
    buf = HistoryBuffer(make_state(offset=o0, rate=drift_rate, theta=theta), span=1e9)
    for t in (0.0, 0.5, 4.4):
        vio = _vio_pose(t, R_vl @ (start + vel_l * t) + o0 + drift_rate * t,
                        heading=theta, vel=R_vl @ vel_l + drift_rate)
        pose = buf.estimate_at(t).pose(vio)
        assert np.allclose(_position(pose), start + vel_l * t, atol=1e-12)
        assert np.allclose(_velocity(pose), vel_l, atol=1e-12)


def test_measurement_checks_dimension_and_holds_float_tuples():
    z = Measurement(0.5, (1.0, 2.0, 3.0), (4.0, 5.0, 6.0), 0.1)
    assert (z.stamp, z.lidar, z.vio, z.variance) == (0.5, (1.0, 2.0, 3.0), (4.0, 5.0, 6.0), 0.1)
    assert all(type(v) is float for v in z.lidar + z.vio + (z.variance,))


# ---------------------------------------------------------------------------
# association and gating


def test_chi2_critical_matches_incomplete_gamma_oracle():
    assert tracker.GATE_CRITICAL == pytest.approx(oracle_chi2_critical(0.95, 3), abs=1e-9)
    assert tracker.GATE_CRITICAL == pytest.approx(7.8147, abs=1e-4)


def test_gate_critical_is_the_95_percent_point_of_chi2_3_in_closed_form():
    # the chi-square CDF with 3 dof: erf(sqrt(x/2)) - sqrt(2x/pi) exp(-x/2)
    x = tracker.GATE_CRITICAL
    cdf = math.erf(math.sqrt(x / 2)) - math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    assert cdf == pytest.approx(0.95, abs=1e-12)


def _vio_of(state, position):
    """The VIO position that maps to ``position`` in L through the frame."""
    m = np.array(state.mean)
    return (rot_z(m[4]) @ np.asarray(position, float) + m[OFFSET]).tolist()


def test_associate_zero_innovation_accepted():
    s = make_state(offset=(1, 2, 3), theta=0.4, var=0.5)
    det = Detection(0.0, 1.0, 2.0, 3.0, sigma=math.sqrt(0.5), track_id=4)
    d = associate([det], s, _vio_of(s, [1.0, 2.0, 3.0]))
    assert d.accepted and d.detection.track_id == 4
    assert d.mahalanobis_sq == pytest.approx(0.0, abs=1e-12)


def test_associate_far_detection_rejected_by_chi_square():
    # theta known: S = 0.2 per axis, the offset variance 0.1 plus
    # sigma^2 = 0.1; y = (1, 1, 1), 1.73 m, passes the 2 m pre-gate and
    # gives d^2 = 15
    s = state_from(0.0, np.zeros(7), (0.1, 0.1, 0.1, 0.1, 0.0), (0.1, 0.1))
    det = Detection(0.0, 1.0, 1.0, 1.0, sigma=math.sqrt(0.1), track_id=0)
    d = associate([det], s, [0.0, 0.0, 0.0])
    assert d.detection.track_id == 0
    assert d.mahalanobis_sq == pytest.approx(15.0)
    assert not d.accepted


def test_associate_prefers_nearer_candidate():
    s = make_state(var=0.5)
    near = Detection(0.0, 0.5, 0.0, 0.0, sigma=math.sqrt(0.5), track_id=1)
    far = Detection(0.0, 1.0, 0.0, 0.0, sigma=math.sqrt(0.5), track_id=2)
    d = associate([far, near], s, [0.0, 0.0, 0.0])
    assert d.detection.track_id == 1
    # the decision carries the winner's innovation, not the first candidate's
    assert d.terms == innovation(s, near[1:4], [0.0, 0.0, 0.0], near.sigma ** 2)


def test_associate_euclidean_pregate_excludes_candidates():
    # a huge covariance would accept anything by chi-square; the detection
    # is 5 m from the position predicted in L, Rz(theta)^T (p_V - o)
    s = make_state(offset=(3.0, -1.0, 0.0), theta=2.0, var=1e6)
    far = Detection(0.0, 5.0, 0.0, 0.0, sigma=0.1, track_id=9)
    d = associate([far], s, _vio_of(s, [0.0, 0.0, 0.0]))
    assert d.detection is None and not d.accepted


def test_associate_empty_set():
    d = associate([], make_state(), [0.0, 0.0, 0.0])
    assert d.detection is None and not d.accepted


def gate_calibration_rate(rng, trials=10_000):
    """Share of detections drawn from the modeled innovation N(0, S) that
    the gate accepts, and the largest eigenvalue of S."""
    state = state_from(0.0, (0.5, 0.0, -0.3, 0.0, 0.8, 0.2, 0.0),
                       (0.3, 0.01, 0.3, 0.01, 0.01), (0.3, 0.01))
    sigma = 0.15
    lidar = np.array([3.0, 1.0, 1.0])
    h, H = dense_model(np.array(state.mean), lidar)
    S = H @ dense(state)[1] @ H.T + sigma ** 2 * np.eye(3)
    L = np.linalg.cholesky(S)
    det = Detection(0.0, *lidar.tolist(), sigma, track_id=0)
    accepted = 0
    for _ in range(trials):
        vio = h + L @ rng.normal(0.0, 1.0, 3)  # innovation drawn from N(0, S)
        accepted += associate([det], state, vio.tolist()).accepted
    return accepted / trials, float(np.linalg.eigvalsh(S)[-1])


def test_gate_calibration():
    # Spec invariant: acceptance rate of correctly modeled detections in
    # [0.93, 0.97] at p = 0.95 over 1e4 trials.  S couples x and y through
    # theta; an innovation beyond the 2 m pre-gate has d^2 >= 4 / max
    # eig(S) > GATE_CRITICAL, so the pre-gate changes no outcome.
    rate, largest = gate_calibration_rate(np.random.default_rng(40))
    assert 4.0 / largest > tracker.GATE_CRITICAL
    assert 0.93 <= rate <= 0.97


# ---------------------------------------------------------------------------
# history buffer replay


def _random_measurements(rng, n, t0=0.0, spacing=0.05):
    out = []
    t = t0
    for _ in range(n):
        t += spacing * float(rng.uniform(0.5, 1.5))
        out.append(Measurement(t, tuple(rng.normal(0.0, 3.0, 3).tolist()),
                               tuple(rng.normal(0.0, 1.0, 3).tolist()),
                               float(rng.uniform(0.05, 0.5))))
    return out


def _arrays(state):
    return np.concatenate([state.mean, state.planar, state.vertical])


def test_in_order_insertion_equals_streaming():
    rng = np.random.default_rng(50)
    anchor = make_state(var=1.0)
    measurements = _random_measurements(rng, 12)
    buf = HistoryBuffer(anchor, span=10.0)
    for z in measurements:
        state = fuse(buf, z)
    stream = anchor
    for z in measurements:
        stream = corrected(predict(stream, z.stamp - stream.stamp), z)
    assert np.allclose(_arrays(state), _arrays(stream), atol=1e-12)


def test_delayed_insertion_equals_chronological():
    rng = np.random.default_rng(51)
    anchor = make_state(var=1.0)
    z1, z2, z3 = _random_measurements(rng, 3, spacing=0.1)
    buf = HistoryBuffer(anchor, span=10.0)
    fuse(buf, z1)
    fuse(buf, z3)
    final = fuse(buf, z2)  # late arrival
    ordered = HistoryBuffer(anchor, span=10.0)
    for z in (z1, z2, z3):
        expected = fuse(ordered, z)
    assert np.allclose(_arrays(final), _arrays(expected), atol=1e-9)


def test_replay_equivalence_random_interleavings():
    rng = np.random.default_rng(52)
    anchor = make_state(var=1.0)
    measurements = _random_measurements(rng, 20)
    ordered = HistoryBuffer(anchor, span=100.0)
    for z in measurements:
        expected = fuse(ordered, z)
    for _ in range(50):
        buf = HistoryBuffer(anchor, span=100.0)
        for i in rng.permutation(len(measurements)):
            fuse(buf, measurements[i])
        assert np.allclose(_arrays(buf.latest_state), _arrays(expected), atol=1e-9)


def _bits(*values) -> bytes:
    """The exact IEEE bits of floats and float tuples, in order."""
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


def _full_replay(anchor, entries, t):
    """State at t from the anchor through every entry with stamp <= t."""
    state = anchor
    for z in entries:
        if z.stamp > t:
            break
        state = corrected(predict(state, max(0.0, z.stamp - state.stamp)), z)
    return predict(state, max(0.0, t - state.stamp))


def test_history_keys_and_estimates_hold_through_late_stale_and_pruned_inserts():
    rng = np.random.default_rng(53)
    buf = HistoryBuffer(make_state(var=1.0), span=0.5)
    measurements = _random_measurements(rng, 300, spacing=0.02)
    arrival = [z.stamp + float(rng.exponential(0.2)) for z in measurements]
    stale = pruned = late = 0
    for i in sorted(range(len(measurements)), key=arrival.__getitem__):
        z = measurements[i]
        anchor = buf.anchor_state
        late += bool(buf.entries) and z.stamp < buf.entries[-1].stamp
        try:
            if z.stamp < anchor.stamp:   # no prior to gate it against
                buf.insert(z, anchor, ())
            else:
                fuse(buf, z)
        except StaleMeasurementError:
            stale += 1
        pruned += buf.anchor_state is not anchor
        assert buf._stamps == [e.stamp for e in buf.entries]
        assert len(buf._posts) == len(buf.entries)
        lo, hi = buf.anchor_state.stamp, buf.entries[-1].stamp
        for t in (lo, hi, float(rng.uniform(lo, hi)), hi + 0.05, z.stamp):
            if t < lo:
                continue
            got, want = buf.estimate_at(t), _full_replay(buf.anchor_state, buf.entries, t)
            assert _bits(got.stamp, _arrays(got)) == _bits(want.stamp, _arrays(want))
    assert min(stale, pruned, late) > 10, (stale, pruned, late)


def test_measurement_older_than_span_rejected():
    buf = HistoryBuffer(make_state(stamp=0.0), span=2.0)
    fuse(buf, _meas(5.0, [0, 0, 0], [0, 0, 0]))
    with pytest.raises(StaleMeasurementError):
        fuse(buf, _meas(2.5, [0, 0, 0], [0, 0, 0]))


def test_measurement_older_than_anchor_rejected():
    buf = HistoryBuffer(make_state(stamp=1.0), span=2.0)
    # estimate_at refuses the stamp too, so the anchor stands in for the prior
    with pytest.raises(StaleMeasurementError):
        buf.insert(_meas(0.5, [0, 0, 0], [0, 0, 0]), buf.anchor_state, ())


def test_pruning_preserves_replay_result():
    rng = np.random.default_rng(53)
    anchor = make_state(var=1.0)
    measurements = _random_measurements(rng, 40, spacing=0.2)  # spans ~8 s
    pruned = HistoryBuffer(anchor, span=2.0)
    full = HistoryBuffer(anchor, span=1e9)
    for z in measurements:
        got = fuse(pruned, z)
        expected = fuse(full, z)
    assert len(pruned) < len(full)
    assert np.allclose(_arrays(got), _arrays(expected), atol=1e-9)


def test_estimate_at_newest_entry_equals_replay():
    rng = np.random.default_rng(54)
    buf = HistoryBuffer(make_state(var=1.0), span=10.0)
    for z in _random_measurements(rng, 8):
        state = fuse(buf, z)
    q = buf.estimate_at(buf.entries[-1].stamp)
    assert np.allclose(_arrays(q), _arrays(state), atol=1e-12)


def test_estimate_at_extrapolates_constant_velocity():
    buf = HistoryBuffer(make_state(offset=(0, 0, 0), rate=(1, 0, 0)), span=10.0)
    assert np.allclose(np.array(buf.estimate_at(0.5).mean)[OFFSET], [0.5, 0, 0])


def test_estimate_at_before_anchor_raises():
    buf = HistoryBuffer(make_state(stamp=1.0), span=10.0)
    with pytest.raises(ValueError):
        buf.estimate_at(0.5)


# ---------------------------------------------------------------------------
# degenerate stream behavior


def test_detections_lost_position_dead_reckons_vio_chain():
    # With no detection after the anchor, the pose in L rides VIO through
    # the predicted frame o(t) = o0 + r t; VIO drift the rate does not hold
    # shows in L, rotated by -theta.
    theta = 0.6
    o0, rate = np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.0, 0.0])
    extra = np.array([0.0, 0.1, 0.0])  # drift the frame's rate does not hold
    vel_l = np.array([0.4, 0.2, 0.0])
    start = np.array([1.0, 1.0, 1.0])
    buf = HistoryBuffer(make_state(offset=o0, rate=rate, theta=theta), span=1e9)
    for k in range(40):
        t = 0.1 * k
        truth = start + vel_l * t
        vio = _vio_pose(t, rot_z(theta) @ truth + o0 + (rate + extra) * t, heading=theta)
        pose = buf.estimate_at(t).pose(vio)
        assert np.allclose(_position(pose) - truth, rot_z(-theta) @ (extra * t), atol=1e-12)


def test_vio_lost_heading_states_untouched_by_detections():
    # With VIO stale, a detection batch stamped after the newest VIO sample
    # waits: the frame, heading included, is not updated by it until VIO
    # covers its stamp.  The lagging link then delivers samples 0.4 s apart,
    # so no waiting batch lies inside a VIO outage (those are dropped).
    theta, offset = 0.8, np.array([5.0, -3.0, 1.0])
    g = Guider(AlignmentConfig(window=15.0), 1.0)
    g._track_buffers[0] = detection_columns([])
    g._adopt(make_state(stamp=0.0, offset=offset, theta=theta, var=0.01), 0)
    g.ingest_vio(_vio_pose(0.0, offset))
    state = g._history.latest_state
    rng = np.random.default_rng(60)
    for k in range(1, 20):
        g.ingest_detections([_det(0.1 * k, rng.normal(0.0, 0.1, 3))])
        assert g._history.latest_state is state and len(g._history) == 0
    assert len(g._pending) == 19
    for k in range(1, 6):   # VIO covers every waiting batch
        g.ingest_vio(_vio_pose(0.4 * k, offset))
    assert g._pending == [] and len(g._history) > 0
    assert g._history.latest_state.mean[4] != theta


# ---------------------------------------------------------------------------
# initialization


def _circle_track(n=60, radius=4.0, speed=0.5, t0=0.0, noise=0.0, rng=None,
                  center=(0.0, 0.0, 1.0), track=0):
    pts = []
    omega = speed / radius
    for k in range(n):
        t = t0 + 0.1 * k
        ang = omega * t
        p = np.array([center[0] + radius * math.cos(ang),
                      center[1] + radius * math.sin(ang), center[2]])
        if noise and rng is not None:
            p = p + rng.normal(0, noise, 3)
        pts.append((t, p))
    return pts


def test_try_initialize_recovers_pose_from_matching_track():
    theta_star = 0.9
    t_star = np.array([2.0, -1.0, 0.5])
    R = rot_z(theta_star)
    track = _circle_track()
    dets = [_det(t, p) for t, p in track]
    vio = [
        _vio_pose(t, R @ p + t_star, heading=wrap_heading(0.4 + theta_star),
                  vel=R @ np.array([0.1, 0.2, 0.0]), rate=0.03)
        for t, p in track
    ]
    out = try_initialize({0: detection_columns(dets)}, pose_columns(vio),
                         AlignmentConfig())
    assert out is not None
    state, result, track_id = out
    assert track_id == 0
    assert state.stamp == dets[-1].stamp
    assert np.allclose(np.array(state.mean)[OFFSET], t_star, atol=1e-9)
    assert [state.mean[i] for i in RATE] == [0.0, 0.0, 0.0]
    assert abs(wrap_heading(result.heading - theta_star)) < 1e-6
    assert state.mean[4] == result.heading
    pose = state.pose(vio[-1])
    assert np.allclose(_position(pose), _position(dets[-1]), atol=1e-9)
    assert np.allclose(_velocity(pose), [0.1, 0.2, 0.0], atol=1e-6)
    assert pose.heading == pytest.approx(0.4, abs=1e-6)
    assert pose.heading_rate == pytest.approx(0.03)


def test_try_initialize_rejects_hovering_point_track(monkeypatch):
    calls = []
    monkeypatch.setattr(tracker, "solve_alignment_arrays",
                        lambda *a, **k: calls.append(a))
    dets = [_det(0.1 * k, [3.0, 3.0, 1.0]) for k in range(60)]
    vio = [TimedPose(0.1 * k, 0.05 * k, 0.0, 0.0) for k in range(60)]
    assert try_initialize({0: detection_columns(dets)}, pose_columns(vio),
                         AlignmentConfig()) is None
    assert calls == []  # rejected from the window geometry, without a solve


def test_try_initialize_picks_matching_track_over_random_walk():
    rng = np.random.default_rng(70)
    theta_star = -0.4
    t_star = np.array([1.0, 2.0, 0.0])
    R = rot_z(theta_star)
    track = _circle_track()
    good = [_det(t, p, track=5) for t, p in track]
    # random-walk impostor: moves, but uncorrelated with the VIO trajectory
    walk = np.cumsum(rng.normal(0, 0.2, (len(track), 3)), axis=0) + np.array([8.0, 8.0, 1.0])
    bad = [_det(t, w, track=2) for (t, _), w in zip(track, walk)]
    vio = [_vio_pose(t, R @ p + t_star) for t, p in track]
    out = try_initialize({2: detection_columns(bad), 5: detection_columns(good)},
                         pose_columns(vio), AlignmentConfig())
    assert out is not None
    assert out[2] == 5


def test_try_initialize_seeds_the_offset_at_the_seeding_stamp():
    # with drift the solve refers its translation to the newest
    # correspondence; the state moves it to the seeding detection's stamp
    theta_star, t_star, rate = 0.3, np.array([1.0, -2.0, 0.5]), np.array([0.2, -0.1, 0.05])
    R = rot_z(theta_star)
    track = _circle_track()
    dets = [_det(t, p) for t, p in track]
    # VIO at every detection stamp but the last, and one sample 0.05 s
    # after the one before it: the newest correspondence is that sample
    t_last = track[-2][0] + 0.05
    ang = 0.5 / 4.0 * t_last
    p_last = np.array([4.0 * math.cos(ang), 4.0 * math.sin(ang), 1.0])
    vio = [_vio_pose(t, R @ p + t_star + rate * t) for t, p in [*track[:-1], (t_last, p_last)]]
    out = try_initialize({0: detection_columns(dets)}, pose_columns(vio),
                         AlignmentConfig(estimate_drift=True))
    assert out is not None
    state = out[0]
    seed = dets[-2]   # the newest detection the VIO buffer covers
    assert state.stamp == seed.stamp
    assert np.allclose(np.array(state.mean)[OFFSET], t_star + rate * seed.stamp, atol=1e-4)
    assert np.allclose([state.mean[i] for i in RATE], rate, atol=1e-4)
