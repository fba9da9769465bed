"""Kalman tracker contracts: prediction, correction, gating, replay, init."""

import math

import numpy as np
import pytest
from scipy.special import gammainc

from coopguide import tracker
from coopguide.alignment import AlignmentConfig
from coopguide.geometry import (
    Detection,
    TimedPose,
    detection_columns,
    pose_columns,
    rot_z,
    wrap_heading,
)
from coopguide.tracker import (
    HistoryBuffer,
    Measurement,
    MeasurementKind,
    StaleMeasurementError,
    TrackerState,
    associate,
    make_heading_measurement,
    make_vio_measurement,
    predict,
    try_initialize,
    update,
)


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


def oracle_batch_ls(state0, measurements):
    """Information-form batch least squares for same-stamp linear updates."""
    mean0, P0 = dense(state0)
    H_full = np.eye(8)
    lam = np.linalg.inv(P0)
    eta = lam @ mean0
    for z in measurements:
        Rinv = np.linalg.inv(np.diag(element_variances(z)))
        lam = lam + H_full.T @ Rinv @ H_full
        eta = eta + H_full.T @ Rinv @ z.value
    P = np.linalg.inv(lam)
    return P @ eta, P


# The 8-state vector (x, y, z, vx, vy, vz, heading, heading rate) as
# (axis, component) pairs of the (4, 2) layout of ``mean`` and ``covariance``.
FLAT_AXES = (0, 1, 2, 0, 1, 2, 3, 3)
FLAT_COMPONENTS = (0, 0, 0, 1, 1, 1, 0, 1)
SAME_AXIS = np.equal.outer(FLAT_AXES, FLAT_AXES)

#: per kind, the entry of ``variance`` that each element of ``value`` reads
#: (x, y and z share theirs), and the first element that reads each entry
ELEMENT_VARIANCE = {
    MeasurementKind.LIDAR_POSITION: (0, 0, 0),
    MeasurementKind.VIO_FULL: (0, 0, 0, 1, 1, 1, 2, 3),
    MeasurementKind.VIO_HEADING: (0, 1),
}
BLOCK_ELEMENT = {
    MeasurementKind.LIDAR_POSITION: (0,),
    MeasurementKind.VIO_FULL: (0, 3, 6, 7),
    MeasurementKind.VIO_HEADING: (0, 1),
}


def element_variances(z):
    """One variance per element of ``z.value``."""
    return tuple(z.variance[i] for i in ELEMENT_VARIANCE[z.kind])


def per_block(kind, variances):
    """The ``variance`` tuple of ``kind`` from one drawn per element: the
    first of the elements that share an entry."""
    return tuple(float(variances[i]) for i in BLOCK_ELEMENT[kind])


def state_from(stamp, mean8, variances=(1.0,) * 4):
    """A state with the 8-vector mean (x, y, z, vx, vy, vz, heading, heading
    rate) and diagonal blocks: the position and velocity variances shared
    by x, y and z, then the heading and heading-rate variances."""
    x, y, z, vx, vy, vz, h, vh = map(float, mean8)
    pv, vv, hv, rv = map(float, variances)
    return TrackerState(stamp, (x, vx, y, vy, z, vz, h, vh), (pv, 0.0, vv), (hv, 0.0, rv))


def dense(state):
    """The 8-vector mean and 8x8 covariance that a state's axis blocks form."""
    axes, comps = np.array(FLAT_AXES), np.array(FLAT_COMPONENTS)
    P = state.covariance[axes[:, None], comps[:, None], comps[None, :]]
    return state.mean[axes, comps], np.where(SAME_AXIS, P, 0.0)


# Rows of the 8-state observed by each kind, and the index of the heading
# inside the measurement vector (None when heading is not observed).
DENSE_ROWS = {
    MeasurementKind.LIDAR_POSITION: (slice(0, 3), None),
    MeasurementKind.VIO_FULL: (slice(0, 8), 6),
    MeasurementKind.VIO_HEADING: (slice(6, 8), 0),
}


def dense_predict(m, P, dt):
    """Reference 8-state constant-velocity prediction with dense 8x8 algebra."""
    mean = m.copy()
    mean[0:3] += dt * m[3:6]
    mean[6] = wrap_heading(m[6] + dt * m[7])
    P = P.copy()
    P[0:3, :] += dt * P[3:6, :]
    P[6, :] += dt * P[7, :]
    P[:, 0:3] += dt * P[:, 3:6]
    P[:, 6] += dt * P[:, 7]
    q3 = dt ** 3 / 3.0
    q2 = dt ** 2 / 2.0
    qa = tracker.PROCESS_NOISE[0]
    qh = tracker.PROCESS_NOISE[1]
    for i in range(3):
        P[i, i] += qa * q3
        P[i, i + 3] += qa * q2
        P[i + 3, i] += qa * q2
        P[i + 3, i + 3] += qa * dt
    P[6, 6] += qh * q3
    P[6, 7] += qh * q2
    P[7, 6] += qh * q2
    P[7, 7] += qh * dt
    return mean, P


def dense_update(m, P, z):
    """Reference joint Kalman correction with a dense gain and 8x8 covariance."""
    rows, h_idx = DENSE_ROWS[z.kind]
    y = z.value - m[rows]
    if h_idx is not None:
        y[h_idx] = wrap_heading(y[h_idx])
    S = P[rows, rows] + np.diag(element_variances(z))
    PHt = P[:, rows]
    K = np.linalg.solve(S, PHt.T).T
    mean = m + K @ y
    mean[6] = wrap_heading(mean[6])
    P_new = P - K @ PHt.T
    return mean, 0.5 * (P_new + P_new.T)


def make_state(stamp=0.0, pos=(0, 0, 0), vel=(0, 0, 0), heading=0.0, rate=0.0, var=1.0):
    return state_from(stamp, [*pos, *vel, heading, rate], (var,) * 4)


# ---------------------------------------------------------------------------
# predict


def test_state_arrays_are_fresh_copies_with_wrapped_heading():
    s = state_from(0.0, np.zeros(8))
    s.mean[0, 0] = 99.0
    s.covariance[0, 0, 0] = 99.0
    s.position[0] = 99.0
    assert s.mean[0, 0] == 0.0 and s.covariance[0, 0, 0] == 1.0 and s.position[0] == 0.0
    assert s.mean.shape == (4, 2) and s.covariance.shape == (4, 2, 2)


def test_state_accessors_read_the_flat_mean_and_repeat_the_position_block():
    s = TrackerState(2.0, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5, 0.1),
                     (0.3, 0.01, 0.2), (0.05, -0.02, 0.04))
    assert s.mean.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [0.5, 0.1]]
    assert s.covariance.tolist() == [[[0.3, 0.01], [0.01, 0.2]]] * 3 + \
        [[[0.05, -0.02], [-0.02, 0.04]]]
    assert s.position.tolist() == [1.0, 3.0, 5.0] and s.velocity.tolist() == [2.0, 4.0, 6.0]
    assert (s.heading, s.heading_rate) == (0.5, 0.1)
    assert s.pose(2.5) == TimedPose(2.5, 1.0, 3.0, 5.0, 0.5, 2.0, 4.0, 6.0, 0.1)


def test_predict_constant_velocity():
    s = make_state(pos=(0, 0, 0), vel=(1, 0, 0))
    out = predict(s, 0.5)
    assert np.allclose(out.position, [0.5, 0, 0])
    assert out.stamp == 0.5


def test_predict_zero_dt_is_identity():
    s = make_state(pos=(1, 2, 3), vel=(0.1, 0.2, 0.3), heading=0.5, rate=0.1)
    out = predict(s, 0.0)
    assert np.array_equal(out.mean, s.mean)
    assert np.array_equal(out.covariance, s.covariance)


def test_predict_wraps_heading():
    s = make_state(heading=3.0, rate=1.0)
    out = predict(s, 0.5)
    assert out.heading == pytest.approx(3.5 - 2 * math.pi)


def test_predict_rejects_negative_dt():
    with pytest.raises(ValueError):
        predict(make_state(), -0.1)


def test_predict_covariance_grows_and_stays_symmetric():
    s = make_state(var=0.1)
    out = predict(s, 1.0)
    P_out, P_s = dense(out)[1], dense(s)[1]
    assert np.allclose(P_out, P_out.T)
    assert np.all(np.diag(P_out) > np.diag(P_s))


# ---------------------------------------------------------------------------
# update


def _lidar_meas(stamp, pos, sigma=1.0):
    return Measurement(stamp, MeasurementKind.LIDAR_POSITION,
                       tuple(np.asarray(pos, float).tolist()), (sigma ** 2,))


def test_update_equal_weight_fusion_1d_slice():
    s = make_state(var=1.0)
    out = update(s, _lidar_meas(0.0, [1.0, 0.0, 0.0], sigma=1.0))
    assert out.mean[0, 0] == pytest.approx(0.5)
    assert out.covariance[0, 0, 0] == pytest.approx(0.5)


def test_update_non_informative_measurement_is_identity():
    s = make_state(pos=(1, 2, 3), vel=(0.5, 0, 0), var=2.0)
    z = Measurement(0.0, MeasurementKind.LIDAR_POSITION, (50.0, 50.0, 50.0), (1e14,))
    out = update(s, z)
    assert np.allclose(out.mean, s.mean, atol=1e-9)
    assert np.allclose(out.covariance, s.covariance, atol=1e-9)


def test_update_sequence_matches_batch_ls_oracle():
    rng = np.random.default_rng(21)
    mean0 = rng.normal(0, 1, 8) * 0.1  # keep heading far from the wrap boundary
    # the 8-state order is the order of a VIO_FULL measurement's elements
    state0 = state_from(0.0, mean0, per_block(MeasurementKind.VIO_FULL,
                                              rng.uniform(0.5, 2.0, 8)))
    measurements = []
    for _ in range(5):
        value = rng.normal(0, 0.5, 8) * 0.1
        R = rng.uniform(0.05, 0.5, 8)
        measurements.append(Measurement(0.0, MeasurementKind.VIO_FULL,
                                        tuple(value.tolist()),
                                        per_block(MeasurementKind.VIO_FULL, R)))
    state = state0
    for z in measurements:
        state = update(state, z)
    mean_b, P_b = oracle_batch_ls(state0, measurements)
    mean, P = dense(state)
    assert np.allclose(mean, mean_b, atol=1e-9)
    assert np.allclose(P, P_b, atol=1e-9)


def test_update_wraps_heading_innovation_across_boundary():
    s = make_state(heading=3.1, var=1.0)
    z = Measurement(0.0, MeasurementKind.VIO_HEADING, (-3.1, 0.0), (1.0, 1.0))
    out = update(s, z)
    # innovation is wrap(-3.1 - 3.1) = +0.083..., so heading moves up past pi
    expected = wrap_heading(3.1 + 0.5 * wrap_heading(-6.2))
    assert out.heading == pytest.approx(expected, abs=1e-12)


def test_update_rejects_singular_innovation():
    s = state_from(0.0, np.zeros(8), (0.0,) * 4)
    z = Measurement(0.0, MeasurementKind.LIDAR_POSITION, (0.0,) * 3, (0.0,))
    with pytest.raises(ValueError):
        update(s, z)


def test_covariance_psd_through_random_cycles():
    # Spec invariant: symmetric PSD through 1e4 random predict/update cycles.
    rng = np.random.default_rng(22)
    state = make_state(var=1.0)
    kinds = [MeasurementKind.LIDAR_POSITION, MeasurementKind.VIO_FULL,
             MeasurementKind.VIO_HEADING]
    dims = {MeasurementKind.LIDAR_POSITION: 3, MeasurementKind.VIO_FULL: 8,
            MeasurementKind.VIO_HEADING: 2}
    for i in range(10_000):
        dt = float(rng.uniform(0.0, 0.2))
        state = predict(state, dt)
        kind = kinds[int(rng.integers(0, 3))]
        m = dims[kind]
        z = Measurement(state.stamp, kind, tuple(rng.normal(0, 1, m).tolist()),
                        per_block(kind, rng.uniform(0.01, 1.0, m)))
        state = update(state, z)
        P = dense(state)[1]
        assert np.allclose(P, P.T, atol=1e-9)
        if i % 100 == 0:
            assert float(np.linalg.eigvalsh(P)[0]) > -1e-9
    assert float(np.linalg.eigvalsh(dense(state)[1])[0]) > -1e-9


def test_axis_filters_match_dense_8_state_oracle():
    # Four 2-state axis filters are the 8-state filter: its covariance never
    # couples two axes.  Heading measurements straddle +-pi so the state
    # heading and the innovation wrap.
    rng = np.random.default_rng(23)
    state = make_state(heading=3.0, var=1.0)
    mean8, P8 = dense(state)
    kinds = list(MeasurementKind)
    dims = {MeasurementKind.LIDAR_POSITION: 3, MeasurementKind.VIO_FULL: 8,
            MeasurementKind.VIO_HEADING: 2}
    wraps = 0
    for _ in range(10_000):
        dt = float(rng.uniform(0.0, 0.2))
        state = predict(state, dt)
        mean8, P8 = dense_predict(mean8, P8, dt)
        kind = kinds[int(rng.integers(0, 3))]
        value = rng.normal(0, 1, dims[kind])
        h_idx = DENSE_ROWS[kind][1]
        if h_idx is not None:
            value[h_idx] = wrap_heading(math.pi + rng.normal(0, 0.5))
        z = Measurement(state.stamp, kind, tuple(value.tolist()),
                        per_block(kind, rng.uniform(0.01, 1.0, dims[kind])))
        before = state.heading
        state = update(state, z)
        mean8, P8 = dense_update(mean8, P8, z)
        wraps += abs(state.heading - before) > math.pi
        mean, P = dense(state)
        assert wrap_heading(mean[6] - mean8[6]) == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(np.delete(mean, 6), np.delete(mean8, 6), atol=1e-9)
        assert np.allclose(P, P8, atol=1e-9)
        assert np.all(P8[~SAME_AXIS] == 0.0)
    assert wraps > 100


#: (axes, components) observed by each element of a kind's measurement
#: vector: the table of the generic scalar-update loop below
_KIND_AXES = {
    MeasurementKind.LIDAR_POSITION: ((0, 1, 2), (0, 0, 0)),
    MeasurementKind.VIO_FULL: ((0, 1, 2, 0, 1, 2, 3, 3), (0, 0, 0, 1, 1, 1, 0, 1)),
    MeasurementKind.VIO_HEADING: ((3, 3), (0, 1)),
}


# The reference functions below run the four-block layout the filter had
# before x, y and z shared one block: a state is (stamp, mean, covariance)
# with the (4, 2) mean and the (4, 2, 2) covariance as nested float lists.


def legacy(state):
    """A state in the four-block layout."""
    return state.stamp, state.mean.tolist(), state.covariance.tolist()


def generic_predict(state, dt):
    # the axis loop that predict unrolls
    stamp, mean, cov = state
    if dt == 0.0:
        return state
    mean = [[v + dt * w, w] for v, w in mean]
    mean[3][0] = wrap_heading(mean[3][0])
    q2 = dt ** 2 / 2.0
    q3 = dt ** 3 / 3.0
    qa, qh = tracker.PROCESS_NOISE
    new_cov = []
    for ((p00, p01), (_, p11)), q in zip(cov, (qa, qa, qa, qh)):
        c01 = p01 + dt * p11 + q * q2
        new_cov.append([[p00 + dt * (2.0 * p01 + dt * p11) + q * q3, c01],
                        [c01, p11 + q * dt]])
    return stamp + dt, mean, new_cov


def generic_update(state, z):
    # one scalar (axis, component) step per measurement element, from a table
    stamp, mean, cov = state
    mean = list(map(list, mean))
    cov = list(cov)
    axes, components = _KIND_AXES[z.kind]
    for value, r, a, c in zip(z.value, element_variances(z), axes, components):
        (p00, p01), (_, p11) = cov[a]
        g0, g1 = column = cov[a][c]
        s = column[c] + r
        if not s > 0.0:
            raise ValueError("singular innovation covariance")
        y = value - mean[a][c]
        if a == 3 and c == 0:
            y = wrap_heading(y)
        k0, k1 = g0 / s, g1 / s
        mean[a][0] += k0 * y
        mean[a][1] += k1 * y
        c01 = p01 - k0 * g1
        cov[a] = [[p00 - k0 * g0, c01], [c01, p11 - k1 * g1]]
    mean[3][0] = wrap_heading(mean[3][0])
    return stamp, mean, cov


def generic_gate(state, detection):
    # the per-axis loop of the squared Mahalanobis distance
    _, mean, cov = state
    r = detection.sigma ** 2
    d2 = 0.0
    for z, (x, _), ((p00, _), _) in zip(detection[1:4], mean, cov):
        y = z - x
        s = p00 + r
        if not s > 0.0:
            raise ValueError("singular innovation covariance")
        d2 += y * y / s
    return d2


def _random_state(rng, stamp):
    # headings drawn near +-pi half of the time; symmetric PSD blocks, the
    # first of the three drawn for x, y and z shared by them
    mean = rng.normal(0.0, 2.0, (4, 2))
    edge = rng.uniform(-0.05, 0.05) + (math.pi if rng.uniform() < 0.5 else -math.pi)
    mean[3][0] = wrap_heading(edge if rng.uniform() < 0.5 else float(rng.uniform(-3.0, 3.0)))
    blocks = []
    for p00, p11, rho in zip(rng.uniform(1e-4, 4.0, 4), rng.uniform(1e-4, 4.0, 4),
                             rng.uniform(-0.99, 0.99, 4)):
        blocks.append((float(p00), float(rho * math.sqrt(p00 * p11)), float(p11)))
    return TrackerState(stamp, tuple(mean.ravel().tolist()), blocks[0], blocks[3])


def _random_measurement(rng, state, kind):
    n = len(_KIND_AXES[kind][0])
    value = rng.normal(0.0, 2.0, n).tolist()
    if kind != MeasurementKind.LIDAR_POSITION:
        # the heading, second to last, lies about pi from the state's: the
        # innovation wraps
        value[-2] = wrap_heading(state.heading + math.pi + float(rng.uniform(-0.1, 0.1)))
    return Measurement(state.stamp, kind, tuple(value), per_block(kind, rng.uniform(1e-3, 2.0, n)))


def test_kernels_are_bit_identical_to_the_generic_scalar_loops():
    # predict, update and the gate against the four-block loops, on states
    # whose x, y and z blocks are equal
    rng = np.random.default_rng(24)
    kinds = list(MeasurementKind)
    wrapped_innovations = wrapped_means = 0
    for i in range(3000):
        state = _random_state(rng, float(i))
        dt = [0.0, 1e-3, 0.02, 0.5, 3.0][i % 5]
        pred = predict(state, dt)
        assert legacy(pred) == generic_predict(legacy(state), dt)
        z = _random_measurement(rng, pred, kinds[i % 3])
        out = update(pred, z)
        assert legacy(out) == generic_update(legacy(pred), z)
        det = Detection(pred.stamp, *(pred.position + rng.normal(0.0, 1.0, 3)).tolist(),
                        float(rng.uniform(0.01, 1.0)), 0)
        assert tracker.innovation_gate(pred, det) == generic_gate(legacy(pred), det)
        if z.kind != MeasurementKind.LIDAR_POSITION:
            wrapped_innovations += abs(z.value[-2] - pred.heading) > math.pi
            wrapped_means += abs(out.heading - pred.heading) > math.pi
    # both wrap branches of update ran many times
    assert wrapped_innovations > 500 and wrapped_means > 100


def test_update_input_state_is_not_mutated():
    rng = np.random.default_rng(25)
    for kind in MeasurementKind:
        state = _random_state(rng, 0.0)
        before = repr((state._mean, state._pos, state._head))
        update(state, _random_measurement(rng, state, kind))
        assert repr((state._mean, state._pos, state._head)) == before


@pytest.mark.parametrize("kind", list(MeasurementKind))
def test_every_step_of_every_kind_rejects_a_non_positive_innovation_variance(kind):
    rng = np.random.default_rng(26)
    state = _random_state(rng, 0.0)
    z = _random_measurement(rng, state, kind)
    for i in range(len(z.variance)):
        for bad in (-1e6, -math.inf, math.nan):
            variance = z.variance[:i] + (bad,) + z.variance[i + 1:]
            broken = Measurement(z.stamp, kind, z.value, variance)
            for kernel, s in ((update, state), (generic_update, legacy(state))):
                with pytest.raises(ValueError, match="singular innovation covariance"):
                    kernel(s, broken)


# ---------------------------------------------------------------------------
# VIO measurement construction


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
    det = _det(1.0, [1, 0, 0])
    z = make_vio_measurement(_vio_pose(1.5, [0, 1, 0]), det, _vio_pose(1.0, [0, 0, 0]),
                             theta=0.0)
    assert np.allclose(z.value[:3], [1, 1, 0])


def test_make_vio_measurement_rotation_direction():
    # theta = pi/2: the V->L rotation is by -pi/2, so a V-frame +y displacement
    # becomes a +x displacement in L.
    det = _det(1.0, [1, 0, 0])
    z = make_vio_measurement(_vio_pose(1.5, [0, 1, 0]), det, _vio_pose(1.0, [0, 0, 0]),
                             theta=math.pi / 2)
    assert np.allclose(z.value[:3], [2, 0, 0], atol=1e-12)


def test_make_vio_measurement_consistent_with_alignment_convention():
    # End-to-end convention check: build a scene in L, map it to V with a known
    # transform, recover theta with the closed-form aligner, and confirm the
    # measurement chain reproduces the L-frame motion.
    from coopguide.alignment import closed_form_align

    rng = np.random.default_rng(31)
    pts_l = rng.uniform(-3, 3, (20, 3))
    t_star = np.array([4.0, -2.0, 1.0])
    theta_star = 1.1
    pts_v = pts_l @ rot_z(theta_star).T + t_star
    _, theta_hat = closed_form_align(pts_l, pts_v)
    det = _det(0.0, pts_l[0])
    z = make_vio_measurement(
        _vio_pose(0.5, pts_v[5]), det, _vio_pose(0.0, pts_v[0]),
        theta=theta_hat,
    )
    assert np.allclose(z.value[:3], pts_l[5], atol=1e-9)


def test_make_vio_measurement_heading_component():
    det = _det(0.0, [0, 0, 0])
    z = make_vio_measurement(_vio_pose(0.5, [0, 0, 0], heading=0.3), det,
                             _vio_pose(0.0, [0, 0, 0]), theta=0.3)
    assert z.value[6] == pytest.approx(0.0, abs=1e-15)


def test_make_heading_measurement_values():
    z = make_heading_measurement(_vio_pose(0.0, [0, 0, 0], heading=1.0, rate=0.1),
                                 theta=0.25)
    assert np.allclose(z.value, [0.75, 0.1])


def test_make_heading_measurement_wraps():
    z = make_heading_measurement(_vio_pose(0.0, [0, 0, 0], heading=-3.0),
                                 theta=0.5)
    assert z.value[0] == pytest.approx(-3.5 + 2 * math.pi)


def test_make_heading_measurement_identity_theta():
    z = make_heading_measurement(_vio_pose(0.0, [0, 0, 0], heading=0.77),
                                 theta=0.0)
    assert z.value[0] == pytest.approx(0.77)


def test_heading_estimate_invariant_to_two_pi_shifts():
    # Spec invariant: adding 2*pi*k to any VIO heading input leaves results
    # unchanged (headings wrap in the measurement and in the innovation).
    base = _vio_pose(0.0, [0, 0, 0], heading=2.5, rate=0.2)
    shifted = _vio_pose(0.0, [0, 0, 0], heading=2.5 + 4 * math.pi, rate=0.2)
    za = make_heading_measurement(base, theta=0.3)
    zb = make_heading_measurement(shifted, theta=0.3)
    assert np.array_equal(za.value, zb.value)
    s = make_state(heading=-3.0)
    assert np.array_equal(update(s, za).mean, update(s, zb).mean)


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


def test_associate_zero_innovation_accepted():
    s = make_state(pos=(1, 2, 3), var=0.5)
    det = Detection(0.0, 1.0, 2.0, 3.0, sigma=math.sqrt(0.5), track_id=4)
    d = associate([det], s)
    assert d.accepted and d.detection.track_id == 4
    assert d.mahalanobis_sq == pytest.approx(0.0, abs=1e-12)


def test_associate_far_detection_rejected_by_chi_square():
    # S = 0.2 per axis: prior position variance 0.1 plus sigma^2 = 0.1;
    # y = (1, 1, 1), 1.73 m, passes the 2 m pre-gate and gives d^2 = 15.
    s = make_state(var=0.1)
    det = Detection(0.0, 1.0, 1.0, 1.0, sigma=math.sqrt(0.1), track_id=0)
    d = associate([det], s)
    assert d.detection.track_id == 0
    assert d.mahalanobis_sq == pytest.approx(15.0)
    assert not d.accepted


def test_associate_prefers_nearer_candidate():
    s = make_state(var=0.5)
    near = Detection(0.0, 0.5, 0.0, 0.0, sigma=math.sqrt(0.5), track_id=1)
    far = Detection(0.0, 1.0, 0.0, 0.0, sigma=math.sqrt(0.5), track_id=2)
    d = associate([far, near], s)
    assert d.detection.track_id == 1


def test_associate_euclidean_pregate_excludes_candidates():
    s = make_state(var=1e6)  # huge covariance would accept anything by chi-square
    far = Detection(0.0, 5.0, 0.0, 0.0, sigma=0.1, track_id=9)
    d = associate([far], s)
    assert d.detection is None and not d.accepted


def test_associate_empty_set():
    d = associate([], make_state())
    assert d.detection is None and not d.accepted


def test_gate_calibration():
    # Spec invariant: acceptance rate of correctly modeled detections in
    # [0.93, 0.97] at p = 0.95 over 1e4 trials.  S is 0.3225 on each axis, so
    # an innovation beyond the 2 m pre-gate has d^2 > 12.4 and fails the
    # chi-square test as well: the pre-gate changes no outcome.
    rng = np.random.default_rng(40)
    accepted = 0
    trials = 10_000
    state = state_from(0.0, np.zeros(8), (0.3, 0.5, 0.1, 0.1))
    sigma = 0.15
    L = np.linalg.cholesky(np.diag(state.covariance[:3, 0, 0]) + sigma ** 2 * np.eye(3))
    for _ in range(trials):
        z = L @ rng.normal(0, 1, 3)  # innovation drawn from the modeled N(0, S)
        det = Detection(0.0, *z.tolist(), sigma, track_id=0)
        if associate([det], state).accepted:
            accepted += 1
    rate = accepted / trials
    assert 0.93 <= rate <= 0.97


def _bits(*values) -> bytes:
    """The exact IEEE bits of floats and float arrays, in order."""
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


def numpy_vio_measurement(vio, det, vio_at_det, theta, drift_rate=0.0):
    """(value, variance) by the array formula ``make_vio_measurement`` used
    before its float path (oracle)."""
    c, s = math.cos(-theta), math.sin(-theta)
    r_lv = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    z_x = _position(det) + r_lv @ (_position(vio) - _position(vio_at_det)
                                   - drift_rate * (vio.stamp - vio_at_det.stamp))
    z_v = r_lv @ (_velocity(vio) - drift_rate)
    # the pose constructor wrapped the heading then
    heading = wrap_heading(wrap_heading(vio.heading) - theta)
    value = np.concatenate([z_x, z_v, [heading, vio.heading_rate]])
    variance = np.array([det.sigma ** 2 + tracker.VIO_DELTA_VARIANCE, tracker.VIO_VELOCITY_VARIANCE,
                         *tracker.HEADING_VARIANCE])
    return value, variance


def test_vio_measurements_are_bit_identical_to_the_array_formulas():
    rng = np.random.default_rng(34)
    for _ in range(500):
        theta = float(rng.uniform(-math.pi, math.pi))
        t_det = float(rng.uniform(0.0, 100.0))
        t = t_det + float(rng.uniform(0.0, 2.0))
        det = _det(t_det, rng.normal(0.0, 5.0, 3), sigma=float(rng.uniform(0.01, 0.5)))
        at_det, vio = (_vio_pose(s, rng.normal(0.0, 5.0, 3), float(rng.uniform(-4.0, 4.0)),
                                 rng.normal(0.0, 1.0, 3), float(rng.normal(0.0, 0.5)))
                       for s in (t_det, t))
        drift_rate = rng.normal(0.0, 0.5, 3)
        for z, (value, variance) in (
                (make_vio_measurement(vio, det, at_det, theta),
                 numpy_vio_measurement(vio, det, at_det, theta)),
                (make_vio_measurement(vio, det, at_det, theta, drift_rate),
                 numpy_vio_measurement(vio, det, at_det, theta, drift_rate))):
            assert (z.stamp, z.kind) == (t, MeasurementKind.VIO_FULL)
            assert _bits(z.value) == _bits(value)
            assert _bits(z.variance) == _bits(variance)
        z = make_heading_measurement(vio, theta)
        assert _bits(z.value) == _bits(wrap_heading(wrap_heading(vio.heading) - theta),
                                       vio.heading_rate)
        assert _bits(z.variance) == _bits(tracker.HEADING_VARIANCE)


def test_measurement_checks_dimension_and_holds_float_tuples():
    z = Measurement(0.5, MeasurementKind.VIO_HEADING, (1.0, 2.0), (0.1, 0.2))
    assert z.value == (1.0, 2.0) and z.variance == (0.1, 0.2)
    assert all(type(v) is float for v in z.value + z.variance)


# ---------------------------------------------------------------------------
# history buffer replay


def _random_measurements(rng, n, t0=0.0, spacing=0.05):
    out = []
    t = t0
    for _ in range(n):
        t += spacing * float(rng.uniform(0.5, 1.5))
        kind = [MeasurementKind.LIDAR_POSITION, MeasurementKind.VIO_FULL,
                MeasurementKind.VIO_HEADING][int(rng.integers(0, 3))]
        m = {MeasurementKind.LIDAR_POSITION: 3, MeasurementKind.VIO_FULL: 8,
             MeasurementKind.VIO_HEADING: 2}[kind]
        out.append(Measurement(t, kind, tuple(rng.normal(0, 1, m).tolist()),
                               per_block(kind, rng.uniform(0.05, 0.5, m))))
    return out


def test_in_order_insertion_equals_streaming():
    rng = np.random.default_rng(50)
    anchor = make_state(var=1.0)
    measurements = _random_measurements(rng, 12)
    buf = HistoryBuffer(anchor, span=10.0)
    for z in measurements:
        state = buf.insert(z)
    stream = anchor
    for z in measurements:
        stream = update(predict(stream, z.stamp - stream.stamp), z)
    assert np.allclose(state.mean, stream.mean, atol=1e-12)
    assert np.allclose(state.covariance, stream.covariance, atol=1e-12)


def test_delayed_insertion_equals_chronological():
    rng = np.random.default_rng(51)
    anchor = make_state(var=1.0)
    z1, z2, z3 = _random_measurements(rng, 3, spacing=0.1)
    buf = HistoryBuffer(anchor, span=10.0)
    buf.insert(z1)
    buf.insert(z3)
    final = buf.insert(z2)  # late arrival
    ordered = HistoryBuffer(anchor, span=10.0)
    for z in (z1, z2, z3):
        expected = ordered.insert(z)
    assert np.allclose(final.mean, expected.mean, atol=1e-9)
    assert np.allclose(final.covariance, expected.covariance, atol=1e-9)


def test_replay_equivalence_random_interleavings():
    rng = np.random.default_rng(52)
    anchor = make_state(var=1.0)
    measurements = _random_measurements(rng, 20)
    ordered = HistoryBuffer(anchor, span=100.0)
    for z in measurements:
        expected = ordered.insert(z)
    for _ in range(50):
        perm = rng.permutation(len(measurements))
        buf = HistoryBuffer(anchor, span=100.0)
        for i in perm:
            buf.insert(measurements[i])
        got = buf.latest_state
        assert np.allclose(got.mean, expected.mean, atol=1e-9)
        assert np.allclose(got.covariance, expected.covariance, atol=1e-9)


def _full_replay(anchor, entries, t):
    """State at t from the anchor through every entry with stamp <= t."""
    state = anchor
    for z in entries:
        if z.stamp > t:
            break
        state = update(predict(state, max(0.0, z.stamp - state.stamp)), z)
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
            buf.insert(z)
        except StaleMeasurementError:
            stale += 1
        pruned += buf.anchor_state is not anchor
        assert buf._keys == [(e.stamp, e.kind) for e in buf.entries]
        assert len(buf._posts) == len(buf.entries)
        lo, hi = buf.anchor_state.stamp, buf.entries[-1].stamp
        for t in (lo, hi, float(rng.uniform(lo, hi)), hi + 0.05, z.stamp):
            if t < lo:
                continue
            got, want = buf.estimate_at(t), _full_replay(buf.anchor_state, buf.entries, t)
            assert _bits(got.stamp, got.mean, got.covariance) == \
                _bits(want.stamp, want.mean, want.covariance)
    assert min(stale, pruned, late) > 10, (stale, pruned, late)


def test_measurement_older_than_span_rejected():
    anchor = make_state(stamp=0.0)
    buf = HistoryBuffer(anchor, span=2.0)
    buf.insert(_lidar_meas(5.0, [0, 0, 0]))
    with pytest.raises(StaleMeasurementError):
        buf.insert(_lidar_meas(2.5, [0, 0, 0]))


def test_measurement_older_than_anchor_rejected():
    anchor = make_state(stamp=1.0)
    buf = HistoryBuffer(anchor, span=2.0)
    with pytest.raises(StaleMeasurementError):
        buf.insert(_lidar_meas(0.5, [0, 0, 0]))


def test_pruning_preserves_replay_result():
    rng = np.random.default_rng(53)
    anchor = make_state(var=1.0)
    measurements = _random_measurements(rng, 40, spacing=0.2)  # spans ~8 s
    pruned = HistoryBuffer(anchor, span=2.0)
    full = HistoryBuffer(anchor, span=1e9)
    for z in measurements:
        got = pruned.insert(z)
        expected = full.insert(z)
    assert len(pruned) < len(full)
    assert np.allclose(got.mean, expected.mean, atol=1e-9)
    assert np.allclose(got.covariance, expected.covariance, atol=1e-9)


def test_estimate_at_newest_entry_equals_replay():
    rng = np.random.default_rng(54)
    anchor = make_state(var=1.0)
    buf = HistoryBuffer(anchor, span=10.0)
    for z in _random_measurements(rng, 8):
        state = buf.insert(z)
    q = buf.estimate_at(buf.entries[-1].stamp)
    assert np.allclose(q.mean, state.mean, atol=1e-12)


def test_estimate_at_extrapolates_constant_velocity():
    anchor = make_state(pos=(0, 0, 0), vel=(1, 0, 0))
    buf = HistoryBuffer(anchor, span=10.0)
    q = buf.estimate_at(0.5)
    assert np.allclose(q.position, [0.5, 0, 0])


def test_estimate_at_before_anchor_raises():
    buf = HistoryBuffer(make_state(stamp=1.0), span=10.0)
    with pytest.raises(ValueError):
        buf.estimate_at(0.5)


# ---------------------------------------------------------------------------
# degenerate stream behavior


def test_detections_lost_position_dead_reckons_vio_chain():
    # With only VIO measurements after the last detection, the position
    # follows the measurement chain z_x = d(t_k) + R(theta)^-1 (p(t) - p(t_k))
    # exactly when the motion is consistent with the model.
    theta = 0.6
    drift_rate = np.array([0.3, 0.0, 0.0])  # V-frame drift: chain leaves truth
    vel_l = np.array([0.4, 0.2, 0.0])
    det = _det(0.0, [1.0, 1.0, 1.0])
    R_vl = rot_z(theta)

    def vio_at(t):
        # V-frame pose of a secondary moving at vel_l, with accumulating drift
        pos_l = _position(det) + vel_l * t
        return _vio_pose(t, R_vl @ pos_l + drift_rate * t,
                         heading=theta, vel=R_vl @ vel_l + drift_rate)

    z_v0 = make_vio_measurement(vio_at(0.0), det, vio_at(0.0), theta)
    state = state_from(0.0, z_v0.value, (0.01,) * 4)
    buf = HistoryBuffer(state, span=1e9)
    chain = []
    for k in range(1, 40):
        t = 0.1 * k
        z = make_vio_measurement(vio_at(t), det, vio_at(0.0), theta)
        chain.append(z.value[:3])
        state = buf.insert(z)
        assert np.allclose(state.position, z.value[:3], atol=1e-9)
    # the chain (and hence the estimate) has drifted away from ground truth
    truth = _position(det) + vel_l * 3.9
    drift_l = rot_z(-theta) @ (drift_rate * 3.9)
    assert np.allclose(state.position - truth, drift_l, atol=1e-6)


def test_vio_measurement_with_drift_rate_follows_truth():
    # the same drifting VIO as above: given the drift rate, the position
    # chain and the velocity measurement are the L-frame truth
    theta = 0.6
    drift_rate = np.array([0.3, -0.1, 0.05])
    vel_l = np.array([0.4, 0.2, 0.0])
    det = _det(0.5, [1.0, 1.0, 1.0])
    R_vl = rot_z(theta)

    def vio_at(t):
        pos_l = _position(det) + vel_l * (t - det.stamp)
        return _vio_pose(t, R_vl @ pos_l + drift_rate * t,
                         heading=theta, vel=R_vl @ vel_l + drift_rate)

    for t in (0.5, 1.0, 4.4):
        z = make_vio_measurement(vio_at(t), det, vio_at(det.stamp), theta, drift_rate)
        assert np.allclose(z.value[:3], _position(det) + vel_l * (t - det.stamp), atol=1e-12)
        assert np.allclose(z.value[3:6], vel_l, atol=1e-12)
        plain = make_vio_measurement(vio_at(t), det, vio_at(det.stamp), theta)
        assert np.allclose(plain.value[3:6], vel_l + rot_z(-theta) @ drift_rate, atol=1e-12)


def test_vio_lost_heading_states_untouched_by_detections():
    # Block-diagonal covariance keeps lidar position updates from moving the
    # heading block.
    state = make_state(pos=(0, 0, 0), vel=(1, 0, 0), heading=0.8, rate=0.05, var=0.5)
    buf = HistoryBuffer(state, span=1e9)
    rng = np.random.default_rng(60)
    for k in range(1, 30):
        t = 0.1 * k
        z = _lidar_meas(t, rng.normal(0, 0.1, 3) + np.array([t, 0, 0]), sigma=0.15)
        s = buf.insert(z)
        assert s.heading == pytest.approx(wrap_heading(0.8 + 0.05 * t), abs=1e-12)
        assert s.heading_rate == pytest.approx(0.05, abs=1e-12)
    assert not np.allclose(s.position, [0, 0, 0])


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
    assert np.allclose(state.position, _position(dets[-1]), atol=1e-9)
    assert np.allclose(state.velocity, [0.1, 0.2, 0.0], atol=1e-6)
    assert state.heading == pytest.approx(0.4, abs=1e-6)
    assert state.heading_rate == pytest.approx(0.03)
    assert abs(wrap_heading(result.heading - theta_star)) < 1e-6


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
