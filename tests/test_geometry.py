"""Frame/transform conventions and interpolation contracts."""

import math

import numpy as np
import pytest

from coopguide.geometry import (
    Frame,
    RelativeTransform,
    StaleQueryError,
    TimedPose,
    interpolate,
    rot_z,
    wrap_heading,
)


def test_wrap_heading_identity():
    assert wrap_heading(0.0) == 0.0


def test_wrap_heading_mod_two_pi():
    assert wrap_heading(3 * math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-15)


def test_wrap_heading_boundary_is_half_open():
    # -pi maps to +pi: the representative interval is (-pi, pi].
    assert wrap_heading(-math.pi) == pytest.approx(math.pi)
    assert wrap_heading(math.pi) == pytest.approx(math.pi)


def test_wrap_heading_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            wrap_heading(bad)


def test_wrap_heading_idempotent_and_bounded_bulk():
    # Spec invariant: idempotent and bounded over 1e6 random inputs.
    rng = np.random.default_rng(7)
    angles = rng.uniform(-1e4, 1e4, size=1_000_000)
    wrapped = wrap_heading(angles)
    assert np.all(wrapped > -math.pi) and np.all(wrapped <= math.pi)
    again = wrap_heading(wrapped)
    assert np.allclose(again, wrapped, atol=0.0)
    # congruence mod 2 pi
    k = (angles - wrapped) / (2 * math.pi)
    assert np.allclose(k, np.round(k), atol=1e-6)


def test_apply_transform_identity():
    T = RelativeTransform.identity(Frame.LIDAR, Frame.VIO)
    assert np.allclose(T.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_apply_transform_quarter_turn():
    T = RelativeTransform(np.zeros(3), math.pi / 2, Frame.LIDAR, Frame.VIO)
    assert np.allclose(T.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)


def test_apply_transform_half_turn_with_translation():
    T = RelativeTransform(np.array([1.0, 0.0, 0.0]), math.pi, Frame.LIDAR, Frame.VIO)
    assert np.allclose(T.apply([1.0, 0.0, 0.0]), [0.0, 0.0, 0.0], atol=1e-15)


def test_apply_transform_rejects_invalid():
    T = RelativeTransform(np.zeros(3), 0.0, Frame.LIDAR, Frame.VIO, valid=False)
    with pytest.raises(ValueError):
        T.apply([0.0, 0.0, 0.0])


def test_transform_inverse_round_trip():
    # Spec invariant: T(T^-1(x)) = x within 1e-12 for random T, x.
    rng = np.random.default_rng(11)
    for _ in range(200):
        T = RelativeTransform(
            rng.uniform(-10, 10, 3),
            rng.uniform(-math.pi, math.pi),
            Frame.LIDAR,
            Frame.VIO,
        )
        x = rng.uniform(-20, 20, 3)
        assert np.allclose(T.apply(T.inverse().apply(x)), x, atol=1e-12)
        assert np.allclose(T.inverse().apply(T.apply(x)), x, atol=1e-12)


def test_compose_with_inverse_is_identity():
    T = RelativeTransform(np.array([2.0, -1.0, 0.5]), 0.7, Frame.LIDAR, Frame.VIO)
    I = T.inverse().compose(T)
    assert np.allclose(I.translation, 0.0, atol=1e-12)
    assert abs(I.heading) < 1e-12


def test_rotation_is_pure_z():
    R = rot_z(1.234)
    assert np.allclose(R @ np.array([0.0, 0.0, 1.0]), [0.0, 0.0, 1.0])
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-15)
    assert np.linalg.det(R) == pytest.approx(1.0)


def _pose(t, pos, heading=0.0):
    return TimedPose(stamp=t, frame=Frame.VIO, position=np.asarray(pos, float), heading=heading)


def test_interpolate_linear_midpoint():
    buf = [_pose(0.0, [0, 0, 0]), _pose(1.0, [1, 0, 0])]
    mid = interpolate(buf, 0.5)
    assert np.allclose(mid.position, [0.5, 0.0, 0.0])


def test_interpolate_heading_shortest_arc():
    a = math.radians(170.0)
    b = math.radians(-170.0)
    buf = [_pose(0.0, [0, 0, 0], a), _pose(1.0, [0, 0, 0], b)]
    mid = interpolate(buf, 0.5)
    assert mid.heading == pytest.approx(math.pi, abs=1e-12)


def test_interpolate_exact_stamp_returns_stored_pose():
    buf = [_pose(0.0, [0, 0, 0]), _pose(0.4, [2, 1, 0], 0.3), _pose(1.0, [1, 0, 0])]
    assert interpolate(buf, 0.4) is buf[1]


def test_interpolate_stale_query_raises():
    buf = [_pose(0.0, [0, 0, 0]), _pose(1.0, [1, 0, 0])]
    with pytest.raises(StaleQueryError):
        interpolate(buf, 1.2)
    with pytest.raises(StaleQueryError):
        interpolate(buf, -0.2)
    # within tolerance: clamped, not raised
    assert np.allclose(interpolate(buf, 1.05).position, [1, 0, 0])

