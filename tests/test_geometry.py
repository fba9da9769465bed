"""Frame/transform conventions and interpolation contracts."""

import math

import numpy as np
import pytest

from coopguide.geometry import (
    StaleQueryError,
    StampedColumns,
    TimedPose,
    interpolate,
    pose_columns,
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


def test_wrap_heading_array_matches_scalar_bit_for_bit():
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi, math.pi + 1e-15]
    angles = np.concatenate([rng.uniform(-20.0, 20.0, 100_000), special])
    wrapped = wrap_heading(angles)
    assert [repr(x) for x in wrapped.tolist()] == [repr(wrap_heading(a)) for a in angles.tolist()]
    # -0.0 survives in an all-in-range array and beside an angle that wraps
    for subset in (np.array([-0.0, 1.0, -1.0]), np.array([-0.0, 1.0, 4.0])):
        got = [repr(x) for x in wrap_heading(subset).tolist()]
        assert got == [repr(wrap_heading(a)) for a in subset.tolist()]


def test_wrap_heading_float_int_and_float64_agree_with_the_array_path():
    # an in-range float returns at the first test; np.float64 and int take the
    # general path and keep their type when in range
    special = [0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi, math.pi + 1e-15]
    for kind in (float, np.float64, int):
        inputs = [kind(a) for a in special]
        expected = [repr(x) for x in wrap_heading(np.array(inputs, dtype=float)).tolist()]
        assert [repr(float(wrap_heading(a))) for a in inputs] == expected
        assert type(wrap_heading(kind(1.0))) is kind


def test_wrap_heading_array_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            wrap_heading(np.array([0.0, bad]))


def _apply(T, x):
    t, theta = T
    return rot_z(theta) @ np.asarray(x, dtype=float) + t


def _apply_inverse(T, y):
    t, theta = T
    return rot_z(theta).T @ (np.asarray(y, dtype=float) - t)


def test_apply_transform_identity():
    T = (np.zeros(3), 0.0)
    assert np.allclose(_apply(T, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_apply_transform_quarter_turn():
    T = (np.zeros(3), math.pi / 2)
    assert np.allclose(_apply(T, [1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)


def test_apply_transform_half_turn_with_translation():
    T = (np.array([1.0, 0.0, 0.0]), math.pi)
    assert np.allclose(_apply(T, [1.0, 0.0, 0.0]), [0.0, 0.0, 0.0], atol=1e-15)


def test_transform_inverse_round_trip():
    # Spec invariant: T(T^-1(x)) = x within 1e-12 for random T, x.
    rng = np.random.default_rng(11)
    for _ in range(200):
        T = (rng.uniform(-10, 10, 3), rng.uniform(-math.pi, math.pi))
        x = rng.uniform(-20, 20, 3)
        assert np.allclose(_apply(T, _apply_inverse(T, x)), x, atol=1e-12)
        assert np.allclose(_apply_inverse(T, _apply(T, x)), x, atol=1e-12)


def test_rotation_is_pure_z():
    R = rot_z(1.234)
    assert np.allclose(R @ np.array([0.0, 0.0, 1.0]), [0.0, 0.0, 1.0])
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-15)
    assert np.linalg.det(R) == pytest.approx(1.0)


def _pose(t, pos, heading=0.0):
    return TimedPose(t, *map(float, pos), heading=heading)


def test_interpolate_linear_midpoint():
    buf = pose_columns([_pose(0.0, [0, 0, 0]), _pose(1.0, [1, 0, 0])])
    mid = interpolate(buf, 0.5)
    assert np.allclose((mid.x, mid.y, mid.z), [0.5, 0.0, 0.0])


def test_interpolate_heading_shortest_arc():
    a = math.radians(170.0)
    b = math.radians(-170.0)
    buf = pose_columns([_pose(0.0, [0, 0, 0], a), _pose(1.0, [0, 0, 0], b)])
    mid = interpolate(buf, 0.5)
    assert mid.heading == pytest.approx(math.pi, abs=1e-12)


def _bits(*values) -> bytes:
    """The exact IEEE bits of floats and float arrays, in order."""
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


def _pose_bits(pose):
    return _bits(*pose)


def test_interpolate_exact_stamp_returns_stored_pose():
    poses = [_pose(0.0, [0, 0, 0]), _pose(0.4, [2, 1, 0], 0.3), _pose(1.0, [1, 0, 0])]
    got = interpolate(pose_columns(poses), 0.4)
    assert _pose_bits(got) == _pose_bits(poses[1])


def numpy_lerp_pose(a, b, t):
    """The array lerp ``interpolate`` used before its float path (oracle)."""
    if b.stamp <= a.stamp:
        return a
    u = (t - a.stamp) / (b.stamp - a.stamp)
    heading = wrap_heading(a.heading + u * wrap_heading(b.heading - a.heading))
    (pa, va), (pb, vb) = [(np.array(p[1:4]), np.array(p[5:8])) for p in (a, b)]
    return TimedPose(
        t,
        *(pa + u * (pb - pa)).tolist(),
        heading,
        *(va + u * (vb - va)).tolist(),
        a.heading_rate + u * (b.heading_rate - a.heading_rate),
    )


def test_interpolate_is_bit_identical_to_the_array_lerp():
    rng = np.random.default_rng(17)
    kinds = {"lerp": 0, "exact": 0, "clamp": 0, "wrap": 0}
    for _ in range(200):
        n = int(rng.integers(2, 12))
        stamps = np.cumsum(rng.uniform(0.001, 0.1, n)) + rng.uniform(-5.0, 5.0)
        buf = [TimedPose(float(s), *rng.normal(0.0, 10.0, 3).tolist(),
                         float(rng.uniform(-math.pi, math.pi)), *rng.normal(0.0, 1.0, 3).tolist(),
                         float(rng.normal(0.0, 0.5)))
               for s in stamps]
        queries = [float(s) for s in rng.uniform(stamps[0], stamps[-1], 8)]
        queries += [float(stamps[int(rng.integers(0, n))]),
                    float(stamps[0] - rng.uniform(0.0, 0.1)),
                    float(stamps[-1] + rng.uniform(0.0, 0.1))]
        columns = pose_columns(reversed(buf))   # inserted newest first
        for t in queries:
            got = interpolate(columns, t)
            hi = int(np.searchsorted(stamps, t))
            if t <= stamps[0] or t >= stamps[-1]:
                end = buf[0] if t <= stamps[0] else buf[-1]
                want, kind = end._replace(stamp=t), "clamp"
            elif stamps[hi] == t:
                want, kind = buf[hi], "exact"
            else:
                a, b = buf[hi - 1], buf[hi]
                want = numpy_lerp_pose(a, b, t)
                kind = "wrap" if abs(b.heading - a.heading) > math.pi else "lerp"
            kinds[kind] += 1
            assert _pose_bits(got) == _pose_bits(want), (kind, t)
    assert min(kinds.values()) > 0, kinds


def test_interpolate_stale_query_raises():
    buf = pose_columns([_pose(0.0, [0, 0, 0]), _pose(1.0, [1, 0, 0])])
    with pytest.raises(StaleQueryError):
        interpolate(buf, 1.2)
    with pytest.raises(StaleQueryError):
        interpolate(buf, -0.2)
    # within tolerance: clamped, not raised
    assert np.allclose(interpolate(buf, 1.05)[1:4], [1, 0, 0])


def test_stamped_columns_match_a_sorted_list_through_inserts_and_prunes():
    # late and repeated stamps, and enough records that the backing array
    # both grows and compacts
    rng = np.random.default_rng(23)
    buf = StampedColumns(3, capacity=4)
    model = []
    assert buf.newest_stamp == -math.inf and not buf.holds(0.0)
    for k in range(3000):
        stamp = float(k // 2 + int(rng.integers(-6, 2)))
        row = (stamp, float(rng.normal()), float(k))
        held = any(r[0] == stamp for r in model)
        assert buf.holds(stamp) == held
        index = buf.insert(row)
        if held:
            assert index is None
        else:
            model.append(row)
            model.sort()
            assert index == model.index(row)
        if k % 7 == 0:
            cutoff = model[-1][0] - float(rng.integers(5, 40))
            buf.prune(cutoff)
            model = [r for r in model if r[0] >= cutoff]
        assert len(buf) == len(model)
        assert buf.newest_stamp == model[-1][0]
        assert buf.row(-1) == list(model[-1]) and buf.row(0) == list(model[0])
    assert buf.columns.T.tolist() == [list(r) for r in model]
    with pytest.raises(IndexError):
        buf.row(len(model))
    copy = buf.copy()
    copy.insert((model[-1][0] + 1.0, 0.0, 0.0))
    assert len(copy) == len(buf) + 1 and buf.columns.T.tolist() == [list(r) for r in model]
    copy.prune(math.inf)
    assert len(copy) == 0 and copy.newest_stamp == -math.inf
    assert copy.insert((0.0, 0.0, 0.0)) == 0 and copy.newest_stamp == 0.0
