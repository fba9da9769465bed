"""Alignment solver contracts: loss, correspondences, LM recovery, degeneracy."""

import math

import numpy as np
import pytest

from coopguide.alignment import (
    AlignmentConfig,
    Correspondence,
    InsufficientDataError,
    build_correspondences,
    closed_form_align,
    degeneracy_check,
    soft_l1,
    solve_alignment,
    solve_alignment_arrays,
    window_geometry,
    window_observable,
)
from coopguide.geometry import Detection, Frame, RelativeTransform, TimedPose, rot_z, wrap_heading


# ---------------------------------------------------------------------------
# test-side oracles


def oracle_closed_form(a, b):
    """Independent yaw-constrained alignment: grid + refinement over theta.

    Solves min_theta sum ||Rz(theta) a_i + t(theta) - b_i||^2 by scanning the
    1-D heading cost (translation eliminated via centroids at each theta) and
    polishing with golden-section search.  Deliberately not the cross/dot
    formula used by the package.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    mu_a = a.mean(axis=0)
    mu_b = b.mean(axis=0)
    ac, bc = a - mu_a, b - mu_b

    def cost(theta):
        r = ac @ rot_z(theta).T - bc
        return float(np.sum(r * r))

    grid = np.linspace(-math.pi, math.pi, 3600)
    best = min(grid, key=cost)
    lo, hi = best - 0.01, best + 0.01
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - phi * (hi - lo), lo + phi * (hi - lo)
    for _ in range(200):
        if cost(c) < cost(d):
            hi, d = d, c
            c = hi - phi * (hi - lo)
        else:
            lo, c = c, d
            d = lo + phi * (hi - lo)
    theta = 0.5 * (lo + hi)
    t = mu_b - rot_z(theta) @ mu_a
    return t, wrap_heading(theta)


def oracle_fisher_min_eig(points, theta):
    """Min eigenvalue of J^T J assembled row by row from the stacked Jacobian."""
    rows = []
    dR = np.array([
        [-math.sin(theta), -math.cos(theta), 0.0],
        [math.cos(theta), -math.sin(theta), 0.0],
        [0.0, 0.0, 0.0],
    ])
    for p in points:
        J_i = np.hstack([np.eye(3), (dR @ p).reshape(3, 1)])
        rows.append(J_i)
    J = np.vstack(rows)
    return float(np.linalg.eigvalsh(J.T @ J)[0])


def circle_points(n=50, radius=4.0, z=1.0):
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang), np.full(n, z)])


def make_corrs(points, t_star, theta_star, stamps=None):
    R = rot_z(theta_star)
    if stamps is None:
        stamps = np.arange(len(points), dtype=float) * 0.1
    return [
        Correspondence(ts, p, R @ p + t_star)
        for ts, p in zip(stamps, points)
    ]


# ---------------------------------------------------------------------------
# soft-L1 loss


def test_soft_l1_values():
    assert soft_l1(0.0) == 0.0
    assert soft_l1(3.0) == pytest.approx(2.0)
    assert soft_l1(8.0) == pytest.approx(4.0)


def test_soft_l1_rejects_negative():
    with pytest.raises(ValueError):
        soft_l1(-1e-9)


def test_soft_l1_monotone_and_concave_ratio():
    s = np.linspace(1e-6, 100.0, 2000)
    rho = soft_l1(s)
    assert np.all(np.diff(rho) > 0)
    ratio = rho / s
    assert np.all(np.diff(ratio) <= 1e-15)  # rho(s)/s non-increasing


def test_soft_l1_asymptotics():
    assert soft_l1(1e-8) == pytest.approx(1e-8, rel=1e-6)
    assert soft_l1(1e8) == pytest.approx(2.0 * math.sqrt(1e8), rel=1e-3)


# ---------------------------------------------------------------------------
# correspondence building


def _det(t, pos, track=0):
    return Detection(stamp=t, position=np.asarray(pos, float), sigma=0.1, track_id=track)


def _vio(t, pos):
    return TimedPose(stamp=t, frame=Frame.VIO, position=np.asarray(pos, float))


def test_build_correspondences_midpoint_interpolation():
    dets = [_det(0.0, [0, 0, 0]), _det(1.0, [2, 0, 0])]
    vio = [_vio(0.5, [7.0, 8.0, 9.0])]
    corrs = build_correspondences(dets, vio, window=10.0, min_count=1)
    assert len(corrs) == 1
    assert corrs[0].stamp == 0.5
    assert np.allclose(corrs[0].lidar_position, [1.0, 0.0, 0.0])
    assert np.allclose(corrs[0].vio_position, [7.0, 8.0, 9.0])


def test_build_correspondences_skips_out_of_span_stamps():
    dets = [_det(0.0, [0, 0, 0]), _det(1.0, [2, 0, 0])]
    vio = [_vio(0.5, [0, 0, 0]), _vio(1.5, [1, 1, 1])]  # 1.5 is 0.4 s beyond span
    corrs = build_correspondences(dets, vio, window=10.0, min_count=1)
    assert [c.stamp for c in corrs] == [0.5]


def test_build_correspondences_identical_stamps_zero_error():
    stamps = np.arange(0.0, 2.0, 0.1)
    pts = np.column_stack([stamps, stamps ** 2, np.zeros_like(stamps)])
    dets = [_det(t, p) for t, p in zip(stamps, pts)]
    vio = [_vio(t, p + 5.0) for t, p in zip(stamps, pts)]
    corrs = build_correspondences(dets, vio, window=10.0, min_count=1)
    assert len(corrs) == len(stamps)
    for c, p in zip(corrs, pts):
        assert np.allclose(c.lidar_position, p, atol=1e-12)


def test_build_correspondences_insufficient_returns_empty():
    dets = [_det(0.0, [0, 0, 0]), _det(1.0, [2, 0, 0])]
    vio = [_vio(0.5, [0, 0, 0])]
    assert build_correspondences(dets, vio, window=10.0, min_count=5) == []


# ---------------------------------------------------------------------------
# closed-form solver vs constructed ground truth and independent oracle


def test_closed_form_recovers_constructed_transform():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pts = rng.uniform(-5, 5, size=(30, 3))
        t_star = rng.uniform(-10, 10, 3)
        theta_star = rng.uniform(-math.pi, math.pi)
        b = pts @ rot_z(theta_star).T + t_star
        t_hat, theta_hat = closed_form_align(pts, b)
        assert np.allclose(t_hat, t_star, atol=1e-9)
        assert abs(wrap_heading(theta_hat - theta_star)) < 1e-10


def test_closed_form_matches_independent_oracle_on_noisy_data():
    rng = np.random.default_rng(4)
    pts = circle_points(40)
    t_star = np.array([2.0, -1.0, 0.5])
    theta_star = 0.9
    b = pts @ rot_z(theta_star).T + t_star + rng.normal(0.0, 0.1, size=pts.shape)
    t_cf, theta_cf = closed_form_align(pts, b)
    t_or, theta_or = oracle_closed_form(pts, b)
    assert abs(wrap_heading(theta_cf - theta_or)) < 1e-6
    assert np.allclose(t_cf, t_or, atol=1e-5)


# ---------------------------------------------------------------------------
# LM solver


def test_solve_alignment_identity_case():
    pts = circle_points(50)
    corrs = make_corrs(pts, np.zeros(3), 0.0)
    res = solve_alignment(corrs, RelativeTransform.identity(Frame.LIDAR, Frame.VIO))
    assert res.converged
    assert res.final_cost == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.transform.translation, 0.0, atol=1e-9)
    assert abs(res.transform.heading) < 1e-9


def test_solve_alignment_exact_recovery_noiseless():
    rng = np.random.default_rng(5)
    pts = circle_points(50)
    for _ in range(20):
        t_star = rng.uniform(-10, 10, 3)
        theta_star = rng.uniform(-math.pi, math.pi)
        corrs = make_corrs(pts, t_star, theta_star)
        res = solve_alignment(corrs)
        assert res.converged
        t_cf, theta_cf = closed_form_align(
            np.array([c.lidar_position for c in corrs]),
            np.array([c.vio_position for c in corrs]),
        )
        assert np.allclose(res.transform.translation, t_star, atol=1e-6)
        assert abs(wrap_heading(res.transform.heading - theta_star)) < 1e-8
        assert np.allclose(res.transform.translation, t_cf, atol=1e-6)
        assert abs(wrap_heading(res.transform.heading - theta_cf)) < 1e-8


def test_solve_alignment_robust_to_outliers():
    rng = np.random.default_rng(6)
    pts = circle_points(50)
    t_star = np.array([3.0, -2.0, 1.0])
    theta_star = -2.2
    corrs = make_corrs(pts, t_star, theta_star)
    vio = np.array([c.vio_position for c in corrs])
    vio += rng.normal(0.0, 0.05, size=vio.shape)
    outliers = rng.choice(len(corrs), size=10, replace=False)
    for i in outliers:
        vio[i] += rng.normal(0.0, 1.0, 3) / np.linalg.norm(rng.normal(0.0, 1.0, 3)) * 5.0
    corrs = [
        Correspondence(c.stamp, c.lidar_position, v) for c, v in zip(corrs, vio)
    ]
    # With 20% outliers in the set, the mean robustified residual stays high
    # (each 5 m outlier contributes rho(25) ~ 8.2); the cost gate is scenario
    # config, so open it here and check recovery accuracy.
    cfg = AlignmentConfig(max_cost=3.0)
    res = solve_alignment(corrs, config=cfg)
    assert res.converged
    assert np.linalg.norm(res.transform.translation - t_star) < 0.05
    assert abs(wrap_heading(res.transform.heading - theta_star)) < 0.01
    # oracle on the inlier subset only
    inliers = np.setdiff1d(np.arange(len(corrs)), outliers)
    t_or, theta_or = oracle_closed_form(
        np.array([corrs[i].lidar_position for i in inliers]),
        np.array([corrs[i].vio_position for i in inliers]),
    )
    assert np.linalg.norm(res.transform.translation - t_or) < 0.05
    assert abs(wrap_heading(res.transform.heading - theta_or)) < 0.01


def test_solve_alignment_insufficient_raises():
    corrs = make_corrs(circle_points(5), np.zeros(3), 0.0)
    with pytest.raises(InsufficientDataError):
        solve_alignment(corrs)


def test_solve_alignment_cost_monotone_over_iterations():
    # Instrumented indirectly: the damping contract guarantees accepted cost
    # never increases, so final cost from a far initial guess must not exceed
    # the initial cost.
    pts = circle_points(30)
    corrs = make_corrs(pts, np.array([5.0, 5.0, 0.0]), 2.0)
    bad_init = RelativeTransform(np.array([-8.0, 3.0, 2.0]), -1.0, Frame.LIDAR, Frame.VIO)
    D = np.array([c.lidar_position for c in corrs])
    P = np.array([c.vio_position for c in corrs])
    r0 = D @ rot_z(-1.0).T + bad_init.translation - P
    cost0 = float(np.mean(soft_l1(np.sum(r0 * r0, axis=1))))
    res = solve_alignment(corrs, bad_init)
    assert res.final_cost <= cost0
    assert res.converged


def test_min_eigenvalue_invariant_under_vio_translation():
    pts = circle_points(40)
    corrs_a = make_corrs(pts, np.zeros(3), 0.4)
    corrs_b = [
        Correspondence(c.stamp, c.lidar_position, c.vio_position + np.array([100.0, -50.0, 20.0]))
        for c in corrs_a
    ]
    res_a = solve_alignment(corrs_a)
    res_b = solve_alignment(corrs_b)
    assert res_a.min_eigenvalue == pytest.approx(res_b.min_eigenvalue, rel=1e-9)


# ---------------------------------------------------------------------------
# degeneracy detection


def test_degeneracy_single_point_rejected():
    pts = np.tile(np.array([1.0, 2.0, 3.0]), (20, 1))
    corrs = make_corrs(pts, np.zeros(3), 0.0)
    res = solve_alignment(corrs)
    assert res.min_eigenvalue == pytest.approx(0.0, abs=1e-9)
    assert res.path_length == pytest.approx(0.0)
    assert not degeneracy_check(res, min_path_length=1.0, min_eigenvalue=1.0)


def test_degeneracy_circle_accepted_eig_matches_oracle():
    pts = circle_points(50, radius=4.0)
    theta_star = 0.3
    corrs = make_corrs(pts, np.array([1.0, 1.0, 0.0]), theta_star)
    res = solve_alignment(corrs)
    assert degeneracy_check(res, min_path_length=1.0, min_eigenvalue=1.0)
    expected = oracle_fisher_min_eig(pts, res.transform.heading)
    assert res.min_eigenvalue == pytest.approx(expected, rel=1e-9)


def test_degeneracy_straight_segment_accepted():
    n = 30
    s = np.linspace(0.0, 2.0, n)
    pts = np.column_stack([s, np.zeros(n), np.ones(n)])
    corrs = make_corrs(pts, np.array([0.5, 0.5, 0.0]), 1.0)
    res = solve_alignment(corrs)
    expected = oracle_fisher_min_eig(pts, res.transform.heading)
    assert res.min_eigenvalue == pytest.approx(expected, rel=1e-9)
    assert expected > 0.0
    assert degeneracy_check(res, min_path_length=1.0, min_eigenvalue=min(1.0, expected / 2))


def _geometry_windows(rng):
    """Random lidar windows (N, 3): stationary clutter, short segments, circles."""
    for _ in range(8):
        n = int(rng.integers(10, 150))
        yield "clutter", rng.uniform(-20.0, 20.0, 3) + rng.normal(0.0, 0.05, (n, 3))
    for _ in range(8):
        n = int(rng.integers(10, 150))
        direction = rng.normal(0.0, 1.0, 3)
        s = np.linspace(0.0, rng.uniform(0.1, 2.0), n)
        yield "segment", (rng.uniform(-10.0, 10.0, 3)
                          + s[:, None] * direction / np.linalg.norm(direction)
                          + rng.normal(0.0, 0.01, (n, 3)))
    for _ in range(8):
        n = int(rng.integers(10, 150))
        ang = np.linspace(0.0, rng.uniform(0.5, 2.0 * math.pi), n)
        radius = rng.uniform(0.5, 6.0)
        yield "circle", rng.uniform(-10.0, 10.0, 3) + np.column_stack(
            [radius * np.cos(ang), radius * np.sin(ang), np.zeros(n)])


def test_window_geometry_matches_oracle_and_gates_the_solve():
    rng = np.random.default_rng(31)
    cfg = AlignmentConfig()
    failed = set()
    for kind, D in _geometry_windows(rng):
        path_length, min_eig = window_geometry(D)
        assert path_length == pytest.approx(
            sum(np.linalg.norm(b - a) for a, b in zip(D[:-1], D[1:])), rel=1e-12)
        # the oracle's eigvalsh carries an absolute error of a few ulps of
        # ||J^T J||, which dominates for stationary windows far from the origin
        ulps = 64.0 * np.finfo(float).eps * (len(D) + float(np.sum(D[:, :2] ** 2)))
        for theta in (0.0, 0.7, -2.5, math.pi):
            assert min_eig == pytest.approx(oracle_fisher_min_eig(D, theta), rel=1e-9, abs=ulps)
        theta_star = float(rng.uniform(-math.pi, math.pi))
        P = D @ rot_z(theta_star).T + rng.uniform(-5.0, 5.0, 3) + rng.normal(0.0, 0.02, D.shape)
        stamps = 0.1 * np.arange(len(D))
        res = solve_alignment_arrays(stamps, D, P, None, cfg)
        assert (res.path_length, res.min_eigenvalue) == (path_length, min_eig)
        if not window_observable(D, cfg):
            failed.add(kind)
            assert not degeneracy_check(res, cfg.min_path_length, cfg.min_eigenvalue)
    assert {"clutter", "segment"} <= failed


def test_exact_recovery_property_small_paths():
    # Spec invariant: >= 3 non-collocated noiseless points spanning >= 0.5 m
    # recover exactly from zero initial guess.
    rng = np.random.default_rng(12)
    cfg = AlignmentConfig(min_correspondences=3)
    for _ in range(50):
        n = rng.integers(3, 12)
        base = rng.uniform(-2, 2, 3)
        direction = rng.normal(0, 1, 3)
        direction /= np.linalg.norm(direction)
        span = rng.uniform(0.5, 3.0)
        pts = base + np.outer(np.linspace(0, span, n), direction)
        pts += rng.normal(0, 0.2, pts.shape)  # jitter the shape, still noiseless pairs
        t_star = rng.uniform(-10, 10, 3)
        theta_star = rng.uniform(-math.pi, math.pi)
        corrs = make_corrs(pts, t_star, theta_star)
        res = solve_alignment(corrs, config=cfg)
        assert res.converged
        assert np.allclose(res.transform.translation, t_star, atol=1e-6)
        assert abs(wrap_heading(res.transform.heading - theta_star)) < 1e-8
