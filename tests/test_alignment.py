"""Alignment solver contracts: loss, correspondences, IRLS recovery, degeneracy."""

import bisect
import math

import numpy as np
import pytest
from scipy.optimize import minimize, root

from coopguide import alignment
from coopguide.alignment import (
    CAUCHY_SCALE,
    MIN_SPREAD_RATIO,
    AlignmentConfig,
    InsufficientDataError,
    _irls,
    _weighted_closed_form,
    build_correspondence_arrays,
    closed_form_align,
    degeneracy_check,
    soft_l1,
    solve_alignment_arrays,
    window_observable,
)
from coopguide.geometry import (
    STALE_TOLERANCE,
    Detection,
    TimedPose,
    rot_z,
    wrap_heading,
)

from columns import detection_columns, pose_columns


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


def oracle_heading_information(points, theta):
    """Heading information with the translation free, from F = J^T J.

    F is assembled row by row from the stacked Jacobian
    J_i = [I3 | Rz'(theta) p_i]; the result is its Schur complement
    F_theta,theta - F_theta,t F_tt^-1 F_t,theta.
    """
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
    F = J.T @ J
    F_tt, F_tth, F_thth = F[:3, :3], F[:3, 3], F[3, 3]
    return float(F_thth - F_tth @ np.linalg.solve(F_tt, F_tth))


def loop_weighted_closed_form(w, D, P, tau=None):
    """The weighted closed form as array formulas over the samples (oracle):
    weighted centring, the projection on the weight-centred tau, then the
    planar cross and dot sums."""
    sw = float(np.sum(w))
    mu_d, mu_p = w @ D / sw, w @ P / sw
    Dc, Pc = D - mu_d, P - mu_p
    if tau is not None:
        tau_mean = float(w @ tau) / sw
        tc = tau - tau_mean
        tt = float((w * tc) @ tc)
        proj_d, proj_p = (w * tc) @ D / tt, (w * tc) @ P / tt
        Dc, Pc = Dc - np.outer(tc, proj_d), Pc - np.outer(tc, proj_p)
    wx, wy = w * Dc[:, 0], w * Dc[:, 1]
    dot = float(wx @ Pc[:, 0] + wy @ Pc[:, 1])
    cross = float(wx @ Pc[:, 1] - wy @ Pc[:, 0])
    theta = math.atan2(cross, dot) if dot != 0.0 or cross != 0.0 else 0.0
    R = rot_z(theta)
    t, r = mu_p - R @ mu_d, None
    if tau is not None:
        r = proj_p - R @ proj_d
        t = t - tau_mean * r
    return t, wrap_heading(theta), r


def loop_squared_residuals(D, P, t, theta, r=None, tau=None):
    e = D @ rot_z(theta).T + t - P
    if r is not None:
        e = e + tau[:, None] * r
    return np.einsum("ij,ij->i", e, e)


def loop_irls(D, P, tau):
    """IRLS on the Cauchy cost with the array formulas above (oracle); the
    same stopping rules and return tuple as ``alignment._irls``."""
    c2 = CAUCHY_SCALE ** 2
    t, theta, r = loop_weighted_closed_form(np.ones(len(D)), D, P, tau)
    s = loop_squared_residuals(D, P, t, theta, r, tau)
    cost = c2 * float(np.sum(np.log1p(s / c2)))
    for iterations in range(1, alignment.MAX_ITERATIONS + 1):
        t_new, theta_new, r_new = loop_weighted_closed_form(1.0 / (1.0 + s / c2), D, P, tau)
        s_new = loop_squared_residuals(D, P, t_new, theta_new, r_new, tau)
        cost_new = c2 * float(np.sum(np.log1p(s_new / c2)))
        if cost_new > cost:
            return t, theta, r, s, iterations, True
        decrease = cost - cost_new
        t, theta, r, s, cost = t_new, theta_new, r_new, s_new, cost_new
        if decrease <= alignment.COST_TOLERANCE * max(cost, 1e-300):
            return t, theta, r, s, iterations, True
    return t, theta, r, s, alignment.MAX_ITERATIONS, False


def assert_spread_is(D, information):
    """window_observable's spread equals ``information`` to 1e-9: the decision
    flips between the noise at which the threshold is ``information`` times
    (1 - 1e-9) and the noise at which it is ``information`` times (1 + 1e-9)."""
    sigma_sq = information / (MIN_SPREAD_RATIO * len(D) * 2.0)
    assert window_observable(D, math.sqrt(sigma_sq * (1 - 1e-9)))
    assert not window_observable(D, math.sqrt(sigma_sq * (1 + 1e-9)))


def circle_points(n=50, radius=4.0, z=1.0):
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang), np.full(n, z)])


def make_corrs(points, t_star, theta_star, stamps=None):
    """Correspondence arrays (stamps, lidar, vio) under a known transform."""
    R = rot_z(theta_star)
    if stamps is None:
        stamps = np.arange(len(points), dtype=float) * 0.1
    D = np.asarray(points, dtype=float)
    return np.asarray(stamps, dtype=float), D, np.array([R @ p + t_star for p in D])


# ---------------------------------------------------------------------------
# soft-L1 loss (the acceptance statistic max_cost bounds)


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


@pytest.fixture
def one_pair(monkeypatch):
    """A 10 s window config, with a single correspondence enough to solve."""
    monkeypatch.setattr(alignment, "MIN_CORRESPONDENCES", 1)
    return AlignmentConfig(window=10.0)


def _det(t, pos, track=0):
    return Detection(t, *map(float, pos), sigma=0.1, track_id=track)


def _vio(t, pos):
    return TimedPose(t, *map(float, pos))


def _window(dets, vio, config):
    """``build_correspondence_arrays`` over buffers holding ``dets`` and ``vio``."""
    return build_correspondence_arrays(detection_columns(dets), pose_columns(vio), config)


def test_build_correspondences_midpoint_interpolation(one_pair):
    dets = [_det(0.0, [0, 0, 0]), _det(1.0, [2, 0, 0])]
    vio = [_vio(0.5, [7.0, 8.0, 9.0])]
    stamps, lidar, vio_positions = _window(dets, vio, one_pair)
    assert len(stamps) == 1
    assert stamps[0] == 0.5
    assert np.allclose(lidar[0], [1.0, 0.0, 0.0])
    assert np.allclose(vio_positions[0], [7.0, 8.0, 9.0])


def test_build_correspondences_skips_out_of_span_stamps(one_pair):
    dets = [_det(0.0, [0, 0, 0]), _det(1.0, [2, 0, 0])]
    vio = [_vio(0.5, [0, 0, 0]), _vio(1.5, [1, 1, 1])]  # 1.5 is 0.4 s beyond span
    stamps, _, _ = _window(dets, vio, one_pair)
    assert stamps.tolist() == [0.5]


def test_build_correspondences_identical_stamps_zero_error(one_pair):
    stamps = np.arange(0.0, 2.0, 0.1)
    pts = np.column_stack([stamps, stamps ** 2, np.zeros_like(stamps)])
    dets = [_det(t, p) for t, p in zip(stamps, pts)]
    vio = [_vio(t, p + 5.0) for t, p in zip(stamps, pts)]
    got_stamps, lidar, _ = _window(dets, vio, one_pair)
    assert len(got_stamps) == len(stamps)
    for d, p in zip(lidar, pts):
        assert np.allclose(d, p, atol=1e-12)


def test_build_correspondences_insufficient_returns_empty(monkeypatch):
    monkeypatch.setattr(alignment, "MIN_CORRESPONDENCES", 5)
    dets = [_det(0.0, [0, 0, 0]), _det(1.0, [2, 0, 0])]
    vio = [_vio(0.5, [0, 0, 0])]
    cfg = AlignmentConfig(window=10.0)
    assert _window(dets, vio, cfg) is None


def list_window(detections, vio_buffer, config):
    """The window over stamp-sorted lists of Detection and TimedPose records,
    as it was built before the column buffers (oracle)."""
    if not detections or not vio_buffer or config.window <= 0:
        return None
    det_stamps = np.array([d.stamp for d in detections])
    det_positions = np.array([d[1:4] for d in detections])
    t_end = vio_buffer[-1].stamp
    t_start = t_end - config.window
    lo = det_stamps[0] - STALE_TOLERANCE
    hi = det_stamps[-1] + STALE_TOLERANCE
    kept = [p for p in vio_buffer if p.stamp >= t_start and lo <= p.stamp <= hi]
    if len(kept) < alignment.MIN_CORRESPONDENCES:
        return None
    stamps = np.array([p.stamp for p in kept])
    if len(det_stamps) > 1:
        idx = np.searchsorted(det_stamps, stamps)
        inner = (idx > 0) & (idx < len(det_stamps))
        safe_idx = np.clip(idx, 1, len(det_stamps) - 1)
        gap = det_stamps[safe_idx] - det_stamps[safe_idx - 1]
        at_node = inner & (det_stamps[np.clip(idx, 0, len(det_stamps) - 1)] == stamps)
        ok = ~inner | (gap <= alignment.MAX_DETECTION_GAP) | at_node
        if not ok.all():
            kept = [p for p, keep_it in zip(kept, ok) if keep_it]
            if len(kept) < alignment.MIN_CORRESPONDENCES:
                return None
            stamps = stamps[ok]
    interp = np.column_stack([np.interp(stamps, det_stamps, det_positions[:, i])
                              for i in range(3)])
    return stamps, interp, np.array([p[1:4] for p in kept])


def _deliveries(rng, records):
    """``records`` in a delivery order with late and repeated deliveries."""
    order = list(records)
    for i in range(len(order) - 1):   # about one in five arrives late
        if rng.random() < 0.2:
            j = min(len(order) - 1, i + int(rng.integers(1, 6)))
            order[i], order[j] = order[j], order[i]
    out = []
    for record in order:
        out.append(record)
        if rng.random() < 0.1:   # a repeated delivery of an earlier one
            out.append(out[int(rng.integers(0, len(out)))])
    return out


def test_column_windows_are_bit_identical_to_the_list_windows():
    """Random streams through both buffer kinds, pruned as the guider prunes:
    every window matches the list formula bit for bit."""
    rng = np.random.default_rng(2024)
    outcomes = {"no_long_gap": 0, "window": 0, "gap_filtered": 0, "too_few": 0,
                "too_few_after_gaps": 0}
    for stream in range(40):
        config = AlignmentConfig(window=float(rng.uniform(1.0, 6.0)))
        span = config.window + 2.0
        # VIO near 30 Hz; detections near 10 Hz with occlusion gaps up to 2.5 s
        vio_t = np.cumsum(rng.uniform(0.02, 0.045, 400))
        vio = [TimedPose(float(t), *rng.normal(0.0, 5.0, 3).tolist(),
                         float(rng.uniform(-math.pi, math.pi)), *rng.normal(0.0, 1.0, 3).tolist(),
                         float(rng.normal(0.0, 0.3)))
               for t in vio_t]
        det_t, t = [], 0.0
        while t < vio_t[-1]:
            t += 0.1 if rng.random() > 0.05 else float(rng.uniform(0.5, 2.5))
            det_t.append(t + float(rng.normal(0.0, 0.003)))
        if stream % 2:
            # detections on the VIO clock, as on the simulator's tick grid:
            # window stamps then fall on detection stamps and on gap ends
            det_t = {float(vio_t[np.abs(vio_t - t).argmin()]) for t in det_t}
        dets = [_det(t, rng.normal(0.0, 5.0, 3)) for t in sorted(det_t)]
        # interleave the two streams by stamp, then disturb the order
        stream = sorted([(p.stamp, 1, p) for p in vio] + [(d.stamp, 0, d) for d in dets],
                        key=lambda e: (e[0], e[1]))
        vio_cols, det_cols = pose_columns([]), detection_columns([])
        vio_list, det_list = [], []
        for _, kind, record in _deliveries(rng, stream):
            columns, listed = (vio_cols, vio_list) if kind else (det_cols, det_list)
            i = bisect.bisect_left([r.stamp for r in listed], record.stamp)
            duplicate = i < len(listed) and listed[i].stamp == record.stamp
            assert (columns.insert(record) is None) == duplicate
            if not duplicate:
                listed.insert(i, record)
            cutoff = listed[-1].stamp - span
            columns.prune(cutoff)
            del listed[:bisect.bisect_left([r.stamp for r in listed], cutoff)]
            assert columns.stamps.tolist() == [r.stamp for r in listed]
            if not kind or rng.random() > 0.3:
                continue
            got = build_correspondence_arrays(det_cols, vio_cols, config)
            want = list_window(det_list, vio_list, config)
            before_gaps = _in_window(vio_list, det_list, config)
            if want is None:
                assert got is None
                outcomes["too_few" if before_gaps < alignment.MIN_CORRESPONDENCES
                         else "too_few_after_gaps"] += 1
                continue
            for g, w in zip(got, want):
                assert g.flags.c_contiguous and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
            if all(b.stamp - a.stamp <= alignment.MAX_DETECTION_GAP
                   for a, b in zip(det_list, det_list[1:])):
                outcomes["no_long_gap"] += 1   # the gap filter does not run
            else:
                outcomes["gap_filtered" if len(got[0]) < before_gaps else "window"] += 1
    assert min(outcomes.values()) > 0, outcomes


def _in_window(vio, dets, config):
    """VIO records in the window and the detection span, before the gap filter."""
    if not dets:
        return 0
    lo, hi = dets[0].stamp - STALE_TOLERANCE, dets[-1].stamp + STALE_TOLERANCE
    t_start = vio[-1].stamp - config.window
    return sum(p.stamp >= t_start and lo <= p.stamp <= hi for p in vio)


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
# IRLS solver


def test_solve_alignment_identity_case():
    pts = circle_points(50)
    corrs = make_corrs(pts, np.zeros(3), 0.0)
    res = solve_alignment_arrays(*corrs)
    assert res.converged
    assert res.final_cost == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.translation, 0.0, atol=1e-9)
    assert abs(res.heading) < 1e-9


def test_solve_alignment_exact_recovery_noiseless():
    rng = np.random.default_rng(5)
    pts = circle_points(50)
    for _ in range(20):
        t_star = rng.uniform(-10, 10, 3)
        theta_star = rng.uniform(-math.pi, math.pi)
        _, D, P = corrs = make_corrs(pts, t_star, theta_star)
        res = solve_alignment_arrays(*corrs)
        assert res.converged
        t_cf, theta_cf = closed_form_align(D, P)
        assert np.allclose(res.translation, t_star, atol=1e-6)
        assert abs(wrap_heading(res.heading - theta_star)) < 1e-8
        assert np.allclose(res.translation, t_cf, atol=1e-6)
        assert abs(wrap_heading(res.heading - theta_cf)) < 1e-8


def test_solve_alignment_robust_to_outliers():
    rng = np.random.default_rng(6)
    pts = circle_points(50)
    t_star = np.array([3.0, -2.0, 1.0])
    theta_star = -2.2
    stamps, D, vio = make_corrs(pts, t_star, theta_star)
    vio += rng.normal(0.0, 0.05, size=vio.shape)
    outliers = rng.choice(len(D), size=10, replace=False)
    for i in outliers:
        vio[i] += rng.normal(0.0, 1.0, 3) / np.linalg.norm(rng.normal(0.0, 1.0, 3)) * 5.0
    # With 20% outliers in the set, the mean soft-L1 residual stays high
    # (each 5 m outlier contributes soft_l1(25) ~ 8.2); the cost gate is scenario
    # config, so open it here and check recovery accuracy.
    cfg = AlignmentConfig(max_cost=3.0)
    res = solve_alignment_arrays(stamps, D, vio, config=cfg)
    assert res.converged
    assert degeneracy_check(res, cfg)
    assert np.linalg.norm(res.translation - t_star) < 0.05
    assert abs(wrap_heading(res.heading - theta_star)) < 0.01
    # oracle on the inlier subset only
    inliers = np.setdiff1d(np.arange(len(D)), outliers)
    t_or, theta_or = oracle_closed_form(D[inliers], vio[inliers])
    assert np.linalg.norm(res.translation - t_or) < 0.05
    assert abs(wrap_heading(res.heading - theta_or)) < 0.01


def test_solve_alignment_insufficient_raises():
    corrs = make_corrs(circle_points(5), np.zeros(3), 0.0)
    with pytest.raises(InsufficientDataError):
        solve_alignment_arrays(*corrs)


def test_solve_alignment_cost_monotone_over_iterations():
    # Instrumented indirectly: IRLS on the concave Cauchy loss is
    # majorize-minimize, so no iteration raises the cost, and the Cauchy cost
    # at the solution must not exceed the one at the closed-form start.
    pts = circle_points(30)
    _, D, P = corrs = make_corrs(pts, np.array([5.0, 5.0, 0.0]), 2.0)
    t0, theta0 = closed_form_align(D, P)
    res = solve_alignment_arrays(*corrs)
    cost = _cauchy_cost(D, P, None, res.translation, res.heading)
    assert cost <= _cauchy_cost(D, P, None, t0, theta0)
    assert res.converged


def _drifting_corrs(rng, theta_star, n=60):
    """Noiseless (stamps, D, P, t*, r*) with P = Rz d + t* + (t - mean t) r*."""
    ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    radius = rng.uniform(1.0, 6.0)
    D = rng.uniform(-10.0, 10.0, 3) + np.column_stack(
        [radius * np.cos(ang), radius * np.sin(ang), rng.normal(0.0, 0.3, n)])
    stamps = 100.0 + np.cumsum(rng.uniform(0.02, 0.05, n))
    t_star = rng.uniform(-10.0, 10.0, 3)
    r_star = rng.uniform(-1.0, 1.0, 3)
    tau = stamps - stamps.mean()
    P = D @ rot_z(theta_star).T + t_star + tau[:, None] * r_star
    return stamps, D, P, t_star, r_star


def _test_headings(rng):
    return [math.pi, -math.pi + 1e-9, math.pi - 1e-7, *rng.uniform(-math.pi, math.pi, 20)]


def test_drift_closed_form_recovers_exact_parameters():
    # noiseless windows: unit and random positive weights share the optimum
    rng = np.random.default_rng(41)
    for theta_star in _test_headings(rng):
        stamps, D, P, t_star, r_star = _drifting_corrs(rng, theta_star)
        for w in (np.ones(len(stamps)), rng.uniform(0.1, 1.0, len(stamps))):
            t, theta, r = _weighted_closed_form(w, D, P, stamps - stamps.mean())
            assert abs(wrap_heading(theta - theta_star)) < 1e-9
            assert np.allclose(t, t_star, atol=1e-9)
            assert np.allclose(r, r_star, atol=1e-9)


def test_weighted_closed_form_with_0_1_weights_is_the_subset_solve():
    rng = np.random.default_rng(47)
    for theta_star in _test_headings(rng):
        stamps, D, P, _, _ = _drifting_corrs(rng, theta_star, n=80)
        P = P + rng.normal(0.0, 0.1, P.shape)
        tau = stamps - stamps.mean()
        keep = rng.random(len(stamps)) < 0.7
        for tau_or_none in (None, tau):
            got = _weighted_closed_form(keep.astype(float), D, P, tau_or_none)
            sub_tau = None if tau_or_none is None else tau_or_none[keep]
            want = _weighted_closed_form(np.ones(int(keep.sum())), D[keep], P[keep], sub_tau)
            assert np.allclose(got[0], want[0], rtol=0.0, atol=1e-9)
            assert abs(wrap_heading(got[1] - want[1])) < 1e-9
            if tau_or_none is None:
                assert got[2] is None and want[2] is None
            else:
                assert np.allclose(got[2], want[2], rtol=0.0, atol=1e-9)


def _cauchy_of(s):
    """sum c^2 log(1 + s / c^2) over squared residuals s."""
    c2 = CAUCHY_SCALE ** 2
    return float(np.sum(c2 * np.log1p(s / c2)))


def _cauchy_cost(D, P, tau, t, theta, r=None):
    e = D @ rot_z(theta).T + t - P
    if r is not None:
        e = e + tau[:, None] * r
    return _cauchy_of(np.sum(e * e, axis=1))


def _noisy_windows(rng, with_drift):
    """Windows with 0.05 m noise and 10% outliers of 2-5 m, headings incl. +-pi."""
    for theta_star in (math.pi, -math.pi + 1e-9, -math.pi / 2, 0.0, 0.4, 2.9):
        stamps, D, P, t_star, r_star = _drifting_corrs(rng, theta_star, n=100)
        if not with_drift:
            P = D @ rot_z(theta_star).T + t_star
            r_star = None
        P = P + rng.normal(0.0, 0.05, P.shape)
        bad = rng.choice(len(P), size=len(P) // 10, replace=False)
        direction = rng.normal(0.0, 1.0, (len(bad), 3))
        P[bad] += (direction / np.linalg.norm(direction, axis=1, keepdims=True)
                   * rng.uniform(2.0, 5.0, (len(bad), 1)))
        yield stamps, D, P, t_star, theta_star, r_star


def _independent_minimum(D, P, tau, t0, theta0, r0):
    """BFGS on the Cauchy cost with its analytic gradient, from the truth."""
    with_drift = r0 is not None

    def cost_and_grad(x):
        t, theta = x[:3], x[3]
        e = D @ rot_z(theta).T + t - P
        if with_drift:
            e = e + tau[:, None] * x[4:]
        s = np.sum(e * e, axis=1)
        we = (2.0 / (1.0 + s / CAUCHY_SCALE ** 2))[:, None] * e     # d rho(s_i) / d e_i
        c, sn = math.cos(theta), math.sin(theta)
        de_dtheta = np.column_stack([-sn * D[:, 0] - c * D[:, 1],
                                     c * D[:, 0] - sn * D[:, 1], np.zeros(len(D))])
        grad = [*we.sum(axis=0), float(np.sum(we * de_dtheta))]
        if with_drift:
            grad += [*(tau @ we)]
        return _cauchy_of(s), np.array(grad)

    x0 = np.concatenate([t0, [theta0], r0 if with_drift else []])
    res = minimize(cost_and_grad, x0, jac=True, method="BFGS",
                   options={"gtol": 1e-10, "maxiter": 10000})
    # Near the optimum the cost decrease a BFGS step could make falls below
    # the cost's own round-off and the line search stops short of gtol;
    # finish by solving grad = 0 from there, which needs no cost values.
    x = root(lambda x: cost_and_grad(x)[1], res.x, method="hybr").x
    assert np.max(np.abs(cost_and_grad(x)[1])) < 1e-7
    return x[:3], x[3], (x[4:] if with_drift else None)


@pytest.mark.parametrize("with_drift", [False, True])
def test_irls_matches_independent_minimizer_of_cauchy_cost(with_drift):
    rng = np.random.default_rng(53 + with_drift)
    cfg = AlignmentConfig(estimate_drift=with_drift)
    for stamps, D, P, t_star, theta_star, r_star in _noisy_windows(rng, with_drift):
        tau = stamps - stamps.mean()
        t, theta, r, _, _, stopped = _irls(D, P, tau if with_drift else None)
        t_or, theta_or, r_or = _independent_minimum(D, P, tau, t_star, theta_star, r_star)
        assert stopped
        assert np.allclose(t, t_or, rtol=0.0, atol=1e-4)
        assert abs(wrap_heading(theta - theta_or)) < 1e-4
        if with_drift:
            assert np.allclose(r, r_or, rtol=0.0, atol=1e-4)
        # the public solve reports the same optimum: there is no refit
        res = solve_alignment_arrays(stamps, D, P, cfg)
        assert res.heading == theta
        if with_drift:
            assert np.array_equal(res.drift_rate, r)
        else:
            assert np.array_equal(res.translation, t)


def _offset_windows(rng, with_drift):
    """Noisy windows with 20% outliers of 1-5 m and V offsets up to 1e3 m."""
    for scale in (1.0, 10.0, 100.0, 1000.0):
        for theta_star in (math.pi, -math.pi / 3, 0.0, float(rng.uniform(-math.pi, math.pi))):
            stamps, D, P, t_star, r_star = _drifting_corrs(rng, theta_star, n=int(rng.integers(40, 400)))
            offset = rng.uniform(-scale, scale, 3)
            P = P + offset if with_drift else D @ rot_z(theta_star).T + t_star + offset
            P = P + rng.normal(0.0, 0.05, P.shape)
            bad = rng.choice(len(P), size=len(P) // 5, replace=False)
            direction = rng.normal(0.0, 1.0, (len(bad), 3))
            P[bad] += (direction / np.linalg.norm(direction, axis=1, keepdims=True)
                       * rng.uniform(1.0, 5.0, (len(bad), 1)))
            yield stamps, D, P


@pytest.mark.parametrize("with_drift", [False, True])
def test_gram_solve_matches_the_array_formulas(with_drift):
    rng = np.random.default_rng(71 + with_drift)
    cfg = AlignmentConfig(estimate_drift=with_drift)
    for stamps, D, P in _offset_windows(rng, with_drift):
        tau = stamps - stamps.mean() if with_drift else None
        w = rng.uniform(0.05, 1.0, len(D))
        t, theta, r = _weighted_closed_form(w, D, P, tau)
        t_or, theta_or, r_or = loop_weighted_closed_form(w, D, P, tau)
        assert np.allclose(t, t_or, rtol=0.0, atol=1e-9)
        assert abs(wrap_heading(theta - theta_or)) < 1e-9
        assert (r is None) == (r_or is None)
        if with_drift:
            assert np.allclose(r, r_or, rtol=0.0, atol=1e-9)
        t, theta, r, s, iterations, stopped = _irls(D, P, tau)
        t_or, theta_or, r_or, s_or, iterations_or, stopped_or = loop_irls(D, P, tau)
        assert (iterations, stopped) == (iterations_or, stopped_or)
        assert np.allclose(t, t_or, rtol=0.0, atol=1e-9)
        assert abs(wrap_heading(theta - theta_or)) < 1e-9
        if with_drift:
            assert np.allclose(r, r_or, rtol=0.0, atol=1e-9)
        assert np.allclose(s, s_or, rtol=1e-9, atol=1e-12)
        res = solve_alignment_arrays(stamps, D, P, cfg)
        assert res.converged == stopped and res.iterations == iterations
        assert res.final_cost == float(np.mean(soft_l1(s)))


@pytest.mark.parametrize("with_drift", [False, True])
def test_irls_cost_does_not_rise_with_the_iteration_budget(with_drift, monkeypatch):
    rng = np.random.default_rng(59 + with_drift)
    for stamps, D, P, *_ in _noisy_windows(rng, with_drift):
        tau = stamps - stamps.mean() if with_drift else None
        t0, theta0, r0 = _weighted_closed_form(np.ones(len(D)), D, P, tau)
        costs = [_cauchy_cost(D, P, tau, t0, theta0, r0)]
        for budget in range(1, 11):
            monkeypatch.setattr(alignment, "MAX_ITERATIONS", budget)
            t, theta, r, s, iterations, _ = _irls(D, P, tau)
            assert iterations <= budget
            costs.append(_cauchy_cost(D, P, tau, t, theta, r))
            assert costs[-1] == pytest.approx(_cauchy_of(s), rel=1e-12)
        assert all(b <= a for a, b in zip(costs, costs[1:])), costs
        assert costs[-1] < costs[0]


def test_noiseless_windows_converge_within_two_lm_iterations():
    # the closed-form start is the window's optimum when there is no noise,
    # so the LM loop only has to confirm it
    rng = np.random.default_rng(43)
    drift_cfg = AlignmentConfig(estimate_drift=True)
    for theta_star in _test_headings(rng):
        stamps, D, P, t_star, r_star = _drifting_corrs(rng, theta_star)
        res = solve_alignment_arrays(stamps, D, P, drift_cfg)
        assert res.converged and res.iterations <= 2
        assert np.allclose(res.drift_rate, r_star, atol=1e-8)
        t_newest = t_star + r_star * (stamps[-1] - stamps.mean())
        assert np.allclose(res.translation, t_newest, atol=1e-8)

        P_fixed = D @ rot_z(theta_star).T + t_star
        res = solve_alignment_arrays(stamps, D, P_fixed)
        assert res.converged and res.iterations <= 2
        assert np.allclose(res.translation, t_star, atol=1e-8)
        assert abs(wrap_heading(res.heading - theta_star)) < 1e-9


def test_observability_and_fit_invariant_under_vio_translation():
    # the geometry test reads the lidar positions alone, and the fit test
    # makes the same decision for a VIO window shifted by a constant
    pts = circle_points(40)
    stamps, D, P = make_corrs(pts, np.zeros(3), 0.4)
    cfg = AlignmentConfig()
    res_a = solve_alignment_arrays(stamps, D, P, cfg)
    res_b = solve_alignment_arrays(stamps, D, P + np.array([100.0, -50.0, 20.0]), cfg)
    assert res_a.final_cost == pytest.approx(res_b.final_cost, abs=1e-12)
    assert degeneracy_check(res_a, cfg) and degeneracy_check(res_b, cfg)
    assert window_observable(D, 0.15)


# ---------------------------------------------------------------------------
# degeneracy detection: geometry before the solve, fit after it


def test_degeneracy_single_point_rejected(monkeypatch):
    pts = np.tile(np.array([0.1, 2.3, 3.0]), (20, 1))
    for ratio in (MIN_SPREAD_RATIO, 0.0):
        monkeypatch.setattr(alignment, "MIN_SPREAD_RATIO", ratio)
        for sigma in (0.15, 0.0):
            assert not window_observable(pts, sigma)
    # with noiseless detections any motion is observable
    pts[7, 1] += 1e-6
    assert window_observable(pts, 0.0)


def test_degeneracy_circle_accepted_spread_matches_oracle():
    pts = circle_points(50, radius=4.0)
    theta_star = 0.3
    corrs = make_corrs(pts, np.array([1.0, 1.0, 0.0]), theta_star)
    cfg = AlignmentConfig()
    assert window_observable(pts, 0.15)
    res = solve_alignment_arrays(*corrs, cfg)
    assert degeneracy_check(res, cfg)
    assert_spread_is(pts, oracle_heading_information(pts, res.heading))


def test_degeneracy_straight_segment_accepted():
    n = 30
    s = np.linspace(0.0, 2.0, n)
    pts = np.column_stack([s, np.zeros(n), np.ones(n)])
    corrs = make_corrs(pts, np.array([0.5, 0.5, 0.0]), 1.0)
    res = solve_alignment_arrays(*corrs)
    assert_spread_is(pts, oracle_heading_information(pts, res.heading))
    cfg = AlignmentConfig()
    assert window_observable(pts, 0.15)
    assert degeneracy_check(res, cfg)


def test_degeneracy_check_rejects_a_converged_fit_above_max_cost(monkeypatch):
    rng = np.random.default_rng(6)
    stamps, D, P = make_corrs(circle_points(50), np.array([3.0, -2.0, 1.0]), -2.2)
    P = P + rng.normal(0.0, 0.05, P.shape)
    P[rng.choice(len(D), size=10, replace=False)] += 5.0 * np.array([0.6, 0.0, 0.8])
    cfg = AlignmentConfig()
    assert window_observable(D, 0.05)
    res = solve_alignment_arrays(stamps, D, P, cfg)
    assert res.converged and res.final_cost > cfg.max_cost
    assert not degeneracy_check(res, cfg)
    assert degeneracy_check(res, AlignmentConfig(max_cost=res.final_cost))
    # a fit that ran out of iterations is rejected whatever its cost
    monkeypatch.setattr(alignment, "MAX_ITERATIONS", 1)
    res = solve_alignment_arrays(stamps, D, P, cfg)
    assert not res.converged
    assert not degeneracy_check(res, AlignmentConfig(max_cost=math.inf))


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
    sigma = 0.05
    failed = set()
    for kind, D in _geometry_windows(rng):
        # the spread is the heading information whatever the heading
        for theta in (0.0, 0.7, -2.5, math.pi):
            assert_spread_is(D, oracle_heading_information(D, theta))
        information = oracle_heading_information(D, 0.0)
        theta_star = float(rng.uniform(-math.pi, math.pi))
        P = D @ rot_z(theta_star).T + rng.uniform(-5.0, 5.0, 3) + rng.normal(0.0, 0.02, D.shape)
        stamps = 0.1 * np.arange(len(D))
        observable = window_observable(D, sigma)
        assert observable == (information > MIN_SPREAD_RATIO * len(D) * 2.0 * sigma ** 2)
        if not observable:
            failed.add(kind)
            continue
        # an observable window with 2 cm noise is accepted on its fit
        res = solve_alignment_arrays(stamps, D, P, cfg)
        assert degeneracy_check(res, cfg)
    assert {"clutter", "segment"} <= failed


def test_window_observable_decides_as_the_two_pass_spread():
    rng = np.random.default_rng(35)
    decisions = set()
    for _, D in _geometry_windows(rng):
        for offset in (np.zeros(3), np.array([250.0, -125.0, 7.0])):
            xy = (D + offset)[:, :2]
            spread = float(np.sum((xy - xy.mean(0)) ** 2))
            for ratio in rng.uniform(0.5, 2.0, 5):
                sigma = math.sqrt(ratio * spread / (MIN_SPREAD_RATIO * len(D) * 2.0))
                observable = window_observable(D + offset, sigma)
                assert observable == (spread > MIN_SPREAD_RATIO * len(D) * 2.0 * sigma ** 2)
                decisions.add(observable)
    assert decisions == {True, False}


def test_window_observable_is_invariant_to_translating_the_window():
    rng = np.random.default_rng(32)
    offsets = [np.array([30.0, 0.0, 0.0]), np.array([3.4, 0.6, 0.0]),
               np.array([-250.0, 125.0, 7.0])] + [
        np.append(rng.uniform(-100.0, 100.0, 2), 0.0) for _ in range(5)]
    decisions = set()
    for _, D in _geometry_windows(rng):
        for sigma in (0.02, 0.05, 0.15):
            observable = window_observable(D, sigma)
            decisions.add(observable)
            for offset in offsets:
                assert window_observable(D + offset, sigma) == observable
    assert decisions == {True, False}


@pytest.mark.parametrize("center", [(0.0, 0.0), (3.4, 0.6), (30.0, 0.0)])
def test_hovering_noise_window_is_rejected_anywhere(center):
    # a target that does not move shows only its detection noise, however
    # many samples the window holds and wherever it sits
    rng = np.random.default_rng(33)
    sigma = 0.15
    for n in (50, 150, 300, 450):
        D = np.array([*center, 1.5]) + rng.normal(0.0, sigma, (n, 3))
        assert not window_observable(D, sigma)


@pytest.mark.parametrize("offset", [(0.0, 0.0), (30.0, 0.0)])
def test_eight_second_arc_of_the_shipped_circle_is_observable(offset):
    # 8 s of the 4 m, 0.5 m/s circle at the 30 Hz VIO rate, 0.15 m noise
    rng = np.random.default_rng(34)
    t = np.arange(0.0, 8.0, 1.0 / 30.0)
    ang = 0.5 / 4.0 * t
    D = np.column_stack([4.0 * np.cos(ang) + offset[0], 4.0 * np.sin(ang) + offset[1],
                         np.full(len(t), 1.5)])
    D = D + rng.normal(0.0, 0.15, D.shape)
    assert window_observable(D, 0.15)


def test_exact_recovery_property_small_paths(monkeypatch):
    # Spec invariant: >= 3 non-collocated noiseless points spanning >= 0.5 m
    # recover exactly.
    rng = np.random.default_rng(12)
    monkeypatch.setattr(alignment, "MIN_CORRESPONDENCES", 3)
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
        res = solve_alignment_arrays(*corrs)
        assert res.converged
        assert np.allclose(res.translation, t_star, atol=1e-6)
        assert abs(wrap_heading(res.heading - theta_star)) < 1e-8
