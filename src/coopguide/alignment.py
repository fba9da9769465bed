"""Sliding-window robust alignment of detection and VIO trajectories.

Estimates the 4-DOF transform between the lidar-SLAM frame L and the VIO
frame V from timed position correspondences: find (t, theta) minimizing

    sum_i rho( || Rz(theta) @ d_i + t - p_i ||^2 )

where d_i is a detected position in L, p_i the VIO position at the same time,
and rho the soft-L1 loss.  A Levenberg-Marquardt loop with iteratively
reweighted least squares handles the robust loss; a closed-form yaw-constrained
solution (no loss, exact for the quadratic problem) is exposed separately and
doubles as the evaluation module's trajectory aligner.

Degeneracy (too little secondary motion) is detected from the windowed path
length and the smallest eigenvalue of the Fisher information J^T J.  Both
depend on the detected positions alone (the eigenvalue is invariant under the
heading), so :func:`window_observable` rejects an unobservable window before
any solve is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    Detection,
    Frame,
    RelativeTransform,
    TimedPose,
    rot_z,
    rot_z_deriv,
    wrap_heading,
)


class InsufficientDataError(ValueError):
    """Raised when a solve is attempted with too few correspondences."""


@dataclass(frozen=True)
class Correspondence:
    """Time-matched (lidar position in L, VIO position in V) pair."""

    stamp: float
    lidar_position: np.ndarray
    vio_position: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.lidar_position, dtype=float)
        p = np.asarray(self.vio_position, dtype=float)
        if d.shape != (3,) or p.shape != (3,):
            raise ValueError("correspondence positions must be 3-vectors")
        if not (math.isfinite(d[0] + d[1] + d[2]) and math.isfinite(p[0] + p[1] + p[2])):
            raise ValueError("non-finite correspondence position")
        object.__setattr__(self, "lidar_position", d)
        object.__setattr__(self, "vio_position", p)


@dataclass(frozen=True)
class AlignmentConfig:
    """Tuning knobs for the sliding-window alignment."""

    window: float = 15.0
    min_correspondences: int = 10
    min_path_length: float = 1.0
    max_cost: float = 0.09          # mean robustified residual
    min_eigenvalue: float = 1.0
    max_iterations: int = 100
    gradient_tolerance: float = 1e-10
    step_tolerance: float = 1e-12
    cost_tolerance: float = 1e-8    # relative cost decrease per accepted step
    initial_damping: float = 1e-4
    interp_tolerance: float = 0.1
    max_detection_gap: float = 1.0  # s; do not interpolate across longer gaps
    estimate_drift: bool = False    # co-estimate a linear VIO drift rate


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of one sliding-window solve.

    ``drift_rate`` is the co-estimated linear VIO drift (zero unless the
    config enables drift estimation); the transform's translation is then
    referred to the newest correspondence stamp, not the window mean.
    """

    transform: RelativeTransform
    converged: bool
    final_cost: float
    min_eigenvalue: float
    iterations: int
    path_length: float
    drift_rate: np.ndarray = None

    def __post_init__(self):
        if self.drift_rate is None:
            object.__setattr__(self, "drift_rate", np.zeros(3))


def soft_l1(s) -> float:
    """Soft-L1 robust loss rho(s) = 2 (sqrt(1 + s) - 1) for squared residual s."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("soft_l1 argument must be a squared residual (s >= 0)")
    out = 2.0 * (np.sqrt(1.0 + s) - 1.0)
    return float(out) if out.ndim == 0 else out


def soft_l1_weight(s):
    """Derivative rho'(s) = 1 / sqrt(1 + s); the IRLS weight."""
    return 1.0 / np.sqrt(1.0 + np.asarray(s, dtype=float))


def build_correspondence_arrays(
    detections: Sequence[Detection],
    vio_buffer: Sequence[TimedPose],
    window: float,
    min_count: int = 10,
    interp_tolerance: float = 0.1,
    max_gap: float = 1.0,
):
    """Array form of :func:`build_correspondences`: (stamps, lidar, vio) or None."""
    if not detections or not vio_buffer or window <= 0:
        return None
    det_stamps = np.array([d.stamp for d in detections])
    det_positions = np.array([d.position for d in detections])
    t_end = vio_buffer[-1].stamp
    t_start = t_end - window
    lo = det_stamps[0] - interp_tolerance
    hi = det_stamps[-1] + interp_tolerance
    kept = [p for p in vio_buffer if p.stamp >= t_start and lo <= p.stamp <= hi]
    if len(kept) < min_count:
        return None
    stamps = np.array([p.stamp for p in kept])
    if len(det_stamps) > 1:
        # interpolation is only meaningful between nearby detections: drop
        # VIO stamps falling inside longer detection gaps (e.g. occlusions)
        idx = np.searchsorted(det_stamps, stamps)
        inner = (idx > 0) & (idx < len(det_stamps))
        safe_idx = np.clip(idx, 1, len(det_stamps) - 1)
        gap = det_stamps[safe_idx] - det_stamps[safe_idx - 1]
        at_node = inner & (det_stamps[np.clip(idx, 0, len(det_stamps) - 1)] == stamps)
        ok = ~inner | (gap <= max_gap) | at_node
        if not ok.all():
            kept = [p for p, keep_it in zip(kept, ok) if keep_it]
            if len(kept) < min_count:
                return None
            stamps = stamps[ok]
    # vectorized linear interpolation of the detection track to VIO stamps;
    # np.interp clamps at the ends, matching the within-tolerance hold rule
    interp = np.column_stack([
        np.interp(stamps, det_stamps, det_positions[:, i]) for i in range(3)
    ])
    vio_positions = np.array([p.position for p in kept])
    return stamps, interp, vio_positions


def build_correspondences(
    detections: Sequence[Detection],
    vio_buffer: Sequence[TimedPose],
    window: float,
    min_count: int = 10,
    interp_tolerance: float = 0.1,
    max_gap: float = 1.0,
) -> list[Correspondence]:
    """Pair each windowed VIO pose with the detection track interpolated to it.

    The window covers the last ``window`` seconds ending at the newest VIO
    stamp.  VIO stamps outside the detection buffer's span (beyond the
    interpolation tolerance) are skipped.  Returns an empty list when fewer
    than ``min_count`` pairs survive.
    """
    arrays = build_correspondence_arrays(detections, vio_buffer, window,
                                         min_count, interp_tolerance, max_gap)
    if arrays is None:
        return []
    stamps, lidar, vio = arrays
    return [
        Correspondence(float(ts), d, p)
        for ts, d, p in zip(stamps, lidar, vio)
    ]


def closed_form_align(lidar_points: np.ndarray, vio_points: np.ndarray) -> tuple[np.ndarray, float]:
    """Yaw-constrained least-squares alignment, solved in closed form.

    Returns (t, theta) minimizing sum ||Rz(theta) a_i + t - b_i||^2 for
    a = lidar_points (N, 3), b = vio_points (N, 3).  The optimal heading
    comes from the planar cross/dot sums of the centered point sets and the
    translation from the centroids.
    """
    a = np.asarray(lidar_points, dtype=float)
    b = np.asarray(vio_points, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 3 or a.shape[0] < 1:
        raise ValueError("point sets must be matching (N, 3) arrays")
    mu_a = a.mean(axis=0)
    mu_b = b.mean(axis=0)
    ac = a - mu_a
    bc = b - mu_b
    dot = float(np.sum(ac[:, 0] * bc[:, 0] + ac[:, 1] * bc[:, 1]))
    cross = float(np.sum(ac[:, 0] * bc[:, 1] - ac[:, 1] * bc[:, 0]))
    if dot == 0.0 and cross == 0.0:
        theta = 0.0  # heading unobservable (e.g. single point); pick identity
    else:
        theta = math.atan2(cross, dot)
    t = mu_b - rot_z(theta) @ mu_a
    return t, wrap_heading(theta)


def _cost_terms(D, P, t, theta, drift=None, tau=None):
    residuals = D @ rot_z(theta).T + t - P
    if drift is not None:
        residuals = residuals + tau[:, None] * drift
    s = np.einsum("ij,ij->i", residuals, residuals)
    return residuals, s


def solve_alignment(
    corrs: Sequence[Correspondence],
    initial: Optional[RelativeTransform] = None,
    config: AlignmentConfig = AlignmentConfig(),
) -> AlignmentResult:
    """Robust LM minimization of the windowed correspondence cost.

    ``converged`` is true only when the gradient/step/cost tolerances were
    met within the iteration budget AND the final mean robustified residual
    is at or below ``config.max_cost``.  Non-convergence is reported in the
    result, not raised.  Raises :class:`InsufficientDataError` when fewer
    than ``config.min_correspondences`` pairs are supplied.

    With ``config.estimate_drift`` a linear VIO drift rate is co-estimated
    (three extra parameters); the residual model becomes
    ``Rz(theta) d_i + t + (t_i - t_mean) r - p_i`` and the returned
    transform's translation is extrapolated to the newest stamp.  The
    constant-transform model is otherwise biased whenever the drift
    accumulated over the window rivals the windowed path length.
    """
    stamps = np.array([c.stamp for c in corrs])
    D = np.array([c.lidar_position for c in corrs])
    P = np.array([c.vio_position for c in corrs])
    return solve_alignment_arrays(stamps, D, P, initial, config)


def solve_alignment_arrays(
    stamps: np.ndarray,
    D: np.ndarray,
    P: np.ndarray,
    initial: Optional[RelativeTransform] = None,
    config: AlignmentConfig = AlignmentConfig(),
) -> AlignmentResult:
    """Array-based core of :func:`solve_alignment` (same contract)."""
    n = len(stamps)
    if n < config.min_correspondences:
        raise InsufficientDataError(
            f"{n} correspondences < minimum {config.min_correspondences}"
        )
    with_drift = config.estimate_drift
    if with_drift:
        tau = stamps - stamps.mean()
    else:
        tau = None
    drift = np.zeros(3) if with_drift else None
    n_params = 7 if with_drift else 4

    if initial is not None and initial.valid:
        t = initial.translation.copy()
        theta = wrap_heading(initial.heading)
    else:
        # Midpoint-of-endpoints alignment with zero heading.
        t = 0.5 * (P[0] + P[-1]) - 0.5 * (D[0] + D[-1])
        theta = 0.0

    residuals, s = _cost_terms(D, P, t, theta, drift, tau)
    cost = 0.5 * float(np.sum(soft_l1(s)))
    damping = config.initial_damping
    tolerances_met = False
    iterations = 0

    for iterations in range(1, config.max_iterations + 1):
        w = soft_l1_weight(s)
        rd = D @ rot_z_deriv(theta).T          # per-point d(residual)/d(theta)
        # Normal equations of the reweighted problem, assembled blockwise:
        # J_i = [I3 | rd_i (| tau_i I3)], H = sum w_i J_i^T J_i, g = sum w_i J_i^T r_i.
        sw = float(np.sum(w))
        h_tth = (w[:, None] * rd).sum(axis=0)
        H = np.zeros((n_params, n_params))
        g = np.zeros(n_params)
        H[:3, :3] = sw * np.eye(3)
        H[:3, 3] = h_tth
        H[3, :3] = h_tth
        H[3, 3] = float(np.sum(w * np.einsum("ij,ij->i", rd, rd)))
        g[:3] = (w[:, None] * residuals).sum(axis=0)
        g[3] = float(np.sum(w * np.einsum("ij,ij->i", rd, residuals)))
        if with_drift:
            wt = w * tau
            a = float(np.sum(wt))
            H[:3, 4:] = a * np.eye(3)
            H[4:, :3] = H[:3, 4:]
            h_rdr = (wt[:, None] * rd).sum(axis=0)
            H[3, 4:] = h_rdr
            H[4:, 3] = h_rdr
            H[4:, 4:] = float(np.sum(wt * tau)) * np.eye(3)
            g[4:] = (wt[:, None] * residuals).sum(axis=0)

        if float(np.max(np.abs(g))) < config.gradient_tolerance:
            tolerances_met = True
            break

        stepped = False
        while damping < 1e12:
            H_damped = H + damping * np.diag(np.maximum(np.diag(H), 1e-12))
            try:
                delta = np.linalg.solve(H_damped, -g)
            except np.linalg.LinAlgError:
                damping *= 2.0
                continue
            t_new = t + delta[:3]
            theta_new = wrap_heading(theta + delta[3])
            drift_new = drift + delta[4:] if with_drift else None
            residuals_new, s_new = _cost_terms(D, P, t_new, theta_new, drift_new, tau)
            cost_new = 0.5 * float(np.sum(soft_l1(s_new)))
            if cost_new <= cost:
                step_norm = float(np.linalg.norm(delta))
                decrease = cost - cost_new
                t, theta, drift = t_new, theta_new, drift_new
                residuals, s, cost = residuals_new, s_new, cost_new
                damping /= 3.0
                stepped = True
                if (step_norm < config.step_tolerance
                        or decrease <= config.cost_tolerance * max(cost, 1e-300)):
                    tolerances_met = True
                break
            damping *= 2.0
        if not stepped:
            break  # damping exhausted without a descent step: stuck, not converged
        if tolerances_met:
            break

    if tolerances_met and not with_drift:
        # The unit-scale soft-L1 still leaves ~1/sqrt(26) weight on a 5 m
        # outlier, which biases the optimum by several centimeters at 20%
        # contamination.  Refit in closed form on MAD-gated inliers; applied
        # only when a clear majority survives the gate, and repeated once so
        # the gate is evaluated at the refitted solution.
        for _ in range(2):
            norms = np.sqrt(s)
            med = float(np.median(norms))
            sigma_r = 1.4826 * float(np.median(np.abs(norms - med)))
            if sigma_r <= 1e-12:
                break
            keep = norms <= med + 3.0 * sigma_r
            kept = int(keep.sum())
            if kept == n or kept < max(3, n // 2):
                break
            t, theta = closed_form_align(D[keep], P[keep])
            residuals, s = _cost_terms(D, P, t, theta)

    final_cost = float(np.mean(soft_l1(s)))
    path_length, min_eig = window_geometry(D)
    converged = tolerances_met and final_cost <= config.max_cost
    if with_drift:
        # refer the translation to the newest stamp so the transform is
        # valid at the time it is stamped with
        t = t + drift * (float(stamps[-1]) - float(stamps.mean()))
    transform = RelativeTransform(
        translation=t,
        heading=theta,
        source_frame=Frame.LIDAR,
        target_frame=Frame.VIO,
        stamp=float(stamps[-1]),
        valid=converged,
        final_cost=final_cost,
        min_eigenvalue=min_eig,
    )
    return AlignmentResult(
        transform=transform,
        converged=converged,
        final_cost=final_cost,
        min_eigenvalue=min_eig,
        iterations=iterations,
        path_length=path_length,
        drift_rate=drift if with_drift else np.zeros(3),
    )


def window_geometry(D: np.ndarray) -> tuple[float, float]:
    """(path length, smallest Fisher eigenvalue) of lidar positions D (N, 3).

    The eigenvalue is the smallest of the Fisher information F = J^T J of the
    stacked residual Jacobian J_i = [I3 | Rz'(theta) d_i].  F equals
    [[n I3, b], [b^T, c]] with |b|^2 = (sum x)^2 + (sum y)^2 and
    c = sum(x^2 + y^2), neither of which changes under a rotation about z,
    so the eigenvalue does not depend on the heading.  Its smallest
    eigenvalue is that of [[n, |b|], [|b|, c]]; it is taken as det / lambda_max
    with det = n * sum |p_i - mean(p)|^2 over the planar positions, which
    avoids the cancellation of the textbook root for near-stationary windows.
    """
    n = D.shape[0]
    path_length = float(np.sum(np.linalg.norm(np.diff(D, axis=0), axis=1)))
    xy = D[:, :2]
    c = float(np.sum(xy * xy))
    b_norm = float(np.linalg.norm(xy.sum(axis=0)))
    lam_max = 0.5 * (n + c) + math.hypot(0.5 * (c - n), b_norm)
    spread = float(np.sum((xy - xy.mean(axis=0)) ** 2))
    return path_length, n * spread / lam_max


def window_observable(D: np.ndarray, config: AlignmentConfig) -> bool:
    """True when the window's geometry can pass :func:`degeneracy_check`.

    Needs no solve: a window failing this test is rejected whatever the
    solver returns, so callers skip the solve.
    """
    path_length, min_eig = window_geometry(D)
    return path_length >= config.min_path_length and min_eig >= config.min_eigenvalue


def degeneracy_check(
    result: AlignmentResult,
    min_path_length: float,
    min_eigenvalue: float,
) -> bool:
    """Accept an alignment only if it converged with enough observable motion."""
    return (
        result.converged
        and result.path_length >= min_path_length
        and result.min_eigenvalue >= min_eigenvalue
    )
