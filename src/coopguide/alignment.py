"""Sliding-window robust alignment of detection and VIO trajectories.

Estimates the 4-DOF transform between the lidar-SLAM frame L and the VIO
frame V from timed position correspondences: find (t, theta) minimizing

    sum_i rho( || Rz(theta) @ d_i + t - p_i ||^2 )

where d_i is a detected position in L, p_i the VIO position at the same time,
and rho the Cauchy loss, which is redescending: a far outlier gets almost no
weight.  :func:`build_correspondence_arrays` builds the window's (stamps, d,
p) arrays and :func:`solve_alignment_arrays` solves it by iteratively
reweighted least squares, one path for both window models.  Every weighted
subproblem, drift term included when enabled, has an exact closed form:
weighted centring (and, with drift, a weighted projection on the stamps)
eliminates the translation (and the drift rate), and the heading is atan2
of the weighted planar cross and dot sums.  Those are weighted second
moments (Umeyama 1991), so a solve builds X = [1 | d | p | tau] once and
each pass reads them from one Gram matrix X^T diag(w) X and its residuals
from one product X M.  The first solve uses unit weights, so there is no
warm start from an earlier transform.  The unit-weight solve,
:func:`closed_form_align`, doubles as the evaluation module's trajectory
aligner.

A window is adopted only when two conditions hold, each decided in one
place.  Before the solve, :func:`window_observable` tests the geometry (too
little secondary motion): the planar spread of the detected positions,
which is the heading information with the translation left free, against
the detection noise.  It depends on the detected positions alone, not on
the heading nor on where the window sits in L, so an unobservable window is
never solved.  After the solve, :func:`degeneracy_check` tests the fit: the
IRLS loop stopped within :data:`MAX_ITERATIONS` and the mean soft-L1
residual at the solution is at most ``max_cost``.  The soft-L1 loss is that
acceptance statistic only; the Cauchy loss saturates and would not separate
a contaminated window from a clean one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    STALE_TOLERANCE,
    StampedColumns,
    interp_columns,
    wrap_heading,
)

#: IRLS stops when the relative cost decrease of an iteration is at most this
COST_TOLERANCE = 1e-8
MAX_ITERATIONS = 100        # IRLS iteration budget; a solve that exhausts it is not converged
MIN_CORRESPONDENCES = 10    # fewest pairs a window is solved with
MIN_SPREAD_RATIO = 3.0      # window_observable: planar spread per sample over 2 sigma^2
CAUCHY_SCALE = 0.5          # m; the Cauchy loss's scale c


class InsufficientDataError(ValueError):
    """Raised when a solve is attempted with too few correspondences."""


@dataclass(frozen=True)
class AlignmentConfig:
    """The alignment settings a shipped scenario changes; each field's
    ``valid`` metadata is the range of its ``alignment.*`` config key.  The
    counts and the observability ratio are module constants."""

    window: float = field(default=15.0, metadata={"valid": "> 0"})
    max_cost: float = field(default=0.09, metadata={"valid": ">= 0"})  # mean soft-L1 residual
    estimate_drift: bool = False    # co-estimate a linear VIO drift rate


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of one sliding-window solve.

    ``translation`` (3,) and ``heading``, wrapped to (-pi, pi], are the L->V
    transform: ``p = rot_z(heading) @ d + translation``.  ``converged``
    means only that the IRLS stopping test was met within the iteration
    budget; :func:`degeneracy_check` decides whether the fit is good enough
    to adopt.  ``drift_rate`` is the co-estimated linear VIO drift (zero
    unless the config enables drift estimation); the translation is then
    referred to the newest correspondence stamp, not the window mean.
    """

    translation: np.ndarray
    heading: float
    converged: bool
    final_cost: float
    iterations: int
    drift_rate: np.ndarray


def soft_l1(s) -> float:
    """Soft-L1 loss 2 (sqrt(1 + s) - 1) of squared residual s; the
    acceptance statistic that ``max_cost`` bounds, not the minimized cost."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("soft_l1 argument must be a squared residual (s >= 0)")
    out = 2.0 * (np.sqrt(1.0 + s) - 1.0)
    return float(out) if out.ndim == 0 else out


#: s; VIO stamps inside a longer detection gap get no correspondence, because
#: interpolating the detection track across an occlusion gap would pair VIO
#: samples with chord points that never existed
MAX_DETECTION_GAP = 1.0


def build_correspondence_arrays(
    detections: StampedColumns,
    vio_buffer: StampedColumns,
    config: AlignmentConfig = AlignmentConfig(),
):
    """Pair each windowed VIO pose with the detection track interpolated to it.

    ``detections`` holds :data:`~coopguide.geometry.DETECTION_FIELDS`
    records and ``vio_buffer`` :data:`~coopguide.geometry.POSE_FIELDS`
    records.  The window covers the last ``config.window`` seconds ending at
    the newest VIO stamp.  VIO stamps outside the detection buffer's span
    (beyond :data:`~coopguide.geometry.STALE_TOLERANCE`) or inside a
    detection gap longer than :data:`MAX_DETECTION_GAP` are skipped.  Returns
    ``(stamps (N,), lidar (N, 3), vio (N, 3))``, fresh C-contiguous arrays,
    or None when fewer than :data:`MIN_CORRESPONDENCES` pairs survive.
    """
    if not len(detections) or not len(vio_buffer) or config.window <= 0:
        return None
    det = detections.columns
    det_stamps = det[0]
    vio_stamps = vio_buffer.stamps
    t_start = vio_stamps[-1] - config.window
    lo = det_stamps[0] - STALE_TOLERANCE
    hi = det_stamps[-1] + STALE_TOLERANCE
    # the stamps are sorted: the window is one slice
    first = int(vio_stamps.searchsorted(max(t_start, lo)))
    end = int(vio_stamps.searchsorted(hi, side="right"))
    if end - first < MIN_CORRESPONDENCES:
        return None
    stamps = vio_stamps[first:end]
    vio_positions = vio_buffer.columns[1:4, first:end].T
    gaps = det_stamps[1:] - det_stamps[:-1]
    if len(gaps) and gaps.max() > MAX_DETECTION_GAP:
        # interpolation is only meaningful between nearby detections: drop VIO
        # stamps strictly inside a longer gap (an occlusion); the first gap
        # ending after a stamp is the only one that can hold it
        longer = np.flatnonzero(gaps > MAX_DETECTION_GAP)
        starts = np.append(det_stamps[longer], np.inf)
        ends = np.append(det_stamps[longer + 1], np.inf)
        ok = starts[ends.searchsorted(stamps, side="right")] >= stamps
        if not ok.all():
            if np.count_nonzero(ok) < MIN_CORRESPONDENCES:
                return None
            stamps, vio_positions = stamps[ok], vio_positions[ok]
    stamps = stamps.copy()
    # linear interpolation of the detection track to VIO stamps; np.interp
    # clamps at the ends, matching the within-tolerance hold rule
    interp = interp_columns(stamps, det_stamps, det[1:4].T)
    return stamps, interp, np.ascontiguousarray(vio_positions)


def closed_form_align(lidar_points: np.ndarray, vio_points: np.ndarray) -> tuple[np.ndarray, float]:
    """Yaw-constrained least-squares alignment, solved in closed form.

    Returns (t, theta) minimizing sum ||Rz(theta) a_i + t - b_i||^2 for
    a = lidar_points (N, 3), b = vio_points (N, 3): the unit-weight case of
    the solver's weighted closed form.
    """
    a = np.asarray(lidar_points, dtype=float)
    b = np.asarray(vio_points, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 3 or a.shape[0] < 1:
        raise ValueError("point sets must be matching (N, 3) arrays")
    t, theta, _ = _weighted_closed_form(np.ones(len(a)), a, b)
    return t, theta


def _design(D: np.ndarray, P: np.ndarray, tau):
    """X^T, the rows [1; D - mean(D); P - mean(P); tau] ((7, N), or (8, N) with
    ``tau``, which the caller centres), and the six unweighted means.  The
    centring keeps the moments of X^T diag(w) X well conditioned."""
    XT = np.empty((7 if tau is None else 8, len(D)))
    XT[0] = 1.0
    XT[1:4] = D.T
    XT[4:7] = P.T
    means = XT[1:7].sum(axis=1) / len(D)
    XT[1:7] -= means[:, None]
    if tau is not None:
        XT[7] = tau
    return XT, means.tolist()


def _moment_solve(G: np.ndarray):
    """(t, theta, r) minimizing sum w_i ||Rz(theta) d_i + t + tau_i r - p_i||^2
    in the centred coordinates of :func:`_design`, from G = X^T diag(w) X.

    For a fixed heading, (t, r) is a per-axis weighted linear fit on the
    regressors 1 and tau (r is None when G has no tau row).  Removing the
    weighted means and the weighted projections on the weight-centred tau
    eliminates (t, r); a rotation about z acts on the points and the
    projection on the samples, so they commute and the heading is the
    weighted planar Procrustes solution, theta = atan2(cross, dot).  Each of
    those sums is an entry of G less its mean (and tau) terms.
    """
    g = G.tolist()
    sw, sdx, sdy, sdz, spx, spy, spz, *s_tau = g[0]
    dot = g[1][4] + g[2][5] - (sdx * spx + sdy * spy) / sw
    cross = g[1][5] - g[2][4] - (sdx * spy - sdy * spx) / sw
    if s_tau:
        tau_mean = s_tau[0] / sw
        tt = g[7][7] - s_tau[0] * tau_mean
        # the projections of d and p on the weight-centred tau
        ax, ay, az, bx, by, bz = [(g[7][j] - tau_mean * g[0][j]) / tt for j in range(1, 7)]
        dot -= tt * (ax * bx + ay * by)
        cross -= tt * (ax * by - ay * bx)
    # (0, 0): heading unobservable (e.g. a single point); pick identity
    theta = math.atan2(cross, dot) if dot != 0.0 or cross != 0.0 else 0.0
    c, s = math.cos(theta), math.sin(theta)
    mdx, mdy = sdx / sw, sdy / sw
    t = [spx / sw - (c * mdx - s * mdy), spy / sw - (s * mdx + c * mdy), (spz - sdz) / sw]
    if not s_tau:
        return t, theta, None
    r = [bx - (c * ax - s * ay), by - (s * ax + c * ay), bz - az]
    return [ti - tau_mean * ri for ti, ri in zip(t, r)], theta, r


def _scaled_squares(XT: np.ndarray, t, theta: float, r) -> np.ndarray:
    """s_i / c^2 at (t, theta, r) in the centred coordinates of ``XT``: the
    squared columns of E^T = M^T X^T, M = [t; Rz(theta)^T; -I; r] / c."""
    k = 1.0 / CAUCHY_SCALE
    kc, ks = k * math.cos(theta), k * math.sin(theta)
    tail = [[]] * 3 if r is None else [[k * ri] for ri in r]
    E = np.dot(np.array([[k * t[0], kc, -ks, 0.0, -k, 0.0, 0.0, *tail[0]],
                         [k * t[1], ks, kc, 0.0, 0.0, -k, 0.0, *tail[1]],
                         [k * t[2], 0.0, 0.0, k, 0.0, 0.0, -k, *tail[2]]]), XT)
    return np.einsum("ij,ij->j", E, E)


def _solution(t, theta: float, r, means):
    """(t, theta, r) of the original coordinates: t + mean(P) - Rz mean(D),
    the heading wrapped, arrays for t and r."""
    c, s = math.cos(theta), math.sin(theta)
    dx, dy, dz, px, py, pz = means
    t = np.array((t[0] + px - (c * dx - s * dy), t[1] + py - (s * dx + c * dy), t[2] + pz - dz))
    return t, wrap_heading(theta), None if r is None else np.array(r)


def _weighted_closed_form(w: np.ndarray, D: np.ndarray, P: np.ndarray, tau=None):
    """(t, theta, r) minimizing sum w_i ||Rz(theta) d_i + t + tau_i r - p_i||^2,
    one weighted pass of :func:`_irls`; r is None without ``tau``, and t is
    referred to the tau origin the caller uses."""
    XT, means = _design(D, P, tau)
    return _solution(*_moment_solve(np.dot(XT * w, XT.T)), means)


def _irls(D, P, tau):
    """IRLS on the Cauchy cost from the unit-weight closed form.

    Once per solve, :func:`_design` builds X^T.  Once per pass, one Gram
    matrix X^T diag(w) X gives the weighted closed form
    (:func:`_moment_solve`), one product E = X M the squared residuals over
    c^2 (:func:`_scaled_squares`), and those the Cauchy cost and the next
    weights w = 1 / (1 + s / c^2).  Returns (t, theta, r, s, iterations,
    stopped): the last iterate, its squared residuals, the number of
    weighted solves and whether the cost test ended the loop within
    :data:`MAX_ITERATIONS`.
    """
    c2 = CAUCHY_SCALE * CAUCHY_SCALE
    XT, means = _design(D, P, tau)
    X = XT.T
    t, theta, r = _moment_solve(np.dot(XT, X))
    q = _scaled_squares(XT, t, theta, r)
    cost = c2 * float(np.log1p(q).sum())
    for iterations in range(1, MAX_ITERATIONS + 1):
        t_new, theta_new, r_new = _moment_solve(np.dot(XT / (1.0 + q), X))
        q_new = _scaled_squares(XT, t_new, theta_new, r_new)
        cost_new = c2 * float(np.log1p(q_new).sum())
        stopped = cost_new > cost or cost - cost_new <= COST_TOLERANCE * max(cost_new, 1e-300)
        if cost_new <= cost:  # a cost that rises through round-off keeps the previous iterate
            t, theta, r, q, cost = t_new, theta_new, r_new, q_new, cost_new
        if stopped:
            break
    return (*_solution(t, theta, r, means), c2 * q, iterations, stopped)


def solve_alignment_arrays(
    stamps: np.ndarray,
    D: np.ndarray,
    P: np.ndarray,
    config: AlignmentConfig = AlignmentConfig(),
) -> AlignmentResult:
    """Robust IRLS minimization of the windowed correspondence cost.

    ``stamps`` (N,), ``D`` (N, 3) lidar positions and ``P`` (N, 3) VIO
    positions are the arrays :func:`build_correspondence_arrays` returns.
    The start is the unit-weight closed form, the optimum of the same window
    with the Cauchy loss replaced by the squared residual, so a noiseless
    window is solved before the first iteration and there is no warm start.
    Each iteration sets the weights w_i = rho'(s_i) = 1 / (1 + s_i / c^2)
    at the current residuals and solves the weighted problem in closed form,
    from one Gram matrix of the design built once per solve (:func:`_irls`).
    rho is concave in s, so this is a majorize-minimize scheme and no
    iteration can raise the Cauchy cost.  The loop stops when the relative
    cost decrease is at most :data:`COST_TOLERANCE`; a cost that rises
    through round-off keeps the previous iterate and also ends the loop.
    The last iterate is the solution for both window models: no refit.

    ``converged`` is true when the loop stopped that way within
    :data:`MAX_ITERATIONS`.  ``final_cost`` is the mean soft-L1 residual at
    the solution, the statistic ``max_cost`` bounds.  The window geometry is
    not tested here (that is :func:`window_observable`, before the solve)
    and neither is the cost bound (that is :func:`degeneracy_check`, after
    it).  Raises :class:`InsufficientDataError` when fewer than
    :data:`MIN_CORRESPONDENCES` pairs are supplied.

    With ``config.estimate_drift`` a linear VIO drift rate is co-estimated
    (three extra parameters); the residual model becomes
    ``Rz(theta) d_i + t + (t_i - t_mean) r - p_i`` and the returned
    translation is extrapolated to the newest stamp.  The
    constant-transform model is otherwise biased whenever the drift
    accumulated over the window rivals the windowed path length.
    """
    n = len(stamps)
    if n < MIN_CORRESPONDENCES:
        raise InsufficientDataError(f"{n} correspondences < minimum {MIN_CORRESPONDENCES}")
    stamp_mean = float(stamps.sum()) / n
    tau = stamps - stamp_mean if config.estimate_drift else None
    t, theta, drift, s, iterations, converged = _irls(D, P, tau)
    if drift is not None:
        # refer the translation to the newest stamp, the time the guider
        # applies the transform at
        t = t + drift * (float(stamps[-1]) - stamp_mean)
    # the mean of soft_l1(s), bit for bit; s >= 0 needs no check
    final_cost = 2.0 * float((np.sqrt(1.0 + s) - 1.0).sum()) / n
    return AlignmentResult(t, theta, converged, final_cost, iterations,
                           np.zeros(3) if drift is None else drift)


def window_observable(D: np.ndarray, sigma: float) -> bool:
    """The pre-solve test: the window's planar spread beats the detection noise.

    The planar spread S = sum |xy_i - mean(xy)|^2 of the lidar positions
    D (N, 3) is their heading information with the translation free (the
    Schur complement of J^T J, J_i = [I3 | Rz'(theta) d_i]).  The window is
    observable when S > :data:`MIN_SPREAD_RATIO` * N * 2 sigma^2, sigma the
    detection noise: a ratio without units that does not depend on where
    the window sits, about 0.7-1 for a target that does not move.  The only
    geometry test; it needs no solve, so only a window that passes is solved.
    """
    xy = D[:, :2] - D[0, :2]  # identical positions give exactly zero spread
    sx, sy = xy.sum(axis=0).tolist()
    spread = float(np.vdot(xy, xy)) - (sx * sx + sy * sy) / len(D)
    return spread > MIN_SPREAD_RATIO * len(D) * 2.0 * sigma * sigma


def degeneracy_check(result: AlignmentResult, config: AlignmentConfig) -> bool:
    """The post-solve test: the solve converged to a cost within ``max_cost``.

    The only acceptance rule applied to a solve's result; the window's
    geometry was already tested by :func:`window_observable`.
    """
    return result.converged and result.final_cost <= config.max_cost
