"""Constant-velocity tracking of the secondary agent in the lidar-SLAM frame.

An 8-state linear Kalman filter (position, velocity, heading, heading rate)
fuses associated lidar detections with VIO-derived measurements.  Because
detections arrive with processing delay and VIO samples with network delay,
measurements can reach the filter out of order; a recalculating history
buffer keeps recent measurements sorted by stamp and re-derives the state
from the oldest retained entry whenever a late measurement is inserted.

Measurement construction from VIO follows the loosely-coupled scheme: the
position measurement chains the newest detection with the rotated VIO
displacement since that detection, the velocity measurement rotates the VIO
velocity, and heading/heading rate subtract the aligned relative heading.

Lidar detections are associated by Euclidean pre-gating plus a chi-square
test on the squared Mahalanobis distance of the innovation.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Sequence

import numpy as np
from scipy.special import gammaincinv

from .alignment import (
    AlignmentConfig,
    AlignmentResult,
    build_correspondence_arrays,
    degeneracy_check,
    solve_alignment_arrays,
    window_observable,
)
from .geometry import (
    Detection,
    StaleQueryError,
    TimedPose,
    interpolate,
    rot_z,
    wrap_heading,
)

STATE_DIM = 8
_IDX_HEADING = 6


class StaleMeasurementError(ValueError):
    """Measurement older than the history buffer's anchor (excessive delay)."""


class MeasurementKind(IntEnum):
    """Measurement families; integer order is the same-stamp replay order."""

    LIDAR_POSITION = 0   # 3-dim position from an associated detection
    VIO_FULL = 1         # 8-dim position/velocity/heading/heading-rate
    VIO_HEADING = 2      # 2-dim heading/heading-rate only


_KIND_DIM = {
    MeasurementKind.LIDAR_POSITION: 3,
    MeasurementKind.VIO_FULL: 8,
    MeasurementKind.VIO_HEADING: 2,
}

# Rows of the state observed by each kind (H is a pure selector of a
# contiguous row range, so plain slices give views instead of copies).
_KIND_ROWS = {
    MeasurementKind.LIDAR_POSITION: slice(0, 3),
    MeasurementKind.VIO_FULL: slice(0, 8),
    MeasurementKind.VIO_HEADING: slice(6, 8),
}

# Index of the heading component inside the measurement vector, if any.
_KIND_HEADING_IDX = {
    MeasurementKind.LIDAR_POSITION: None,
    MeasurementKind.VIO_FULL: 6,
    MeasurementKind.VIO_HEADING: 0,
}


@dataclass(frozen=True)
class TrackerConfig:
    """Process/measurement noise and gating parameters."""

    sigma_accel: float = 1.0             # white acceleration, m/s^2
    sigma_heading_accel: float = 0.5     # white heading acceleration, rad/s^2
    vio_velocity_sigma: float = 0.1      # m/s
    vio_heading_sigma: float = 0.05      # rad
    vio_heading_rate_sigma: float = 0.05  # rad/s
    vio_delta_sigma: float = 0.05        # added to detection sigma in z_x, m
    euclid_gate: float = 2.0             # m
    gate_p_value: float = 0.95
    history_span: float = 2.0            # s
    init_position_sigma: float = 0.3
    init_velocity_sigma: float = 0.5
    init_heading_sigma: float = 0.2
    init_heading_rate_sigma: float = 0.2


@dataclass(frozen=True)
class TrackerState:
    """Filter state: stamp, 8-vector mean, 8x8 covariance."""

    stamp: float
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float)
        P = np.asarray(self.covariance, dtype=float)
        if m.shape != (STATE_DIM,) or P.shape != (STATE_DIM, STATE_DIM):
            raise ValueError("tracker state must be an 8-vector mean and 8x8 covariance")
        if m[_IDX_HEADING] > math.pi or m[_IDX_HEADING] <= -math.pi:
            m = m.copy()
            m[_IDX_HEADING] = wrap_heading(m[_IDX_HEADING])
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "covariance", P)

    @property
    def position(self) -> np.ndarray:
        return self.mean[0:3]

    @property
    def velocity(self) -> np.ndarray:
        return self.mean[3:6]

    @property
    def heading(self) -> float:
        return float(self.mean[6])

    @property
    def heading_rate(self) -> float:
        return float(self.mean[7])


@dataclass(frozen=True)
class Measurement:
    """Stamped measurement with its covariance; dimension fixed by kind."""

    stamp: float
    kind: MeasurementKind
    value: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.value, dtype=float)
        R = np.asarray(self.covariance, dtype=float)
        m = _KIND_DIM[self.kind]
        if v.shape != (m,) or R.shape != (m, m):
            raise ValueError(f"{self.kind.name} measurement must be {m}-dimensional")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "covariance", R)


@dataclass(frozen=True)
class GateDecision:
    """Outcome of detection-to-estimate association."""

    chosen: Optional[int]            # track id of the selected detection
    mahalanobis_sq: float
    critical: float
    accepted: bool
    detection: Optional[Detection] = None


def chi2_critical(p_value: float, dof: int) -> float:
    """Critical value x with P(chi2_dof <= x) = p_value, computed numerically."""
    if not 0.0 < p_value < 1.0:
        raise ValueError("p_value must lie in (0, 1)")
    return 2.0 * float(gammaincinv(0.5 * dof, p_value))


def predict(state: TrackerState, dt: float, config: TrackerConfig = TrackerConfig()) -> TrackerState:
    """Advance the constant-velocity model by dt >= 0 seconds."""
    if dt < 0.0:
        raise ValueError(f"predict requires dt >= 0, got {dt}")
    if dt == 0.0:
        return state
    m = state.mean
    mean = m.copy()
    mean[0:3] += dt * m[3:6]
    mean[6] = wrap_heading(m[6] + dt * m[7])

    # P' = F P F^T expanded over the sparse transition (x += v dt, phi += w dt);
    # cheaper than two 8x8 matmuls and numerically identical.
    P = state.covariance.copy()
    P[0:3, :] += dt * P[3:6, :]
    P[6, :] += dt * P[7, :]
    P[:, 0:3] += dt * P[:, 3:6]
    P[:, 6] += dt * P[:, 7]

    # Continuous white-acceleration process noise per axis pair.
    q3 = dt ** 3 / 3.0
    q2 = dt ** 2 / 2.0
    qa = config.sigma_accel ** 2
    qh = config.sigma_heading_accel ** 2
    for i in range(3):
        P[i, i] += qa * q3
        P[i, i + 3] += qa * q2
        P[i + 3, i] += qa * q2
        P[i + 3, i + 3] += qa * dt
    P[6, 6] += qh * q3
    P[6, 7] += qh * q2
    P[7, 6] += qh * q2
    P[7, 7] += qh * dt
    return TrackerState(state.stamp + dt, mean, P)


def update(state: TrackerState, z: Measurement) -> TrackerState:
    """Standard Kalman correction with heading-wrapped innovation.

    The posterior covariance is computed in the simple form and symmetrized,
    which keeps it PSD to numerical tolerance (verified by the random-cycle
    covariance test).
    """
    if abs(z.stamp - state.stamp) > 1e-9:
        raise ValueError(
            f"measurement stamp {z.stamp} does not match state stamp {state.stamp}; "
            "predict first"
        )
    rows = _KIND_ROWS[z.kind]
    P = state.covariance
    y = z.value - state.mean[rows]
    h_idx = _KIND_HEADING_IDX[z.kind]
    if h_idx is not None:
        y[h_idx] = wrap_heading(y[h_idx])
    S = P[rows, rows] + z.covariance
    PHt = P[:, rows]
    try:
        K = np.linalg.solve(S, PHt.T).T
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular innovation covariance") from exc

    mean = state.mean + K @ y
    mean[6] = wrap_heading(mean[6])

    # P' = (I - K H) P = P - K (H P), symmetrized to stay PSD under round-off
    P_new = P - K @ PHt.T
    P_new = 0.5 * (P_new + P_new.T)
    return TrackerState(state.stamp, mean, P_new)


def innovation_gate(state: TrackerState, detection: Detection) -> float:
    """Squared Mahalanobis distance of a detection from the predicted state."""
    y = detection.position - state.mean[0:3]
    S = state.covariance[0:3, 0:3] + detection.covariance
    try:
        return float(y @ np.linalg.solve(S, y))
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular innovation covariance") from exc


def associate(
    detections: Sequence[Detection],
    state: TrackerState,
    euclid_gate: float,
    p_value: float,
) -> GateDecision:
    """Select the detection nearest in Mahalanobis distance and gate it.

    Candidates are pre-filtered by Euclidean distance; the lowest squared
    Mahalanobis distance among them is tested against the chi-square critical
    value with 3 degrees of freedom.
    """
    critical = chi2_critical(p_value, 3)
    best: Optional[Detection] = None
    best_d2 = math.inf
    pos = state.mean[0:3]
    for det in detections:
        if float(np.linalg.norm(det.position - pos)) > euclid_gate:
            continue
        d2 = innovation_gate(state, det)
        if d2 < best_d2:
            best_d2 = d2
            best = det
    if best is None:
        return GateDecision(None, math.inf, critical, False)
    return GateDecision(best.track_id, best_d2, critical, best_d2 <= critical, best)


def make_vio_measurement(
    vio: TimedPose,
    last_detection: Detection,
    vio_at_detection: TimedPose,
    theta: Optional[float],
    config: TrackerConfig = TrackerConfig(),
) -> Measurement:
    """Full 8-dim measurement from a VIO pose newer than the last detection.

    Position chains the last detection with the V->L rotated VIO displacement
    since the detection stamp; velocity is the rotated VIO velocity; heading
    subtracts the aligned relative heading.
    """
    if theta is None:
        raise ValueError("transform unavailable: no accepted alignment yet")
    if vio.stamp < last_detection.stamp - 1e-9:
        raise ValueError("VIO pose is older than the anchoring detection")
    r_lv = rot_z(-theta)
    z_x = last_detection.position + r_lv @ (vio.position - vio_at_detection.position)
    z_v = r_lv @ vio.velocity
    z_phi = wrap_heading(vio.heading - theta)
    value = np.concatenate([z_x, z_v, [z_phi, vio.heading_rate]])
    variances = np.concatenate([
        np.full(3, last_detection.sigma ** 2 + config.vio_delta_sigma ** 2),
        np.full(3, config.vio_velocity_sigma ** 2),
        [config.vio_heading_sigma ** 2, config.vio_heading_rate_sigma ** 2],
    ])
    return Measurement(vio.stamp, MeasurementKind.VIO_FULL, value, np.diag(variances))


def make_heading_measurement(
    vio: TimedPose,
    theta: Optional[float],
    config: TrackerConfig = TrackerConfig(),
) -> Measurement:
    """Heading/heading-rate measurement from a VIO pose older than the last detection."""
    if theta is None:
        raise ValueError("transform unavailable: no accepted alignment yet")
    value = np.array([wrap_heading(vio.heading - theta), vio.heading_rate])
    cov = np.diag([config.vio_heading_sigma ** 2, config.vio_heading_rate_sigma ** 2])
    return Measurement(vio.stamp, MeasurementKind.VIO_HEADING, value, cov)


class HistoryBuffer:
    """Measurement log enabling exact filter re-runs for late arrivals.

    Entries are kept sorted by (stamp, kind); the posterior state after each
    entry is cached so an in-order arrival costs one predict/update and a
    late arrival recomputes only the suffix behind its insertion point —
    numerically identical to a full replay from the anchor.  Entries older
    than ``span`` behind the newest are marginalized into the anchor state.
    """

    def __init__(self, anchor_state: TrackerState, span: float = 2.0,
                 config: TrackerConfig = TrackerConfig()):
        self.anchor_state = anchor_state
        self.span = span
        self.config = config
        self.entries: list[Measurement] = []
        self._keys: list[tuple[float, int]] = []
        self._posts: list[TrackerState] = []

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def latest_state(self) -> TrackerState:
        return self._posts[-1] if self._posts else self.anchor_state

    def latest_stamp_of(self, kind: MeasurementKind) -> Optional[float]:
        for z in reversed(self.entries):
            if z.kind == kind:
                return z.stamp
        return None

    def insert(self, z: Measurement) -> TrackerState:
        """Insert a measurement in stamp order and return the newest state."""
        if z.stamp < self.anchor_state.stamp - 1e-12:
            raise StaleMeasurementError(
                f"measurement at {z.stamp:.6f} is too stale: older than the "
                f"buffer anchor at {self.anchor_state.stamp:.6f}"
            )
        if self.entries and z.stamp < self.entries[-1].stamp - self.span:
            raise StaleMeasurementError(
                f"measurement at {z.stamp:.6f} is too stale: more than "
                f"{self.span} s behind the newest entry"
            )
        key = (z.stamp, int(z.kind))
        idx = bisect.bisect_right(self._keys, key)
        self.entries.insert(idx, z)
        self._keys.insert(idx, key)
        self._posts.insert(idx, None)  # placeholder, recomputed below
        self._recompute_from(idx)
        self._prune()
        return self._posts[-1]

    def _recompute_from(self, idx: int) -> None:
        state = self._posts[idx - 1] if idx > 0 else self.anchor_state
        for i in range(idx, len(self.entries)):
            z = self.entries[i]
            dt = max(0.0, z.stamp - state.stamp)  # guard float round-off on ties
            state = update(predict(state, dt, self.config), z)
            self._posts[i] = state

    def _prune(self) -> None:
        cutoff = self.entries[-1].stamp - self.span
        while self.entries and self.entries[0].stamp < cutoff:
            self.anchor_state = self._posts[0]
            del self.entries[0], self._keys[0], self._posts[0]

    def estimate_at(self, t: float) -> TrackerState:
        """State at time t: replay through entries with stamp <= t, then predict."""
        if t < self.anchor_state.stamp:
            raise ValueError(
                f"query at {t:.6f} precedes the buffer anchor at "
                f"{self.anchor_state.stamp:.6f}"
            )
        idx = bisect.bisect_right(self._keys, (t, len(MeasurementKind)))
        state = self._posts[idx - 1] if idx > 0 else self.anchor_state
        return predict(state, max(0.0, t - state.stamp), self.config)


def insert_and_replay(buffer: HistoryBuffer, z: Measurement) -> tuple[HistoryBuffer, TrackerState]:
    """Functional wrapper around :meth:`HistoryBuffer.insert`."""
    state = buffer.insert(z)
    return buffer, state


def estimate_at(buffer: HistoryBuffer, t: float) -> TrackerState:
    """Functional wrapper around :meth:`HistoryBuffer.estimate_at`."""
    return buffer.estimate_at(t)


def try_initialize(
    per_track_buffers: dict[int, Sequence[Detection]],
    vio_buffer: Sequence[TimedPose],
    align_config: AlignmentConfig = AlignmentConfig(),
    tracker_config: TrackerConfig = TrackerConfig(),
) -> Optional[tuple[TrackerState, AlignmentResult, int]]:
    """Attempt estimate initialization from per-track detection buffers.

    Runs the sliding-window alignment against the VIO buffer for each track
    (in track-id order) whose window is observable, and initializes from the
    first track whose solution passes the degeneracy check: position from
    the newest detection, velocity and heading from the rotated/shifted VIO
    pose at that stamp, covariance from the configured priors.  Returns None
    when no track is accepted.
    """
    for track_id in sorted(per_track_buffers):
        dets = per_track_buffers[track_id]
        arrays = build_correspondence_arrays(
            dets, vio_buffer, align_config.window,
            min_count=align_config.min_correspondences,
            interp_tolerance=align_config.interp_tolerance,
            max_gap=align_config.max_detection_gap,
        )
        if arrays is None:
            continue
        if not window_observable(arrays[1], align_config):
            continue  # no solve could pass the degeneracy check
        result = solve_alignment_arrays(*arrays, None, align_config)
        if not degeneracy_check(result, align_config.min_path_length,
                                align_config.min_eigenvalue):
            continue
        newest = dets[-1]
        try:
            vio_pose = interpolate(vio_buffer, newest.stamp,
                                   tolerance=align_config.interp_tolerance)
        except StaleQueryError:
            continue
        theta = result.transform.heading
        r_lv = rot_z(-theta)
        # co-estimated VIO drift rate (zero unless enabled) is not real motion
        mean = np.concatenate([
            newest.position,
            r_lv @ (vio_pose.velocity - result.drift_rate),
            [wrap_heading(vio_pose.heading - theta), vio_pose.heading_rate],
        ])
        cov = np.diag(np.concatenate([
            np.full(3, tracker_config.init_position_sigma ** 2),
            np.full(3, tracker_config.init_velocity_sigma ** 2),
            [tracker_config.init_heading_sigma ** 2,
             tracker_config.init_heading_rate_sigma ** 2],
        ]))
        return TrackerState(newest.stamp, mean, cov), result, track_id
    return None
