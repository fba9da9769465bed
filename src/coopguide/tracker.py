"""Estimation of the drifting L->V frame from lidar detections of the secondary.

VIO measures the secondary agent's motion in its own frame V, which drifts
against the lidar-SLAM frame L.  What is unknown is the transform between
the two,

    p_V = Rz(theta) @ p_L + o(t),    o' = r,

with random walks on the offset o, its rate r and the heading theta: the
augmented-state treatment of a sensor offset (Friedland 1969, "Treatment of
bias in recursive filtering", IEEE TAC 14; Groves 2013, *Principles of GNSS,
Inertial, and Multisensor Integrated Navigation Systems*).  The state is
``(ox, rx, oy, ry, theta, oz, rz)``.  No measurement couples z to the rest,
so ``(ox, rx, oy, ry, theta)`` share one symmetric 5x5 covariance and ``(oz,
rz)`` has its own 2x2 block.

Only lidar detections update the state.  A detection d, in L, is paired with
the VIO position p_V interpolated at its stamp, and h(x) = Rz(theta) @ d + o.
The extended Kalman update runs as three scalar steps, linearized once at
the prior, which is the joint update: the x row has entries at ox and theta,
the y row at oy and theta, the z row at oz only.  ``predict`` and ``update``
are straight-line float code.

Because detections arrive with processing delay and out of order, a
recalculating history buffer keeps recent measurements sorted by stamp and
re-derives the state from the oldest retained entry whenever a late
measurement is inserted.

``TrackerState`` and ``Measurement`` each have one constructor, which stores
what it is given; the checks live where records enter, in ``Guider.ingest_vio``
and ``Guider.ingest_detections``.

Detections are associated by a Euclidean pre-gate in L plus a chi-square
test on the squared Mahalanobis distance of the innovation.

The noise model, the gate and the history span are the module constants
below; no config key sets them.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .alignment import (
    AlignmentConfig,
    AlignmentResult,
    build_correspondence_arrays,
    degeneracy_check,
    solve_alignment_arrays,
    window_observable,
)
from .geometry import Detection, StampedColumns, TimedPose, wrap_heading


class StaleMeasurementError(ValueError):
    """Measurement older than the history buffer's anchor (excessive delay)."""


#: random-walk intensities of the offset ((m/sqrt(s))^2), of its rate
#: ((m/s/sqrt(s))^2) and of the heading ((rad/sqrt(s))^2)
PROCESS_NOISE = (0.01 ** 2, 0.001 ** 2, 0.001 ** 2)
#: prior variances at initialization of the offset (m^2), of its rate
#: ((m/s)^2) and of the heading (rad^2)
INIT_VARIANCE = (0.2 ** 2, 0.05 ** 2, 0.05 ** 2)
#: Euclidean pre-gate in L, m
EUCLID_GATE = 2.0
#: 95% point of the chi-square distribution with 3 degrees of freedom
#: (Bar-Shalom, Li and Kirubarajan 2001, §5.4), as 2 * gammaincinv(1.5, 0.95)
GATE_CRITICAL = 7.814727903251179
#: default span of the measurement history, s
HISTORY_SPAN = 2.0


class TrackerState:
    """Filter state: stamp, mean and the two covariance blocks, as float tuples.

    ``mean`` is ``(ox, rx, oy, ry, theta, oz, rz)``, theta wrapped.
    ``planar`` is the upper triangle of the symmetric 5x5 covariance of
    ``(ox, rx, oy, ry, theta)``, row by row: ``(p00, p01, p02, p03, p04,
    p11, p12, p13, p14, p22, p23, p24, p33, p34, p44)``.  ``vertical`` is
    the ``(c00, c01, c11)`` of ``(oz, rz)``.  The constructor checks
    nothing: every state is built by the filter from records already checked
    where they entered the guider.
    """

    __slots__ = ("stamp", "mean", "planar", "vertical")

    def __init__(self, stamp: float, mean: tuple, planar: tuple, vertical: tuple):
        self.stamp, self.mean, self.planar, self.vertical = stamp, mean, planar, vertical

    def pose(self, vio: Sequence[float]) -> TimedPose:
        """A V-frame pose record (``POSE_FIELDS`` order), stamped at this
        state, mapped into L: position Rz(theta)^T (p - o), velocity
        Rz(theta)^T (v - r), the heading less theta, the heading rate as is."""
        stamp, x, y, z, heading, vx, vy, vz, rate = vio
        ox, rx, oy, ry, theta, oz, rz = self.mean
        c, s = math.cos(theta), math.sin(theta)
        x, y, vx, vy = x - ox, y - oy, vx - rx, vy - ry
        return TimedPose(stamp, c * x + s * y, c * y - s * x, z - oz,
                         wrap_heading(wrap_heading(heading) - theta),
                         c * vx + s * vy, c * vy - s * vx, vz - rz, rate)


class Measurement:
    """A fused detection: its stamp, its position ``lidar`` in L, the VIO
    position ``vio`` interpolated at its stamp (float 3-tuples) and the
    detection variance per axis.  Stored as given and read directly by
    ``update``; the guider makes them from checked records, and the
    constructor checks nothing.
    """

    __slots__ = ("stamp", "lidar", "vio", "variance")

    def __init__(self, stamp: float, lidar: tuple, vio: tuple, variance: float):
        self.stamp, self.lidar, self.vio, self.variance = stamp, lidar, vio, variance


@dataclass(frozen=True)
class GateDecision:
    """Outcome of detection-to-estimate association."""

    mahalanobis_sq: float
    accepted: bool
    detection: Optional[Detection] = None   # the selected one, None without a candidate


def predict(state: TrackerState, dt: float) -> TrackerState:
    """Advance the frame by dt >= 0 seconds.

    Each offset moves by ``dt`` times its rate; theta and the rates keep
    their means.  P' = F P F^T + Q with F = [[1, dt], [0, 1]] on each
    (offset, rate) pair and, per pair, the random-walk noise Q =
    [[qo dt + qr dt^3/3, qr dt^2/2], [qr dt^2/2, qr dt]], plus qh dt on
    theta, with ``(qo, qr, qh)`` = ``PROCESS_NOISE``.
    """
    if dt < 0.0:
        raise ValueError(f"predict requires dt >= 0, got {dt}")
    if dt == 0.0:
        return state
    ox, rx, oy, ry, theta, oz, rz = state.mean
    p00, p01, p02, p03, p04, p11, p12, p13, p14, p22, p23, p24, p33, p34, p44 = state.planar
    c00, c01, c11 = state.vertical
    qo, qr, qh = PROCESS_NOISE
    qa = qo * dt + qr * dt ** 3 / 3.0
    qb = qr * dt ** 2 / 2.0
    qc = qr * dt
    return TrackerState(
        state.stamp + dt,
        (ox + dt * rx, rx, oy + dt * ry, ry, theta, oz + dt * rz, rz),
        (p00 + dt * (2.0 * p01 + dt * p11) + qa, p01 + dt * p11 + qb,
         p02 + dt * (p12 + p03 + dt * p13), p03 + dt * p13, p04 + dt * p14,
         p11 + qc, p12 + dt * p13, p13, p14,
         p22 + dt * (2.0 * p23 + dt * p33) + qa, p23 + dt * p33 + qb, p24 + dt * p34,
         p33 + qc, p34, p44 + qh * dt),
        (c00 + dt * (2.0 * c01 + dt * c11) + qa, c01 + dt * c11 + qb, c11 + qc))


def _steps(state: TrackerState, lidar: Sequence[float], vio: Sequence[float], r: float):
    """The three scalar steps of a detection at ``lidar`` paired with the
    VIO position ``vio``, with variance ``r`` per axis.

    Returns ``(ex, gx, sx, ey, gy, sy, ez, sz)``: per planar step the
    innovation, the column P H^T (5 floats) and the innovation variance, the
    y step conditioned on the x step, and the z step's innovation and
    variance.  The x row is [1, 0, 0, 0, -w] and the y row [0, 0, 1, 0, u],
    with (u, w) the x and y of Rz(theta) @ d.  Raises ValueError when a
    step's innovation variance is not positive.
    """
    (dx, dy, dz), (px, py, pz) = lidar, vio
    ox, _, oy, _, theta, oz, _ = state.mean
    p00, p01, p02, p03, p04, p11, p12, p13, p14, p22, p23, p24, p33, p34, p44 = state.planar
    c, s = math.cos(theta), math.sin(theta)
    u = c * dx - s * dy
    w = s * dx + c * dy
    ex = px - (u + ox)
    g0, g1, g2, g3, g4 = p00 - w * p04, p01 - w * p14, p02 - w * p24, p03 - w * p34, p04 - w * p44
    sx = g0 - w * g4 + r
    if not sx > 0.0:
        raise ValueError("singular innovation covariance")
    b = (g2 + u * g4) / sx   # the x step's gain on the y row's prediction
    h0, h1, h2, h3, h4 = (p02 + u * p04 - b * g0, p12 + u * p14 - b * g1,
                          p22 + u * p24 - b * g2, p23 + u * p34 - b * g3,
                          p24 + u * p44 - b * g4)
    sy = h2 + u * h4 + r
    sz = state.vertical[0] + r
    if not (sy > 0.0 and sz > 0.0):
        raise ValueError("singular innovation covariance")
    ey = py - (w + oy) - b * ex
    return ex, (g0, g1, g2, g3, g4), sx, ey, (h0, h1, h2, h3, h4), sy, pz - (dz + oz), sz


def update(state: TrackerState, z: Measurement) -> TrackerState:
    """Kalman correction by one detection, as the three scalar steps of
    :func:`_steps`: each adds its gain P H^T / s times its innovation to the
    mean and takes (P H^T)(P H^T)^T / s from its block.  Theta is wrapped;
    only the upper triangle of the planar block is computed, so it stays
    exactly symmetric.
    """
    if abs(z.stamp - state.stamp) > 1e-9:
        raise ValueError(
            f"measurement stamp {z.stamp} does not match state stamp {state.stamp}; "
            "predict first"
        )
    ex, (g0, g1, g2, g3, g4), sx, ey, (h0, h1, h2, h3, h4), sy, ez, sz = _steps(
        state, z.lidar, z.vio, z.variance)
    ox, rx, oy, ry, theta, oz, rz = state.mean
    p00, p01, p02, p03, p04, p11, p12, p13, p14, p22, p23, p24, p33, p34, p44 = state.planar
    c00, c01, c11 = state.vertical
    a0, a1, a2, a3, a4 = g0 / sx, g1 / sx, g2 / sx, g3 / sx, g4 / sx
    b0, b1, b2, b3, b4 = h0 / sy, h1 / sy, h2 / sy, h3 / sy, h4 / sy
    k0, k1 = c00 / sz, c01 / sz
    return TrackerState(
        state.stamp,
        (ox + a0 * ex + b0 * ey, rx + a1 * ex + b1 * ey, oy + a2 * ex + b2 * ey,
         ry + a3 * ex + b3 * ey, wrap_heading(theta + a4 * ex + b4 * ey),
         oz + k0 * ez, rz + k1 * ez),
        (p00 - a0 * g0 - b0 * h0, p01 - a0 * g1 - b0 * h1, p02 - a0 * g2 - b0 * h2,
         p03 - a0 * g3 - b0 * h3, p04 - a0 * g4 - b0 * h4,
         p11 - a1 * g1 - b1 * h1, p12 - a1 * g2 - b1 * h2, p13 - a1 * g3 - b1 * h3,
         p14 - a1 * g4 - b1 * h4,
         p22 - a2 * g2 - b2 * h2, p23 - a2 * g3 - b2 * h3, p24 - a2 * g4 - b2 * h4,
         p33 - a3 * g3 - b3 * h3, p34 - a3 * g4 - b3 * h4,
         p44 - a4 * g4 - b4 * h4),
        (c00 - k0 * c00, c01 - k0 * c01, c11 - k1 * c01))


def innovation_gate(state: TrackerState, detection: Detection, vio: Sequence[float]) -> float:
    """Squared Mahalanobis distance y^T S^-1 y of a detection paired with
    the VIO position ``vio``: S is the 2x2 planar block plus the z scalar,
    and the sum over the three scalar steps of :func:`_steps` is that
    quadratic form."""
    ex, _, sx, ey, _, sy, ez, sz = _steps(state, detection[1:4], vio, detection.sigma ** 2)
    return ex * ex / sx + ey * ey / sy + ez * ez / sz


def associate(detections: Sequence[Detection], state: TrackerState,
              vio: Sequence[float]) -> GateDecision:
    """Select the detection nearest in Mahalanobis distance and gate it.

    ``vio`` is the VIO position at the detections' stamp.  Candidates
    within ``EUCLID_GATE`` of the predicted position in L, Rz(theta)^T
    (p_V - o), compete; the lowest squared Mahalanobis distance among them
    is accepted when it is at most ``GATE_CRITICAL``.
    """
    best: Optional[Detection] = None
    best_d2 = math.inf
    ox, _, oy, _, theta, oz, _ = state.mean
    c, s = math.cos(theta), math.sin(theta)
    px, py, pz = vio[0] - ox, vio[1] - oy, vio[2] - oz
    lx, ly = c * px + s * py, c * py - s * px
    for det in detections:
        if math.hypot(det.x - lx, det.y - ly, det.z - pz) > EUCLID_GATE:
            continue
        d2 = innovation_gate(state, det, vio)
        if d2 < best_d2:
            best_d2 = d2
            best = det
    if best is None:
        return GateDecision(math.inf, False)
    return GateDecision(best_d2, best_d2 <= GATE_CRITICAL, best)


class HistoryBuffer:
    """Measurement log enabling exact filter re-runs for late arrivals.

    Entries are kept sorted by stamp; the posterior state after each entry
    is cached so an in-order arrival costs one predict/update and a late
    arrival recomputes only the suffix behind its insertion point —
    numerically identical to a full replay from the anchor.  Entries older
    than ``span`` behind the newest are marginalized into the anchor state.
    ``_stamps`` holds each entry's stamp, parallel to ``entries`` and
    ``_posts``, so a binary search compares plain floats.
    """

    def __init__(self, anchor_state: TrackerState, span: float = HISTORY_SPAN):
        self.anchor_state = anchor_state
        self.span = span
        self.entries: list[Measurement] = []
        self._stamps: list[float] = []
        self._posts: list[TrackerState] = []

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def latest_state(self) -> TrackerState:
        return self._posts[-1] if self._posts else self.anchor_state

    def insert(self, z: Measurement) -> TrackerState:
        """Insert a measurement in stamp order and return the newest state."""
        if z.stamp < self.anchor_state.stamp - 1e-12:
            raise StaleMeasurementError(
                f"measurement at {z.stamp:.6f} is too stale: older than the "
                f"buffer anchor at {self.anchor_state.stamp:.6f}"
            )
        stamps = self._stamps
        if stamps and z.stamp < stamps[-1] - self.span:
            raise StaleMeasurementError(
                f"measurement at {z.stamp:.6f} is too stale: more than "
                f"{self.span} s behind the newest entry"
            )
        idx = bisect.bisect_right(stamps, z.stamp)
        stamps.insert(idx, z.stamp)
        self.entries.insert(idx, z)
        self._posts.insert(idx, None)  # placeholder, recomputed below
        self._recompute_from(idx)
        self._prune()
        return self._posts[-1]

    def _recompute_from(self, idx: int) -> None:
        state = self._posts[idx - 1] if idx > 0 else self.anchor_state
        for i in range(idx, len(self.entries)):
            z = self.entries[i]
            dt = max(0.0, z.stamp - state.stamp)  # guard float round-off on ties
            state = update(predict(state, dt), z)
            self._posts[i] = state

    def _prune(self) -> None:
        n = bisect.bisect_left(self._stamps, self._stamps[-1] - self.span)
        if n:
            self.anchor_state = self._posts[n - 1]
            del self.entries[:n], self._stamps[:n], self._posts[:n]

    def estimate_at(self, t: float) -> TrackerState:
        """State at time t: replay through entries with stamp <= t, then predict."""
        if t < self.anchor_state.stamp:
            raise ValueError(
                f"query at {t:.6f} precedes the buffer anchor at "
                f"{self.anchor_state.stamp:.6f}"
            )
        idx = bisect.bisect_right(self._stamps, t)
        state = self._posts[idx - 1] if idx > 0 else self.anchor_state
        return predict(state, max(0.0, t - state.stamp))


def try_initialize(
    per_track_buffers: dict[int, StampedColumns],
    vio_buffer: StampedColumns,
    align_config: AlignmentConfig = AlignmentConfig(),
) -> Optional[tuple[TrackerState, AlignmentResult, int]]:
    """Attempt frame initialization from per-track detection buffers.

    The buffers hold :data:`~coopguide.geometry.DETECTION_FIELDS` records
    and ``vio_buffer`` :data:`~coopguide.geometry.POSE_FIELDS` records.  For
    each track in track-id order: build the window, skip it unless it holds
    ``MIN_CORRESPONDENCES`` pairs and is :func:`window_observable` at the
    noise of its seeding detection, solve it, and initialize from the first
    track whose solution passes :func:`degeneracy_check`.  The seeding
    detection is the newest the VIO buffer covers (stamped at most at its
    newest sample), the stamp a detection is fused at.  The state there is
    the solve's (o, r, theta), the translation moved by ``drift_rate *
    (stamp - newest correspondence stamp)``, with the diagonal prior
    ``INIT_VARIANCE``.  Returns None when no track is accepted.
    """
    for track_id in sorted(per_track_buffers):
        dets = per_track_buffers[track_id]
        arrays = build_correspondence_arrays(dets, vio_buffer, align_config)
        if arrays is None:
            continue
        covered = int(dets.stamps.searchsorted(vio_buffer.newest_stamp, side="right"))
        if covered == 0:
            continue
        stamp, *_, sigma, _ = dets.row(covered - 1)
        if not window_observable(arrays[1], sigma):
            continue
        result = solve_alignment_arrays(*arrays, align_config)
        if not degeneracy_check(result, align_config):
            continue
        lag = stamp - float(arrays[0][-1])
        (tx, ty, tz), (rx, ry, rz) = result.translation.tolist(), result.drift_rate.tolist()
        mean = (tx + rx * lag, rx, ty + ry * lag, ry, result.heading, tz + rz * lag, rz)
        vo, vr, vh = INIT_VARIANCE
        planar = (vo, 0.0, 0.0, 0.0, 0.0, vr, 0.0, 0.0, 0.0, vo, 0.0, 0.0, vr, 0.0, vh)
        return TrackerState(stamp, mean, planar, (vo, 0.0, vr)), result, track_id
    return None
