"""Constant-velocity tracking of the secondary agent in the lidar-SLAM frame.

Four decoupled constant-velocity axis filters, for x, y, z and heading, each
a (value, rate) pair with a 2x2 covariance, fuse associated lidar detections
with VIO-derived measurements.  Diagonal priors, process noise that is
block-diagonal over the axes and measurements of single components with
diagonal noise never couple two axes, so this is exactly the 8-state filter
over position, velocity, heading and heading rate (the decoupled CV model of
Bar-Shalom, Li and Kirubarajan, *Estimation with Applications to Tracking
and Navigation*, 2001, §6) in closed-form 2x2 and scalar algebra.  Both
kernels are straight-line float code: ``predict`` is written out over the
four axes, and ``update`` runs each measurement kind as its fixed series of
per-axis scalar steps, with the bits of the sequential scalar update.

Because detections arrive with processing delay and VIO samples with network
delay, measurements can reach the filter out of order; a recalculating
history buffer keeps recent measurements sorted by stamp and re-derives the
state from the oldest retained entry whenever a late measurement is inserted.

Measurement construction from VIO follows the loosely-coupled scheme: the
position measurement chains the newest detection with the rotated VIO
displacement since that detection, the velocity measurement rotates the VIO
velocity, both less the alignment's co-estimated drift, and heading/heading
rate subtract the aligned relative heading.  A measurement holds float
tuples, built in plain float arithmetic except for the two rotations.

``TrackerState`` and ``Measurement`` each have one constructor, which stores
what it is given; the checks live where records enter, in ``Guider.ingest_vio``
and ``Guider.ingest_detections``.

Lidar detections are associated by Euclidean pre-gating plus a chi-square
test on the squared Mahalanobis distance of the innovation.

The noise model, the gate and the history span are the module constants
below; no config key sets them.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Sequence

import numpy as np

from .alignment import (
    AlignmentConfig,
    AlignmentResult,
    build_correspondence_arrays,
    degeneracy_check,
    solve_alignment_arrays,
    window_observable,
)
from .geometry import (
    STALE_TOLERANCE,
    Detection,
    StaleQueryError,
    StampedColumns,
    TimedPose,
    interpolate,
    rot_z,
    wrap_heading,
)

_HEADING_AXIS = 3   # state axes: x, y, z, heading


class StaleMeasurementError(ValueError):
    """Measurement older than the history buffer's anchor (excessive delay)."""


class MeasurementKind(IntEnum):
    """Measurement families; integer order is the same-stamp replay order."""

    LIDAR_POSITION = 0   # x, y, z from an associated detection
    VIO_FULL = 1         # x, y, z, vx, vy, vz, heading, heading rate
    VIO_HEADING = 2      # heading, heading rate only


#: white-acceleration intensity of each axis: x, y, z (m/s^2)^2, heading (rad/s^2)^2
PROCESS_NOISE = (1.0 ** 2,) * 3 + (0.5 ** 2,)
#: added to the detection variance in the VIO position chain, m^2
VIO_DELTA_VARIANCE = 0.05 ** 2
#: rotated VIO velocity, (m/s)^2
VIO_VELOCITY_VARIANCE = 0.1 ** 2
#: VIO heading (rad^2) and heading rate ((rad/s)^2)
HEADING_VARIANCE = (0.05 ** 2, 0.05 ** 2)
#: variances of a full VIO measurement after its three position components
_VIO_RATE_HEADING_VARIANCE = (VIO_VELOCITY_VARIANCE,) * 3 + HEADING_VARIANCE
#: prior variances of the axes' values (x, y, z in m^2, heading in rad^2) and
#: of their rates at initialization
INIT_VALUE_VARIANCE = (0.3 ** 2,) * 3 + (0.2 ** 2,)
INIT_RATE_VARIANCE = (0.5 ** 2,) * 3 + (0.2 ** 2,)
#: Euclidean pre-gate, m
EUCLID_GATE = 2.0
#: 95% point of the chi-square distribution with 3 degrees of freedom
#: (Bar-Shalom, Li and Kirubarajan 2001, §5.4), as 2 * gammaincinv(1.5, 0.95)
GATE_CRITICAL = 7.814727903251179
#: default span of the measurement history, s
HISTORY_SPAN = 2.0


class TrackerState:
    """Filter state: stamp, (4, 2) mean and (4, 2, 2) covariance.

    Row ``a`` of the mean is axis ``a`` (x, y, z, heading) as (value, rate),
    the heading wrapped; ``covariance[a]`` is that pair's 2x2 covariance.
    Both are nested float lists, stored as given and read directly by
    ``predict``, ``update`` and ``innovation_gate``; ``mean``,
    ``covariance`` and the vector properties build arrays on request.  The
    constructor checks nothing: every state is built by the filter from
    records already checked where they entered the guider.
    """

    __slots__ = ("stamp", "_mean", "_cov")

    def __init__(self, stamp: float, mean: list, covariance: list):
        self.stamp, self._mean, self._cov = stamp, mean, covariance

    @property
    def mean(self) -> np.ndarray:
        return np.array(self._mean)

    @property
    def covariance(self) -> np.ndarray:
        return np.array(self._cov)

    @property
    def position(self) -> np.ndarray:
        return np.array([row[0] for row in self._mean[:3]])

    @property
    def velocity(self) -> np.ndarray:
        return np.array([row[1] for row in self._mean[:3]])

    @property
    def heading(self) -> float:
        return self._mean[_HEADING_AXIS][0]

    @property
    def heading_rate(self) -> float:
        return self._mean[_HEADING_AXIS][1]

    def pose(self, stamp: float) -> TimedPose:
        """The mean as a pose record stamped ``stamp``."""
        (x, vx), (y, vy), (z, vz), (heading, rate) = self._mean
        return TimedPose(stamp, x, y, z, heading, vx, vy, vz, rate)


class Measurement:
    """Stamped measurement with per-component noise variances (diagonal R).

    ``value`` and ``variance`` are float tuples in the element order of the
    kind's ``MeasurementKind`` comment, stored as given and read directly by
    ``update``.  The builders below and ``Guider.ingest_detections`` make
    them from checked records; the constructor checks nothing.
    """

    __slots__ = ("stamp", "kind", "value", "variance")

    def __init__(self, stamp: float, kind: MeasurementKind, value: tuple, variance: tuple):
        self.stamp, self.kind, self.value, self.variance = stamp, kind, value, variance


@dataclass(frozen=True)
class GateDecision:
    """Outcome of detection-to-estimate association."""

    mahalanobis_sq: float
    accepted: bool
    detection: Optional[Detection] = None   # the selected one, None without a candidate


def predict(state: TrackerState, dt: float) -> TrackerState:
    """Advance every axis's constant-velocity model by dt >= 0 seconds.

    Per axis, P' = F P F^T + q Q with F = [[1, dt], [0, 1]] and the
    continuous white-acceleration noise Q = [[dt^3/3, dt^2/2], [dt^2/2, dt]],
    q the axis's entry of ``PROCESS_NOISE``.  The four axes are written out
    as straight-line float arithmetic on the unpacked mean and blocks.
    """
    if dt < 0.0:
        raise ValueError(f"predict requires dt >= 0, got {dt}")
    if dt == 0.0:
        return state
    (x, vx), (y, vy), (z, vz), (h, vh) = state._mean
    (((a00, a01), (_, a11)), ((b00, b01), (_, b11)), ((c00, c01), (_, c11)),
     ((d00, d01), (_, d11))) = state._cov
    qx, qy, qz, qh = PROCESS_NOISE
    q2 = dt ** 2 / 2.0
    q3 = dt ** 3 / 3.0
    ea = a01 + dt * a11 + qx * q2
    eb = b01 + dt * b11 + qy * q2
    ec = c01 + dt * c11 + qz * q2
    ed = d01 + dt * d11 + qh * q2
    return TrackerState(
        state.stamp + dt,
        [[x + dt * vx, vx], [y + dt * vy, vy], [z + dt * vz, vz], [wrap_heading(h + dt * vh), vh]],
        [[[a00 + dt * (2.0 * a01 + dt * a11) + qx * q3, ea], [ea, a11 + qx * dt]],
         [[b00 + dt * (2.0 * b01 + dt * b11) + qy * q3, eb], [eb, b11 + qy * dt]],
         [[c00 + dt * (2.0 * c01 + dt * c11) + qz * q3, ec], [ec, c11 + qz * dt]],
         [[d00 + dt * (2.0 * d01 + dt * d11) + qh * q3, ed], [ed, d11 + qh * dt]]])


def _value_step(row: list, block: list, v: float, r: float) -> tuple[list, list]:
    """Scalar update of one axis by a measurement ``v`` of its value: the
    new (value, rate) row and 2x2 block, written exactly symmetric."""
    (m0, m1), ((p00, p01), (_, p11)) = row, block
    s = p00 + r   # innovation variance H P H^T + r
    if not s > 0.0:
        raise ValueError("singular innovation covariance")
    k0, k1, y = p00 / s, p01 / s, v - m0
    c01 = p01 - k0 * p01
    return [m0 + k0 * y, m1 + k1 * y], [[p00 - k0 * p00, c01], [c01, p11 - k1 * p01]]


def _value_rate_steps(row: list, block: list, v: float, w: float, rv: float, rw: float,
                      heading: bool = False) -> tuple[list, list]:
    """Scalar updates of one axis: the :func:`_value_step` by ``v``, then the
    step by ``w`` of its rate.  On the heading axis the value innovation and
    the final value are wrapped."""
    (m0, m1), ((p00, p01), (_, p11)) = row, block
    s = p00 + rv
    if not s > 0.0:
        raise ValueError("singular innovation covariance")
    y = v - m0
    if heading:
        y = wrap_heading(y)
    k0, k1 = p00 / s, p01 / s
    m0, m1, p00, p01, p11 = m0 + k0 * y, m1 + k1 * y, p00 - k0 * p00, p01 - k0 * p01, p11 - k1 * p01
    s = p11 + rw
    if not s > 0.0:
        raise ValueError("singular innovation covariance")
    k0, k1, y = p01 / s, p11 / s, w - m1
    m0, m1, p00, p01, p11 = m0 + k0 * y, m1 + k1 * y, p00 - k0 * p01, p01 - k0 * p11, p11 - k1 * p11
    return [wrap_heading(m0) if heading else m0, m1], [[p00, p01], [p01, p11]]


def update(state: TrackerState, z: Measurement) -> TrackerState:
    """Kalman correction, one scalar measurement component at a time.

    R is diagonal and the axes are decoupled, so each kind is a fixed series
    of scalar steps on single axes, with the bits of the sequential scalar
    update: ``VIO_FULL`` a value step and then a rate step on each of x, y,
    z and heading, ``LIDAR_POSITION`` a value step on x, y and z,
    ``VIO_HEADING`` a value and then a rate step on heading.  A step changes
    only its axis's row and 2x2 block, which are rebuilt (the block exactly
    symmetric); untouched axes share the input's lists.  The heading's value
    innovation and its updated value are wrapped.
    """
    if abs(z.stamp - state.stamp) > 1e-9:
        raise ValueError(
            f"measurement stamp {z.stamp} does not match state stamp {state.stamp}; "
            "predict first"
        )
    (mx, my, mz, mh), (cx, cy, cz, ch) = state._mean, state._cov
    if z.kind == MeasurementKind.VIO_FULL:
        (vx, vy, vz, wx, wy, wz, vh, wh), (rx, ry, rz, sx, sy, sz, rh, sh) = z.value, z.variance
        mx, cx = _value_rate_steps(mx, cx, vx, wx, rx, sx)
        my, cy = _value_rate_steps(my, cy, vy, wy, ry, sy)
        mz, cz = _value_rate_steps(mz, cz, vz, wz, rz, sz)
        mh, ch = _value_rate_steps(mh, ch, vh, wh, rh, sh, heading=True)
    elif z.kind == MeasurementKind.LIDAR_POSITION:
        (vx, vy, vz), (rx, ry, rz) = z.value, z.variance
        mx, cx = _value_step(mx, cx, vx, rx)
        my, cy = _value_step(my, cy, vy, ry)
        mz, cz = _value_step(mz, cz, vz, rz)
    else:
        mh, ch = _value_rate_steps(mh, ch, *z.value, *z.variance, heading=True)
    return TrackerState(state.stamp, [mx, my, mz, mh], [cx, cy, cz, ch])


def innovation_gate(state: TrackerState, detection: Detection) -> float:
    """Squared Mahalanobis distance of a detection from the predicted state."""
    r = detection.sigma ** 2
    d2 = 0.0
    for z, (x, _), ((p00, _), _) in zip(detection[1:4], state._mean, state._cov):
        y = z - x
        s = p00 + r
        if not s > 0.0:
            raise ValueError("singular innovation covariance")
        d2 += y * y / s
    return d2


def associate(detections: Sequence[Detection], state: TrackerState) -> GateDecision:
    """Select the detection nearest in Mahalanobis distance and gate it.

    Candidates within ``EUCLID_GATE`` of the predicted position compete; the
    lowest squared Mahalanobis distance among them is accepted when it is at
    most ``GATE_CRITICAL``.  Both distances are float arithmetic on the
    detections' fields and the state's mean.
    """
    best: Optional[Detection] = None
    best_d2 = math.inf
    (px, _), (py, _), (pz, _), _ = state._mean
    for det in detections:
        if math.hypot(det.x - px, det.y - py, det.z - pz) > EUCLID_GATE:
            continue
        d2 = innovation_gate(state, det)
        if d2 < best_d2:
            best_d2 = d2
            best = det
    if best is None:
        return GateDecision(math.inf, False)
    return GateDecision(best_d2, best_d2 <= GATE_CRITICAL, best)


def make_vio_measurement(
    vio: TimedPose,
    last_detection: Sequence[float],
    vio_at_detection: TimedPose,
    theta: float,
    drift_rate: Sequence[float] = (0.0, 0.0, 0.0),
    r_lv: Optional[np.ndarray] = None,
) -> Measurement:
    """Full 8-dim measurement from a VIO pose newer than the last detection.

    The poses are V-frame records and ``last_detection`` an L-frame
    :data:`~coopguide.geometry.DETECTION_FIELDS` record, a ``Detection`` or
    a buffer row; all are unpacked in field order.  Position chains the last
    detection with the V->L rotated VIO displacement since the detection
    stamp; velocity is the rotated VIO velocity; heading is the wrapped VIO
    heading less the aligned relative heading, wrapped.  The V-frame
    ``drift_rate`` (a 3-vector) co-estimated by the alignment is not motion:
    it is taken out of both.  ``theta`` is the heading of an accepted
    alignment.  ``r_lv``, when given, must be ``rot_z(-theta)``: a caller
    that holds one per alignment passes it instead of having it rebuilt.

    Everything but the two rotations is float arithmetic.  The rotations stay
    numpy matrix-vector products ``r_lv @ v``: numpy may round such a
    product with fused multiply-adds, which scalar Python cannot reproduce
    bit for bit.
    """
    stamp, x, y, z, heading, vx, vy, vz, heading_rate = vio
    det_stamp, lx, ly, lz, sigma, _ = last_detection
    if stamp < det_stamp - 1e-9:
        raise ValueError("VIO pose is older than the anchoring detection")
    if r_lv is None:
        r_lv = rot_z(-theta)
    stamp0, x0, y0, z0 = vio_at_detection[:4]
    dt = stamp - stamp0
    rx, ry, rz = drift_rate
    dx, dy, dz = (r_lv @ np.array([x - x0 - rx * dt, y - y0 - ry * dt, z - z0 - rz * dt])).tolist()
    r = sigma ** 2 + VIO_DELTA_VARIANCE
    return Measurement(
        stamp, MeasurementKind.VIO_FULL,
        (lx + dx, ly + dy, lz + dz, *(r_lv @ np.array([vx - rx, vy - ry, vz - rz])).tolist(),
         wrap_heading(wrap_heading(heading) - theta), heading_rate),
        (r, r, r) + _VIO_RATE_HEADING_VARIANCE)


def make_heading_measurement(vio: TimedPose, theta: float) -> Measurement:
    """Heading/heading-rate measurement from a VIO pose older than the last
    detection.  ``theta`` is the heading of an accepted alignment.  Like
    :func:`make_vio_measurement`, it wraps the pose's heading before
    subtracting ``theta``, so shifts by 2*pi*k change no bit.
    """
    return Measurement(
        vio.stamp, MeasurementKind.VIO_HEADING,
        (wrap_heading(wrap_heading(vio.heading) - theta), vio.heading_rate), HEADING_VARIANCE)


class HistoryBuffer:
    """Measurement log enabling exact filter re-runs for late arrivals.

    Entries are kept sorted by (stamp, kind); the posterior state after each
    entry is cached so an in-order arrival costs one predict/update and a
    late arrival recomputes only the suffix behind its insertion point —
    numerically identical to a full replay from the anchor.  Entries older
    than ``span`` behind the newest are marginalized into the anchor state.
    ``_keys`` holds each entry's (stamp, kind), parallel to ``entries`` and
    ``_posts``, so a binary search compares plain tuples.
    """

    def __init__(self, anchor_state: TrackerState, span: float = HISTORY_SPAN):
        self.anchor_state = anchor_state
        self.span = span
        self.entries: list[Measurement] = []
        self._keys: list[tuple[float, MeasurementKind]] = []
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
        keys = self._keys
        if keys and z.stamp < keys[-1][0] - self.span:
            raise StaleMeasurementError(
                f"measurement at {z.stamp:.6f} is too stale: more than "
                f"{self.span} s behind the newest entry"
            )
        key = (z.stamp, z.kind)
        idx = bisect.bisect_right(keys, key)
        keys.insert(idx, key)
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
        # (cutoff,) sorts before every key of stamp cutoff
        n = bisect.bisect_left(self._keys, (self._keys[-1][0] - self.span,))
        if n:
            self.anchor_state = self._posts[n - 1]
            del self.entries[:n], self._keys[:n], self._posts[:n]

    def estimate_at(self, t: float) -> TrackerState:
        """State at time t: replay through entries with stamp <= t, then predict."""
        if t < self.anchor_state.stamp:
            raise ValueError(
                f"query at {t:.6f} precedes the buffer anchor at "
                f"{self.anchor_state.stamp:.6f}"
            )
        idx = bisect.bisect_right(self._keys, (t, len(MeasurementKind)))
        state = self._posts[idx - 1] if idx > 0 else self.anchor_state
        return predict(state, max(0.0, t - state.stamp))


def try_initialize(
    per_track_buffers: dict[int, StampedColumns],
    vio_buffer: StampedColumns,
    align_config: AlignmentConfig = AlignmentConfig(),
) -> Optional[tuple[TrackerState, AlignmentResult, int]]:
    """Attempt estimate initialization from per-track detection buffers.

    The buffers hold :data:`~coopguide.geometry.DETECTION_FIELDS` records
    and ``vio_buffer`` :data:`~coopguide.geometry.POSE_FIELDS` records.  For
    each track in track-id order: build the window, skip it unless it holds
    ``MIN_CORRESPONDENCES`` pairs and is :func:`window_observable` at the
    noise of its seeding detection, solve it, and initialize from the first
    track whose solution passes :func:`degeneracy_check`: position from the
    seeding detection, velocity and heading from the rotated/shifted VIO
    pose at that stamp, covariance from ``INIT_VALUE_VARIANCE`` and
    ``INIT_RATE_VARIANCE``.  The seeding detection is the newest that the
    VIO buffer covers (at most ``STALE_TOLERANCE`` past its newest sample),
    so a lagging VIO link does not block initialization.  Returns None when
    no track is accepted.
    """
    for track_id in sorted(per_track_buffers):
        dets = per_track_buffers[track_id]
        arrays = build_correspondence_arrays(dets, vio_buffer, align_config)
        if arrays is None:
            continue
        # with a lagging VIO link the newest detections lie past its newest sample
        covered = int(dets.stamps.searchsorted(vio_buffer.newest_stamp + STALE_TOLERANCE,
                                               side="right"))
        if covered == 0:
            continue
        stamp, x, y, z, sigma, _ = dets.row(covered - 1)
        if not window_observable(arrays[1], sigma):
            continue
        result = solve_alignment_arrays(*arrays, align_config)
        if not degeneracy_check(result, align_config):
            continue
        try:
            *_, heading, vx, vy, vz, heading_rate = interpolate(vio_buffer, stamp)
        except StaleQueryError:
            continue
        theta = result.heading
        # co-estimated VIO drift rate (zero unless enabled) is not real motion
        rx, ry, rz = result.drift_rate.tolist()
        lvx, lvy, lvz = (rot_z(-theta) @ np.array([vx - rx, vy - ry, vz - rz])).tolist()
        mean = [[x, lvx], [y, lvy], [z, lvz], [wrap_heading(heading - theta), heading_rate]]
        cov = [[[p, 0.0], [0.0, q]] for p, q in zip(INIT_VALUE_VARIANCE, INIT_RATE_VARIANCE)]
        return TrackerState(stamp, mean, cov), result, track_id
    return None
