"""Constant-velocity tracking of the secondary agent in the lidar-SLAM frame.

Decoupled constant-velocity filters for x, y, z and heading, each over a
(value, rate) pair, fuse associated lidar detections with VIO-derived
measurements.  Diagonal priors, process noise that is block-diagonal over
the axes and measurements of single components with diagonal noise never
couple two axes, so this is exactly the 8-state filter over position,
velocity, heading and heading rate (the decoupled CV model of Bar-Shalom,
Li and Kirubarajan, *Estimation with Applications to Tracking and
Navigation*, 2001, §6) in closed-form 2x2 and scalar algebra.  The three
position axes share their process noise, their prior and every measurement
variance, so their 2x2 covariances are equal: the state holds one block for
x, y and z and one for heading.  Both kernels are straight-line float code:
``predict`` advances the eight mean entries and the two blocks, and
``update`` computes each block's series of scalar gains once and applies
them to the mean of every axis the measurement observes, with the bits of
the sequential scalar update.

Because detections arrive with processing delay and VIO samples with network
delay, measurements can reach the filter out of order; a recalculating
history buffer keeps recent measurements sorted by stamp and re-derives the
state from the oldest retained entry whenever a late measurement is inserted.

Measurement construction from VIO follows the loosely-coupled scheme: the
position measurement chains the newest fused detection stamped before the
VIO sample with the rotated VIO displacement since that detection, the
velocity measurement rotates the VIO velocity, both less the alignment's
co-estimated drift, and heading/heading rate subtract the aligned relative
heading.  A measurement holds float tuples, built in plain float arithmetic
except for the two rotations.

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


class StaleMeasurementError(ValueError):
    """Measurement older than the history buffer's anchor (excessive delay)."""


class MeasurementKind(IntEnum):
    """Measurement families; integer order is the same-stamp replay order."""

    LIDAR_POSITION = 0   # x, y, z from an associated detection
    VIO_FULL = 1         # x, y, z, vx, vy, vz, heading, heading rate
    VIO_HEADING = 2      # heading, heading rate only


#: white-acceleration intensity of the position axes, (m/s^2)^2, and of
#: heading, (rad/s^2)^2
PROCESS_NOISE = (1.0 ** 2, 0.5 ** 2)
#: added to the detection variance in the VIO position chain, m^2
VIO_DELTA_VARIANCE = 0.05 ** 2
#: rotated VIO velocity, (m/s)^2
VIO_VELOCITY_VARIANCE = 0.1 ** 2
#: VIO heading (rad^2) and heading rate ((rad/s)^2)
HEADING_VARIANCE = (0.05 ** 2, 0.05 ** 2)
#: prior variances at initialization of the values (position in m^2, heading
#: in rad^2) and of their rates
INIT_VALUE_VARIANCE = (0.3 ** 2, 0.2 ** 2)
INIT_RATE_VARIANCE = (0.5 ** 2, 0.2 ** 2)
#: Euclidean pre-gate, m
EUCLID_GATE = 2.0
#: 95% point of the chi-square distribution with 3 degrees of freedom
#: (Bar-Shalom, Li and Kirubarajan 2001, §5.4), as 2 * gammaincinv(1.5, 0.95)
GATE_CRITICAL = 7.814727903251179
#: default span of the measurement history, s
HISTORY_SPAN = 2.0


class TrackerState:
    """Filter state: stamp, flat mean and two symmetric 2x2 covariance blocks.

    ``_mean`` is the float 8-tuple ``(x, vx, y, vy, z, vz, heading,
    heading_rate)``, the heading wrapped.  ``_pos`` is the (value, rate)
    covariance ``(p00, p01, p11)`` that x, y and z share, ``_head`` that of
    heading.  All three are stored as given and read directly by
    ``predict``, ``update`` and ``innovation_gate``; ``mean`` (4, 2),
    ``covariance`` (4, 2, 2, the position block repeated for x, y and z) and
    the vector properties build arrays on request.  The constructor checks
    nothing: every state is built by the filter from records already checked
    where they entered the guider.
    """

    __slots__ = ("stamp", "_mean", "_pos", "_head")

    def __init__(self, stamp: float, mean: tuple, position_block: tuple, heading_block: tuple):
        self.stamp, self._mean, self._pos, self._head = stamp, mean, position_block, heading_block

    @property
    def mean(self) -> np.ndarray:
        return np.array(self._mean).reshape(4, 2)

    @property
    def covariance(self) -> np.ndarray:
        (a00, a01, a11), (d00, d01, d11) = self._pos, self._head
        position = [[a00, a01], [a01, a11]]
        return np.array([position, position, position, [[d00, d01], [d01, d11]]])

    @property
    def position(self) -> np.ndarray:
        return np.array(self._mean[0:6:2])

    @property
    def velocity(self) -> np.ndarray:
        return np.array(self._mean[1:6:2])

    @property
    def heading(self) -> float:
        return self._mean[6]

    @property
    def heading_rate(self) -> float:
        return self._mean[7]

    def pose(self, stamp: float) -> TimedPose:
        """The mean as a pose record stamped ``stamp``."""
        x, vx, y, vy, z, vz, heading, rate = self._mean
        return TimedPose(stamp, x, y, z, heading, vx, vy, vz, rate)


class Measurement:
    """Stamped measurement with diagonal noise, one variance per state block.

    ``value`` is a float tuple in the element order of the kind's
    ``MeasurementKind`` comment.  ``variance`` holds one float per observed
    component of a block, since x, y and z share theirs: ``(r,)`` for
    ``LIDAR_POSITION``, ``(r_position, r_velocity, r_heading, r_rate)`` for
    ``VIO_FULL`` and ``(r_heading, r_rate)`` for ``VIO_HEADING``.  Both are
    stored as given and read directly by ``update``.  The builders below and
    ``Guider.ingest_detections`` make them from checked records; the
    constructor checks nothing.
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

    Per block, P' = F P F^T + q Q with F = [[1, dt], [0, 1]] and the
    continuous white-acceleration noise Q = [[dt^3/3, dt^2/2], [dt^2/2, dt]],
    q the block's entry of ``PROCESS_NOISE``; each axis's mean moves by
    ``dt`` times its rate.  Straight-line float arithmetic on the unpacked
    mean and blocks.
    """
    if dt < 0.0:
        raise ValueError(f"predict requires dt >= 0, got {dt}")
    if dt == 0.0:
        return state
    x, vx, y, vy, z, vz, h, vh = state._mean
    (a00, a01, a11), (d00, d01, d11) = state._pos, state._head
    qa, qh = PROCESS_NOISE
    q2 = dt ** 2 / 2.0
    q3 = dt ** 3 / 3.0
    return TrackerState(
        state.stamp + dt,
        (x + dt * vx, vx, y + dt * vy, vy, z + dt * vz, vz, wrap_heading(h + dt * vh), vh),
        (a00 + dt * (2.0 * a01 + dt * a11) + qa * q3, a01 + dt * a11 + qa * q2, a11 + qa * dt),
        (d00 + dt * (2.0 * d01 + dt * d11) + qh * q3, d01 + dt * d11 + qh * q2, d11 + qh * dt))


def _value_gains(block: tuple, r: float) -> tuple[float, float, tuple]:
    """Gains (k0, k1) of a scalar measurement of the value with variance
    ``r``, and the updated ``(p00, p01, p11)`` block."""
    p00, p01, p11 = block
    s = p00 + r   # innovation variance H P H^T + r
    if not s > 0.0:
        raise ValueError("singular innovation covariance")
    k0, k1 = p00 / s, p01 / s
    return k0, k1, (p00 - k0 * p00, p01 - k0 * p01, p11 - k1 * p01)


def _value_rate_gains(block: tuple, rv: float, rw: float) -> tuple:
    """The :func:`_value_gains` ``(k0, k1)`` of a value measurement, then the
    gains ``(j0, j1)`` of a rate measurement with variance ``rw``, and the
    block after both steps."""
    k0, k1, (p00, p01, p11) = _value_gains(block, rv)
    s = p11 + rw
    if not s > 0.0:
        raise ValueError("singular innovation covariance")
    j0, j1 = p01 / s, p11 / s
    return k0, k1, j0, j1, (p00 - j0 * p01, p01 - j0 * p11, p11 - j1 * p11)


def update(state: TrackerState, z: Measurement) -> TrackerState:
    """Kalman correction, one scalar measurement component at a time.

    R is diagonal and the axes are decoupled, so each kind is a fixed series
    of scalar steps, with the bits of the sequential scalar update:
    ``VIO_FULL`` a value step and then a rate step on each of x, y, z and
    heading, ``LIDAR_POSITION`` a value step on x, y and z, ``VIO_HEADING``
    a value and then a rate step on heading.  A step's gains and new block
    depend only on the block and the variance, so x, y and z share them:
    each block's series is computed once and the gains are applied to the
    mean of each axis.  The heading's value innovation and its updated value
    are wrapped.  A block the measurement does not observe is passed on
    unchanged.
    """
    if abs(z.stamp - state.stamp) > 1e-9:
        raise ValueError(
            f"measurement stamp {z.stamp} does not match state stamp {state.stamp}; "
            "predict first"
        )
    px, vx, py, vy, pz, vz, h, vh = state._mean
    pos, head = state._pos, state._head
    if z.kind == MeasurementKind.LIDAR_POSITION:
        (ux, uy, uz), (r,) = z.value, z.variance
        k0, k1, pos = _value_gains(pos, r)
        ex, ey, ez = ux - px, uy - py, uz - pz
        return TrackerState(state.stamp, (px + k0 * ex, vx + k1 * ex, py + k0 * ey, vy + k1 * ey,
                                          pz + k0 * ez, vz + k1 * ez, h, vh), pos, head)
    if z.kind == MeasurementKind.VIO_FULL:
        (ux, uy, uz, wx, wy, wz, uh, wh), (rp, rv, rh, rr) = z.value, z.variance
        k0, k1, j0, j1, pos = _value_rate_gains(pos, rp, rv)
        ex, ey, ez = ux - px, uy - py, uz - pz
        px, py, pz, vx, vy, vz = (px + k0 * ex, py + k0 * ey, pz + k0 * ez,
                                  vx + k1 * ex, vy + k1 * ey, vz + k1 * ez)
        ex, ey, ez = wx - vx, wy - vy, wz - vz
        px, py, pz, vx, vy, vz = (px + j0 * ex, py + j0 * ey, pz + j0 * ez,
                                  vx + j1 * ex, vy + j1 * ey, vz + j1 * ez)
    else:
        (uh, wh), (rh, rr) = z.value, z.variance
    k0, k1, j0, j1, head = _value_rate_gains(head, rh, rr)
    e = wrap_heading(uh - h)
    h, vh = h + k0 * e, vh + k1 * e
    e = wh - vh
    h, vh = wrap_heading(h + j0 * e), vh + j1 * e
    return TrackerState(state.stamp, (px, vx, py, vy, pz, vz, h, vh), pos, head)


def innovation_gate(state: TrackerState, detection: Detection) -> float:
    """Squared Mahalanobis distance of a detection from the predicted state."""
    _, dx, dy, dz, sigma, _ = detection
    px, _, py, _, pz, _, _, _ = state._mean
    s = state._pos[0] + sigma ** 2   # the same on x, y and z
    if not s > 0.0:
        raise ValueError("singular innovation covariance")
    ex, ey, ez = dx - px, dy - py, dz - pz
    return ex * ex / s + ey * ey / s + ez * ez / s


def associate(detections: Sequence[Detection], state: TrackerState) -> GateDecision:
    """Select the detection nearest in Mahalanobis distance and gate it.

    Candidates within ``EUCLID_GATE`` of the predicted position compete; the
    lowest squared Mahalanobis distance among them is accepted when it is at
    most ``GATE_CRITICAL``.  Both distances are float arithmetic on the
    detections' fields and the state's mean.
    """
    best: Optional[Detection] = None
    best_d2 = math.inf
    px, _, py, _, pz, _, _, _ = state._mean
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
    """Full 8-dim measurement from a VIO pose not older than a detection.

    The poses are V-frame records and ``last_detection`` an L-frame
    :data:`~coopguide.geometry.DETECTION_FIELDS` record, a ``Detection`` or
    a buffer row; all are unpacked in field order.  Position chains the
    detection with the V->L rotated VIO displacement since the detection
    stamp; velocity is the rotated VIO velocity; heading is the wrapped VIO
    heading less the aligned relative heading, wrapped.  The V-frame
    ``drift_rate`` (a 3-vector) co-estimated by the alignment is not motion:
    it is taken out of both.  ``theta`` is the heading of an accepted
    alignment.  ``r_lv``, when given, must be ``rot_z(-theta)``: a caller
    that holds one per alignment passes it instead of having it rebuilt.
    The variance is ``(sigma^2 + VIO_DELTA_VARIANCE, VIO_VELOCITY_VARIANCE)
    + HEADING_VARIANCE``, one entry per observed component of a block.

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
        (r, VIO_VELOCITY_VARIANCE) + HEADING_VARIANCE)


def make_heading_measurement(vio: TimedPose, theta: float) -> Measurement:
    """Heading/heading-rate measurement from a VIO pose that cannot be
    chained to a fused detection: none is stamped before it, or the VIO
    buffer does not cover that detection's stamp.  ``theta`` is the heading
    of an accepted alignment.  Like :func:`make_vio_measurement`, it wraps
    the pose's heading before subtracting ``theta``, so shifts by 2*pi*k
    change no bit.
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
        mean = (x, lvx, y, lvy, z, lvz, wrap_heading(heading - theta), heading_rate)
        (pv, hv), (pr, hr) = INIT_VALUE_VARIANCE, INIT_RATE_VARIANCE
        return TrackerState(stamp, mean, (pv, 0.0, pr), (hv, 0.0, hr)), result, track_id
    return None
