"""Gravity-aligned 4-DOF transforms, heading arithmetic, stamped
record buffers, the position of a pose buffer at a stamp and the
extrapolation of a pose.

All frames are gravity-aligned (roll/pitch identically zero), so the only
rotational degree of freedom is the heading angle about the z axis and a
relative pose between two frames is fully described by a 3D translation plus
one heading angle.

Conventions:
    - The two frames are L (lidar-SLAM local frame of the primary agent)
      and V (VIO local frame of the secondary agent).
    - Nothing carries a frame label.  A pose (``TimedPose``), a detection
      (``Detection``) or a ``Trajectory`` is in the frame of the buffer,
      argument or producer that holds it: detections and the desired path
      are in L, VIO samples and streamed reference batches in V.
    - Heading angles are wrapped to the half-open interval (-pi, pi], so that
      every angle has a unique representative, wherever they are computed or
      read; a record keeps the heading it was given.
    - A transform is a translation t and a heading theta, kept as plain
      values: it maps source-frame coordinates to target-frame coordinates by
      x_target = rot_z(theta) @ x_source + t.
    - Timestamps are float seconds on a shared simulated clock.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

#: Tolerance (s) for interpolation queries slightly outside a buffer.
STALE_TOLERANCE = 0.1


class StaleQueryError(ValueError):
    """Raised when a time query falls outside a buffer beyond tolerance."""


def wrap_heading(angle):
    """Wrap an angle (scalar or ndarray) to the half-open interval (-pi, pi].

    Angles already in range come back unchanged, so an array and its
    elements one by one give the same bits.  Raises ValueError on non-finite
    input.  An in-range Python float, the common case, returns at the first
    test, and a non-empty array whose every angle is in range returns as it
    is: the result is the input array itself, not a copy.
    """
    if type(angle) is float and -math.pi < angle <= math.pi:
        return angle
    if isinstance(angle, np.ndarray):
        # NaN fails both comparisons and reaches the finiteness test
        if angle.size and angle.min() > -math.pi and angle.max() <= math.pi:
            return angle
        if not np.all(np.isfinite(angle)):
            raise ValueError("non-finite heading angle")
        # the shift formula alone would turn an in-range -0.0 into 0.0
        outside = (angle <= -math.pi) | (angle > math.pi)
        return np.where(outside, angle - TWO_PI * np.ceil((angle - math.pi) / TWO_PI), angle)
    if not math.isfinite(angle):
        raise ValueError(f"non-finite heading angle: {angle!r}")
    if -math.pi < angle <= math.pi:
        return angle
    return angle - TWO_PI * math.ceil((angle - math.pi) / TWO_PI)


def rot_z(heading: float) -> np.ndarray:
    """3x3 rotation matrix about the gravity (z) axis."""
    c = math.cos(heading)
    s = math.sin(heading)
    return np.array((c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0)).reshape(3, 3)


class TimedPose(NamedTuple):
    """Stamped position, heading, velocity and heading rate: one float record
    of :data:`POSE_FIELDS`.  A pose buffer stores it as it is."""

    stamp: float
    x: float
    y: float
    z: float
    heading: float = 0.0
    vx: float = 0.0
    vy: float = 0.0
    vz: float = 0.0
    heading_rate: float = 0.0


class Detection(NamedTuple):
    """Detected position of a tracked object with its noise: one float
    record of :data:`DETECTION_FIELDS`."""

    stamp: float
    x: float
    y: float
    z: float
    sigma: float
    track_id: int


#: the fields of a pose record, in column order
POSE_FIELDS = TimedPose._fields
#: the fields of a detection record, in column order
DETECTION_FIELDS = Detection._fields


class StampedColumns:
    """Records of floats kept sorted by strictly increasing stamp, by column.

    Field 0 of a record is its stamp (see :data:`POSE_FIELDS` and
    :data:`DETECTION_FIELDS`).  The records are the columns ``[start, end)``
    of a backing (fields, capacity) array: a record newer than all others is
    written into the next free column, an older one shifts the newer columns
    up by one, and pruning advances ``start``.  ``columns`` and ``stamps``
    are views that the next insert may overwrite.  ``newest_stamp`` is the
    newest record's stamp, -inf while the buffer is empty.
    """

    __slots__ = ("newest_stamp", "_data", "_start", "_end")

    def __init__(self, width: int, capacity: int = 64):
        self.newest_stamp = -math.inf
        self._data = np.empty((width, capacity))
        self._start = self._end = 0

    def __len__(self) -> int:
        return self._end - self._start

    @property
    def columns(self) -> np.ndarray:
        """(fields, N) view of the records, oldest first."""
        return self._data[:, self._start:self._end]

    @property
    def stamps(self) -> np.ndarray:
        return self._data[0, self._start:self._end]

    def row(self, i: int) -> list:
        """Record ``i`` (negative counts from the newest) as a list of floats."""
        n = self._end - self._start
        if not -n <= i < n:
            raise IndexError(f"record {i} of {n}")
        return self._data[:, self._start + i % n].tolist()

    def holds(self, stamp: float) -> bool:
        """Whether a record of stamp ``stamp`` is buffered."""
        if stamp > self.newest_stamp:
            return False
        stamps = self.stamps
        i = int(stamps.searchsorted(stamp))
        return i < len(stamps) and stamps[i] == stamp

    def insert(self, row: Sequence[float]) -> Optional[int]:
        """Buffer one record in stamp order; return its index, or None when
        its stamp is already buffered (a duplicate: nothing changes)."""
        stamp = row[0]
        end = self._end
        if stamp > self.newest_stamp:   # the common case: append
            i = end - self._start
            if end == self._data.shape[1]:
                self._make_room()
                end = self._end
            self._data[:, end] = row
            self._end = end + 1
            self.newest_stamp = float(stamp)
            return i
        if end == self._data.shape[1]:
            self._make_room()
        data, start, end = self._data, self._start, self._end
        i = start + int(data[0, start:end].searchsorted(stamp))
        if i < end and data[0, i] == stamp:
            return None
        data[:, i + 1:end + 1] = data[:, i:end]
        data[:, i] = row
        self._end = end + 1
        return i - start

    def prune(self, cutoff: float) -> None:
        """Drop the records stamped before ``cutoff``."""
        # a scalar scan: a prune usually drops no record or one
        start, end = self._start, self._end
        if start == end or not self._data[0, start] < cutoff:
            return
        stamps = self._data[0]
        start += 1
        while start < end and stamps[start] < cutoff:
            start += 1
        if start == end:
            self.newest_stamp = -math.inf
        self._start = start

    def copy(self) -> "StampedColumns":
        out = StampedColumns(self._data.shape[0], max(2 * len(self), 64))
        out._data[:, :len(self)] = self.columns
        out._end, out.newest_stamp = len(self), self.newest_stamp
        return out

    def _make_room(self) -> None:
        # compact in place while at most half full, else double the capacity
        n = len(self)
        width, capacity = self._data.shape
        data = self._data if 2 * n <= capacity else np.empty((width, 2 * capacity))
        data[:, :n] = self._data[:, self._start:self._end]
        self._data, self._start, self._end = data, 0, n


def interpolate(buffer: StampedColumns, t: float, max_gap: float) -> tuple[float, float, float]:
    """The position ``(x, y, z)`` of a pose buffer (:data:`POSE_FIELDS`) at
    time ``t``, as floats in the buffer's frame, from one search of its stamps.

    Between two records the position interpolates linearly, ``a + u * (b -
    a)`` per coordinate; at a buffered stamp the record's own position comes
    back.  Queries up to :data:`STALE_TOLERANCE` seconds outside the buffer
    span are clamped to the nearest endpoint (held, not extrapolated).
    Raises :class:`StaleQueryError` for a query further outside, and for one
    stamped strictly between two records more than ``max_gap`` seconds apart
    (an outage: the position would lie on the chord across it).
    """
    columns = buffer.columns
    stamps = columns[0]
    n = len(stamps)
    if not n:
        raise StaleQueryError("stale query: empty pose buffer")
    hi = int(stamps.searchsorted(t))
    if hi == n or stamps[hi] != t:
        if hi == 0 or hi == n:
            first, last = float(stamps[0]), float(stamps[-1])
            if t < first - STALE_TOLERANCE or t > last + STALE_TOLERANCE:
                raise StaleQueryError(
                    f"stale query: t={t:.6f} outside buffer span "
                    f"[{first:.6f}, {last:.6f}] by more than {STALE_TOLERANCE} s"
                )
            hi = min(hi, n - 1)
        else:
            (s0, s1), (ax, bx), (ay, by), (az, bz) = columns[:4, hi - 1:hi + 1].tolist()
            if s1 - s0 > max_gap:
                raise StaleQueryError(
                    f"stale query: t={t:.6f} inside an outage [{s0:.6f}, {s1:.6f}] "
                    f"longer than {max_gap} s"
                )
            u = (t - s0) / (s1 - s0)
            return ax + u * (bx - ax), ay + u * (by - ay), az + u * (bz - az)
    return tuple(columns[1:4, hi].tolist())


def extrapolate(pose: Sequence[float], t: float) -> TimedPose:
    """A pose record (:data:`POSE_FIELDS`) moved to time ``t`` as a
    coordinated turn: the heading turns at the record's heading rate, the
    planar velocity turns with it, and z moves at its rate (the
    coordinated-turn model; Bar-Shalom, Li and Kirubarajan 2001, ch. 11)."""
    stamp, x, y, z, heading, vx, vy, vz, rate = pose
    dt = t - stamp
    turn = rate * dt
    c, s = math.cos(turn), math.sin(turn)
    # the integrals of cos and sin of the turn angle over the step
    a, b = (dt, 0.0) if turn == 0.0 else (s / rate, (1.0 - c) / rate)
    return TimedPose(t, x + a * vx - b * vy, y + b * vx + a * vy, z + dt * vz,
                     wrap_heading(heading + turn), c * vx - s * vy, s * vx + c * vy, vz, rate)


def interp_columns(t: np.ndarray, stamps: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each column of ``values`` (N, k), sampled at ``stamps``, linearly
    interpolated at ``t`` (M,): an (M, k) array.  Like ``np.interp``, values
    are held at the ends, not extrapolated."""
    out = np.empty((len(t), values.shape[1]))
    for i in range(values.shape[1]):
        out[:, i] = np.interp(t, stamps, values[:, i])
    return out
