"""Frames, gravity-aligned 4-DOF transforms, heading arithmetic, interpolation.

Every stamped quantity in this package carries a frame label.  All frames are
gravity-aligned (roll/pitch identically zero), so the only rotational degree
of freedom is the heading angle about the z axis and a relative pose between
two frames is fully described by a 3D translation plus one heading angle.

Conventions:
    - Frames: W (world), L (lidar-SLAM local frame of the primary agent),
      V (VIO local frame of the secondary agent), P / S (body frames of the
      primary / secondary agent).
    - Heading angles live in the half-open interval (-pi, pi] so that every
      angle has a unique representative.
    - ``RelativeTransform(source, target)`` maps source-frame coordinates to
      target-frame coordinates: x_target = Rz(heading) @ x_source + translation.
    - Timestamps are float seconds on a shared simulated clock.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

#: Default tolerance (s) for interpolation queries slightly outside a buffer.
STALE_TOLERANCE = 0.1

#: ``bisect`` key for buffers of stamped records kept sorted by stamp.
stamp_key = attrgetter("stamp")


class Frame(str, Enum):
    """Reference frame labels."""

    WORLD = "W"
    LIDAR = "L"
    VIO = "V"
    PRIMARY_BODY = "P"
    SECONDARY_BODY = "S"


class StaleQueryError(ValueError):
    """Raised when a time query falls outside a buffer beyond tolerance."""


def wrap_heading(angle):
    """Wrap an angle (scalar or ndarray) to the half-open interval (-pi, pi].

    Angles already in range come back unchanged, so an array and its
    elements one by one give the same bits.  Raises ValueError on non-finite
    input.
    """
    if isinstance(angle, np.ndarray):
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


@dataclass(frozen=True)
class RelativeTransform:
    """Gravity-aligned 4-DOF transform between two frames.

    Maps source-frame coordinates into the target frame:
    ``x_target = Rz(heading) @ x_source + translation``.
    """

    translation: np.ndarray
    heading: float
    source_frame: Frame
    target_frame: Frame
    stamp: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("non-finite translation")
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "heading", wrap_heading(float(self.heading)))

    @property
    def rotation(self) -> np.ndarray:
        return rot_z(self.heading)


@dataclass(frozen=True)
class TimedPose:
    """Stamped position + heading + velocity + heading rate in a named frame."""

    stamp: float
    frame: Frame
    position: np.ndarray
    heading: float = 0.0
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    heading_rate: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float)
        v = np.asarray(self.velocity, dtype=float)
        if p.shape != (3,) or v.shape != (3,):
            raise ValueError("position and velocity must be 3-vectors")
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "velocity", v)
        object.__setattr__(self, "heading", wrap_heading(float(self.heading)))

    @classmethod
    def _unchecked(cls, stamp: float, frame: Frame, position: np.ndarray, heading: float,
                   velocity: np.ndarray, heading_rate: float) -> "TimedPose":
        """Wrap arrays and a wrapped heading derived from checked poses: no
        conversion, no checks."""
        pose = cls.__new__(cls)
        vars(pose).update(stamp=stamp, frame=frame, position=position, heading=heading,
                          velocity=velocity, heading_rate=heading_rate)
        return pose


@dataclass(frozen=True)
class Detection:
    """Detected 3D position of a tracked object in the lidar-SLAM frame."""

    stamp: float
    position: np.ndarray
    sigma: float
    track_id: int
    frame: Frame = Frame.LIDAR

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float)
        if p.shape != (3,):
            raise ValueError("detection position must be a 3-vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("non-finite detection position")
        object.__setattr__(self, "position", p)


def _lerp_pose(a: TimedPose, b: TimedPose, t: float) -> TimedPose:
    if b.stamp <= a.stamp:
        return a
    # a + u * (b - a) in floats, element by element: the same IEEE
    # operations as on the arrays, without a ufunc call per operation
    u = (t - a.stamp) / (b.stamp - a.stamp)
    heading = wrap_heading(a.heading + u * wrap_heading(b.heading - a.heading))
    (ax, ay, az), (bx, by, bz) = a.position.tolist(), b.position.tolist()
    (vx, vy, vz), (wx, wy, wz) = a.velocity.tolist(), b.velocity.tolist()
    return TimedPose._unchecked(
        t, a.frame,
        np.array([ax + u * (bx - ax), ay + u * (by - ay), az + u * (bz - az)]),
        heading,
        np.array([vx + u * (wx - vx), vy + u * (wy - vy), vz + u * (wz - vz)]),
        a.heading_rate + u * (b.heading_rate - a.heading_rate),
    )


def interpolate(buffer: Sequence[TimedPose], t: float, tolerance: float = STALE_TOLERANCE) -> TimedPose:
    """Linearly interpolate a time-sorted pose buffer at time ``t``.

    Position, velocity and heading rate interpolate linearly; heading follows
    the shortest angular arc.  Queries up to ``tolerance`` seconds outside the
    buffer span are clamped to the nearest endpoint (held, not extrapolated);
    anything further raises :class:`StaleQueryError`.
    """
    if not buffer:
        raise StaleQueryError("stale query: empty pose buffer")
    first, last = buffer[0], buffer[-1]
    if t < first.stamp - tolerance or t > last.stamp + tolerance:
        raise StaleQueryError(
            f"stale query: t={t:.6f} outside buffer span "
            f"[{first.stamp:.6f}, {last.stamp:.6f}] by more than {tolerance} s"
        )
    if t <= first.stamp:
        return replace(first, stamp=t) if t != first.stamp else first
    if t >= last.stamp:
        return replace(last, stamp=t) if t != last.stamp else last
    hi = bisect.bisect_left(buffer, t, key=stamp_key)
    if buffer[hi].stamp == t:
        return buffer[hi]
    return _lerp_pose(buffer[hi - 1], buffer[hi], t)


def interp_columns(t: np.ndarray, stamps: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each column of ``values`` (N, k), sampled at ``stamps``, linearly
    interpolated at ``t`` (M,): an (M, k) array.  Like ``np.interp``, values
    are held at the ends, not extrapolated."""
    return np.column_stack([np.interp(t, stamps, values[:, i]) for i in range(values.shape[1])])
