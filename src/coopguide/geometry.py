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


class FrameError(ValueError):
    """Raised when quantities from different frames are mixed."""


class StaleQueryError(ValueError):
    """Raised when a time query falls outside a buffer beyond tolerance."""


def wrap_heading(angle):
    """Wrap an angle (scalar or ndarray) to the half-open interval (-pi, pi].

    Raises ValueError on non-finite input.
    """
    if isinstance(angle, np.ndarray):
        if not np.all(np.isfinite(angle)):
            raise ValueError("non-finite heading angle")
        wrapped = angle - TWO_PI * np.ceil((angle - math.pi) / TWO_PI)
        # ceil maps the upper boundary exactly: angle = pi stays pi.
        return wrapped
    if not math.isfinite(angle):
        raise ValueError(f"non-finite heading angle: {angle!r}")
    if -math.pi < angle <= math.pi:
        return angle
    return angle - TWO_PI * math.ceil((angle - math.pi) / TWO_PI)


def heading_difference(a: float, b: float) -> float:
    """Shortest signed angular distance a - b, wrapped to (-pi, pi]."""
    return wrap_heading(a - b)


def rot_z(heading: float) -> np.ndarray:
    """3x3 rotation matrix about the gravity (z) axis."""
    c = math.cos(heading)
    s = math.sin(heading)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_z_deriv(heading: float) -> np.ndarray:
    """Derivative of rot_z with respect to the heading angle."""
    c = math.cos(heading)
    s = math.sin(heading)
    return np.array([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class RelativeTransform:
    """Gravity-aligned 4-DOF transform between two frames.

    Maps source-frame coordinates into the target frame:
    ``x_target = Rz(heading) @ x_source + translation``.

    ``final_cost`` and ``min_eigenvalue`` carry estimation metadata when the
    transform came out of the sliding-window alignment; they are 0.0 for
    transforms constructed by hand.
    """

    translation: np.ndarray
    heading: float
    source_frame: Frame
    target_frame: Frame
    stamp: float = 0.0
    valid: bool = True
    final_cost: float = 0.0
    min_eigenvalue: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("non-finite translation")
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "heading", wrap_heading(float(self.heading)))

    @classmethod
    def identity(cls, source: Frame, target: Frame, stamp: float = 0.0) -> "RelativeTransform":
        return cls(np.zeros(3), 0.0, source, target, stamp=stamp)

    @property
    def rotation(self) -> np.ndarray:
        return rot_z(self.heading)

    def apply(self, x) -> np.ndarray:
        """Map a 3-vector from the source frame to the target frame."""
        if not self.valid:
            raise ValueError("cannot apply an invalid transform")
        x = np.asarray(x, dtype=float)
        return self.rotation @ x + self.translation

    def apply_heading(self, heading: float) -> float:
        """Map a source-frame heading angle into the target frame."""
        if not self.valid:
            raise ValueError("cannot apply an invalid transform")
        return wrap_heading(heading + self.heading)

    def inverse(self) -> "RelativeTransform":
        """Transform mapping target-frame coordinates back to the source frame."""
        r_inv = rot_z(-self.heading)
        return RelativeTransform(
            translation=-(r_inv @ self.translation),
            heading=-self.heading,
            source_frame=self.target_frame,
            target_frame=self.source_frame,
            stamp=self.stamp,
            valid=self.valid,
            final_cost=self.final_cost,
            min_eigenvalue=self.min_eigenvalue,
        )

    def compose(self, inner: "RelativeTransform") -> "RelativeTransform":
        """Composition self ∘ inner: first apply ``inner``, then ``self``.

        Frames must chain: inner maps A->B, self maps B->C, result maps A->C.
        """
        if inner.target_frame != self.source_frame:
            raise FrameError(
                f"cannot compose {self.source_frame.value}->{self.target_frame.value} "
                f"after {inner.source_frame.value}->{inner.target_frame.value}"
            )
        return RelativeTransform(
            translation=self.rotation @ inner.translation + self.translation,
            heading=self.heading + inner.heading,
            source_frame=inner.source_frame,
            target_frame=self.target_frame,
            stamp=max(self.stamp, inner.stamp),
            valid=self.valid and inner.valid,
        )


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
    u = (t - a.stamp) / (b.stamp - a.stamp)
    heading = wrap_heading(a.heading + u * heading_difference(b.heading, a.heading))
    return TimedPose(
        stamp=t,
        frame=a.frame,
        position=a.position + u * (b.position - a.position),
        heading=heading,
        velocity=a.velocity + u * (b.velocity - a.velocity),
        heading_rate=a.heading_rate + u * (b.heading_rate - a.heading_rate),
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
