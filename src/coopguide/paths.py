"""The desired path in frame L: built from the config (``generate_trajectory``),
streamed in batches (``Trajectory.streamed``) and measured against
(``ReferencePath``, shared by the abort check and the evaluation).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Frame, rot_z, wrap_heading

STREAM_HORIZON = 10.0        # s of trajectory transmitted per stream


class Trajectory:
    """Stamped position + heading references in a named frame, as arrays.

    ``stamps`` (N,) strictly increasing, ``positions`` (N, 3), ``headings``
    (N,) wrapped to (-pi, pi]; every value finite.  The constructor checks
    this; slices and transforms of a checked trajectory skip the checks.
    """

    __slots__ = ("frame", "stamps", "positions", "headings")

    def __init__(self, frame: Frame, stamps, positions, headings):
        stamps = np.asarray(stamps, dtype=float)
        positions = np.asarray(positions, dtype=float)
        headings = np.asarray(headings, dtype=float)
        n = stamps.shape[0] if stamps.ndim == 1 else -1
        if stamps.shape != (n,) or positions.shape != (n, 3) or headings.shape != (n,):
            raise ValueError(
                f"trajectory needs stamps (N,), positions (N, 3) and headings (N,), got "
                f"{stamps.shape}, {positions.shape} and {headings.shape}")
        if not (np.all(np.isfinite(stamps)) and np.all(np.isfinite(positions))):
            raise ValueError("non-finite trajectory stamp or position")
        if not np.all(stamps[1:] > stamps[:-1]):
            raise ValueError("trajectory stamps must be strictly increasing")
        self.frame, self.stamps, self.positions = frame, stamps, positions
        self.headings = wrap_heading(headings)

    @classmethod
    def _unchecked(cls, frame: Frame, stamps, positions, headings) -> "Trajectory":
        """Wrap arrays derived from a checked trajectory: no copy, no checks."""
        traj = cls.__new__(cls)
        traj.frame, traj.stamps, traj.positions, traj.headings = frame, stamps, positions, headings
        return traj

    def __len__(self) -> int:
        return len(self.stamps)

    def slice_window(self, start: float, end: float) -> "Trajectory":
        """Points with start <= stamp <= end (binary search, inclusive).

        The result's arrays are views into this trajectory's arrays.
        """
        lo = self.stamps.searchsorted(start, side="left")
        hi = self.stamps.searchsorted(end, side="right")
        return Trajectory._unchecked(self.frame, self.stamps[lo:hi], self.positions[lo:hi],
                                     self.headings[lo:hi])

    def mapped(self, translation, heading: float) -> "Trajectory":
        """This L-frame trajectory mapped into V by ``Rz(heading) @ p + translation``."""
        return Trajectory._unchecked(Frame.VIO, self.stamps,
                                     self.positions @ rot_z(heading).T + translation,
                                     wrap_heading(self.headings + heading))

    def streamed(self, stamp: float, translation, heading: float) -> "Trajectory":
        """The batch streamed at ``stamp``: the points within [stamp, stamp +
        STREAM_HORIZON] mapped into V.  Every streamed batch is made here, so
        a batch is rebuilt bit for bit from its stamp and transform."""
        return self.slice_window(stamp, stamp + STREAM_HORIZON).mapped(translation, heading)


def generate_trajectory(values) -> Trajectory:
    """Desired secondary-agent trajectory in frame L from the config."""
    pattern = values["trajectory.pattern"]
    speed = values["trajectory.speed"]
    spacing = values["trajectory.spacing"]
    start = values["trajectory.start"]
    cx, cy, cz = values["trajectory.center"]
    if pattern == "circle":
        radius = values["trajectory.radius"]
        laps = values["trajectory.laps"]
        total = laps * 2.0 * math.pi * radius / speed
        omega = speed / radius
        offsets = [k * spacing for k in range(int(math.floor(total / spacing)) + 1)]
        angles = [omega * ts for ts in offsets]
        return Trajectory(
            Frame.LIDAR,
            [start + ts for ts in offsets],
            [(cx + radius * math.cos(ang), cy + radius * math.sin(ang), cz) for ang in angles],
            [ang + math.pi / 2 for ang in angles],
        )
    if pattern == "eight":
        radius = values["trajectory.radius"]
        laps = values["trajectory.laps"]
        # Gerono lemniscate, arc-length parameterized numerically.
        u = np.linspace(0.0, 2.0 * math.pi, 4001)
        x = radius * np.sin(u)
        y = radius * np.sin(u) * np.cos(u)
        seg = np.hypot(np.diff(x), np.diff(y))
        arc = np.concatenate([[0.0], np.cumsum(seg)])
        lap_len = arc[-1]
        total = laps * lap_len / speed
        offsets = [k * spacing for k in range(int(math.floor(total / spacing)) + 1)]
        params = [float(np.interp((speed * ts) % lap_len, arc, u)) for ts in offsets]
        return Trajectory(
            Frame.LIDAR,
            [start + ts for ts in offsets],
            [(cx + radius * math.sin(ui), cy + radius * math.sin(ui) * math.cos(ui), cz)
             for ui in params],
            [math.atan2(math.cos(2.0 * ui), math.cos(ui)) for ui in params],
        )
    # waypoints: constant-speed polyline
    wp = np.asarray(values["trajectory.waypoints"], dtype=float)  # >= 2, ScenarioConfig checks
    seg_vec = np.diff(wp, axis=0)
    seg_len = np.linalg.norm(seg_vec, axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = arc[-1] / speed
    offsets = [k * spacing for k in range(int(math.floor(total / spacing)) + 1)]
    positions, headings = [], []
    for ts in offsets:
        s = min(speed * ts, arc[-1])
        i = min(int(np.searchsorted(arc, s, side="right")) - 1, len(seg_len) - 1)
        u = (s - arc[i]) / seg_len[i] if seg_len[i] > 0 else 0.0
        positions.append(wp[i] + u * seg_vec[i])
        headings.append(math.atan2(seg_vec[i][1], seg_vec[i][0]))
    return Trajectory(Frame.LIDAR, [start + ts for ts in offsets], positions, headings)


class ReferencePath:
    """Geometric form of the desired path for point-to-path distance queries."""

    def __init__(self, values, trajectory: Trajectory):
        self.kind = values["trajectory.pattern"]
        if self.kind == "circle":
            self.center = np.asarray(values["trajectory.center"], float)
            self.radius = values["trajectory.radius"]
            self.polyline = None
        else:
            self.polyline = trajectory.positions
            self.center = None
            self.radius = 0.0

    def distance(self, point: np.ndarray) -> float:
        if self.kind == "circle":
            dxy = math.hypot(point[0] - self.center[0], point[1] - self.center[1])
            dz = point[2] - self.center[2]
            return math.hypot(dxy - self.radius, dz)
        return polyline_distance(self.polyline, point)


def polyline_distance(polyline: np.ndarray, point: np.ndarray) -> float:
    """Minimum distance from a point to an (N,3) polyline; a one-point
    polyline is its vertex."""
    if len(polyline) == 1:
        return float(np.linalg.norm(polyline[0] - point))
    a = polyline[:-1]
    b = polyline[1:]
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    denom[denom == 0.0] = 1.0
    u = np.clip(np.einsum("ij,ij->i", point - a, ab) / denom, 0.0, 1.0)
    proj = a + u[:, None] * ab
    d = np.linalg.norm(proj - point, axis=1)
    return float(d.min())
