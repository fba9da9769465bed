"""Record buffers built from lists of records, and the filter and
interpolation steps as the pipeline takes them, for tests."""

from typing import Iterable

from coopguide.geometry import (
    DETECTION_FIELDS,
    POSE_FIELDS,
    STALE_TOLERANCE,
    Detection,
    StaleQueryError,
    StampedColumns,
    TimedPose,
    wrap_heading,
)
from coopguide.tracker import HistoryBuffer, Measurement, TrackerState, innovation, update


def pose_columns(poses: Iterable[TimedPose]) -> StampedColumns:
    """A VIO pose buffer holding ``poses`` (any order; a repeated stamp is
    dropped)."""
    buf = StampedColumns(len(POSE_FIELDS))
    for pose in poses:
        buf.insert(pose)
    return buf


def detection_columns(detections: Iterable[Detection]) -> StampedColumns:
    """A detection buffer holding ``detections`` (any order; a repeated stamp
    is dropped)."""
    buf = StampedColumns(len(DETECTION_FIELDS))
    for det in detections:
        buf.insert(det)
    return buf


def corrected(state: TrackerState, z: Measurement) -> TrackerState:
    """``update`` of ``state`` by ``z``, its innovation computed afresh."""
    return update(state, innovation(state, z.lidar, z.vio, z.variance))


def fuse(history: HistoryBuffer, z: Measurement) -> TrackerState:
    """``history.insert`` of ``z`` as the guider makes it: with the prior
    ``estimate_at`` its stamp and that prior's innovation of ``z``."""
    prior = history.estimate_at(z.stamp)
    return history.insert(z, prior, innovation(prior, z.lidar, z.vio, z.variance))


def interpolate_pose(buffer: StampedColumns, t: float) -> TimedPose:
    """All nine fields of a pose buffer linearly interpolated at ``t``: the
    reference for the position that ``geometry.interpolate`` returns.

    Between two records position, velocity and heading rate interpolate as
    ``a + u * (b - a)`` in floats and the heading follows the shortest arc;
    at a buffered stamp the record comes back; queries up to
    ``STALE_TOLERANCE`` outside the span are clamped to the nearest end.
    """
    if not len(buffer):
        raise StaleQueryError("stale query: empty pose buffer")
    stamps = buffer.stamps
    first, last = float(stamps[0]), float(stamps[-1])
    if t < first - STALE_TOLERANCE or t > last + STALE_TOLERANCE:
        raise StaleQueryError(f"stale query: t={t:.6f} outside [{first:.6f}, {last:.6f}]")
    if t <= first:
        row = buffer.row(0)
    elif t >= last:
        row = buffer.row(-1)
    else:
        hi = int(stamps.searchsorted(t))
        row = buffer.row(hi)
        if stamps[hi] != t:
            s0, ax, ay, az, h0, vx, vy, vz, r0 = buffer.row(hi - 1)
            s1, bx, by, bz, h1, wx, wy, wz, r1 = row
            u = (t - s0) / (s1 - s0)
            return TimedPose(
                t, ax + u * (bx - ax), ay + u * (by - ay), az + u * (bz - az),
                wrap_heading(h0 + u * wrap_heading(h1 - h0)),
                vx + u * (wx - vx), vy + u * (wy - vy), vz + u * (wz - vz),
                r0 + u * (r1 - r0),
            )
    return TimedPose(t, *row[1:])
