"""Record buffers built from lists of records, for tests."""

from typing import Iterable

from coopguide.geometry import (
    DETECTION_FIELDS,
    POSE_FIELDS,
    Detection,
    StampedColumns,
    TimedPose,
)


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
