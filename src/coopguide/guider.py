"""Guidance orchestration: alignment + tracking + reference transformation.

The guider owns the estimation pipeline for one secondary agent: it buffers
raw detections per track id and VIO poses, each buffer a stamp-sorted
``StampedColumns`` that stores the ``Detection`` and ``TimedPose`` records as
they arrive, initializes the estimate by aligning detection tracks
against the VIO trajectory, keeps the estimate updated through the
history-buffered Kalman filter, periodically re-solves
the frame alignment, and transforms the not-yet-flown part of a desired
lidar-frame trajectory into the secondary agent's local frame for streaming.
The last accepted alignment supplies the heading and the co-estimated VIO
drift rate that every VIO measurement is corrected with.

Each reference tick makes one output: ``current_output(t)`` computes the
estimate, the status and the L->V transform once, and ``transform_and_stream``
streams the desired trajectory's batch (``Trajectory.streamed``) with that
output's transform.

Initialization and re-initialization are one path (``try_initialize`` over
the tracks that still produce detections; once a filter exists, only over
tracks with a detection newer than the last fused one, so an occlusion does
not reset the filter to a detection it already holds); realignment runs the
same alignment steps on the fused detections: build the window, test its
geometry with ``window_observable`` at the newest fused detection's noise,
solve, accept with ``degeneracy_check``.

Degenerate input streams map to explicit statuses:
    - detections stale        -> DEAD_RECKONING_VIO (position rides the VIO chain)
    - VIO stale               -> HEADING_FROZEN (heading states stop updating,
      streaming pauses: without fresh VIO there is no valid V-frame anchor)
    - non-finite VIO samples  -> dropped on ingest, so a stream of them reads
      as VIO stale
    - malformed detection batch -> ValueError, nothing changes (stamps that
      differ, a non-finite value, two detections of one track id)
    - duplicate sample/batch  -> dropped on ingest (a VIO sample or detection
      batch whose stamp is already buffered), so each is fused once
    - late detection batch    -> buffered in stamp order; the history buffer
      replays the filter through it
    - VIO lagging detections  -> a sample not newer than the newest fused
      detection chains from the newest fused detection stamped before it
    - last alignment rejected -> TRANSFORM_FROZEN (guidance continues with the
      previous transform)

The realignment period is the guider's one setting, passed as a float (the
scenario key ``guider.realign_period``); the staleness limits and the reject
limit are module constants.

All ingest and query calls must be externally serialized (single writer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
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
    DETECTION_FIELDS,
    POSE_FIELDS,
    Detection,
    Frame,
    StaleQueryError,
    StampedColumns,
    TimedPose,
    interpolate,
    rot_z,
    wrap_heading,
)
from .paths import Trajectory
from .tracker import (
    HistoryBuffer,
    Measurement,
    MeasurementKind,
    StaleMeasurementError,
    associate,
    make_heading_measurement,
    make_vio_measurement,
    try_initialize,
)


class GuiderError(RuntimeError):
    """Raised when output is requested from an uninitialized guider."""


class GuiderStatus(Enum):
    UNINITIALIZED = "uninitialized"
    TRACKING = "tracking"
    DEAD_RECKONING_VIO = "dead_reckoning_vio"
    HEADING_FROZEN = "heading_frozen"
    TRANSFORM_FROZEN = "transform_frozen"


@dataclass(frozen=True)
class GuiderOutput:
    """One reference tick's output.

    ``transform_l_to_s`` is the L->V transform as the floats ``(tx, ty, tz,
    theta)``, the field order of the EST and REF records: a point maps by
    ``rot_z(theta) @ p + (tx, ty, tz)``.
    """

    stamp: float
    secondary_pose_in_l: TimedPose
    transform_l_to_s: tuple[float, float, float, float]
    status: GuiderStatus


VIO_STALENESS = 0.5          # s without a VIO sample before HEADING_FROZEN
DETECTION_STALENESS = 1.0    # s without an accepted detection before DEAD_RECKONING_VIO
REINIT_REJECT_LIMIT = 3      # consecutive gate failures before re-init

#: statuses in which transformed references keep being streamed
_STREAMING_STATUSES = frozenset({
    GuiderStatus.TRACKING,
    GuiderStatus.DEAD_RECKONING_VIO,
    GuiderStatus.TRANSFORM_FROZEN,
})


class Guider:
    """Single-secondary guidance pipeline (see module docstring)."""

    def __init__(self, align_config: AlignmentConfig, realign_period: float):
        self.align_config = align_config
        self.realign_period = realign_period   # s between alignment re-solves
        self._buffer_span = align_config.window + 2.0   # s of records each buffer keeps
        # stamp-sorted record columns: POSE_FIELDS for VIO, DETECTION_FIELDS
        # for each track and for the fused detections
        self._track_buffers: dict[int, StampedColumns] = {}
        self._vio_buffer = StampedColumns(len(POSE_FIELDS))
        self._fused_detections = StampedColumns(len(DETECTION_FIELDS))
        self._history: Optional[HistoryBuffer] = None
        self._alignment: Optional[AlignmentResult] = None   # the last accepted solve
        # of the last accepted solve: heading, rot_z(-heading), drift rate floats
        self._correction: Optional[tuple[float, np.ndarray, tuple]] = None
        # newest fused detection record, VIO pose at its stamp, oldest VIO
        # stamp that pose depends on: see _vio_anchor
        self._anchor: Optional[tuple[list, Optional[TimedPose], float]] = None
        self._alignment_accepted = False
        self._next_alignment_time = -np.inf
        self._next_init_attempt = -np.inf
        self._consecutive_rejects = 0

    # ------------------------------------------------------------------ state

    @property
    def initialized(self) -> bool:
        return self._history is not None

    def status(self, t: float) -> GuiderStatus:
        # once initialized, both buffers hold at least one sample
        if self._history is None:
            return GuiderStatus.UNINITIALIZED
        if t - self._vio_buffer.newest_stamp > VIO_STALENESS:
            return GuiderStatus.HEADING_FROZEN
        if t - self._fused_detections.newest_stamp > DETECTION_STALENESS:
            return GuiderStatus.DEAD_RECKONING_VIO
        if not self._alignment_accepted:
            return GuiderStatus.TRANSFORM_FROZEN
        return GuiderStatus.TRACKING

    # ----------------------------------------------------------------- ingest

    def ingest_detections(self, detections: Sequence[Detection]) -> None:
        """Feed one batch of detections (all tracked objects) sharing one
        stamp, at most one per track id, every value finite; any other batch
        raises ValueError, changing nothing.

        Arrival order may differ from stamps: the buffers stay sorted by
        stamp.  A batch whose stamp a track buffer already holds is a
        duplicate delivery and is dropped, changing nothing.
        """
        if not detections:
            return
        stamp = detections[0].stamp
        if any(det.stamp != stamp for det in detections):
            raise ValueError("a detection batch must share one stamp")
        if not all(math.isfinite(value) for det in detections for value in det):
            raise ValueError("a detection batch must hold finite values only")
        if len({det.track_id for det in detections}) < len(detections):
            raise ValueError("a detection batch must hold one detection per track id")
        buffers = self._track_buffers
        if any(det.track_id in buffers and buffers[det.track_id].holds(stamp)
               for det in detections):
            return
        detections = sorted(detections, key=lambda d: d.track_id)
        for det in detections:
            buf = buffers.get(det.track_id)
            if buf is None:
                buf = buffers[det.track_id] = StampedColumns(len(DETECTION_FIELDS))
            buf.insert(det)
            buf.prune(buf.newest_stamp - self._buffer_span)
        if self._history is None:
            # alignment solves are not free: retry at most every 0.3 s
            if stamp >= self._next_init_attempt:
                self._next_init_attempt = stamp + 0.3
                self._initialize(stamp)
            return

        try:
            predicted = self._history.estimate_at(stamp)
        except ValueError:
            return  # batch predates the buffer anchor: too stale to use
        decision = associate(detections, predicted)
        if decision.accepted:
            det = decision.detection
            r = det.sigma ** 2
            z = Measurement(stamp, MeasurementKind.LIDAR_POSITION, det[1:4], (r,))
            try:
                self._history.insert(z)
            except StaleMeasurementError:
                return
            fused = self._fused_detections
            if fused.insert(det) == len(fused) - 1:
                self._anchor = None   # a new newest fused detection
            fused.prune(fused.newest_stamp - self._buffer_span)
            self._consecutive_rejects = 0
        else:
            self._consecutive_rejects += 1
            if self._consecutive_rejects >= REINIT_REJECT_LIMIT:
                # Persistent gate failures while detections keep arriving:
                # either the estimate diverged or the gated detections are
                # false targets.  Let the alignment decide: re-initialize only
                # from a live track whose trajectory matches the VIO buffer.
                self._consecutive_rejects = 0
                self._initialize(stamp)

    def ingest_vio(self, pose: TimedPose) -> None:
        """Feed one VIO pose sample (arrival order may differ from stamps).

        A sample with a non-finite value is dropped before it is buffered, so
        it cannot turn the filter state to NaN; a stream of them reads as
        stale VIO (HEADING_FROZEN).  A sample whose stamp is already buffered
        is a duplicate delivery and is dropped too.
        """
        if not all(map(math.isfinite, pose)):
            return
        buf = self._vio_buffer
        i = buf.insert(pose)
        if i is None:
            return
        late = i < len(buf) - 1
        cutoff = buf.newest_stamp - self._buffer_span
        buf.prune(cutoff)
        if self._anchor is not None and (late or cutoff > self._anchor[2]):
            # a late sample may fall between the samples the anchor was
            # interpolated from, and the prune may have dropped the older one
            self._anchor = None

        if self._history is None:
            return
        theta, r_lv, drift_rate = self._correction
        if pose.stamp > self._fused_detections.newest_stamp:
            last_det, vio_at_det = self._vio_anchor()
        else:
            # a lagging VIO link: a newer detection is fused already
            last_det, vio_at_det = self._anchor_before(pose.stamp)
        try:
            if vio_at_det is not None:
                z = make_vio_measurement(pose, last_det, vio_at_det, theta, drift_rate, r_lv)
            else:
                # no fused detection before the sample, or it lies outside
                # the VIO buffer: heading-only measurement
                z = make_heading_measurement(pose, theta)
            self._history.insert(z)
        except StaleMeasurementError:
            pass  # over-delayed sample: skip, streams continue

        if pose.stamp >= self._next_alignment_time:
            self._realign(pose.stamp)

    def _vio_anchor(self) -> tuple[list, Optional[TimedPose]]:
        """The newest fused detection record (a row of the fused buffer) and
        the VIO pose interpolated at its stamp, None when the stamp lies
        outside the VIO buffer.

        Called only once a VIO sample newer than the detection is buffered,
        so the pose depends on the samples from the one at or before the
        stamp onward and never on appended ones.  It is cached until the
        newest fused detection changes, a sample arrives out of order or
        pruning removes that sample (see ``ingest_vio`` and
        ``ingest_detections``).
        """
        if self._anchor is None:
            buf = self._vio_buffer
            det = self._fused_detections.row(-1)
            stamp = det[0]
            try:
                vio_at_det = interpolate(buf, stamp)
            except StaleQueryError:
                vio_at_det = None
            stamps = buf.stamps
            oldest = stamps[max(int(stamps.searchsorted(stamp, side="right")) - 1, 0)]
            self._anchor = (det, vio_at_det, float(oldest))
        return self._anchor[0], self._anchor[1]

    def _anchor_before(self, stamp: float) -> tuple[Optional[list], Optional[TimedPose]]:
        """The newest fused detection record stamped before ``stamp`` and the
        VIO pose interpolated at its stamp; None for the record when there is
        none, None for the pose when its stamp lies outside the VIO buffer.
        Not cached: a lagging link reads a different detection per sample.
        """
        fused = self._fused_detections
        i = int(fused.stamps.searchsorted(stamp)) - 1
        if i < 0:
            return None, None
        det = fused.row(i)
        try:
            return det, interpolate(self._vio_buffer, det[0])
        except StaleQueryError:
            return det, None

    # ------------------------------------------------------------ initialization

    def _initialize(self, now: float) -> None:
        """(Re-)initialize from tracks that are still producing detections
        and, once a filter exists, hold one newer than the last fused one."""
        stale_after = now - DETECTION_STALENESS
        last_fused = (self._fused_detections.newest_stamp if self._history is not None
                      else -math.inf)
        fresh = {tid: buf for tid, buf in self._track_buffers.items()
                 if buf.newest_stamp >= stale_after and buf.newest_stamp > last_fused}
        if not fresh:
            return
        out = try_initialize(fresh, self._vio_buffer, self.align_config)
        if out is not None:
            self._adopt(*out)

    def _adopt(self, state, result, track_id: int) -> None:
        self._history = HistoryBuffer(state)
        self._accept(result)
        self._alignment_accepted = True
        self._next_alignment_time = state.stamp + self.realign_period
        self._fused_detections = self._track_buffers[track_id].copy()
        self._anchor = None
        self._consecutive_rejects = 0

    def _accept(self, result: AlignmentResult) -> None:
        self._alignment = result
        theta = result.heading
        self._correction = (theta, rot_z(-theta), tuple(result.drift_rate.tolist()))

    def _realign(self, now: float) -> None:
        self._next_alignment_time = now + self.realign_period
        config = self.align_config
        fused = self._fused_detections
        arrays = build_correspondence_arrays(fused, self._vio_buffer, config)
        *_, sigma, _ = fused.row(-1)
        if arrays is None or not window_observable(arrays[1], sigma):
            self._alignment_accepted = False
            return
        result = solve_alignment_arrays(*arrays, config)
        self._alignment_accepted = degeneracy_check(result, config)
        if self._alignment_accepted:
            self._accept(result)

    # ------------------------------------------------------------------ output

    def current_output(self, t: float) -> GuiderOutput:
        """The estimate at ``t``, the status and the L->V transform of this
        reference tick; raises GuiderError when uninitialized.

        The transform composes the estimated secondary pose in L with the
        secondary's own newest VIO pose, both at that pose's stamp, so the
        mapping follows VIO drift at the filter rate instead of lagging with
        the windowed alignment.
        """
        if self._history is None:
            raise GuiderError("guider is uninitialized: no accepted alignment yet")
        stamp, x, y, z, heading = self._vio_buffer.row(-1)[:5]
        try:
            est = self._history.estimate_at(stamp)
        except ValueError:
            est = self._history.latest_state
        _, ex, ey, ez, est_heading = est.pose(stamp)[:5]
        theta = wrap_heading(heading - est_heading)
        c, s = np.cos(theta), np.sin(theta)
        transform = (float(x - (c * ex - s * ey)), float(y - (s * ex + c * ey)),
                     z - ez, theta)
        return GuiderOutput(t, self._history.estimate_at(t).pose(t), transform, self.status(t))

    def transform_and_stream(self, desired: Trajectory,
                             output: GuiderOutput) -> Optional[Trajectory]:
        """Transform the unflown suffix of ``desired`` into the secondary's frame.

        ``output`` is the tick's ``current_output``.  Points stamped before
        ``output.stamp`` are dropped (already completed); the remaining points
        within the streaming horizon are mapped through
        ``output.transform_l_to_s``.  Returns None when ``output.status``
        pauses streaming (stale VIO).
        """
        if desired.frame != Frame.LIDAR:
            raise ValueError("desired trajectory must be given in the lidar frame")
        if output.status not in _STREAMING_STATUSES:
            return None
        *translation, heading = output.transform_l_to_s
        return desired.streamed(output.stamp, translation, heading)
