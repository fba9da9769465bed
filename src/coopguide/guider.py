"""Guidance orchestration: frame initialization, the frame filter and
reference transformation.

The guider owns the estimation pipeline for one secondary agent: it buffers
raw detections per track id and VIO poses, each buffer a stamp-sorted
``StampedColumns`` that stores the ``Detection`` and ``TimedPose`` records as
they arrive, initializes the L->V frame by aligning detection tracks against
the VIO trajectory, keeps the frame updated through the history-buffered
frame filter (``tracker``), and transforms the not-yet-flown part of a
desired lidar-frame trajectory into the secondary agent's local frame for
streaming.  VIO is not a filter measurement: it is buffered, and each
detection is fused with the VIO position interpolated at its stamp.

Each reference tick makes one output: ``current_output(t)`` computes the
estimate, the status and the L->V transform once, and ``transform_and_stream``
streams the desired trajectory's batch (``Trajectory.streamed``) with that
output's transform.  The transform is the frame at the newest VIO stamp; the
secondary's pose in L is its newest VIO pose, extrapolated to t, mapped
through the frame at t.  The desired trajectory is in L because
``generate_trajectory`` builds it there; it carries no frame label to check.

Initialization and re-initialization are one path (``try_initialize`` over
the tracks that still produce detections; once a filter exists, only over
tracks with a detection newer than the last fused one, so an occlusion does
not reset the filter to a detection it already holds).  Realignment runs the
same alignment steps on the fused detections as a check: build the window,
test its geometry with ``window_observable`` at the newest fused detection's
noise, solve, accept with ``degeneracy_check``.  Its outcome sets the status
(TRACKING or TRANSFORM_FROZEN) and never touches the filter state.

Degenerate input streams map to explicit statuses:
    - detections stale        -> DEAD_RECKONING_VIO (the pose rides VIO
      through the predicted frame)
    - VIO stale               -> HEADING_FROZEN (streaming pauses: without
      fresh VIO there is no valid V-frame anchor)
    - non-finite VIO samples  -> dropped on ingest, so a stream of them reads
      as VIO stale
    - malformed detection batch -> ValueError, nothing changes (stamps that
      differ, a non-finite value, two detections of one track id)
    - duplicate sample/batch  -> dropped on ingest (a VIO sample or detection
      batch whose stamp is already buffered), so each is fused once
    - late detection batch    -> buffered in stamp order; the history buffer
      replays the filter through it
    - VIO lagging detections  -> a batch stamped after the newest VIO sample
      waits until ``ingest_vio`` buffers a sample at or after its stamp;
      waiting batches more than the history span older than the newest one
      are dropped, so a stale VIO link leaves a bounded list
    - last alignment rejected -> TRANSFORM_FROZEN (guidance continues with the
      filter's transform)

The realignment period is the guider's one setting, passed as a float (the
scenario key ``guider.realign_period``); the staleness limits and the reject
limit are module constants.

All ingest and query calls must be externally serialized (single writer).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Optional, Sequence

from .alignment import (
    AlignmentConfig,
    build_correspondence_arrays,
    degeneracy_check,
    solve_alignment_arrays,
    window_observable,
)
from .geometry import (
    DETECTION_FIELDS,
    POSE_FIELDS,
    Detection,
    StampedColumns,
    TimedPose,
    extrapolate,
    interpolate,
)
from .paths import Trajectory
from .tracker import (
    HistoryBuffer,
    Measurement,
    StaleMeasurementError,
    TrackerState,
    associate,
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
        # (stamp, batch) of the detection batches stamped after the newest
        # VIO sample, in stamp order
        self._pending: list[tuple[float, list[Detection]]] = []
        self._alignment_accepted = False
        self._next_alignment_time = -math.inf
        self._next_init_attempt = -math.inf
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
        duplicate delivery and is dropped, changing nothing.  Once the
        frame is initialized, a batch the VIO buffer covers is associated
        and fused at once; a newer one waits for ``ingest_vio``.
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
        if stamp <= self._vio_buffer.newest_stamp:
            self._fuse(stamp, detections)
            return
        # a stale VIO link leaves the list at most a history span long
        pending = self._pending
        bisect.insort(pending, (stamp, detections), key=itemgetter(0))
        cutoff = pending[-1][0] - self._history.span
        while pending[0][0] < cutoff:
            del pending[0]

    def ingest_vio(self, pose: TimedPose) -> None:
        """Feed one VIO pose sample (arrival order may differ from stamps).

        A sample with a non-finite value is dropped before it is buffered, so
        it cannot turn the filter state to NaN; a stream of them reads as
        stale VIO (HEADING_FROZEN).  A sample whose stamp is already buffered
        is a duplicate delivery and is dropped too.  Once the frame is
        initialized, the waiting detection batches the buffer now covers are
        fused in stamp order, and the alignment check runs every
        ``realign_period``.
        """
        if not all(map(math.isfinite, pose)):
            return
        buf = self._vio_buffer
        if buf.insert(pose) is None:
            return
        buf.prune(buf.newest_stamp - self._buffer_span)
        if self._history is None:
            return
        pending = self._pending
        while pending and pending[0][0] <= buf.newest_stamp:
            self._fuse(*pending.pop(0))
        if pose.stamp >= self._next_alignment_time:
            self._realign(pose.stamp)

    def _fuse(self, stamp: float, detections: list[Detection]) -> None:
        """Associate a batch that the VIO buffer covers and fuse the accepted
        detection with the VIO position at its stamp."""
        try:
            predicted = self._history.estimate_at(stamp)
            vio = interpolate(self._vio_buffer, stamp)[1:4]
        except ValueError:
            return  # batch predates the history anchor or the VIO buffer: too stale
        decision = associate(detections, predicted, vio)
        if decision.accepted:
            det = decision.detection
            try:
                self._history.insert(Measurement(stamp, det[1:4], vio, det.sigma ** 2))
            except StaleMeasurementError:
                return
            fused = self._fused_detections
            fused.insert(det)
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
            state, _, track_id = out
            self._adopt(state, track_id)

    def _adopt(self, state: TrackerState, track_id: int) -> None:
        self._history = HistoryBuffer(state)
        self._alignment_accepted = True
        self._next_alignment_time = state.stamp + self.realign_period
        self._fused_detections = self._track_buffers[track_id].copy()
        self._consecutive_rejects = 0

    def _realign(self, now: float) -> None:
        """The alignment check: the windowed solve of the fused detections
        sets TRACKING when it is observable and accepted, else
        TRANSFORM_FROZEN; the filter state is left as it is."""
        self._next_alignment_time = now + self.realign_period
        config = self.align_config
        fused = self._fused_detections
        arrays = build_correspondence_arrays(fused, self._vio_buffer, config)
        *_, sigma, _ = fused.row(-1)
        self._alignment_accepted = (
            arrays is not None and window_observable(arrays[1], sigma)
            and degeneracy_check(solve_alignment_arrays(*arrays, config), config))

    # ------------------------------------------------------------------ output

    def current_output(self, t: float) -> GuiderOutput:
        """The estimate at ``t``, the status and the L->V transform of this
        reference tick; raises GuiderError when uninitialized.

        The transform is the frame ``(ox, oy, oz, theta)`` at the newest VIO
        stamp.  The pose is the newest VIO pose extrapolated to ``t``
        (:func:`~coopguide.geometry.extrapolate`) and mapped into L through
        the frame at ``t`` (``TrackerState.pose``).  Every fused detection
        is stamped at most at the newest VIO sample, so neither stamp
        precedes the history's anchor.
        """
        if self._history is None:
            raise GuiderError("guider is uninitialized: no accepted alignment yet")
        vio = self._vio_buffer.row(-1)
        ox, _, oy, _, theta, oz, _ = self._history.estimate_at(vio[0]).mean
        pose = self._history.estimate_at(t).pose(extrapolate(vio, t))
        return GuiderOutput(t, pose, (ox, oy, oz, theta), self.status(t))

    def transform_and_stream(self, desired: Trajectory,
                             output: GuiderOutput) -> Optional[Trajectory]:
        """Transform the unflown suffix of ``desired`` (in L) into the secondary's frame.

        ``output`` is the tick's ``current_output``.  Points stamped before
        ``output.stamp`` are dropped (already completed); the remaining points
        within the streaming horizon are mapped through
        ``output.transform_l_to_s``.  Returns None when ``output.status``
        pauses streaming (stale VIO).
        """
        if output.status not in _STREAMING_STATUSES:
            return None
        *translation, heading = output.transform_l_to_s
        return desired.streamed(output.stamp, translation, heading)
