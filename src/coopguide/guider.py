"""Guidance orchestration: alignment + tracking + reference transformation.

The guider owns the estimation pipeline for one secondary agent: it buffers
raw detections per track id and VIO poses, initializes the estimate by
aligning detection tracks against the VIO trajectory, keeps the estimate
updated through the history-buffered Kalman filter, periodically re-solves
the frame alignment, and transforms the not-yet-flown part of a desired
lidar-frame trajectory into the secondary agent's local frame for streaming.
The last accepted alignment supplies the heading and the co-estimated VIO
drift rate that every VIO measurement is corrected with.

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
    - duplicate sample/batch  -> dropped on ingest (a VIO sample or detection
      batch whose stamp is already buffered), so each is fused once
    - late detection batch    -> buffered in stamp order; the history buffer
      replays the filter through it
    - last alignment rejected -> TRANSFORM_FROZEN (guidance continues with the
      previous transform)

The realignment period is the guider's one setting, passed as a float (the
scenario key ``guider.realign_period``); the staleness limits, the reject
limit, the stream horizon and the reference rate are module constants.

All ingest and query calls must be externally serialized (single writer).
"""

from __future__ import annotations

import bisect
import math
from collections import deque
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
    Detection,
    Frame,
    RelativeTransform,
    StaleQueryError,
    TimedPose,
    interpolate,
    rot_z,
    stamp_key,
    wrap_heading,
)
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
        """This L-frame trajectory mapped into V by ``Rz(heading) @ p + translation``.

        Every streamed reference batch is made here, so a batch is rebuilt
        bit for bit from its window, ``translation`` and ``heading``.
        """
        return Trajectory._unchecked(Frame.VIO, self.stamps,
                                     self.positions @ rot_z(heading).T + translation,
                                     wrap_heading(self.headings + heading))


@dataclass(frozen=True)
class GuiderOutput:
    stamp: float
    secondary_pose_in_l: TimedPose
    transform_l_to_s: RelativeTransform
    status: GuiderStatus


VIO_STALENESS = 0.5          # s without a VIO sample before HEADING_FROZEN
DETECTION_STALENESS = 1.0    # s without an accepted detection before DEAD_RECKONING_VIO
REINIT_REJECT_LIMIT = 3      # consecutive gate failures before re-init
STREAM_HORIZON = 10.0        # s of trajectory transmitted per stream
REF_RATE = 5.0               # Hz, reference transmission rate

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
        buffer_span = align_config.window + 2.0
        self._buffer_span = buffer_span
        self._track_buffers: dict[int, deque[Detection]] = {}
        self._vio_buffer: list[TimedPose] = []
        self._history: Optional[HistoryBuffer] = None
        self._alignment: Optional[AlignmentResult] = None   # the last accepted solve
        self._fused_detections: deque[Detection] = deque()
        self._alignment_accepted = False
        self._next_alignment_time = -np.inf
        self._next_init_attempt = -np.inf
        self._consecutive_rejects = 0
        self._ingest_count = 0
        self._transform_memo: Optional[tuple[int, RelativeTransform]] = None

    # ------------------------------------------------------------------ state

    @property
    def initialized(self) -> bool:
        return self._history is not None

    @property
    def active_transform(self) -> Optional[RelativeTransform]:
        return self._alignment.transform if self._alignment else None

    def status(self, t: float) -> GuiderStatus:
        # once initialized, both buffers hold at least one sample
        if self._history is None:
            return GuiderStatus.UNINITIALIZED
        if t - self._vio_buffer[-1].stamp > VIO_STALENESS:
            return GuiderStatus.HEADING_FROZEN
        if t - self._fused_detections[-1].stamp > DETECTION_STALENESS:
            return GuiderStatus.DEAD_RECKONING_VIO
        if not self._alignment_accepted:
            return GuiderStatus.TRANSFORM_FROZEN
        return GuiderStatus.TRACKING

    # ----------------------------------------------------------------- ingest

    def ingest_detections(self, detections: Sequence[Detection]) -> None:
        """Feed one batch of detections (all tracked objects) sharing one
        stamp; a batch whose stamps differ raises ValueError, changing nothing.

        Arrival order may differ from stamps: the buffers stay sorted by
        stamp.  A batch whose stamp a track buffer already holds is a
        duplicate delivery and is dropped, changing nothing.
        """
        if not detections:
            return
        stamp = detections[0].stamp
        if any(det.stamp != stamp for det in detections):
            raise ValueError("a detection batch must share one stamp")
        buffers = self._track_buffers
        if any(_holds_stamp(buffers.get(det.track_id, ()), stamp) for det in detections):
            return
        self._ingest_count += 1
        detections = sorted(detections, key=lambda d: d.track_id)
        for det in detections:
            buf = buffers.setdefault(det.track_id, deque())
            bisect.insort(buf, det, key=stamp_key)
            self._prune_deque(buf)
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
        if decision.accepted and decision.detection is not None:
            det = decision.detection
            r = det.sigma ** 2
            z = Measurement(stamp, MeasurementKind.LIDAR_POSITION, det.position, (r, r, r))
            try:
                self._history.insert(z)
            except StaleMeasurementError:
                return
            bisect.insort(self._fused_detections, det, key=stamp_key)
            self._prune_deque(self._fused_detections)
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
        x, y, z = pose.position.tolist()
        vx, vy, vz = pose.velocity.tolist()
        if not all(map(math.isfinite, (pose.stamp, x, y, z, vx, vy, vz, pose.heading_rate))):
            return
        buf = self._vio_buffer
        if _holds_stamp(buf, pose.stamp):
            return
        self._ingest_count += 1
        bisect.insort(buf, pose, key=stamp_key)
        cutoff = buf[-1].stamp - self._buffer_span
        del buf[:bisect.bisect_left(buf, cutoff, key=stamp_key)]

        if self._history is None:
            return
        alignment = self._alignment
        last_det = self._fused_detections[-1]
        vio_at_det = None
        if pose.stamp > last_det.stamp:
            try:
                vio_at_det = interpolate(buf, last_det.stamp)
            except StaleQueryError:
                pass  # detection outside the VIO buffer: heading-only measurement
        try:
            if vio_at_det is not None:
                z = make_vio_measurement(pose, last_det, vio_at_det,
                                         alignment.transform.heading, alignment.drift_rate)
            else:
                z = make_heading_measurement(pose, alignment.transform.heading)
            self._history.insert(z)
        except StaleMeasurementError:
            pass  # over-delayed sample: skip, streams continue

        if pose.stamp >= self._next_alignment_time:
            self._realign(pose.stamp)

    # ------------------------------------------------------------ initialization

    def _initialize(self, now: float) -> None:
        """(Re-)initialize from tracks that are still producing detections
        and, once a filter exists, hold one newer than the last fused one."""
        stale_after = now - DETECTION_STALENESS
        last_fused = (self._fused_detections[-1].stamp if self._history is not None
                      else -math.inf)
        fresh = {tid: buf for tid, buf in self._track_buffers.items()
                 if buf and buf[-1].stamp >= stale_after and buf[-1].stamp > last_fused}
        if not fresh:
            return
        out = try_initialize(fresh, self._vio_buffer, self.align_config)
        if out is not None:
            self._adopt(*out)

    def _adopt(self, state, result, track_id: int) -> None:
        self._history = HistoryBuffer(state)
        self._alignment = result
        self._alignment_accepted = True
        self._next_alignment_time = state.stamp + self.realign_period
        chosen = self._track_buffers[track_id]
        self._fused_detections = deque(chosen)
        self._consecutive_rejects = 0

    def _realign(self, now: float) -> None:
        self._next_alignment_time = now + self.realign_period
        config = self.align_config
        fused = self._fused_detections
        arrays = build_correspondence_arrays(fused, self._vio_buffer, config)
        if arrays is None or not window_observable(arrays[1], fused[-1].sigma):
            self._alignment_accepted = False
            return
        result = solve_alignment_arrays(*arrays, config)
        self._alignment_accepted = degeneracy_check(result, config)
        if self._alignment_accepted:
            self._alignment = result

    # ------------------------------------------------------------------ output

    def _effective_transform(self, t: float) -> RelativeTransform:
        """L->V transform anchored on the current estimate and VIO pose.

        Composes the estimated secondary pose in L with the secondary's own
        VIO pose at the same stamp, so the mapping follows VIO drift at the
        filter rate instead of lagging with the windowed alignment.  The
        result only changes when new data arrives, so it is memoized on the
        ingest counter.
        """
        if self._transform_memo is not None and self._transform_memo[0] == self._ingest_count:
            return self._transform_memo[1]
        vio = self._vio_buffer[-1]
        try:
            est = self._history.estimate_at(vio.stamp)
        except ValueError:
            est = self._history.latest_state
        theta = wrap_heading(vio.heading - est.heading)
        c, s = np.cos(theta), np.sin(theta)
        ex, ey, ez = est.position
        rotated = np.array([c * ex - s * ey, s * ex + c * ey, ez])
        transform = RelativeTransform(
            translation=vio.position - rotated,
            heading=theta,
            source_frame=Frame.LIDAR,
            target_frame=Frame.VIO,
            stamp=vio.stamp,
        )
        self._transform_memo = (self._ingest_count, transform)
        return transform

    def current_output(self, t: float) -> GuiderOutput:
        if self._history is None:
            raise GuiderError("guider is uninitialized: no accepted alignment yet")
        state = self._history.estimate_at(t)
        pose = TimedPose(t, Frame.LIDAR, state.position, state.heading,
                         state.velocity, state.heading_rate)
        return GuiderOutput(
            stamp=t,
            secondary_pose_in_l=pose,
            transform_l_to_s=self._effective_transform(t),
            status=self.status(t),
        )

    def transform_and_stream(self, desired: Trajectory, t: float) -> Optional[Trajectory]:
        """Transform the unflown suffix of ``desired`` into the secondary's frame.

        Points with stamps before ``t`` are dropped (already completed); the
        remaining points within the streaming horizon are mapped through the
        effective L->V transform, the one ``current_output(t)`` reports.
        Returns None when the guider is in a state where streaming must pause
        (stale VIO); raises when uninitialized.
        """
        if desired.frame != Frame.LIDAR:
            raise ValueError("desired trajectory must be given in the lidar frame")
        if self._history is None:
            raise GuiderError("guider is uninitialized: no accepted alignment yet")
        if self.status(t) not in _STREAMING_STATUSES:
            return None
        transform = self._effective_transform(t)
        window = desired.slice_window(t, t + STREAM_HORIZON)
        return window.mapped(transform.translation, transform.heading)

    # ----------------------------------------------------------------- helpers

    def _prune_deque(self, buf: deque) -> None:
        cutoff = buf[-1].stamp - self._buffer_span
        while buf[0].stamp < cutoff:
            buf.popleft()


def _holds_stamp(buf: Sequence, stamp: float) -> bool:
    """Whether ``buf``, sorted by stamp, holds a record of stamp ``stamp``."""
    i = bisect.bisect_left(buf, stamp, key=stamp_key)
    return i < len(buf) and buf[i].stamp == stamp
