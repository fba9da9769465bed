"""Guidance orchestration: alignment + tracking + reference transformation.

The guider owns the estimation pipeline for one secondary agent: it buffers
raw detections per track id and VIO poses, initializes the estimate by
aligning detection tracks against the VIO trajectory, keeps the estimate
updated through the history-buffered Kalman filter, periodically re-solves
the frame alignment, and transforms the not-yet-flown part of a desired
lidar-frame trajectory into the secondary agent's local frame for streaming.

Degenerate input streams map to explicit statuses:
    - detections stale        -> DEAD_RECKONING_VIO (position rides the VIO chain)
    - VIO stale               -> HEADING_FROZEN (heading states stop updating,
      streaming pauses: without fresh VIO there is no valid V-frame anchor)
    - last alignment rejected -> TRANSFORM_FROZEN (guidance continues with the
      previous transform)

All ingest and query calls must be externally serialized (single writer).
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .alignment import (
    AlignmentConfig,
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
    stamp_key,
    wrap_heading,
)
from .tracker import (
    HistoryBuffer,
    Measurement,
    MeasurementKind,
    StaleMeasurementError,
    TrackerConfig,
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
class TrajectoryPoint:
    stamp: float
    position: np.ndarray
    heading: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float)
        if p.shape != (3,):
            raise ValueError("trajectory point position must be a 3-vector")
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "heading", wrap_heading(float(self.heading)))


@dataclass(frozen=True)
class Trajectory:
    """Ordered stamped position+heading references in a named frame."""

    frame: Frame
    points: tuple[TrajectoryPoint, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        stamps = tuple(p.stamp for p in pts)
        for a, b in zip(stamps, stamps[1:]):
            if b <= a:
                raise ValueError("trajectory stamps must be strictly increasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_stamps", stamps)

    def __len__(self) -> int:
        return len(self.points)

    def slice_window(self, start: float, end: float) -> tuple[TrajectoryPoint, ...]:
        """Points with start <= stamp <= end (binary search, inclusive)."""
        lo = bisect.bisect_left(self._stamps, start)
        hi = bisect.bisect_right(self._stamps, end)
        return self.points[lo:hi]


@dataclass(frozen=True)
class GuiderOutput:
    stamp: float
    secondary_pose_in_l: TimedPose
    transform_l_to_s: RelativeTransform
    status: GuiderStatus


@dataclass(frozen=True)
class GuiderConfig:
    detection_staleness: float = 1.0   # s without an accepted detection
    vio_staleness: float = 0.5         # s without a VIO sample
    realign_period: float = 1.0        # s between alignment re-solves
    reinit_reject_limit: int = 3       # consecutive gate failures before re-init
    stream_horizon: float = 10.0       # s of trajectory transmitted per stream
    ref_rate: float = 5.0              # Hz, reference transmission rate


#: statuses in which transformed references keep being streamed
_STREAMING_STATUSES = frozenset({
    GuiderStatus.TRACKING,
    GuiderStatus.DEAD_RECKONING_VIO,
    GuiderStatus.TRANSFORM_FROZEN,
})


class Guider:
    """Single-secondary guidance pipeline (see module docstring)."""

    def __init__(
        self,
        align_config: AlignmentConfig = AlignmentConfig(),
        tracker_config: TrackerConfig = TrackerConfig(),
        config: GuiderConfig = GuiderConfig(),
    ):
        self.align_config = align_config
        self.tracker_config = tracker_config
        self.config = config
        buffer_span = align_config.window + 2.0
        self._buffer_span = buffer_span
        self._track_buffers: dict[int, deque[Detection]] = {}
        self._vio_buffer: list[TimedPose] = []
        self._history: Optional[HistoryBuffer] = None
        self._active_transform: Optional[RelativeTransform] = None
        self._fused_detections: deque[Detection] = deque()
        self._last_detection: Optional[Detection] = None
        self._last_detection_time: Optional[float] = None
        self._last_vio_time: Optional[float] = None
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
        return self._active_transform

    def status(self, t: float) -> GuiderStatus:
        if self._history is None:
            return GuiderStatus.UNINITIALIZED
        if self._last_vio_time is None or t - self._last_vio_time > self.config.vio_staleness:
            return GuiderStatus.HEADING_FROZEN
        if (self._last_detection_time is None
                or t - self._last_detection_time > self.config.detection_staleness):
            return GuiderStatus.DEAD_RECKONING_VIO
        if not self._alignment_accepted:
            return GuiderStatus.TRANSFORM_FROZEN
        return GuiderStatus.TRACKING

    # ----------------------------------------------------------------- ingest

    def ingest_detections(self, detections: Sequence[Detection]) -> None:
        """Feed one stamped batch of detections (all tracked objects)."""
        if not detections:
            return
        self._ingest_count += 1
        detections = sorted(detections, key=lambda d: d.track_id)
        stamp = detections[0].stamp
        for det in detections:
            buf = self._track_buffers.setdefault(det.track_id, deque())
            buf.append(det)
            self._prune_deque(buf, stamp)
        if self._history is None:
            # alignment solves are not free: retry at most every 0.3 s
            if stamp >= self._next_init_attempt:
                self._next_init_attempt = stamp + 0.3
                self._attempt_initialization()
            return

        try:
            predicted = self._history.estimate_at(stamp)
        except ValueError:
            return  # batch predates the buffer anchor: too stale to use
        decision = associate(detections, predicted,
                             self.tracker_config.euclid_gate,
                             self.tracker_config.gate_p_value)
        if decision.accepted and decision.detection is not None:
            det = decision.detection
            z = Measurement(stamp, MeasurementKind.LIDAR_POSITION,
                            det.position, np.full(3, det.sigma ** 2))
            try:
                self._history.insert(z)
            except StaleMeasurementError:
                return
            self._last_detection = det
            self._last_detection_time = stamp
            self._fused_detections.append(det)
            self._prune_deque(self._fused_detections, stamp)
            self._consecutive_rejects = 0
        else:
            self._consecutive_rejects += 1
            if self._consecutive_rejects >= self.config.reinit_reject_limit:
                # Persistent gate failures while detections keep arriving:
                # either the estimate diverged or the gated detections are
                # false targets.  Let the alignment decide: re-initialize only
                # from a live track whose trajectory matches the VIO buffer.
                self._consecutive_rejects = 0
                self._attempt_reinitialization(stamp)

    def ingest_vio(self, pose: TimedPose) -> None:
        """Feed one VIO pose sample (arrival order may differ from stamps)."""
        self._ingest_count += 1
        buf = self._vio_buffer
        buf.insert(bisect.bisect_right(buf, pose.stamp, key=stamp_key), pose)
        cutoff = buf[-1].stamp - self._buffer_span
        del buf[:bisect.bisect_left(buf, cutoff, key=stamp_key)]
        self._last_vio_time = max(self._last_vio_time or -np.inf, pose.stamp)

        if self._history is None:
            return
        theta = self._active_transform.heading if self._active_transform else None
        last_det = self._last_detection
        vio_at_det = None
        if last_det is not None and pose.stamp > last_det.stamp:
            try:
                vio_at_det = interpolate(buf, last_det.stamp,
                                         self.align_config.interp_tolerance)
            except StaleQueryError:
                pass  # detection outside the VIO buffer: heading-only measurement
        try:
            if vio_at_det is not None:
                z = make_vio_measurement(pose, last_det, vio_at_det, theta,
                                         self.tracker_config)
            else:
                z = make_heading_measurement(pose, theta, self.tracker_config)
            self._history.insert(z)
        except StaleMeasurementError:
            pass  # over-delayed sample: skip, streams continue

        if pose.stamp >= self._next_alignment_time:
            self._realign(pose.stamp)

    # ------------------------------------------------------------ initialization

    def _attempt_initialization(self) -> None:
        out = try_initialize(self._track_buffers, self._vio_buffer,
                             self.align_config, self.tracker_config)
        if out is not None:
            self._adopt(*out)

    def _attempt_reinitialization(self, now: float) -> None:
        """Re-init from tracks that are still producing detections."""
        stale_after = now - self.config.detection_staleness
        fresh = {tid: buf for tid, buf in self._track_buffers.items()
                 if buf and buf[-1].stamp >= stale_after}
        if not fresh:
            return
        out = try_initialize(fresh, self._vio_buffer,
                             self.align_config, self.tracker_config)
        if out is not None:
            self._adopt(*out)

    def _adopt(self, state, result, track_id: int) -> None:
        self._history = HistoryBuffer(state, span=self.tracker_config.history_span,
                                      config=self.tracker_config)
        self._active_transform = result.transform
        self._alignment_accepted = True
        self._next_alignment_time = state.stamp + self.config.realign_period
        chosen = self._track_buffers[track_id]
        self._fused_detections = deque(chosen)
        self._last_detection = chosen[-1]
        self._last_detection_time = chosen[-1].stamp
        self._consecutive_rejects = 0

    def _realign(self, now: float) -> None:
        self._next_alignment_time = now + self.config.realign_period
        arrays = build_correspondence_arrays(
            self._fused_detections, self._vio_buffer, self.align_config.window,
            min_count=self.align_config.min_correspondences,
            interp_tolerance=self.align_config.interp_tolerance,
            max_gap=self.align_config.max_detection_gap,
        )
        if arrays is None:
            self._alignment_accepted = False
            return
        if not window_observable(arrays[1], self.align_config):
            self._alignment_accepted = False  # no solve could pass the check
            return
        result = solve_alignment_arrays(*arrays, self._active_transform,
                                        self.align_config)
        if degeneracy_check(result, self.align_config.min_path_length,
                            self.align_config.min_eigenvalue):
            self._active_transform = result.transform
            self._alignment_accepted = True
        else:
            self._alignment_accepted = False

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
        effective L->V transform.  Returns None when the guider is in a state
        where streaming must pause (stale VIO); raises when uninitialized.
        """
        if desired.frame != Frame.LIDAR:
            raise ValueError("desired trajectory must be given in the lidar frame")
        if self._history is None:
            raise GuiderError("guider is uninitialized: no accepted alignment yet")
        if self.status(t) not in _STREAMING_STATUSES:
            return None
        transform = self._effective_transform(t)
        window = desired.slice_window(t, t + self.config.stream_horizon)
        if window:
            positions = np.array([p.position for p in window]) @ transform.rotation.T
            positions += transform.translation
        else:
            positions = ()
        pts = tuple(
            TrajectoryPoint(p.stamp, pos, p.heading + transform.heading)
            for p, pos in zip(window, positions)
        )
        return Trajectory(Frame.VIO, pts)

    # ----------------------------------------------------------------- helpers

    def _prune_deque(self, buf: deque, now: float) -> None:
        cutoff = now - self._buffer_span
        while buf and buf[0].stamp < cutoff:
            buf.popleft()
