"""Trajectory alignment and error metrics over event logs.

Mirrors the evaluation methodology used for the guidance system: each
estimate is paired once with the ground truth interpolated to its stamp;
the pairs inside the truth's time span are aligned with a 4-DOF fit over
their first seconds, then 2D/3D absolute trajectory errors are the RMSE of
their point distances.  Scenario-level metrics add the mean deviation of
the flown path from the desired path and the split of the
relative-localization error into detection-visible and occluded segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TextIO

import numpy as np

from .alignment import closed_form_align
from .config import ScenarioConfig, format_value
from .eventlog import EventLog
from .geometry import interp_columns, rot_z
from .guider import DETECTION_STALENESS
from .paths import ReferencePath, generate_trajectory


class EvaluationError(ValueError):
    """Raised on unusable evaluation inputs (no overlap, empty series)."""


@dataclass(frozen=True)
class ErrorReport:
    """Metrics of one scenario run (or one trajectory pair)."""

    ate_2d: float
    ate_3d: float
    mean_path_deviation: float
    rel_loc_rmse: float
    tracked_rmse: Optional[float]
    untracked_rmse: Optional[float]
    failure: bool
    stamps: np.ndarray          # per-sample series (estimate stamps)
    errors_2d: np.ndarray
    errors_3d: np.ndarray
    visible: np.ndarray         # bool per sample


ALIGN_WINDOW = 20.0   # s of paired stamps that align_first_window fits


def align_first_window(
    stamps: np.ndarray, positions: np.ndarray, truth: np.ndarray,
) -> tuple[np.ndarray, float]:
    """4-DOF least-squares fit of estimates onto their paired truth: (t, theta)
    with truth ~ rot_z(theta) @ position + t, as
    :func:`~coopguide.alignment.closed_form_align` returns them.

    ``positions`` and ``truth`` are (N, 3) arrays paired row by row at the
    increasing ``stamps``.  Only the pairs within :data:`ALIGN_WINDOW`
    seconds of the first stamp are fitted, so drift accumulated later does
    not influence the alignment.
    """
    window = stamps <= stamps[0] + ALIGN_WINDOW
    if int(window.sum()) < 2:
        raise EvaluationError(
            f"insufficient overlap: {int(window.sum())} samples in the first "
            f"{ALIGN_WINDOW} s window"
        )
    return closed_form_align(positions[window], truth[window])


def absolute_trajectory_error(positions: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """(2D, 3D) RMSE between (N, 3) aligned positions and their paired truth."""
    delta = positions - truth
    ate_2d = float(np.sqrt(np.mean(delta[:, 0] ** 2 + delta[:, 1] ** 2)))
    ate_3d = float(np.sqrt(np.mean(np.einsum("ij,ij->i", delta, delta))))
    return ate_2d, ate_3d


def mean_path_deviation(actual: np.ndarray, reference: ReferencePath) -> float:
    """Mean point-to-path distance of (N, 3) positions from the desired path."""
    if len(actual) == 0:
        return 0.0
    return float(np.mean([reference.distance(p) for p in actual]))


def _visibility_flags(est_stamps: np.ndarray, det_stamps: np.ndarray) -> np.ndarray:
    """A sample counts as tracked when a secondary detection is at most
    DETECTION_STALENESS seconds older (the rule of the guider's status)."""
    if len(det_stamps) == 0:
        return np.zeros(len(est_stamps), dtype=bool)
    idx = np.searchsorted(det_stamps, est_stamps, side="right") - 1
    has_prev = idx >= 0
    age = np.where(has_prev, est_stamps - det_stamps[np.clip(idx, 0, None)], np.inf)
    return age <= DETECTION_STALENESS


def evaluate_log(log: EventLog) -> ErrorReport:
    """Full metric set for one scenario event log.

    The truth is interpolated once, at every estimate stamp (held at its
    ends).  ``rel_loc_rmse`` and the per-sample errors read every pair; the
    ATE fit and RMSE read the pairs inside the truth's span, so the fit
    window starts at the first estimate not before the first truth stamp:
    the first estimate of every ``run_scenario`` log, whose truth starts at
    t = 0.  An empty series or an empty overlap is an EvaluationError.
    """
    config = log.config()
    est_t, est_p, _, _ = log.estimates()
    ts_t, ts_p, _ = log.truth()
    if len(ts_t) == 0:
        raise EvaluationError("log contains no ground-truth records")
    if len(est_t) == 0:
        raise EvaluationError("log contains no estimate records "
                              "(the guider never initialized)")

    truth_at = interp_columns(est_t, ts_t, ts_p)
    delta = est_p - truth_at
    errors_2d = np.hypot(delta[:, 0], delta[:, 1])
    errors_3d = np.linalg.norm(delta, axis=1)
    rel_loc_rmse = float(np.sqrt(np.mean(errors_3d ** 2)))

    inside = (est_t >= ts_t[0]) & (est_t <= ts_t[-1])
    if not inside.any():
        raise EvaluationError("estimates and ground truth do not overlap in time")
    stamps, positions, truth = est_t[inside], est_p[inside], truth_at[inside]
    t, theta = align_first_window(stamps, positions, truth)
    ate_2d, ate_3d = absolute_trajectory_error(positions @ rot_z(theta).T + t, truth)

    desired = generate_trajectory(config.values)
    path = ReferencePath(config.values, desired)
    start = desired.stamps[0]
    mask = ts_t >= start
    deviation = mean_path_deviation(ts_p[mask], path)

    visible = _visibility_flags(est_t, log.detection_stamps(0))
    tracked = float(np.sqrt(np.mean(errors_3d[visible] ** 2))) if visible.any() else None
    untracked = float(np.sqrt(np.mean(errors_3d[~visible] ** 2))) if (~visible).any() else None

    return ErrorReport(
        ate_2d=ate_2d,
        ate_3d=ate_3d,
        mean_path_deviation=deviation,
        rel_loc_rmse=rel_loc_rmse,
        tracked_rmse=tracked,
        untracked_rmse=untracked,
        failure=log.failed,
        stamps=est_t,
        errors_2d=errors_2d,
        errors_3d=errors_3d,
        visible=visible,
    )


def format_report(report: ErrorReport, config: Optional[ScenarioConfig] = None) -> str:
    """key=value text form of a report (deterministic float formatting)."""
    lines = [
        f"ate_2d = {report.ate_2d!r}",
        f"ate_3d = {report.ate_3d!r}",
        f"mean_path_deviation = {report.mean_path_deviation!r}",
        f"rel_loc_rmse = {report.rel_loc_rmse!r}",
    ]
    if report.tracked_rmse is not None:
        lines.append(f"tracked_rmse = {report.tracked_rmse!r}")
    if report.untracked_rmse is not None:
        lines.append(f"untracked_rmse = {report.untracked_rmse!r}")
    lines.append(f"failure = {'true' if report.failure else 'false'}")
    lines.append(f"n_samples = {len(report.stamps)}")
    if config is not None:
        for key, value in config.effective_items():
            lines.append(f"config.{key} = {format_value(value)}")
    return "\n".join(lines) + "\n"


def write_per_sample_csv(report: ErrorReport, fh: TextIO) -> None:
    """CSV per-sample error series: t, error_2d, error_3d, visible_flag."""
    fh.write("t,error_2d,error_3d,visible_flag\n")
    for t, e2, e3, vis in zip(report.stamps, report.errors_2d,
                              report.errors_3d, report.visible):
        fh.write(f"{float(t)!r},{float(e2)!r},{float(e3)!r},{1 if vis else 0}\n")
