"""Cooperative guidance of a VIO-localized agent by a lidar-localized agent.

Library layout:
    geometry    heading arithmetic and rotations, stamped record buffers,
                interpolation and extrapolation
    alignment   sliding-window robust alignment of detection/VIO trajectories
    tracker     delay-tolerant Kalman filter of the L->V frame + gating
    guider      estimation pipeline + reference transformation/streaming
    paths       desired path: trajectory model, streamed batch, path distance
    config      scenario configuration (one key table, file format, overrides)
    eventlog    event log record format, parser and REF batch rebuild
    simulator   deterministic closed-loop scenario engine
    evaluation  trajectory/scenario metrics over event logs
    cli         run / sweep / eval command-line entry points
"""

from .alignment import (
    AlignmentConfig,
    AlignmentResult,
    build_correspondence_arrays,
    closed_form_align,
    degeneracy_check,
    soft_l1,
    solve_alignment_arrays,
    window_observable,
)
from .config import ConfigError, ScenarioConfig, build_config, load_config_file
from .evaluation import (
    ErrorReport,
    absolute_trajectory_error,
    align_first_window,
    evaluate_log,
    mean_path_deviation,
)
from .eventlog import EventLog
from .geometry import (
    Detection,
    StampedColumns,
    TimedPose,
    interpolate,
    wrap_heading,
)
from .guider import Guider, GuiderOutput, GuiderStatus
from .paths import Trajectory
from .simulator import run_scenario
from .tracker import (
    GateDecision,
    HistoryBuffer,
    Measurement,
    TrackerState,
    associate,
    innovation,
    predict,
    try_initialize,
    update,
)

__version__ = "0.1.0"
