"""Scenario configuration: defaults, text file format, dotted-path overrides.

Config files are plain text, one ``dotted.key = value`` per line, ``#`` for
comments.  Every key has a documented default (see DEFAULTS and the README
schema table); files only override.  Unknown keys are errors so sweep typos
fail fast.  Values are coerced to the type of the default: int, float, bool
("true"/"false"), string, or a point list ("x,y,z; x,y,z" for positions,
"x1,y1,x2,y2; ..." for wall segments).  The ``alignment.*``, ``tracker.*`` and
``guider.*`` keys set the fields of the same name in AlignmentConfig,
TrackerConfig and GuiderConfig; fields without a key keep their defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Optional

from .alignment import AlignmentConfig
from .guider import GuiderConfig
from .tracker import TrackerConfig


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


DEFAULTS: dict[str, Any] = {
    # scenario framing
    "scenario.seed": 1,
    "scenario.duration": 0.0,          # s; 0 = derive from trajectory end + 5 s
    "scenario.tick_rate": 100.0,       # Hz, fixed-step loop
    "scenario.abort_radius": 3.0,      # m from desired path before failure
    "scenario.truth_log_decimation": 1,  # log truth every Nth tick
    # primary agent motion (affects occlusion geometry only)
    "primary.pattern": "square",       # square | line | static
    "primary.size": 3.0,               # m, square side / line length
    "primary.speed": 0.5,              # m/s
    "primary.center": (0.0, 0.0, 3.0),
    # desired trajectory for the secondary agent, defined in frame L
    "trajectory.pattern": "circle",    # circle | eight | waypoints
    "trajectory.radius": 4.0,          # m (circle; eight uses it as half-width)
    "trajectory.speed": 0.5,           # m/s
    "trajectory.center": (0.0, 0.0, 1.5),
    "trajectory.laps": 10,
    "trajectory.spacing": 0.5,         # s between reference points
    "trajectory.start": 2.0,           # s, stamp of the first trajectory point
    "trajectory.waypoints": (),        # "x,y,z; x,y,z; ..." when pattern=waypoints
    # VIO stream of the secondary agent
    "vio.rate": 30.0,                  # Hz
    "vio.noise_sigma": 0.0,            # m, white position noise (0 = drift only)
    "vio.initial_offset": (5.0, -3.0, 1.0),   # t0 of the true L->V transform
    "vio.initial_heading": 0.7,        # rad, theta of the true L->V transform
    # VIO drift model (position drift of frame V)
    "vio_drift.model": "none",         # none | constant_velocity | random_walk
    "vio_drift.x": 0.0,                # m/s
    "vio_drift.y": 0.0,
    "vio_drift.z": 0.0,
    "vio_drift.sigma": 0.0,            # m/sqrt(s), random walk
    # lidar detection stream
    "detection.rate": 10.0,            # Hz
    "detection.sigma": 0.15,           # m, isotropic noise
    "detection.delay_mean": 0.05,      # s, processing delay
    "detection.delay_jitter": 0.03,    # s, uniform extra delay
    # wireless link (VIO upstream, references downstream)
    "comm.delay_mean": 0.02,
    "comm.delay_jitter": 0.02,
    # environment
    "false_targets.positions": (),     # "x,y,z; x,y,z"
    "nlos.walls": (),                  # "x1,y1,x2,y2; ..." vertical walls in xy
    # secondary agent plant (first-order reference tracking in frame V)
    "plant.time_constant": 0.5,        # s
    "plant.max_speed": 2.0,            # m/s
    "plant.max_heading_rate": 1.5,     # rad/s
    # guider
    "guider.ref_rate": 5.0,
    "guider.stream_horizon": 10.0,
    "guider.detection_staleness": 1.0,
    "guider.vio_staleness": 0.5,
    "guider.realign_period": 1.0,
    "guider.reinit_reject_limit": 3,
    # sliding-window alignment
    "alignment.window": 15.0,
    "alignment.min_correspondences": 10,
    "alignment.min_path_length": 1.0,
    "alignment.max_cost": 0.09,
    "alignment.min_eigenvalue": 1.0,
    "alignment.max_iterations": 100,
    "alignment.max_detection_gap": 1.0,
    "alignment.estimate_drift": False,
    # tracker
    "tracker.sigma_accel": 1.0,
    "tracker.sigma_heading_accel": 0.5,
    "tracker.vio_velocity_sigma": 0.1,
    "tracker.vio_heading_sigma": 0.05,
    "tracker.vio_heading_rate_sigma": 0.05,
    "tracker.vio_delta_sigma": 0.05,
    "tracker.euclid_gate": 2.0,
    "tracker.gate_p_value": 0.95,
    "tracker.history_span": 2.0,
    "tracker.init_position_sigma": 0.3,
    "tracker.init_velocity_sigma": 0.5,
    "tracker.init_heading_sigma": 0.2,
    "tracker.init_heading_rate_sigma": 0.2,
    # sweep section (used by the sweep subcommand only)
    "sweep.parameter": "",
    "sweep.values": (),
    "sweep.runs_per_value": 10,
}

_PATTERNS_PRIMARY = ("square", "line", "static")
_PATTERNS_TRAJECTORY = ("circle", "eight", "waypoints")
_DRIFT_MODELS = ("none", "constant_velocity", "random_walk")


def _parse_tuple(text: str, key: str) -> tuple:
    """Parse 'a,b,c; d,e,f' into a tuple of float tuples ('a,b,c' -> floats)."""
    text = text.strip()
    if not text:
        return ()
    groups = [g.strip() for g in text.split(";") if g.strip()]
    out = []
    for g in groups:
        try:
            out.append(tuple(float(x) for x in g.replace(",", " ").split()))
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse point group {g!r}") from exc
    if len(out) == 1 and ";" not in text:
        return out[0]
    return tuple(out)


def coerce(key: str, raw: Any) -> Any:
    """Coerce a raw (usually string) value to the type of the key's default."""
    if key not in DEFAULTS:
        raise ConfigError(f"unknown config key: {key!r}")
    default = DEFAULTS[key]
    if isinstance(raw, str):
        raw = raw.strip()
    if isinstance(default, bool):
        if isinstance(raw, bool):
            return raw
        if str(raw).lower() in ("true", "1", "yes"):
            return True
        if str(raw).lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc
    if isinstance(default, float):
        try:
            value = float(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"{key}: value must be finite, got {raw!r}")
        return value
    if isinstance(default, tuple):
        if isinstance(raw, tuple):
            return raw
        if key == "sweep.values":
            text = str(raw).strip()
            if not text:
                return ()
            try:
                return tuple(float(x) for x in text.replace(",", " ").split())
            except ValueError as exc:
                raise ConfigError(f"{key}: expected a list of numbers, got {raw!r}") from exc
        return _parse_tuple(str(raw), key)
    return str(raw)


def parse_config_text(text: str) -> dict[str, Any]:
    """Parse config file text into a validated {key: value} override mapping."""
    overrides: dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        overrides[key] = coerce(key, value)
    return overrides


def load_config_file(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _section_config(cls, section: str, values: Mapping[str, Any]):
    """Dataclass ``cls`` with each field read from ``"<section>.<field>"``.

    Fields without such a key keep their dataclass default.
    """
    kwargs = {}
    for f in fields(cls):
        key = f"{section}.{f.name}"
        if key in values:
            kwargs[f.name] = values[key]
    return cls(**kwargs)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: flat effective mapping + typed sub-configs."""

    values: Mapping[str, Any]
    alignment: AlignmentConfig = field(init=False)
    tracker: TrackerConfig = field(init=False)
    guider: GuiderConfig = field(init=False)

    def __post_init__(self):
        v = self.values
        if v["primary.pattern"] not in _PATTERNS_PRIMARY:
            raise ConfigError(f"primary.pattern must be one of {_PATTERNS_PRIMARY}")
        if v["trajectory.pattern"] not in _PATTERNS_TRAJECTORY:
            raise ConfigError(f"trajectory.pattern must be one of {_PATTERNS_TRAJECTORY}")
        if v["vio_drift.model"] not in _DRIFT_MODELS:
            raise ConfigError(f"vio_drift.model must be one of {_DRIFT_MODELS}")
        for key in ("scenario.tick_rate", "vio.rate", "detection.rate",
                    "guider.ref_rate", "trajectory.speed", "trajectory.spacing",
                    "plant.time_constant"):
            if v[key] <= 0:
                raise ConfigError(f"{key} must be positive, got {v[key]}")
        if v["trajectory.pattern"] == "waypoints" and not v["trajectory.waypoints"]:
            raise ConfigError("trajectory.waypoints is required when "
                              "trajectory.pattern = waypoints")
        if v["scenario.truth_log_decimation"] < 1:
            raise ConfigError("scenario.truth_log_decimation must be >= 1")
        for section, cls in (("alignment", AlignmentConfig),
                             ("tracker", TrackerConfig),
                             ("guider", GuiderConfig)):
            object.__setattr__(self, section, _section_config(cls, section, v))

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    @property
    def seed(self) -> int:
        return self.values["scenario.seed"]

    def effective_items(self) -> list[tuple[str, Any]]:
        return sorted(self.values.items())


def build_config(overrides: Optional[Mapping[str, Any]] = None,
                 seed: Optional[int] = None) -> ScenarioConfig:
    """Merge overrides onto DEFAULTS, validate, and freeze a ScenarioConfig."""
    values = dict(DEFAULTS)
    for key, raw in (overrides or {}).items():
        values[key] = coerce(key, raw)
    if seed is not None:
        values["scenario.seed"] = int(seed)
    return ScenarioConfig(values)


def format_value(value: Any) -> str:
    """Deterministic text form of a config value (inverse of coerce)."""
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ";".join(",".join(repr(float(x)) for x in g) for g in value)
        return ",".join(repr(float(x)) for x in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)
