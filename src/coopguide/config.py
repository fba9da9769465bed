"""Scenario configuration: one table of keys, text file format, dotted-path overrides.

Config files are plain text, one ``dotted.key = value`` per line, ``#`` for
comments.  SCHEMA declares every key once, with its default and its valid
values (the README config table mirrors it); files only override, and
DEFAULTS is the table's defaults.  Unknown keys are errors so sweep typos
fail fast.  Values are coerced to the type of the default: int, float, bool
("true"/"false"), string, or points ("x,y,z" for one position, "x,y,z; x,y,z"
for a list of them, "x1,y1,x2,y2; ..." for wall segments); a point of the
wrong length is a config error.  ScenarioConfig then checks every value
against its declared valid values, plus the two rules that join keys and
the rule that a non-empty ``sweep.parameter`` names a key.  The
``alignment.*`` keys are generated from the fields of AlignmentConfig, one
key per field with the field's default and its ``valid`` metadata; an
estimator setting that no shipped scenario changes is a constant of its
module, not a key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Optional

from .alignment import AlignmentConfig


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


#: the bounds a key's valid values may be declared with
_BOUNDS = {"> 0": lambda x: x > 0, ">= 0": lambda x: x >= 0, ">= 1": lambda x: x >= 1}


#: key -> (default, valid values): a bound of _BOUNDS, a tuple of the
#: allowed names, or None (any value of the default's type)
SCHEMA: dict[str, tuple[Any, Any]] = {
    # scenario framing
    "scenario.seed": (1, ">= 0"),
    "scenario.duration": (0.0, ">= 0"),        # s; 0 = derive from trajectory end + 5 s
    "scenario.tick_rate": (100.0, "> 0"),      # Hz, fixed-step loop
    "scenario.abort_radius": (3.0, "> 0"),     # m from desired path before failure
    "scenario.truth_log_decimation": (1, ">= 1"),  # log truth every Nth tick
    # primary agent motion (affects occlusion geometry only)
    "primary.pattern": ("square", ("square", "line")),
    "primary.size": (3.0, ">= 0"),             # m, square side / line length
    "primary.speed": (0.5, ">= 0"),            # m/s; 0 = static
    "primary.center": ((0.0, 0.0, 3.0), None),
    # desired trajectory for the secondary agent, defined in frame L
    "trajectory.pattern": ("circle", ("circle", "eight", "waypoints")),
    "trajectory.radius": (4.0, None),          # m (circle; eight uses it as half-width)
    "trajectory.speed": (0.5, "> 0"),          # m/s
    "trajectory.center": ((0.0, 0.0, 1.5), None),
    "trajectory.laps": (10, ">= 1"),
    "trajectory.spacing": (0.5, "> 0"),        # s between reference points
    "trajectory.start": (2.0, None),           # s, stamp of the first trajectory point
    "trajectory.waypoints": ((), None),        # "x,y,z; x,y,z; ..." when pattern=waypoints
    # VIO stream of the secondary agent
    "vio.rate": (30.0, "> 0"),                 # Hz
    "vio.noise_sigma": (0.0, ">= 0"),          # m, white position noise (0 = drift only)
    "vio.initial_offset": ((5.0, -3.0, 1.0), None),   # t0 of the true L->V transform
    "vio.initial_heading": (0.7, None),        # rad, theta of the true L->V transform
    # position drift of frame V: a constant rate plus a random walk
    "vio_drift.x": (0.0, None),                # m/s
    "vio_drift.y": (0.0, None),
    "vio_drift.z": (0.0, None),
    "vio_drift.sigma": (0.0, ">= 0"),          # m/sqrt(s), random walk
    # lidar detection stream
    "detection.rate": (10.0, "> 0"),           # Hz
    "detection.sigma": (0.15, ">= 0"),         # m, isotropic noise
    "detection.delay_mean": (0.05, ">= 0"),    # s, processing delay
    "detection.delay_jitter": (0.03, ">= 0"),  # s, uniform extra delay
    # wireless link (VIO upstream, references downstream)
    "comm.delay_mean": (0.02, ">= 0"),
    "comm.delay_jitter": (0.02, ">= 0"),
    # environment
    "false_targets.positions": ((), None),     # "x,y,z; x,y,z"
    "nlos.walls": ((), None),                  # "x1,y1,x2,y2; ..." vertical walls in xy
    # secondary agent plant (first-order reference tracking in frame V)
    "plant.time_constant": (0.5, "> 0"),       # s
    "plant.max_speed": (2.0, "> 0"),           # m/s
    "plant.max_heading_rate": (1.5, "> 0"),    # rad/s
    # alignment: one key per AlignmentConfig field, same default and range
    **{f"alignment.{f.name}": (f.default, f.metadata.get("valid"))
       for f in fields(AlignmentConfig)},
    "guider.realign_period": (1.0, "> 0"),     # s between alignment re-solves
    # sweep section (used by the sweep subcommand only)
    "sweep.parameter": ("", None),
    "sweep.values": ((), None),
    "sweep.runs_per_value": (10, ">= 1"),
}

DEFAULTS: dict[str, Any] = {key: default for key, (default, _) in SCHEMA.items()}


#: point-valued keys: (numbers per point, whether the value is a list of points)
_POINT_KEYS = {
    "primary.center": (3, False),
    "trajectory.center": (3, False),
    "vio.initial_offset": (3, False),
    "trajectory.waypoints": (3, True),
    "false_targets.positions": (3, True),
    "nlos.walls": (4, True),
}


def _coerce_points(key: str, raw: Any) -> tuple:
    """One point (a flat tuple) or a tuple of points, each of the key's length.

    ``raw`` is text ("a,b,c; d,e,f"), one point, or a sequence of points.
    """
    size, many = _POINT_KEYS[key]
    if not isinstance(raw, (tuple, list)):
        groups = [g.replace(",", " ").split() for g in str(raw).split(";") if g.strip()]
    elif raw and not isinstance(raw[0], (tuple, list)):
        groups = [raw]
    else:
        groups = list(raw)
    points = []
    for g in groups:
        try:
            point = tuple(float(x) for x in g)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: cannot parse point {g!r}") from exc
        if len(point) != size or not all(map(math.isfinite, point)):
            raise ConfigError(f"{key}: each point needs {size} finite numbers, got {point!r}")
        points.append(point)
    if many:
        return tuple(points)
    if len(points) != 1:
        raise ConfigError(f"{key}: expected one point of {size} numbers, got {raw!r}")
    return points[0]


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
        if isinstance(raw, float) and not raw.is_integer():
            # int() would truncate; sweep values reach here as floats
            raise ConfigError(f"{key}: expected an integer, got {raw!r}")
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
    if key in _POINT_KEYS:
        return _coerce_points(key, raw)
    if key == "sweep.values":
        if isinstance(raw, tuple):
            return raw
        text = str(raw).strip()
        if not text:
            return ()
        try:
            return tuple(float(x) for x in text.replace(",", " ").split())
        except ValueError as exc:
            raise ConfigError(f"{key}: expected a list of numbers, got {raw!r}") from exc
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
    """``parse_config_text`` of a file; bytes that are not UTF-8 are a
    ConfigError naming their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"line {lineno}: not UTF-8 text ({exc.reason})") from exc
    return parse_config_text(text)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: flat effective mapping + typed alignment config."""

    values: Mapping[str, Any]
    alignment: AlignmentConfig = field(init=False)

    def __post_init__(self):
        v = self.values
        for key, (_, valid) in SCHEMA.items():
            if isinstance(valid, tuple) and v[key] not in valid:
                raise ConfigError(f"{key} must be one of {valid}, got {v[key]!r}")
            if isinstance(valid, str) and not _BOUNDS[valid](v[key]):
                raise ConfigError(f"{key} must be {valid}, got {v[key]!r}")
        if v["trajectory.pattern"] == "waypoints" and len(v["trajectory.waypoints"]) < 2:
            raise ConfigError("trajectory.waypoints needs at least two x,y,z points "
                              "when trajectory.pattern = waypoints")
        if v["sweep.parameter"] and v["sweep.parameter"] not in SCHEMA:
            # the one free-text key: its value is written to events.log
            raise ConfigError(f"sweep.parameter must be a config key, "
                              f"got {v['sweep.parameter']!r}")
        if v["trajectory.pattern"] != "waypoints" and v["trajectory.radius"] <= 0:
            raise ConfigError(f"trajectory.radius must be positive for the "
                              f"{v['trajectory.pattern']} pattern, got {v['trajectory.radius']}")
        object.__setattr__(self, "alignment", AlignmentConfig(**{
            f.name: v[f"alignment.{f.name}"] for f in fields(AlignmentConfig)}))

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
