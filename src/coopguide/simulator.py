"""Deterministic closed-loop scenario engine.

Runs a fixed-step simulation of the two-agent system: the primary agent
moves on a scripted pattern and "detects" the secondary agent (plus optional
hovering false targets) with configurable noise, rate, processing delay and
wall occlusion; the secondary agent is a first-order plant that tracks
streamed references in its own drifting VIO frame; the guider closes the
loop on board the primary.  All randomness comes from named sub-streams of
one seed, so a fixed config+seed reproduces the event log byte for byte.
The tick loop keeps the drift offset, the plant state and the true pose as
(x, y, z) float tuples updated element by element, and logs those floats.

True frame relation maintained by the engine:

    p_V(t) = Rz(theta0) @ p_L(t) + t0 + o(t)

with (t0, theta0) the initial VIO frame offset and o(t) the accumulated
position drift: the ``vio_drift.x/y/z`` rate times t plus a random walk of
intensity ``vio_drift.sigma`` (``Drift``), the two terms adding up.  Until
the guider initializes, the engine streams references through this true
transform (operator-assisted start); afterwards the guider streams through
its own estimate.  Either way a batch is the desired trajectory's window
[t, t + STREAM_HORIZON] mapped by ``Trajectory.mapped``.

The event log is a chronological, replayable record stream; serialized form
is line-delimited ``TAG field ...`` text with shortest-round-trip floats.  A
REF record keeps the transform its batch was mapped with, not the points;
``streamed_references`` rebuilds the batches from it and the config echo.
Open-loop series that the config echo alone determines are not logged: the
primary's pose is ``primary_pose(values, t)`` and the drift offset is
``make_drift(values)`` stepped once per tick on the drift sub-stream.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .config import ScenarioConfig, build_config, format_value
from .geometry import Detection, Frame, TimedPose, rot_z, wrap_heading
from .guider import REF_RATE, STREAM_HORIZON, Guider, Trajectory


class LogParseError(ValueError):
    """Raised on corrupt or truncated event log files."""

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


# ---------------------------------------------------------------------------
# event log


#: field converters of each record tag, in order (see ``EventLog``)
_RECORD_FIELDS: dict[str, tuple] = {
    "H": (str, str),
    "TS": (float,) * 5,
    "DET": (float, float, int, float, float, float, float),
    "VIO": (float,) * 10,
    "REF": (float, float, int, float, float, float, float),
    "EST": (float, str) + (float,) * 8,
    "FAIL": (float,),
    "END": (float,),
}


def _convert(converter, field: str):
    # map(_convert, ...) parses a record faster than a comprehension over zip
    return converter(field)


class EventLog:
    """Time-ordered record stream of one scenario run.

    Record kinds (fields after the tag):
        H    key value               -- effective config echo
        TS   t x y z heading         -- secondary ground-truth pose (L)
        DET  t_meas t_arrive track x y z sigma
        VIO  t_meas t_arrive x y z vx vy vz phi omega   -- V-frame sample
        REF  t_emit t_arrive n tx ty tz theta  -- streamed batch of n points,
             mapped L->V with (tx ty tz, theta); see ``streamed_references``
        EST  t status x y z phi tx ty tz theta          -- guider output
        FAIL t                       -- abort-radius failure
        END  t
    """

    def __init__(self):
        self.records: list[tuple] = []

    def append(self, record: tuple) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def iter_tag(self, tag: str) -> Iterator[tuple]:
        return (r for r in self.records if r[0] == tag)

    # -- typed accessors -----------------------------------------------------

    def config(self) -> ScenarioConfig:
        """The run's effective config, rebuilt from the ``H`` echo (ConfigError
        when the echo holds an unknown key or a bad value)."""
        return build_config({r[1]: r[2] for r in self.iter_tag("H")})

    def truth(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(stamps, positions (N,3), headings) of the TS ground-truth records."""
        rows = [r[1:] for r in self.iter_tag("TS")]
        if not rows:
            return np.empty(0), np.empty((0, 3)), np.empty(0)
        arr = np.asarray(rows, dtype=float)
        return arr[:, 0], arr[:, 1:4], arr[:, 4]

    def estimates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
        """(stamps, positions (N,3), headings, statuses) from EST records."""
        recs = list(self.iter_tag("EST"))
        if not recs:
            return np.empty(0), np.empty((0, 3)), np.empty(0), []
        stamps = np.array([r[1] for r in recs])
        pos = np.array([r[3:6] for r in recs], dtype=float)
        head = np.array([r[6] for r in recs], dtype=float)
        statuses = [r[2] for r in recs]
        return stamps, pos, head, statuses

    def detection_stamps(self, track_id: int) -> np.ndarray:
        return np.array([r[1] for r in self.iter_tag("DET") if r[3] == track_id])

    @property
    def failed(self) -> bool:
        return any(r[0] == "FAIL" for r in self.records)

    # -- serialization -------------------------------------------------------

    def dumps(self) -> str:
        # str(float) is the shortest round-trip repr
        return "\n".join([" ".join(map(str, rec)) for rec in self.records]) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "EventLog":
        """Parse ``dumps`` output: fields are single-space separated, every
        tag has an exact field count (an H value may be empty), every
        number is finite and the TS and EST stamps each increase strictly,
        as the evaluation's interpolation assumes."""
        log = cls()
        records = log.records
        last_stamp = {"TS": -math.inf, "EST": -math.inf}
        lineno = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            tag, *fields = line.split(" ")
            try:
                converters = _RECORD_FIELDS.get(tag)
                if converters is None:
                    raise ValueError(f"unknown record tag {tag!r}")
                if len(fields) != len(converters):
                    raise ValueError(f"{tag} record needs {len(converters)} fields, "
                                     f"got {len(fields)}")
                record = (tag, *map(_convert, converters, fields))
                # a finite float's repr has no "n"; nan, inf and infinity do
                if ("n" in line or "N" in line) and not all(
                        math.isfinite(v) for v in record if type(v) is float):
                    raise ValueError(f"non-finite number in {tag} record")
                if tag in last_stamp:
                    if record[1] <= last_stamp[tag]:
                        raise ValueError(f"{tag} stamp {record[1]!r} is not greater than "
                                         f"the previous {tag} stamp {last_stamp[tag]!r}")
                    last_stamp[tag] = record[1]
                records.append(record)
            except ValueError as exc:
                raise LogParseError(str(exc), lineno) from exc
        if not records or records[-1][0] != "END":
            raise LogParseError("log is truncated: no END record", lineno + 1)
        return log

    @classmethod
    def load(cls, path: str) -> "EventLog":
        """``loads`` of a file; bytes that are not UTF-8 are a LogParseError
        naming their line."""
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LogParseError(f"not UTF-8 text ({exc.reason})",
                                data.count(b"\n", 0, exc.start) + 1) from exc
        return cls.loads(text)


# ---------------------------------------------------------------------------
# drift


class Drift:
    """Accumulated position drift of the VIO frame: a constant ``rate`` (m/s)
    plus a random walk of intensity ``sigma`` (m/sqrt(s)), each zero when unset.

    ``offset`` and ``rate`` are (x, y, z) float tuples, stepped element by
    element once per tick; the walk draws from ``rng`` only when sigma > 0.
    """

    def __init__(self, rate: Sequence[float] = (0.0, 0.0, 0.0), sigma: float = 0.0):
        self.offset = (0.0, 0.0, 0.0)
        self.rate = tuple(map(float, rate))
        self.sigma = float(sigma)

    def step(self, dt: float, rng: np.random.Generator) -> None:
        (ox, oy, oz), (rx, ry, rz) = self.offset, self.rate
        ox, oy, oz = ox + rx * dt, oy + ry * dt, oz + rz * dt
        if self.sigma > 0.0:
            scale = self.sigma * math.sqrt(dt)
            nx, ny, nz = rng.standard_normal(3).tolist()
            ox, oy, oz = ox + scale * nx, oy + scale * ny, oz + scale * nz
        self.offset = (ox, oy, oz)


def make_drift(values) -> Drift:
    return Drift((values["vio_drift.x"], values["vio_drift.y"], values["vio_drift.z"]),
                 values["vio_drift.sigma"])


# ---------------------------------------------------------------------------
# occlusion and detection


def _segments_intersect(p1, p2, q1, q2) -> bool:
    """2D segment intersection (touching counts as intersecting)."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) or d1 == 0 or d2 == 0) and \
       ((d3 > 0) != (d4 > 0) or d3 == 0 or d4 == 0):
        # possible intersection incl. collinear overlap; confirm with boxes
        if d1 == 0 and d2 == 0 and d3 == 0 and d4 == 0:
            return (min(p1[0], p2[0]) <= max(q1[0], q2[0])
                    and min(q1[0], q2[0]) <= max(p1[0], p2[0])
                    and min(p1[1], p2[1]) <= max(q1[1], q2[1])
                    and min(q1[1], q2[1]) <= max(p1[1], p2[1]))
        return ((d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)) or \
            d1 == 0 or d2 == 0 or d3 == 0 or d4 == 0
    return False


def line_of_sight(primary_xy, target_xy, walls) -> bool:
    """True when no wall segment crosses the primary->target sightline (xy)."""
    for wall in walls:
        if _segments_intersect(primary_xy, target_xy, wall[0:2], wall[2:4]):
            return False
    return True


def lidar_detect(
    stamp: float,
    truth_secondary: Sequence[float],
    truth_primary: np.ndarray,
    false_targets: Sequence[Sequence[float]],
    walls: Sequence[Sequence[float]],
    rng: np.random.Generator,
    sigma: float,
) -> list[Detection]:
    """One detection per visible target, with isotropic Gaussian noise.

    Track id 0 is the secondary agent; false targets get ids 1..n in order.
    Walls occlude in the xy plane (modeled as full-height).
    """
    out = []
    p_xy = truth_primary[0:2]
    targets = [(0, truth_secondary)]
    targets += [(i + 1, np.asarray(ft, float)) for i, ft in enumerate(false_targets)]
    for track_id, pos in targets:
        if walls and not line_of_sight(p_xy, pos[0:2], walls):
            continue
        noisy = pos + rng.normal(0.0, sigma, 3)
        out.append(Detection(stamp, noisy, sigma, track_id))
    return out


# ---------------------------------------------------------------------------
# primary motion and desired trajectories


def primary_pose(values, t: float) -> tuple[np.ndarray, float]:
    """Scripted primary-agent pose (position, heading) at time t."""
    cx, cy, cz = values["primary.center"]
    pattern = values["primary.pattern"]
    size = values["primary.size"]
    speed = values["primary.speed"]
    if size <= 0 or speed <= 0:
        return np.array([cx, cy, cz]), 0.0
    if pattern == "line":
        cycle = 2.0 * size
        m = (speed * t) % cycle
        u = m if m <= size else cycle - m
        heading = 0.0 if m <= size else math.pi
        return np.array([cx - 0.5 * size + u, cy, cz]), heading
    # square perimeter, counterclockwise from the lower-left corner
    half = 0.5 * size
    s = (speed * t) % (4.0 * size)
    k = int(s // size)
    r = s - k * size
    if k == 0:
        pos = (cx - half + r, cy - half)
        heading = 0.0
    elif k == 1:
        pos = (cx + half, cy - half + r)
        heading = math.pi / 2
    elif k == 2:
        pos = (cx + half - r, cy + half)
        heading = math.pi
    else:
        pos = (cx - half, cy + half - r)
        heading = -math.pi / 2
    return np.array([pos[0], pos[1], cz]), heading


def generate_trajectory(values) -> Trajectory:
    """Desired secondary-agent trajectory in frame L from the config."""
    pattern = values["trajectory.pattern"]
    speed = values["trajectory.speed"]
    spacing = values["trajectory.spacing"]
    start = values["trajectory.start"]
    cx, cy, cz = values["trajectory.center"]
    if pattern == "circle":
        radius = values["trajectory.radius"]
        laps = values["trajectory.laps"]
        total = laps * 2.0 * math.pi * radius / speed
        omega = speed / radius
        offsets = [k * spacing for k in range(int(math.floor(total / spacing)) + 1)]
        angles = [omega * ts for ts in offsets]
        return Trajectory(
            Frame.LIDAR,
            [start + ts for ts in offsets],
            [(cx + radius * math.cos(ang), cy + radius * math.sin(ang), cz) for ang in angles],
            [ang + math.pi / 2 for ang in angles],
        )
    if pattern == "eight":
        radius = values["trajectory.radius"]
        laps = values["trajectory.laps"]
        # Gerono lemniscate, arc-length parameterized numerically.
        u = np.linspace(0.0, 2.0 * math.pi, 4001)
        x = radius * np.sin(u)
        y = radius * np.sin(u) * np.cos(u)
        seg = np.hypot(np.diff(x), np.diff(y))
        arc = np.concatenate([[0.0], np.cumsum(seg)])
        lap_len = arc[-1]
        total = laps * lap_len / speed
        offsets = [k * spacing for k in range(int(math.floor(total / spacing)) + 1)]
        params = [float(np.interp((speed * ts) % lap_len, arc, u)) for ts in offsets]
        return Trajectory(
            Frame.LIDAR,
            [start + ts for ts in offsets],
            [(cx + radius * math.sin(ui), cy + radius * math.sin(ui) * math.cos(ui), cz)
             for ui in params],
            [math.atan2(math.cos(2.0 * ui), math.cos(ui)) for ui in params],
        )
    # waypoints: constant-speed polyline
    wp = np.asarray(values["trajectory.waypoints"], dtype=float)  # >= 2, ScenarioConfig checks
    seg_vec = np.diff(wp, axis=0)
    seg_len = np.linalg.norm(seg_vec, axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = arc[-1] / speed
    offsets = [k * spacing for k in range(int(math.floor(total / spacing)) + 1)]
    positions, headings = [], []
    for ts in offsets:
        s = min(speed * ts, arc[-1])
        i = min(int(np.searchsorted(arc, s, side="right")) - 1, len(seg_len) - 1)
        u = (s - arc[i]) / seg_len[i] if seg_len[i] > 0 else 0.0
        positions.append(wp[i] + u * seg_vec[i])
        headings.append(math.atan2(seg_vec[i][1], seg_vec[i][0]))
    return Trajectory(Frame.LIDAR, [start + ts for ts in offsets], positions, headings)


def streamed_references(log: EventLog) -> list[tuple[float, float, Trajectory]]:
    """(t_emit, t_arrive, batch in V) of every REF record of ``log``.

    A batch is the desired trajectory of the log's config echo over
    [t_emit, t_emit + STREAM_HORIZON], mapped with the record's
    transform: bit for bit the batch the run streamed.  Raises ValueError when
    a record's point count does not match that window.
    """
    desired = generate_trajectory(log.config().values)
    out = []
    for _, t_emit, t_arrive, n, tx, ty, tz, heading in log.iter_tag("REF"):
        window = desired.slice_window(t_emit, t_emit + STREAM_HORIZON)
        if len(window) != n:
            raise ValueError(f"REF at t={t_emit!r} holds {n} points, "
                             f"but its window holds {len(window)}")
        out.append((t_emit, t_arrive, window.mapped(np.array([tx, ty, tz]), heading)))
    return out


# ---------------------------------------------------------------------------
# reference path distance (abort checks and evaluation share the formula)


class ReferencePath:
    """Geometric form of the desired path for point-to-path distance queries."""

    def __init__(self, values, trajectory: Trajectory):
        self.kind = values["trajectory.pattern"]
        if self.kind == "circle":
            self.center = np.asarray(values["trajectory.center"], float)
            self.radius = values["trajectory.radius"]
            self.polyline = None
        else:
            self.polyline = trajectory.positions
            self.center = None
            self.radius = 0.0

    def distance(self, point: np.ndarray) -> float:
        if self.kind == "circle":
            dxy = math.hypot(point[0] - self.center[0], point[1] - self.center[1])
            dz = point[2] - self.center[2]
            return math.hypot(dxy - self.radius, dz)
        return polyline_distance(self.polyline, point)


def polyline_distance(polyline: np.ndarray, point: np.ndarray) -> float:
    """Minimum distance from a point to an (N,3) polyline."""
    a = polyline[:-1]
    b = polyline[1:]
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    denom[denom == 0.0] = 1.0
    u = np.clip(np.einsum("ij,ij->i", point - a, ab) / denom, 0.0, 1.0)
    proj = a + u[:, None] * ab
    d = np.linalg.norm(proj - point, axis=1)
    return float(d.min())


# ---------------------------------------------------------------------------
# secondary-agent plant


@dataclass(frozen=True)
class PlantParams:
    time_constant: float = 0.5
    max_speed: float = 2.0
    max_heading_rate: float = 1.5


@dataclass
class PlantState:
    """Pose tracked by the secondary agent's controller, in frame V.

    ``position`` and ``velocity`` are (x, y, z) float tuples; ``plant_step``
    also reads any 3-sequence.
    """

    position: tuple[float, float, float]
    heading: float
    velocity: tuple[float, float, float]
    heading_rate: float


def _interp_refs(refs: Trajectory, t: float) -> tuple[list, float]:
    """Reference (position, heading) at ``t``, held without tolerance at the ends."""
    stamps = refs.stamps
    hi = int(stamps.searchsorted(t, side="right"))
    if hi == len(stamps):   # t >= last stamp
        return refs.positions[-1].tolist(), float(refs.headings[-1])
    if hi <= 1 and t <= stamps[0]:
        return refs.positions[0].tolist(), float(refs.headings[0])
    s0, s1 = stamps[hi - 1:hi + 1].tolist()
    h0, h1 = refs.headings[hi - 1:hi + 1].tolist()
    (x0, y0, z0), (x1, y1, z1) = refs.positions[hi - 1:hi + 1].tolist()
    u = (t - s0) / (s1 - s0)
    pos = [x0 + u * (x1 - x0), y0 + u * (y1 - y0), z0 + u * (z1 - z0)]
    return pos, wrap_heading(h0 + u * wrap_heading(h1 - h0))


def plant_step(
    state: PlantState,
    pending_refs: Optional[Trajectory],
    t: float,
    dt: float,
    params: PlantParams,
) -> PlantState:
    """First-order lag toward the interpolated reference, velocity-saturated."""
    if dt <= 0.0:
        raise ValueError("plant_step requires dt > 0")
    if not pending_refs:
        return PlantState(state.position, state.heading, (0.0, 0.0, 0.0), 0.0)
    target, target_heading = _interp_refs(pending_refs, t)
    # scalar math: this runs at the tick rate
    inv_tau = 1.0 / params.time_constant
    px, py, pz = state.position
    vx = (target[0] - px) * inv_tau
    vy = (target[1] - py) * inv_tau
    vz = (target[2] - pz) * inv_tau
    speed = math.sqrt(vx * vx + vy * vy + vz * vz)
    if speed > params.max_speed:
        scale = params.max_speed / speed
        vx *= scale
        vy *= scale
        vz *= scale
    rate = wrap_heading(target_heading - state.heading) * inv_tau
    rate = max(-params.max_heading_rate, min(params.max_heading_rate, rate))
    return PlantState(
        (px + vx * dt, py + vy * dt, pz + vz * dt),
        wrap_heading(state.heading + rate * dt),
        (vx, vy, vz),
        rate,
    )


# ---------------------------------------------------------------------------
# scenario loop


_STREAM_DET_NOISE = 1
_STREAM_DET_DELAY = 2
_STREAM_VIO_NOISE = 3
_STREAM_VIO_DELAY = 4
_STREAM_REF_DELAY = 5
_STREAM_DRIFT = 6


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def run_scenario(config: ScenarioConfig) -> EventLog:
    """Run one closed-loop scenario and return its event log."""
    v = config.values
    seed = v["scenario.seed"]
    tick_rate = v["scenario.tick_rate"]
    dt = 1.0 / tick_rate
    desired = generate_trajectory(v)
    path = ReferencePath(v, desired)
    traj_start = float(desired.stamps[0])
    traj_end = float(desired.stamps[-1])
    duration = v["scenario.duration"] or (traj_end + 5.0)
    n_ticks = int(round(duration * tick_rate))

    det_noise_rng = _stream_rng(seed, _STREAM_DET_NOISE)
    det_delay_rng = _stream_rng(seed, _STREAM_DET_DELAY)
    vio_noise_rng = _stream_rng(seed, _STREAM_VIO_NOISE)
    vio_delay_rng = _stream_rng(seed, _STREAM_VIO_DELAY)
    ref_delay_rng = _stream_rng(seed, _STREAM_REF_DELAY)
    drift_rng = _stream_rng(seed, _STREAM_DRIFT)

    drift = make_drift(v)
    theta0 = v["vio.initial_heading"]
    t0 = np.asarray(v["vio.initial_offset"], float)
    t0x, t0y, t0z = t0.tolist()

    walls = v["nlos.walls"]
    false_targets = v["false_targets.positions"]

    guider = Guider(config.alignment, v["guider.realign_period"])

    plant = PlantState(tuple((rot_z(theta0) @ desired.positions[0] + t0).tolist()),
                       wrap_heading(float(desired.headings[0]) + theta0),
                       (0.0, 0.0, 0.0), 0.0)
    plant_params = PlantParams(v["plant.time_constant"], v["plant.max_speed"],
                               v["plant.max_heading_rate"])
    pending_refs: Optional[Trajectory] = None

    log = EventLog()
    for key, value in config.effective_items():
        log.append(("H", key, format_value(value)))

    det_period = 1.0 / v["detection.rate"]
    vio_period = 1.0 / v["vio.rate"]
    ref_period = 1.0 / REF_RATE
    decim = v["scenario.truth_log_decimation"]
    det_sigma = v["detection.sigma"]
    det_delay_mean = v["detection.delay_mean"]
    det_delay_jitter = v["detection.delay_jitter"]
    comm_mean = v["comm.delay_mean"]
    comm_jitter = v["comm.delay_jitter"]
    vio_noise = v["vio.noise_sigma"]
    abort_radius = v["scenario.abort_radius"]

    next_det = 0.0
    next_vio = 0.0
    next_ref = 0.0
    eps = 1e-9
    events: list[tuple[float, int, str, object]] = []
    seq = 0
    t = 0.0

    abort_every = max(1, int(round(tick_rate / 10.0)))
    c0 = math.cos(-theta0)
    s0 = math.sin(-theta0)

    for k in range(n_ticks + 1):
        t = k * dt
        if k:
            drift.step(dt, drift_rng)
            plant = plant_step(plant, pending_refs, t, dt, plant_params)

        # ground truth of the secondary in L, derived from the plant's V pose
        # (scalar form of R0_inv @ (p - t0 - offset); this runs per tick)
        (px, py, pz), (ox, oy, oz) = plant.position, drift.offset
        dx = px - t0x - ox
        dy = py - t0y - oy
        dz = pz - t0z - oz
        truth_pos = (c0 * dx - s0 * dy, s0 * dx + c0 * dy, dz)
        truth_heading = wrap_heading(plant.heading - theta0)

        # deliver due events
        while events and events[0][0] <= t + eps:
            _, _, kind, payload = heapq.heappop(events)
            if kind == "det":
                guider.ingest_detections(payload)
            elif kind == "vio":
                guider.ingest_vio(payload)
            else:
                pending_refs = payload

        # sensor sampling on the tick grid
        if t >= next_det - eps:
            next_det += det_period
            prim_pos, _ = primary_pose(v, t)
            dets = lidar_detect(t, truth_pos, prim_pos, false_targets, walls,
                                det_noise_rng, det_sigma)
            if dets:
                arrival = t + det_delay_mean + det_delay_jitter * float(det_delay_rng.random())
                for d in dets:
                    log.append(("DET", t, arrival, d.track_id,
                                float(d.position[0]), float(d.position[1]),
                                float(d.position[2]), det_sigma))
                seq += 1
                heapq.heappush(events, (arrival, seq, "det", dets))

        if t >= next_vio - eps:
            next_vio += vio_period
            pos = plant.position
            if vio_noise > 0.0:
                nx, ny, nz = vio_noise_rng.normal(0.0, vio_noise, 3).tolist()
                pos = (px + nx, py + ny, pz + nz)
            pose = TimedPose(t, Frame.VIO, pos, plant.heading,
                             plant.velocity, plant.heading_rate)
            arrival = t + comm_mean + comm_jitter * float(vio_delay_rng.random())
            log.append(("VIO", t, arrival, *pos, *plant.velocity,
                        plant.heading, plant.heading_rate))
            seq += 1
            heapq.heappush(events, (arrival, seq, "vio", pose))

        if t >= next_ref - eps:
            next_ref += ref_period
            if guider.initialized:
                out = guider.current_output(t)
                T = out.transform_l_to_s
                log.append(("EST", t, out.status.value,
                            float(out.secondary_pose_in_l.position[0]),
                            float(out.secondary_pose_in_l.position[1]),
                            float(out.secondary_pose_in_l.position[2]),
                            out.secondary_pose_in_l.heading,
                            float(T.translation[0]), float(T.translation[1]),
                            float(T.translation[2]), T.heading))
                translation, heading = T.translation.tolist(), T.heading  # the batch's transform
                streamed = guider.transform_and_stream(desired, t)
            else:
                # operator-assisted start: true transform until initialization
                translation, heading = [t0x + ox, t0y + oy, t0z + oz], theta0
                streamed = desired.slice_window(t, t + STREAM_HORIZON).mapped(translation, heading)
            if streamed is not None and len(streamed):
                arrival = t + comm_mean + comm_jitter * float(ref_delay_rng.random())
                log.append(("REF", t, arrival, len(streamed), *translation, heading))
                seq += 1
                heapq.heappush(events, (arrival, seq, "ref", streamed))

        if k % decim == 0:
            log.append(("TS", t, *truth_pos, truth_heading))

        if (t >= traj_start and k % abort_every == 0
                and path.distance(truth_pos) > abort_radius):
            log.append(("FAIL", t))
            break

    log.append(("END", t))
    return log
