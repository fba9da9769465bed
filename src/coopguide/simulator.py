"""Deterministic closed-loop scenario engine.

Runs a fixed-step simulation of the two-agent system: the primary agent
moves on a scripted pattern and "detects" the secondary agent (plus optional
hovering false targets) with configurable noise, rate, processing delay and
wall occlusion; the secondary agent is a first-order plant that tracks
streamed references in its own drifting VIO frame; the guider closes the
loop on board the primary.  All randomness comes from six dedicated
sub-streams of one seed (detection noise and delay, VIO noise and delay,
reference delay, drift walk), so a fixed config+seed reproduces the event
log byte for byte.  Each sub-stream is drawn ``DRAW_BLOCK`` values per numpy
call (``_draws``, ``drift_offsets``) and read one value at a time, in the
order of one call per value.  The tick loop keeps the drift offset, the
plant state and the true pose as (x, y, z) floats updated element by
element, and logs those floats.

True frame relation maintained by the engine:

    p_V(t) = Rz(theta0) @ p_L(t) + t0 + o(t)

with (t0, theta0) the initial VIO frame offset and o(t) the accumulated
position drift: the ``vio_drift.x/y/z`` rate times t plus a random walk of
intensity ``vio_drift.sigma`` (``drift_offsets``), the two terms adding
up.  The guider's frame filter (``tracker``) estimates this relation, its
offset standing for t0 + o(t) and its heading for theta0.  Until the guider
initializes, the engine streams references through this true transform
(operator-assisted start); afterwards the guider streams through its own
estimate.  Either way a batch is
``Trajectory.streamed`` of the desired trajectory at t with that transform,
and the run's record is an ``EventLog``.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional, Sequence

import numpy as np

from .config import ScenarioConfig, format_value
from .eventlog import EventLog
from .geometry import Detection, TimedPose, rot_z, wrap_heading
from .guider import Guider
from .paths import REF_RATE, ReferencePath, Trajectory, generate_trajectory


# ---------------------------------------------------------------------------
# random sub-streams and drift


DRAW_BLOCK = 256             # values drawn per numpy call of a sub-stream


def _draws(draw, shape: tuple = ()) -> Iterator:
    """The values of one dedicated sub-stream, in order, as Python floats
    (``shape`` () gives floats, (3,) lists of three).

    Each ``draw(size=(DRAW_BLOCK, *shape))`` call fills one block.  A
    ``Generator`` fills an array in the order of per-value calls, and
    nothing else reads the sub-stream, so the sequence is that of one
    ``draw(size=shape)`` call per value.  Nothing is drawn before the first
    value is read.
    """
    size = (DRAW_BLOCK, *shape)
    while True:
        yield from draw(size=size).tolist()


def drift_offsets(rate: Sequence[float], sigma: float, rng: np.random.Generator,
                  dt: float) -> Iterator[list]:
    """Accumulated position drift of the VIO frame at ticks 0, 1, 2, ...:
    (x, y, z) float lists, starting at zero, of a constant ``rate`` (m/s)
    plus a random walk of intensity ``sigma`` (m/sqrt(s)).

    Tick k's offset is tick k-1's plus ``rate * dt``, then plus
    ``sigma * sqrt(dt) * n`` with ``n`` a ``standard_normal`` triple of
    ``rng``, added in that order.  Each block of ``DRAW_BLOCK`` ticks is one
    ``np.cumsum`` over [previous offset, r*dt, s*n1, r*dt, s*n2, ...], or over
    the rate steps alone when sigma is 0, which leaves ``rng`` undrawn.
    """
    step = np.asarray(rate, float) * dt
    scale = sigma * math.sqrt(dt)
    walk = sigma > 0.0
    terms = np.zeros(((2 if walk else 1) * DRAW_BLOCK + 1, 3))
    offsets = terms[2::2] if walk else terms[1:]
    yield [0.0, 0.0, 0.0]
    while True:
        terms[0] = terms[-1]
        if walk:
            terms[1::2] = step
            terms[2::2] = scale * rng.standard_normal((DRAW_BLOCK, 3))
        else:
            terms[1:] = step
        np.cumsum(terms, axis=0, out=terms)
        yield from offsets.tolist()


# ---------------------------------------------------------------------------
# occlusion and detection


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_intersect(p1, p2, q1, q2) -> bool:
    """2D segment intersection (touching counts as intersecting)."""
    d1, d2 = _orient(q1, q2, p1), _orient(q1, q2, p2)
    d3, d4 = _orient(p1, p2, q1), _orient(p1, p2, q2)
    if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0) or (d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0):
        return False    # one segment lies strictly on one side of the other
    if d1 == d2 == d3 == d4 == 0:   # collinear: the bounding boxes decide
        return all(min(p1[i], p2[i]) <= max(q1[i], q2[i])
                   and min(q1[i], q2[i]) <= max(p1[i], p2[i]) for i in (0, 1))
    return True


def line_of_sight(primary_xy, target_xy, walls) -> bool:
    """True when no wall segment crosses the primary->target sightline (xy)."""
    for wall in walls:
        if _segments_intersect(primary_xy, target_xy, wall[0:2], wall[2:4]):
            return False
    return True


def lidar_detect(
    stamp: float,
    truth_secondary: Sequence[float],
    truth_primary: Sequence[float],
    false_targets: Sequence[Sequence[float]],
    walls: Sequence[Sequence[float]],
    noise: Iterator[Sequence[float]],
    sigma: float,
) -> list[Detection]:
    """One detection per visible target, with isotropic Gaussian noise.

    Track id 0 is the secondary agent; false targets get ids 1..n in order.
    Walls occlude in the xy plane (modeled as full-height).  Positions are
    finite (x, y, z) float sequences, and each detection adds the next
    (x, y, z) float triple of ``noise``, the detection-noise sub-stream
    drawn with standard deviation ``sigma``.
    """
    out = []
    p_xy = truth_primary[:2]
    for track_id, (x, y, z) in enumerate((truth_secondary, *false_targets)):
        if walls and not line_of_sight(p_xy, (x, y), walls):
            continue
        nx, ny, nz = next(noise)
        out.append(Detection(stamp, x + nx, y + ny, z + nz, sigma, track_id))
    return out


# ---------------------------------------------------------------------------
# primary motion


def primary_pose(values, t: float) -> tuple[tuple[float, float, float], float]:
    """Scripted primary-agent pose ((x, y, z), heading) at time t, in floats."""
    cx, cy, cz = values["primary.center"]
    pattern = values["primary.pattern"]
    size = values["primary.size"]
    speed = values["primary.speed"]
    if size <= 0 or speed <= 0:
        return (cx, cy, cz), 0.0
    if pattern == "line":
        cycle = 2.0 * size
        m = (speed * t) % cycle
        u = m if m <= size else cycle - m
        heading = 0.0 if m <= size else math.pi
        return (cx - 0.5 * size + u, cy, cz), heading
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
    return (*pos, cz), heading


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


class ReferenceBatch:
    """A streamed reference batch as float lists, made once when it arrives
    and read by the plant at every tick."""

    __slots__ = ("stamps", "positions", "headings")

    def __init__(self, refs: Trajectory):
        self.stamps = refs.stamps.tolist()
        self.positions = refs.positions.tolist()
        self.headings = refs.headings.tolist()

    def __len__(self) -> int:
        return len(self.stamps)


def _interp_refs(refs: ReferenceBatch, t: float) -> tuple[list, float]:
    """Reference (position, heading) at ``t``, held without tolerance at the
    ends, where the position is the batch's own list: read it only."""
    stamps = refs.stamps
    hi = bisect.bisect_right(stamps, t)
    if hi == len(stamps):   # t >= last stamp
        return refs.positions[-1], refs.headings[-1]
    if hi <= 1 and t <= stamps[0]:
        return refs.positions[0], refs.headings[0]
    s0, s1 = stamps[hi - 1], stamps[hi]
    h0, h1 = refs.headings[hi - 1], refs.headings[hi]
    (x0, y0, z0), (x1, y1, z1) = refs.positions[hi - 1], refs.positions[hi]
    u = (t - s0) / (s1 - s0)
    pos = [x0 + u * (x1 - x0), y0 + u * (y1 - y0), z0 + u * (z1 - z0)]
    return pos, wrap_heading(h0 + u * wrap_heading(h1 - h0))


def plant_step(
    state: PlantState,
    pending_refs: Optional[ReferenceBatch],
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

    det_sigma = v["detection.sigma"]
    vio_sigma = v["vio.noise_sigma"]
    det_noise = _draws(partial(_stream_rng(seed, _STREAM_DET_NOISE).normal, 0.0, det_sigma),
                       (3,))
    det_delays = _draws(_stream_rng(seed, _STREAM_DET_DELAY).random)
    vio_noise = _draws(partial(_stream_rng(seed, _STREAM_VIO_NOISE).normal, 0.0, vio_sigma),
                       (3,))
    vio_delays = _draws(_stream_rng(seed, _STREAM_VIO_DELAY).random)
    ref_delays = _draws(_stream_rng(seed, _STREAM_REF_DELAY).random)
    offsets = drift_offsets((v["vio_drift.x"], v["vio_drift.y"], v["vio_drift.z"]),
                            v["vio_drift.sigma"], _stream_rng(seed, _STREAM_DRIFT), dt)
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
    pending_refs: Optional[ReferenceBatch] = None

    log = EventLog()
    for key, value in config.effective_items():
        log.append(("H", key, format_value(value)))

    det_period = 1.0 / v["detection.rate"]
    vio_period = 1.0 / v["vio.rate"]
    ref_period = 1.0 / REF_RATE
    decim = v["scenario.truth_log_decimation"]
    det_delay_mean = v["detection.delay_mean"]
    det_delay_jitter = v["detection.delay_jitter"]
    comm_mean = v["comm.delay_mean"]
    comm_jitter = v["comm.delay_jitter"]
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
        ox, oy, oz = next(offsets)
        if k:
            plant = plant_step(plant, pending_refs, t, dt, plant_params)

        # ground truth of the secondary in L, derived from the plant's V pose
        # (scalar form of R0_inv @ (p - t0 - offset); this runs per tick)
        px, py, pz = plant.position
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
                pending_refs = ReferenceBatch(payload)

        # sensor sampling on the tick grid
        if t >= next_det - eps:
            next_det += det_period
            prim_pos, _ = primary_pose(v, t)
            dets = lidar_detect(t, truth_pos, prim_pos, false_targets, walls,
                                det_noise, det_sigma)
            if dets:
                arrival = t + det_delay_mean + det_delay_jitter * next(det_delays)
                for d in dets:
                    log.append(("DET", t, arrival, d.track_id, d.x, d.y, d.z, det_sigma))
                seq += 1
                heapq.heappush(events, (arrival, seq, "det", dets))

        if t >= next_vio - eps:
            next_vio += vio_period
            pos = plant.position
            if vio_sigma > 0.0:
                nx, ny, nz = next(vio_noise)
                pos = (px + nx, py + ny, pz + nz)
            pose = TimedPose(t, *pos, plant.heading, *plant.velocity, plant.heading_rate)
            arrival = t + comm_mean + comm_jitter * next(vio_delays)
            log.append(("VIO", t, arrival, *pos, *plant.velocity,
                        plant.heading, plant.heading_rate))
            seq += 1
            heapq.heappush(events, (arrival, seq, "vio", pose))

        if t >= next_ref - eps:
            next_ref += ref_period
            if guider.initialized:
                out = guider.current_output(t)
                est = out.secondary_pose_in_l
                log.append(("EST", t, out.status.value, est.x, est.y, est.z, est.heading,
                            *out.transform_l_to_s))
                *translation, heading = out.transform_l_to_s   # the batch's transform
                streamed = guider.transform_and_stream(desired, out)
            else:
                # operator-assisted start: true transform until initialization
                translation, heading = [t0x + ox, t0y + oy, t0z + oz], theta0
                streamed = desired.streamed(t, translation, heading)
            if streamed is not None and len(streamed):
                arrival = t + comm_mean + comm_jitter * next(ref_delays)
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
