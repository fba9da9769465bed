"""The event log: a scenario run's chronological, replayable record stream.

Its serialized form is line-delimited ``TAG field ...`` text with
shortest-round-trip floats.  A REF record keeps the transform its batch was
mapped with, not the points; ``streamed_references`` rebuilds the batches
from it and the config echo.  Open-loop series that the config echo alone
determines are not logged: the primary's pose is ``primary_pose(values, t)``
and the drift offset at tick k is value k, counted from 0, of
``drift_offsets`` on the drift sub-stream (both in ``simulator``).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .config import ScenarioConfig, build_config
from .guider import GuiderStatus
from .paths import Trajectory, generate_trajectory


class LogParseError(ValueError):
    """Raised on corrupt or truncated event log files."""

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


#: each record tag's field count and kind (see ``EventLog``); the kind decides
#: how the fields parse and which checks a line runs: "float" and "TS" hold
#: floats only, "counted" two floats, an int (a track id or a count) and
#: floats, "H" two strings and "EST" a float, a status and floats; the TS and
#: the EST stamps each increase strictly
_RECORD_FIELDS: dict[str, tuple[int, str]] = {
    "H": (2, "H"),
    "TS": (5, "TS"),
    "DET": (7, "counted"),
    "VIO": (10, "float"),
    "REF": (7, "counted"),
    "EST": (10, "EST"),
    "FAIL": (1, "float"),
    "END": (1, "float"),
}
#: the status names an EST record may hold
_STATUSES = frozenset(status.value for status in GuiderStatus)


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
        number is finite and written without digit-group underscores, an
        EST status is a ``GuiderStatus`` value, and the TS and EST stamps
        each increase strictly, as the evaluation's interpolation assumes.

        Numbers are checked by value, not by spelling: ``+0.25``, ``01.5``
        or ``2.5e-1`` load as the number they spell, and
        ``loads(text).dumps()`` is the canonical text.  A tab or a non-ASCII
        character, which ``float`` and ``int`` would strip around a number,
        is rejected anywhere in the text."""
        if "\t" in text or not text.isascii():
            lineno = next(i for i, line in enumerate(text.splitlines(keepends=True), start=1)
                          if "\t" in line or not line.isascii())
            raise LogParseError("tab or non-ASCII character", lineno)
        log = cls()
        records = log.records
        last_stamp = {"TS": -math.inf, "EST": -math.inf}
        lineno = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            tag, *fields = line.split(" ")
            try:
                spec = _RECORD_FIELDS.get(tag)
                if spec is None:
                    raise ValueError(f"unknown record tag {tag!r}")
                count, kind = spec
                if len(fields) != count:
                    raise ValueError(f"{tag} record needs {count} fields, got {len(fields)}")
                if kind == "H":
                    records.append((tag, *fields))
                    continue
                numbers = line   # the text of the number fields
                if kind == "float" or kind == "TS":
                    record = (tag, *map(float, fields))
                elif kind == "counted":
                    t0, t1, n, *rest = fields
                    record = (tag, float(t0), float(t1), int(n), *map(float, rest))
                else:   # EST: every status holds an "n"
                    stamp, status, *rest = fields
                    record = (tag, float(stamp), status, *map(float, rest))
                    if status not in _STATUSES:
                        raise ValueError(f"unknown EST status {status!r}")
                    numbers = stamp + "".join(rest)
                # a finite float's repr has no "n"; nan, inf and infinity do
                if ("n" in numbers or "N" in numbers) and not all(
                        math.isfinite(v) for v in record if type(v) is float):
                    raise ValueError(f"non-finite number in {tag} record")
                # float() and int() read "1_0" as 10; dumps never writes "_"
                if "_" in numbers:
                    raise ValueError(f"digit-group underscore in a {tag} number")
                if kind == "TS" or kind == "EST":
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


def streamed_references(log: EventLog) -> list[tuple[float, float, Trajectory]]:
    """(t_emit, t_arrive, batch in V) of every REF record of ``log``.

    A batch is ``Trajectory.streamed`` of the desired trajectory of the log's
    config echo at t_emit, with the record's transform: bit for bit the batch
    the run streamed.  Raises ValueError when a record's point count does not
    match that batch.
    """
    desired = generate_trajectory(log.config().values)
    out = []
    for _, t_emit, t_arrive, n, tx, ty, tz, heading in log.iter_tag("REF"):
        batch = desired.streamed(t_emit, np.array([tx, ty, tz]), heading)
        if len(batch) != n:
            raise ValueError(f"REF at t={t_emit!r} holds {n} points, "
                             f"but its window holds {len(batch)}")
        out.append((t_emit, t_arrive, batch))
    return out
