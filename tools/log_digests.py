"""Print ``label sha256 report_sha256 rel_loc_rmse mean_path_deviation`` for the byte-identity run set.

    python3 tools/log_digests.py [--exclude TAG ...] > digests.txt
    python3 tools/log_digests.py [--exclude TAG ...] --check digests.txt

Run it from two checkouts and ``diff`` the outputs: a change that keeps
behaviour leaves every line equal, and a numerical change shows its metric
deltas, run by run, in the last two columns (``evaluate_log`` of the same
log).  To compare against a parent commit, run this file (the copy of the
newer checkout) in both checkouts, so both outputs have the same columns.
``--check FILE`` does the comparison itself: it runs the set, prints
each run whose line differs from ``FILE`` (an earlier output of this tool,
made with the same ``--exclude``) with its digest and report changes and its
metric deltas, then one line per
benchmark workload with the sub-seed means of both metrics in ``FILE`` and
now and their relative change (the accuracy ``perfbench`` reports), and
exits 1 on any difference.  ``--exclude REF`` digests the log without its
REF lines, to compare the rest across a change of the REF record's format.  The set is 53
runs:

- every ``configs/*.cfg`` without a sweep section, at full length;
- every config with a sweep section at the first, middle and last of its
  ``sweep.values`` (``drift_sweep.cfg`` at ``vio_drift.x`` 0.0, 0.4, 0.8),
  at full length and the config's own seed;
- the sub-seeds of each benchmark workload's default seed, as
  ``perfbench/bench.py`` defines them (16 one-lap runs per workload).

The digest is taken over ``EventLog.dumps()``, the bytes ``coopguide run``
writes to ``events.log``; the report digest over the text it writes to
``report.txt``, so an evaluation change shows run by run, not only through
the two metrics.  Each row reads its log back with ``EventLog.loads`` first,
so a check that passes also shows that every log of the set parses.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402  (perfbench/bench.py: workloads and sub-seeds)
from coopguide.cli import _report  # noqa: E402
from coopguide.config import ScenarioConfig, build_config, load_config_file  # noqa: E402
from coopguide.eventlog import EventLog  # noqa: E402
from coopguide.simulator import run_scenario  # noqa: E402


def runs() -> list[tuple[str, ScenarioConfig]]:
    """(label, config) of every run in the set, in output order."""
    out = []
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        overrides = load_config_file(str(path))
        config = build_config(overrides)
        parameter, values = config["sweep.parameter"], config["sweep.values"]
        if not parameter:
            out.append((path.name, config))
            continue
        for value in (values[0], values[len(values) // 2], values[-1]):
            out.append((f"{path.name}:{parameter}={value!r}",
                        build_config({**overrides, parameter: value})))
    for name in bench.WORKLOADS:
        for seed in bench.sub_seeds(bench.default_seed(name)):
            out.append((f"bench:{name}:seed={seed}", bench.make_config(name, seed)))
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _log_sha256(log, exclude: tuple[str, ...]) -> str:
    log.records = [r for r in log.records if r[0] not in exclude]
    return _sha256(log.dumps())


def digest(config: ScenarioConfig, exclude: tuple[str, ...] = ()) -> str:
    """sha256 of the event log one run of ``config`` writes, minus the
    lines whose tag is in ``exclude``."""
    return _log_sha256(run_scenario(config), exclude)


def row(config: ScenarioConfig, exclude: tuple[str, ...] = ()) -> str:
    """``sha256 report_sha256 rel_loc_rmse mean_path_deviation`` of one run
    of ``config``; the report and the metrics are evaluated on the whole
    log, read back with ``EventLog.loads``, before ``exclude`` applies."""
    log = EventLog.loads(run_scenario(config).dumps())
    report, text = _report(log, config)
    return (f"{_log_sha256(log, exclude)} {_sha256(text)} "
            f"{report.rel_loc_rmse!r} {report.mean_path_deviation!r}")


def differences(saved: str, current: list[str]) -> list[str]:
    """One line per run whose output line differs between ``saved`` (text
    this tool printed) and ``current`` (its lines now): the label, whether
    the log digest and the report differ, and the change of each metric,
    current minus saved.  A label on one side only is a difference too."""
    def by_label(lines):
        return {line.split(" ", 1)[0]: line.split(" ")[1:] for line in lines if line.strip()}

    before, after = by_label(saved.splitlines()), by_label(current)
    out = []
    for label in [*after, *(label for label in before if label not in after)]:
        old, new = before.get(label), after.get(label)
        if old == new:
            continue
        if old is None or new is None:
            out.append(f"{label} {'not in FILE' if old is None else 'not in this run set'}")
            continue
        deltas = (float(b) - float(a) for a, b in zip(old[2:], new[2:]))
        out.append(f"{label} digest {'differs' if old[0] != new[0] else 'equal'}, "
                   f"report {'differs' if old[1] != new[1] else 'equal'}, "
                   "rel_loc_rmse {:+.3e}, mean_path_deviation {:+.3e}".format(*deltas))
    return out


def workload_means(saved: str, current: list[str]) -> list[str]:
    """One line per benchmark workload with runs on both sides: the mean of
    each metric over its ``bench:NAME:seed=`` runs in ``saved`` and in
    ``current``, and the relative change.  ``perfbench`` reports the same
    means, so the line reads as the change's benchmark accuracy delta."""
    def means(lines):
        runs = {}
        for line in lines:
            label, *fields = line.split(" ")
            if label.startswith("bench:") and len(fields) == 4:
                runs.setdefault(label.split(":")[1], []).append(
                    (float(fields[2]), float(fields[3])))
        return {name: [statistics.fmean(column) for column in zip(*rows)]
                for name, rows in runs.items()}

    before, after = means(saved.splitlines()), means(current)
    out = []
    for name in (name for name in after if name in before):
        parts = [f"{metric} {old:.5f} -> {new:.5f} ({(new - old) / old:+.2%})"
                 for metric, old, new in zip(("rel_loc_rmse", "mean_path_deviation"),
                                             before[name], after[name])]
        out.append(f"bench:{name} sub-seed means: " + ", ".join(parts))
    return out


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--exclude", action="append", default=[], metavar="TAG",
                        help="leave this record tag out of every digest (repeatable)")
    parser.add_argument("--check", metavar="FILE", type=Path,
                        help="compare with an earlier output of this tool instead of "
                             "printing; exit 1 if any run differs")
    args = parser.parse_args(argv)
    exclude = tuple(args.exclude)
    lines = []
    for label, config in runs():
        lines.append(f"{label} {row(config, exclude)}")
        if args.check is None:
            print(lines[-1], flush=True)
    if args.check is None:
        return 0
    saved = args.check.read_text(encoding="utf-8")
    diffs = differences(saved, lines)
    for line in diffs + workload_means(saved, lines):
        print(line)
    print(f"{len(diffs)} of {len(lines)} runs differ from {args.check}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
