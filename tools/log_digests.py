"""Print ``label sha256 rel_loc_rmse mean_path_deviation`` for the byte-identity run set.

    python3 tools/log_digests.py [--exclude TAG ...] > digests.txt

Run it from two checkouts and ``diff`` the outputs: a change that keeps
behaviour leaves every line equal, and a numerical change shows its metric
deltas, run by run, in the last two columns (``evaluate_log`` of the same
log).  ``--exclude REF`` digests the log without its REF lines, to compare
the rest across a change of the REF record's format.  The set is 53 runs:

- every ``configs/*.cfg`` without a sweep section, at full length;
- every config with a sweep section at the first, middle and last of its
  ``sweep.values`` (``drift_sweep.cfg`` at ``vio_drift.x`` 0.0, 0.4, 0.8),
  at full length and the config's own seed;
- the sub-seeds of each benchmark workload's default seed, as
  ``perfbench/bench.py`` defines them (16 one-lap runs per workload).

The digest is taken over ``EventLog.dumps()``, the bytes ``coopguide run``
writes to ``events.log``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402  (perfbench/bench.py: workloads and sub-seeds)
from coopguide.config import ScenarioConfig, build_config, load_config_file  # noqa: E402
from coopguide.evaluation import evaluate_log  # noqa: E402
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


def _sha256(log, exclude: tuple[str, ...]) -> str:
    log.records = [r for r in log.records if r[0] not in exclude]
    return hashlib.sha256(log.dumps().encode("utf-8")).hexdigest()


def digest(config: ScenarioConfig, exclude: tuple[str, ...] = ()) -> str:
    """sha256 of the event log one run of ``config`` writes, minus the
    lines whose tag is in ``exclude``."""
    return _sha256(run_scenario(config), exclude)


def row(config: ScenarioConfig, exclude: tuple[str, ...] = ()) -> str:
    """``sha256 rel_loc_rmse mean_path_deviation`` of one run of ``config``;
    the metrics are evaluated on the whole log, before ``exclude`` applies."""
    log = run_scenario(config)
    report = evaluate_log(log)
    return f"{_sha256(log, exclude)} {report.rel_loc_rmse!r} {report.mean_path_deviation!r}"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--exclude", action="append", default=[], metavar="TAG",
                        help="leave this record tag out of every digest (repeatable)")
    exclude = tuple(parser.parse_args(argv).exclude)
    for label, config in runs():
        print(f"{label} {row(config, exclude)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
