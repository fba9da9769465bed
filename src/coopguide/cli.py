"""Command-line interface: run scenarios, sweep parameters, evaluate logs.

    coopguide run   --config scenario.cfg [--seed N] [--out DIR]
    coopguide sweep --config scenario.cfg [--seed N] [--out DIR] [--jobs N]
    coopguide eval  --log events.log [--out DIR]

``run`` writes events.log and report.txt into the output directory and exits
0 on success, 2 when the scenario aborted on the deviation radius, 1 on bad
configuration or an unusable output directory.  ``sweep`` reads the sweep.*
section of the config, executes runs_per_value seeded runs per parameter
value (optionally in a pool of at most one worker per run), writes one
report per run plus an aggregate CSV, and exits 0 even when individual runs
fail (failures are data).  ``eval`` re-evaluates a stored event log, prints
the report, and writes the per-sample error CSV.

The default output directory is $COOPGUIDE_OUT_DIR, falling back to the
current directory.  An output directory that cannot be made or written (e.g.
a path that is a file) makes every subcommand print ``output error: ...`` and
exit 1; ``run`` and ``sweep`` make it before their first run.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from pathlib import Path
from typing import Optional

from .config import ConfigError, ScenarioConfig, build_config, load_config_file
from .evaluation import (
    ErrorReport,
    EvaluationError,
    evaluate_log,
    format_report,
    write_per_sample_csv,
)
from .eventlog import EventLog, LogParseError
from .simulator import run_scenario


def _default_out() -> str:
    return os.environ.get("COOPGUIDE_OUT_DIR", ".")


def _output_error(exc: OSError) -> int:
    print(f"output error: {exc}", file=sys.stderr)
    return 1


def _report(log: EventLog, config: ScenarioConfig) -> tuple[Optional[ErrorReport], str]:
    """(report, report.txt text) of one run; the report is None when the
    log cannot be evaluated, e.g. a run that never initialized."""
    try:
        report = evaluate_log(log)
    except EvaluationError as exc:
        return None, f"failure = true\nerror = {exc}\n"
    return report, format_report(report, config)


def cmd_run(config_path: str, seed: Optional[int], out_dir: str) -> int:
    try:
        config = build_config(load_config_file(config_path), seed=seed)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _output_error(exc)
    log = run_scenario(config)
    report, text = _report(log, config)
    try:
        log.save(str(out / "events.log"))
        (out / "report.txt").write_text(text, encoding="utf-8")
    except OSError as exc:
        return _output_error(exc)
    print(text, end="")
    return 2 if report is None or report.failure else 0


def _sweep_seed(base_seed: int, value_index: int, run_index: int) -> int:
    # deterministic, collision-free for any sane sweep size
    return base_seed + 1009 * value_index + run_index


def _sweep_run(args) -> tuple:
    overrides, parameter, value, value_index, run_index, base_seed = args
    run_overrides = dict(overrides)
    run_overrides[parameter] = value
    seed = _sweep_seed(base_seed, value_index, run_index)
    config = build_config(run_overrides, seed=seed)
    report, text = _report(run_scenario(config), config)
    if report is None:
        # a run that never initialized still counts as a failure row
        return (value, run_index, float("nan"), float("nan"), True), text
    return (value, run_index, report.mean_path_deviation,
            report.rel_loc_rmse, report.failure), text


def cmd_sweep(config_path: str, seed: Optional[int], out_dir: str, jobs: int) -> int:
    try:
        overrides = load_config_file(config_path)
        config = build_config(overrides, seed=seed)
        parameter = config["sweep.parameter"]
        values = config["sweep.values"]
        if not parameter:
            raise ConfigError("sweep.parameter is required for the sweep subcommand")
        if not values:
            raise ConfigError("sweep.values is required for the sweep subcommand")
        if parameter == "scenario.seed" or parameter.startswith("sweep."):
            # each run's seed derives from the base seed, and sweep.* keys
            # configure the sweep itself: neither can be swept
            raise ConfigError(f"sweep.parameter cannot be {parameter}")
        for value in values:  # reject a bad value before any run starts
            build_config({**overrides, parameter: value})
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _output_error(exc)
    base_seed = config.seed
    tasks = [
        (overrides, parameter, value, vi, ri, base_seed)
        for vi, value in enumerate(values)
        for ri in range(config["sweep.runs_per_value"])
    ]
    workers = min(jobs, len(tasks))   # no idle worker processes
    if workers > 1:
        with multiprocessing.Pool(processes=workers) as pool:
            results = pool.map(_sweep_run, tasks)
    else:
        results = [_sweep_run(task) for task in tasks]

    csv_lines = ["value,run,mean_path_deviation,rel_loc_rmse,failed"]
    try:
        for row, text in results:
            value, run_index = row[0], row[1]
            name = f"run_{value!r}_{run_index:02d}.report"
            (out / name).write_text(text, encoding="utf-8")
            csv_lines.append(
                f"{value!r},{run_index},{row[2]!r},{row[3]!r},"
                f"{1 if row[4] else 0}"
            )
        (out / "aggregate.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    except OSError as exc:
        return _output_error(exc)
    print(f"sweep complete: {len(tasks)} runs, aggregate in {out / 'aggregate.csv'}")
    return 0


def cmd_eval(log_path: str, out_dir: str) -> int:
    try:
        log = EventLog.load(log_path)
    except (LogParseError, OSError) as exc:
        print(f"log error: {exc}", file=sys.stderr)
        return 1
    try:
        report = evaluate_log(log)
    except ConfigError as exc:  # the log's H config echo holds a bad value
        print(f"log error: {exc}", file=sys.stderr)
        return 1
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 1
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "per_sample.csv", "w", encoding="utf-8", newline="\n") as fh:
            write_per_sample_csv(report, fh)
    except OSError as exc:
        return _output_error(exc)
    print(format_report(report), end="")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="coopguide",
        description="Cooperative guidance scenario simulator and evaluator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--config", required=True, help="scenario config file")
    p_run.add_argument("--seed", type=int, default=None, help="override scenario.seed")
    p_run.add_argument("--out", default=_default_out(), help="output directory")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", required=True, help="scenario config file "
                         "with a sweep.* section")
    p_sweep.add_argument("--seed", type=int, default=None, help="base seed override")
    p_sweep.add_argument("--out", default=_default_out(), help="output directory")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel workers")

    p_eval = sub.add_parser("eval", help="evaluate a stored event log")
    p_eval.add_argument("--log", required=True, help="events.log path")
    p_eval.add_argument("--out", default=_default_out(), help="output directory")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.seed, args.out)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.seed, args.out, max(1, args.jobs))
    return cmd_eval(args.log, args.out)


if __name__ == "__main__":
    sys.exit(main())
