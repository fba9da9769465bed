"""CLI contracts: exit codes, outputs, determinism, sweep aggregation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import coopguide
from coopguide import cli
from coopguide.cli import main
from coopguide.config import DEFAULTS, SCHEMA

BASE_CFG = """
# short smoke scenario
scenario.seed = 5
scenario.duration = 25.0
trajectory.laps = 1
detection.sigma = 0.1
"""

SWEEP_CFG = BASE_CFG + """
sweep.parameter = vio_drift.x
sweep.values = 0.0, 0.1
sweep.runs_per_value = 2
alignment.estimate_drift = true
alignment.max_cost = 0.2
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_run_writes_two_files_and_exits_zero(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", BASE_CFG)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert (out / "events.log").exists()
    assert (out / "report.txt").exists()
    text = (out / "report.txt").read_text()
    assert "failure = false" in text
    assert "config.scenario.seed = 5" in text  # effective config echo
    assert "rel_loc_rmse" in capsys.readouterr().out


def test_run_unknown_key_exits_one_naming_key(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", BASE_CFG + "detection.sigm = 0.2\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "detection.sigm" in capsys.readouterr().err


def test_run_malformed_line_exits_one_with_line(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "scenario.seed 5\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "false_targets.positions = 3.4,0.6",
    "nlos.walls = -4,-0.5,-1",
    "vio.initial_offset = 1,2",
    "primary.center = 1,2",
])
def test_run_point_of_wrong_length_exits_one_naming_key(tmp_path, capsys, line):
    cfg = _write(tmp_path, "bad.cfg", BASE_CFG + line + "\n")
    out = tmp_path / "o"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 1
    assert line.split()[0] in capsys.readouterr().err
    assert not out.exists()


#: a value just outside each kind of declared valid values
_JUST_OUTSIDE = {"> 0": "0", ">= 0": "-1", ">= 1": "0"}

_BAD_LINES = [
    # removed keys are unknown
    "tracker.gate_p_value = 1.5",
    "alignment.max_iterations = 0",
    "guider.stream_horizon = -1",
    "alignment.min_spread_ratio = -0.5",
    "vio_drift.model = constant_velocity",
    # removed values are out of range: speed or size 0 makes the primary static
    "primary.pattern = static",
    # the rules that join keys
    "trajectory.radius = 0",
    "trajectory.radius = -2",
    pytest.param("trajectory.pattern = eight\ntrajectory.radius = 0",
                 id="eight trajectory.radius = 0"),
    pytest.param("trajectory.pattern = waypoints\ntrajectory.waypoints = 0,0,1",
                 id="waypoints trajectory.waypoints = 0,0,1"),
    # values further outside a bound
    "scenario.abort_radius = -1",
    "alignment.window = -1",
    "detection.sigma = -0.1",
    "detection.delay_jitter = -0.01",
    "comm.delay_jitter = -0.01",
]
# every key with declared valid values, one value just outside them
_BAD_LINES += [
    f"{key} = {'other' if isinstance(valid, tuple) else _JUST_OUTSIDE[valid]}"
    for key, (_, valid) in SCHEMA.items() if valid is not None]


@pytest.mark.parametrize("line", _BAD_LINES)
def test_run_out_of_range_value_exits_one_naming_key(tmp_path, capsys, line):
    cfg = _write(tmp_path, "bad.cfg", BASE_CFG + line + "\n")
    out = tmp_path / "o"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    key = line.splitlines()[-1].split()[0]
    assert key in err
    if key not in DEFAULTS:
        assert "unknown config key" in err
    assert not out.exists()


@pytest.mark.parametrize("command, line, args", [
    ("run", "scenario.seed = -1\n", []),
    ("run", "", ["--seed", "-1"]),
    ("sweep", "", ["--seed", "-1"]),
], ids=["run config", "run --seed", "sweep --seed"])
def test_negative_seed_exits_one_naming_key(tmp_path, capsys, command, line, args):
    # the seed seeds numpy's generators, which need a non-negative integer
    cfg = _write(tmp_path, "s.cfg", SWEEP_CFG + line)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "scenario.seed" in err
    assert not out.exists()


def test_run_and_sweep_report_a_run_that_never_initialized(tmp_path):
    # one second of flight is too short for any alignment window
    short = BASE_CFG + "scenario.duration = 1.0\n"
    out = tmp_path / "run"
    assert main(["run", "--config", _write(tmp_path, "s.cfg", short), "--out", str(out)]) == 2
    text = (out / "report.txt").read_text()
    assert text.startswith("failure = true\nerror = ")
    assert text.count("\n") == 2
    cfg = _write(tmp_path, "w.cfg", short + "sweep.parameter = vio_drift.x\n"
                 "sweep.values = 0.0\nsweep.runs_per_value = 1\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    assert (out / "run_0.0_00.report").read_text() == text
    assert (out / "aggregate.csv").read_text().splitlines()[1] == "0.0,0,nan,nan,1"


@pytest.mark.parametrize("path", [
    "trajectory.pattern = waypoints\ntrajectory.waypoints = 0,0,1.5; 0.01,0,1.5\n",
    "trajectory.pattern = eight\ntrajectory.radius = 0.001\n",
], ids=["waypoints", "eight"])
def test_run_with_a_one_point_desired_path_reports_a_run_that_never_initialized(tmp_path, path):
    # either path is shorter than one spacing: the desired trajectory is one point
    out = tmp_path / "run"
    assert main(["run", "--config", _write(tmp_path, "s.cfg", BASE_CFG + path),
                 "--out", str(out)]) == 2
    assert "never initialized" in (out / "report.txt").read_text()


def test_run_one_false_target_and_one_wall_echo_as_flat_points(tmp_path):
    cfg = _write(tmp_path, "s.cfg", BASE_CFG + "scenario.duration = 1.0\n"
                 "false_targets.positions = 3.4,0.6,1.5\nnlos.walls = -4,-0.5,-1,-0.5\n")
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    lines = (out / "events.log").read_text().splitlines()
    assert "H false_targets.positions 3.4,0.6,1.5" in lines
    assert "H nlos.walls -4.0,-0.5,-1.0,-0.5" in lines


def test_run_seed_override_and_determinism(tmp_path):
    cfg = _write(tmp_path, "s.cfg", BASE_CFG)
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["run", "--config", cfg, "--seed", "9", "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--seed", "9", "--out", str(out_b)]) == 0
    assert main(["run", "--config", cfg, "--seed", "10", "--out", str(out_c)]) == 0
    bytes_a = (out_a / "events.log").read_bytes()
    assert bytes_a == (out_b / "events.log").read_bytes()
    assert bytes_a != (out_c / "events.log").read_bytes()
    assert (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes()


def test_eval_reproduces_run_metrics(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", BASE_CFG)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    run_report = (out / "report.txt").read_text()
    capsys.readouterr()
    code = main(["eval", "--log", str(out / "events.log"), "--out", str(out)])
    assert code == 0
    eval_out = capsys.readouterr().out
    for line in eval_out.strip().splitlines():
        if line.startswith(("ate_", "mean_path", "rel_loc", "tracked", "failure")):
            assert line in run_report
    csv = (out / "per_sample.csv").read_text().splitlines()
    assert csv[0] == "t,error_2d,error_3d,visible_flag"
    assert len(csv) > 10


def test_eval_truncated_log_exits_one_with_line_number(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", BASE_CFG)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    text = (out / "events.log").read_text().splitlines()
    broken = tmp_path / "broken.log"
    broken.write_text("\n".join(text[:-1]) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["eval", "--log", str(broken), "--out", str(out)])
    assert code == 1
    assert "line" in capsys.readouterr().err


def test_eval_corrupt_ref_line_exits_one_with_line_number(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", BASE_CFG)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    lines = (out / "events.log").read_text().splitlines()
    idx = next(i for i, line in enumerate(lines) if line.startswith("REF "))
    lines[idx] += " 0.0"  # one field too many
    broken = tmp_path / "broken.log"
    broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["eval", "--log", str(broken), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"log error: line {idx + 1}: REF record needs 7 fields")
    assert "Traceback" not in err


@pytest.mark.parametrize("tag, field, value", [("TS", 2, "nan"), ("VIO", 5, "inf")])
def test_eval_non_finite_field_exits_one_with_line_number(tmp_path, capsys, tag, field, value):
    cfg = _write(tmp_path, "s.cfg", BASE_CFG)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    lines = (out / "events.log").read_text().splitlines()
    idx = next(i for i, line in enumerate(lines) if line.startswith(f"{tag} "))
    fields = lines[idx].split(" ")
    fields[field] = value
    lines[idx] = " ".join(fields)
    broken = tmp_path / "broken.log"
    broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["eval", "--log", str(broken), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"log error: line {idx + 1}: non-finite number in {tag} record")
    assert "Traceback" not in err


@pytest.mark.parametrize("tag", ["TS", "EST"])
def test_eval_out_of_order_stamps_exit_one_with_line_number(tmp_path, capsys, tag):
    # the evaluation interpolates TS and EST over their stamps, which it
    # could only do silently wrong on a series that goes back in time
    cfg = _write(tmp_path, "s.cfg", BASE_CFG)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    lines = (out / "events.log").read_text().splitlines()
    first, second = [i for i, line in enumerate(lines) if line.startswith(f"{tag} ")][10:12]
    lines[first], lines[second] = lines[second], lines[first]
    broken = tmp_path / "broken.log"
    broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["eval", "--log", str(broken), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    stamp, previous = lines[second].split(" ")[1], lines[first].split(" ")[1]
    assert err.startswith(f"log error: line {second + 1}: {tag} stamp {stamp} is not "
                          f"greater than the previous {tag} stamp {previous}")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_non_utf8_config_exits_one_with_line_number(tmp_path, capsys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(SWEEP_CFG.encode() + b"# caf\xe9\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {SWEEP_CFG.count(chr(10)) + 1}: not UTF-8")
    assert "Traceback" not in err
    assert not out.exists()


def test_eval_non_utf8_log_exits_one_with_line_number(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", BASE_CFG)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    lines = (out / "events.log").read_bytes().splitlines()
    idx = next(i for i, line in enumerate(lines) if line.startswith(b"DET "))
    lines[idx] += b"\xff"
    broken = tmp_path / "broken.log"
    broken.write_bytes(b"\n".join(lines) + b"\n")
    capsys.readouterr()
    code = main(["eval", "--log", str(broken), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"log error: line {idx + 1}: not UTF-8")
    assert "Traceback" not in err


@pytest.mark.parametrize("echo", ["H trajectory.laps 1.5", "H trajectory.pattern spiral"])
def test_eval_corrupt_config_echo_exits_one(tmp_path, capsys, echo):
    cfg = _write(tmp_path, "s.cfg", BASE_CFG)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    key = echo.split()[1]
    lines = [echo if line.split()[:2] == ["H", key] else line
             for line in (out / "events.log").read_text().splitlines()]
    assert echo in lines
    broken = tmp_path / "broken.log"
    broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["eval", "--log", str(broken), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("log error:") and key in err


def test_sweep_aggregate_cardinality_and_determinism(tmp_path):
    cfg = _write(tmp_path, "sweep.cfg", SWEEP_CFG)
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    assert main(["sweep", "--config", cfg, "--out", str(out_a), "--jobs", "2"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out_b), "--jobs", "1"]) == 0
    csv_a = (out_a / "aggregate.csv").read_text()
    assert csv_a == (out_b / "aggregate.csv").read_text()  # pool-size independent
    lines = csv_a.strip().splitlines()
    assert lines[0] == "value,run,mean_path_deviation,rel_loc_rmse,failed"
    assert len(lines) == 1 + 2 * 2  # 2 values x 2 runs
    reports = sorted(p.name for p in out_a.glob("run_*.report"))
    assert len(reports) == 4


def test_sweep_starts_at_most_one_worker_per_run(tmp_path, monkeypatch):
    sizes = []

    class SerialPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks):
            return [func(task) for task in tasks]

    monkeypatch.setattr(cli.multiprocessing, "Pool", SerialPool)
    cfg = _write(tmp_path, "sweep.cfg", SWEEP_CFG + "scenario.duration = 1.0\n")
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "1000"]) == 0
    assert sizes == [4]   # 2 values x 2 runs
    assert len((out / "aggregate.csv").read_text().splitlines()) == 1 + 4


@pytest.mark.parametrize("command", ["run", "sweep", "eval"])
@pytest.mark.parametrize("where", ["file", "below a file", "output names taken by directories"])
def test_unusable_out_dir_exits_one_with_output_error(tmp_path, capsys, command, where):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n", encoding="utf-8")
    if where == "file":
        out = blocker
    elif where == "below a file":
        out = blocker / "o"
    else:   # the directory exists, but no output file can be written
        out = tmp_path / "o"
        for name in ("events.log", "run_0.0_00.report", "aggregate.csv", "per_sample.csv"):
            (out / name).mkdir(parents=True)
    if command == "eval":
        logs = tmp_path / "logs"
        assert main(["run", "--config", _write(tmp_path, "s.cfg", BASE_CFG),
                     "--out", str(logs)]) == 0
        args = ["eval", "--log", str(logs / "events.log")]
    else:
        cfg = _write(tmp_path, "s.cfg", SWEEP_CFG + "scenario.duration = 1.0\n")
        args = [command, "--config", cfg]
    capsys.readouterr()
    assert main([*args, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("output error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


def test_run_exit_two_on_scenario_failure(tmp_path):
    # 1.0 m/s drift with the plain constant-transform window breaks guidance
    # and trips the abort radius
    cfg = _write(tmp_path, "fail.cfg", """
scenario.seed = 2
trajectory.laps = 1
vio_drift.x = 1.0
alignment.window = 5.0
alignment.max_cost = 2.5
""")
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert "failure = true" in (out / "report.txt").read_text()


def test_sweep_requires_sweep_section(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", BASE_CFG)
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "sweep.parameter" in capsys.readouterr().err


def test_sweep_rejects_any_bad_value_before_running(tmp_path, capsys):
    # only the second value is invalid: no run may start before it is caught
    cfg = _write(tmp_path, "s.cfg", BASE_CFG + """
sweep.parameter = trajectory.speed
sweep.values = 0.5, -1.0
sweep.runs_per_value = 1
""")
    out = tmp_path / "o"
    code = main(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / "aggregate.csv").exists()
    assert not list(out.glob("run_*.report"))


@pytest.mark.parametrize("parameter,values", [
    ("scenario.seed", "7, 8"),
    ("sweep.runs_per_value", "1, 2"),
])
def test_sweep_rejects_seed_and_sweep_keys_as_parameter(tmp_path, capsys, parameter, values):
    # a swept seed would be overwritten by the derived run seed, and the
    # sweep.* keys configure the sweep itself
    cfg = _write(tmp_path, "s.cfg", BASE_CFG + f"""
sweep.parameter = {parameter}
sweep.values = {values}
sweep.runs_per_value = 1
""")
    out = tmp_path / "o"
    code = main(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and parameter in err
    assert not out.exists()


def test_run_and_sweep_reject_a_sweep_parameter_that_is_not_a_key(tmp_path, capsys):
    # sweep.parameter is the one free-text key and its value is echoed into
    # events.log, where a space would split its H record
    cfg = _write(tmp_path, "s.cfg", BASE_CFG + """
sweep.parameter = foo bar
sweep.values = 1, 2
sweep.runs_per_value = 1
""")
    for command in ("run", "sweep"):
        out = tmp_path / command
        code = main([command, "--config", cfg, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "sweep.parameter" in err
        assert not out.exists()


def test_sweep_rejects_non_integral_value_for_integer_key(tmp_path, capsys):
    # sweep values are parsed as floats; 1.5 laps must not run as 1 lap
    cfg = _write(tmp_path, "s.cfg", BASE_CFG + """
sweep.parameter = trajectory.laps
sweep.values = 1, 1.5
sweep.runs_per_value = 1
""")
    out = tmp_path / "o"
    code = main(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 1
    assert "config error:" in capsys.readouterr().err
    assert not (out / "aggregate.csv").exists()
    assert not list(out.glob("run_*.report"))


def test_default_out_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COOPGUIDE_OUT_DIR", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "s.cfg", BASE_CFG)
    import importlib
    import coopguide.cli as cli_mod
    importlib.reload(cli_mod)
    code = cli_mod.main(["run", "--config", cfg])
    assert code == 0
    assert (tmp_path / "envout" / "events.log").exists()


def test_python_m_coopguide_runs_the_cli(tmp_path):
    src = str(Path(coopguide.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "coopguide", "eval", "--log", str(tmp_path / "missing.log")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("log error:")


def test_import_does_not_load_scipy():
    # numpy is the package's only runtime dependency; the tests use scipy as
    # an oracle, so the check runs in a fresh interpreter
    src = str(Path(coopguide.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, coopguide; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
