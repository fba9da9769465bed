"""CLI contracts: exit codes, outputs, determinism, sweep aggregation."""

from coopguide.cli import main

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
vio_drift.model = constant_velocity
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


def test_run_exit_two_on_scenario_failure(tmp_path):
    # 1.0 m/s drift with the plain constant-transform window breaks guidance
    # and trips the abort radius
    cfg = _write(tmp_path, "fail.cfg", """
scenario.seed = 2
trajectory.laps = 1
vio_drift.model = constant_velocity
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
