"""The byte-identity digest tool in tools/log_digests.py."""

import hashlib
import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "log_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("log_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_lap_digest_is_hex_sha256_and_repeats():
    tool = _tool()
    config = tool.bench.make_config("drift_none", 7)
    first = tool.digest(config)
    assert re.fullmatch(r"[0-9a-f]{64}", first)
    assert tool.digest(config) == first


def test_run_set_has_53_distinct_labels():
    labels = [label for label, _ in _tool().runs()]
    assert len(labels) == len(set(labels)) == 53
    assert "drift_sweep.cfg:vio_drift.x=0.4" in labels
    assert sum(label.startswith("bench:") for label in labels) == 48


def test_excluded_tag_leaves_its_lines_out_of_the_digest():
    tool = _tool()
    config = tool.bench.make_config("drift_none", 7)
    lines = tool.run_scenario(config).dumps().splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith("REF "))
    expected = hashlib.sha256(kept.encode("utf-8")).hexdigest()
    assert tool.digest(config, ("REF",)) == expected != tool.digest(config)


def test_row_appends_the_run_metrics_after_the_digest():
    tool = _tool()
    config = tool.bench.make_config("drift_none", 7)
    sha, report_sha, rmse, deviation = tool.row(config).split(" ")
    report, text = tool._report(tool.run_scenario(config), config)
    assert sha == tool.digest(config)
    assert report_sha == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert text.startswith("ate_2d = ") and f"rel_loc_rmse = {rmse}\n" in text
    assert (float(rmse), float(deviation)) == (report.rel_loc_rmse, report.mean_path_deviation)
    assert tool.row(config, ("REF",)).split(" ")[1:] == [report_sha, rmse, deviation]


def test_differences_name_each_changed_run_with_its_metric_deltas():
    tool = _tool()
    saved = ("a.cfg 0f aa 0.5 0.25\nb.cfg 1e bb 0.125 0.0\nc.cfg 5a cc 1.0 1.0\n"
             "gone.cfg 2d dd 1.0 1.0\n")
    current = ["a.cfg 0f aa 0.5 0.25", "b.cfg 3c bb 0.25 0.0", "c.cfg 5a ee 1.0 1.0",
               "new.cfg 4b ff 1.0 1.0"]
    assert tool.differences(saved, current) == [
        "b.cfg digest differs, report equal, rel_loc_rmse +1.250e-01, "
        "mean_path_deviation +0.000e+00",
        "c.cfg digest equal, report differs, rel_loc_rmse +0.000e+00, "
        "mean_path_deviation +0.000e+00",
        "new.cfg not in FILE",
        "gone.cfg not in this run set",
    ]
    assert tool.differences(saved, saved.splitlines()) == []


def test_check_exits_one_on_a_changed_digest_and_zero_on_a_match(tmp_path, capsys):
    tool = _tool()
    config = tool.bench.make_config("drift_none", 7)
    tool.runs = lambda: [("one_lap", config)]
    saved = tmp_path / "digests.txt"
    line = f"one_lap {tool.row(config)}\n"
    saved.write_text(line, encoding="utf-8")
    assert tool.main(["--check", str(saved)]) == 0
    assert capsys.readouterr().out == f"0 of 1 runs differ from {saved}\n"
    saved.write_text(line.replace(line.split(" ")[1], "0" * 64), encoding="utf-8")
    assert tool.main(["--check", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "one_lap digest differs, report equal, rel_loc_rmse +0.000e+00, "
        "mean_path_deviation +0.000e+00")


def test_workload_means_give_each_benchmark_workloads_sub_seed_means():
    tool = _tool()
    saved = ("a.cfg 0f aa 9.0 9.0\n"
             "bench:nlos:seed=1 1e bb 0.25 0.5\nbench:nlos:seed=2 2d cc 0.75 0.5\n"
             "bench:gone:seed=1 3c dd 1.0 1.0\n")
    current = ["a.cfg 0f aa 1.0 1.0", "bench:nlos:seed=1 4b bb 0.5 0.5",
               "bench:nlos:seed=2 5a cc 0.7 0.25", "bench:new:seed=1 69 ee 1.0 1.0"]
    assert tool.workload_means(saved, current) == [
        "bench:nlos sub-seed means: rel_loc_rmse 0.50000 -> 0.60000 (+20.00%), "
        "mean_path_deviation 0.50000 -> 0.37500 (-25.00%)",
    ]
    assert tool.workload_means(saved, saved.splitlines())[1] == (
        "bench:gone sub-seed means: rel_loc_rmse 1.00000 -> 1.00000 (+0.00%), "
        "mean_path_deviation 1.00000 -> 1.00000 (+0.00%)")


def test_check_prints_the_workload_means_before_the_count(tmp_path, capsys):
    tool = _tool()
    config = tool.bench.make_config("drift_none", 7)
    tool.runs = lambda: [("bench:drift_none:seed=7", config)]
    sha, report_sha, rmse, deviation = tool.row(config).split(" ")
    saved = tmp_path / "digests.txt"
    saved.write_text(f"bench:drift_none:seed=7 {sha} {report_sha} {float(rmse) * 2!r} "
                     f"{deviation}\n", encoding="utf-8")
    assert tool.main(["--check", str(saved)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1] == (f"bench:drift_none sub-seed means: rel_loc_rmse "
                      f"{float(rmse) * 2:.5f} -> {float(rmse):.5f} (-50.00%), "
                      f"mean_path_deviation {float(deviation):.5f} -> "
                      f"{float(deviation):.5f} (+0.00%)")
    assert out[2] == f"1 of 1 runs differ from {saved}"
