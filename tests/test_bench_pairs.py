"""The alternating-pairs benchmark tool in tools/bench_pairs.py."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def test_src_lines_counts_the_python_files_under_src(tmp_path):
    checkout = _checkout(tmp_path, {
        "src/pkg/a.py": "x = 1\ny = 2\nz = 3\n",
        "src/pkg/sub/b.py": "\n\n",
        "src/pkg/notes.txt": "not code\n",
        "tools/c.py": "ignored = True\n",
    })
    assert _tool().src_lines(checkout) == 5


def test_bench_file_and_summary_carry_both_line_counts(tmp_path, monkeypatch, capsys):
    tool = _tool()
    parent = _checkout(tmp_path / "parent", {"src/m.py": "a = 1\n" * 10})
    change = _checkout(tmp_path / "change", {"src/m.py": "a = 1\n" * 7})
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    # the change of the medians (2 -> 1.9) and the median pair gap (-50% and
    # +10%) differ
    values = {parent.resolve(): {1: 1.0, 2: 3.0}, change.resolve(): {1: 0.5, 2: 3.3}}

    def fake_run(checkout, workload, seed, trace=0):
        value = values[checkout][seed]
        return {"metrics": {name: value for name in names}, "attempted": 1, "failed": 0,
                "samples": [], "context": {}}

    monkeypatch.setattr(tool, "run_side", fake_run)
    assert tool.main(["--parent", str(parent), "--change", str(change), "--label", "probe",
                      "--workload", "nlos", "--seeds", "1-2"]) == 0
    record = json.loads((tmp_path / "BENCH_probe.json").read_text())["workloads"]["nlos"]
    assert record["src_lines"] == {"parent": 10, "change": 7}
    out = capsys.readouterr().out
    assert "nlos src/ lines: 10 -> 7 (-3)" in out
    assert ("nlos wall_s: median 2 -> 1.9 (medians -5.0%, median pair gap -20.0%), "
            "change better in 1 of 2 pairs; claim rule fails, within the 25% bound") in out


def test_one_traced_run_per_side_is_stored_and_its_changed_layers_printed(
        tmp_path, monkeypatch, capsys):
    tool = _tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        _checkout(checkout, {"src/m.py": "a = 1\n"})
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    layers = {
        parent.resolve(): {"tracker.predict.calls": 3788, "tracker.predict.s": 0.0093,
                           "tracker.update.calls": 2733, "tracker.update.s": 0.0180,
                           "tracker.replay_ratio": 1.3152, "guider.realign.calls": 5},
        change.resolve(): {"tracker.predict.calls": 3788, "tracker.predict.s": 0.0062,
                           "tracker.update.calls": 2733, "tracker.update.s": 0.0090,
                           "tracker.replay_ratio": 1.3152, "guider.realign.calls": 6},
    }
    runs = []

    def fake_run(checkout, workload, seed, trace=0):
        runs.append((checkout, seed, trace))
        metrics = layers[checkout] if trace else {name: 1.0 for name in names}
        return {"metrics": metrics, "attempted": 1, "failed": 0, "samples": [], "context": {}}

    monkeypatch.setattr(tool, "run_side", fake_run)
    assert tool.main(["--parent", str(parent), "--change", str(change), "--label", "probe",
                      "--workload", "drift_high", "--seeds", "7-9"]) == 0
    # the traced runs come after the pairs, one per side, on the first seed
    assert [r for r in runs if r[2]] == [(parent.resolve(), 7, 1), (change.resolve(), 7, 1)]
    assert len(runs) == 8 and all(not r[2] for r in runs[:6])
    traced = json.loads((tmp_path / "BENCH_probe.json").read_text())["workloads"][
        "drift_high"]["traced"]
    assert traced == {"seed": 7, "parent": layers[parent.resolve()],
                      "change": layers[change.resolve()]}
    out = [line for line in capsys.readouterr().out.splitlines() if " traced " in line]
    assert out == [
        "drift_high traced seed 7 tracker.predict.s: 0.0093 -> 0.0062 (-33.3%), calls 3788 on both",
        "drift_high traced seed 7 tracker.update.s: 0.018 -> 0.009 (-50.0%), calls 2733 on both",
        "drift_high traced seed 7 guider.realign.calls: 5 -> 6 (+20.0%)",
    ]


def test_layer_changes_of_equal_sides_is_empty():
    metrics = {"tracker.update.calls": 2733, "tracker.update.s": 0.018}
    assert _tool().layer_changes(metrics, dict(metrics)) == []


def test_one_seed_is_rejected_before_any_run(tmp_path, monkeypatch, capsys):
    tool = _tool()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    runs = []
    monkeypatch.setattr(tool, "run_side", lambda *args: runs.append(args))
    for seeds in ("5", "7-7"):
        with pytest.raises(SystemExit) as exc_info:
            tool.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--label", "probe",
                       "--workload", "nlos", "--seeds", seeds])
        assert exc_info.value.code == 2
        assert "at least two" in capsys.readouterr().err
    assert runs == [] and not (tmp_path / "BENCH_probe.json").exists()


def _pairs(parent: list, change: list, name: str = "wall_s") -> list:
    return [{"parent": {"metrics": {name: p}}, "change": {"metrics": {name: c}}}
            for p, c in zip(parent, change)]


def test_summary_verdicts_follow_the_claim_rule_and_the_bound():
    summarize = _tool().summarize
    wall = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]   # IQR 0.045
    faster = [0.9 * p for p in parent]

    def verdict(change, metrics=wall, base=parent):
        row = summarize(_pairs(base, change, metrics[0]["name"]), metrics)[metrics[0]["name"]]
        return row["pairs_change_better"], row["claim_holds"], row["within_bound"]

    assert verdict(faster) == (10, True, True)
    # a tie counts for neither side: 9 of 10 pairs still hold, 8 do not
    assert verdict(parent[:1] + faster[1:]) == (9, True, True)
    assert verdict(parent[:2] + faster[2:]) == (8, False, True)
    # every pair better, but the medians closer than the parent's IQR
    assert verdict([p - 0.04 for p in parent]) == (10, False, True)
    # a slower change: within 25% of the parent's median, then beyond it
    assert verdict([1.2 * p for p in parent]) == (0, False, True)
    assert verdict([1.3 * p for p in parent]) == (0, False, False)
    # a metric that is better higher
    rate = [{"name": "rate", "better": "higher", "bound": 0.05}]
    assert verdict([1.1 * p for p in parent], rate) == (10, True, True)
    assert verdict([0.94 * p for p in parent], rate) == (0, False, False)
