"""Run alternating parent/change benchmark pairs and write them to BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --label NAME \
        --workload drift_none --seeds 921-930

``DIR`` is a checkout (a ``git archive`` copy is enough) holding
``perfbench/run.py``.  For each seed the two sides run
``perfbench/run.py --workload W --seed S --trace 0`` one after the other,
at the run length that ``run.py`` fixes; the side that goes first
alternates from pair to pair, so a slow stretch of the host does not always
land on the same side.  Every run's
end-to-end metrics and raw samples are stored, and per metric each side's
median and quartiles over the pairs, the median relative gap and the number
of pairs in which the change is better, next to each side's ``src/`` line
count.  The script prints each pair's ``wall_s`` gap as it goes and, at the
end, the line counts and that per-metric summary: both medians with the
relative change from one to the other ("medians"), and the median of the
pairs' relative gaps ("median pair gap"), which need not agree.  After the
pairs, each side makes one ``--trace 1`` run on the first seed; the file
stores both sides' per-layer metrics, and the script prints each one that
differs, a time with its call count when that count is equal on both sides.
Running the script again with the same ``--label`` adds the workload to the
file and keeps the others.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_side(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One benchmark run in ``checkout``: metrics, checks, raw samples, host
    context; the metrics are the per-layer ones when ``trace`` is 1."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / "perfbench" / "out" /
                         f"{workload}_seed{seed}_trace{trace}.json").read_text(encoding="utf-8"))
    return {"metrics": {k: v["value"] for k, v in last["metrics"].items()},
            "attempted": last["attempted"], "failed": last["failed"],
            "samples": record["samples"], "context": record["context"]}


def src_lines(checkout: Path) -> int:
    """Lines of the Python files under ``checkout/src``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, the gap, the pairs won."""
    out = {}
    for name, direction in better.items():
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        out[name] = {
            "parent": _quartiles(parent),
            "change": _quartiles(change),
            "median_rel_change": statistics.median(c / p - 1.0 for p, c in zip(parent, change)),
            "pairs_change_better": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs_equal": sum(c == p for p, c in zip(parent, change)),
        }
    return out


def layer_changes(parent: dict, change: dict) -> list[str]:
    """One line per per-layer metric whose value differs between the sides.

    A metric ``<span>.<field>`` whose ``<span>.calls`` is equal on both sides
    names that count, so a time that moved reads against unchanged work.
    """
    lines = []
    for name, before in parent.items():
        after = change.get(name)
        if after is None or after == before:
            continue
        line = f"{name}: {before:.6g} -> {after:.6g}"
        if before:
            line += f" ({after / before - 1.0:+.1%})"
        calls = name.rpartition(".")[0] + ".calls"
        if calls != name and calls in parent and parent[calls] == change.get(calls):
            line += f", calls {parent[calls]} on both"
        lines.append(line)
    return lines


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="two or more, e.g. 921-930 or 1,5,9")
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    if len(seeds) < 2:
        parser.error(f"--seeds {args.seeds!r} names {len(seeds)} seed(s); the summary's "
                     "quartiles need at least two pairs")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(getattr(args, side).resolve(), args.workload, seed)
        wall = pair["change"]["metrics"]["wall_s"] / pair["parent"]["metrics"]["wall_s"] - 1
        print(f"{args.workload} seed {seed}: wall_s {wall:+.1%}", flush=True)
        pairs.append(pair)
    traced = {"seed": seeds[0]}
    for side in ("parent", "change"):
        traced[side] = run_side(getattr(args, side).resolve(), args.workload, seeds[0],
                                trace=1)["metrics"]

    path = ROOT / f"BENCH_{args.label}.json"
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    summary = summarize(pairs, better)
    lines = {side: src_lines(getattr(args, side)) for side in ("parent", "change")}
    data.setdefault("workloads", {})[args.workload] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed S --trace 0",
        "seeds": [p["seed"] for p in pairs],
        "src_lines": lines,
        "summary": summary,
        "pairs": pairs,
        "traced": traced,
    }
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"{args.workload} src/ lines: {lines['parent']} -> {lines['change']} "
          f"({lines['change'] - lines['parent']:+d})")
    for name, row in summary.items():
        parent, change = row["parent"]["median"], row["change"]["median"]
        print(f"{args.workload} {name}: median {parent:.6g} -> {change:.6g} "
              f"(medians {change / parent - 1.0:+.1%}, "
              f"median pair gap {row['median_rel_change']:+.1%}), "
              f"change better in {row['pairs_change_better']} of {len(pairs)} pairs")
    changed = layer_changes(traced["parent"], traced["change"])
    for line in changed:
        print(f"{args.workload} traced seed {seeds[0]} {line}")
    if not changed:
        print(f"{args.workload} traced seed {seeds[0]}: every per-layer metric is equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
