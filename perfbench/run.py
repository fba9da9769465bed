"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload drift_high --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with unpatched code; ``--trace 1`` measures the per-layer metrics
of BENCHMARK.json from traced repetitions and writes every span of the last
one to ``perfbench/out/``.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the run's context and
raw samples go to the lines before it and to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the config's own)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement budget; minimum repetitions always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coopguide" / "__init__.py").is_file():
        print(f"perfbench: no coopguide sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # the pipeline is single-threaded; keep BLAS pools from adding threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(bench.WORKLOADS)}")
    seed = bench.default_seed(args.workload) if args.seed is None else args.seed
    if args.trace:
        result = bench.measure_traced(args.workload, seed, args.seconds)
    else:
        result = bench.measure_untraced(args.workload, seed, args.seconds)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{seed}_trace{args.trace}"
    if result.recorder is not None:
        result.recorder.write(str(out / f"spans_{args.workload}_seed{seed}.csv.gz"))
    record = {"context": result.context, "samples": result.samples,
              "attempted": result.attempted, "failed": result.failed,
              "metrics": result.metrics}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("context " + json.dumps(result.context))
    print("samples " + json.dumps(result.samples))
    print(f"fail_rate {result.failed / result.attempted!r} "
          f"({result.failed} of {result.attempted} repetitions)")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
