"""memtag benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload acceptance-300k|crossval-105k --seed N --seconds S --trace 0|1

Run from the root of a source checkout; memtag is imported from its `src`.
Prints one line per metric, the operations attempted and failed and every
check's verdict, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. The same results go to
bench/out/<workload>-seed<N>-trace<T>.json, and a traced run's spans to
bench/out/<workload>-seed<N>.trace.json. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def manifest() -> tuple[list[str], dict[str, str], dict[str, str]]:
    """Workload names and (end_to_end, per_layer) metric units as
    BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv: list[str] | None = None) -> int:
    names, end_to_end, per_layer = manifest()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "memtag", "__init__.py")):
        print(f"no memtag sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    trace = bool(args.trace)
    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    run = workloads.Run(work_dir, SRC, args.seed, args.seconds, trace)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if trace:
        values, units = run.layer_medians(), per_layer
    else:
        values, units = run.end_to_end(), end_to_end
    raw = run.raw()
    missing = [name for name in units if name not in values]
    if missing:  # every round failed somewhere: there is no result to give
        print(f"no figure for {', '.join(missing)}; failed operations: "
              f"{run.failed} of {run.attempted}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    correct = not any(run.checks.values())
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}

    for name, m in metrics.items():
        print(f"metric\t{name}\t{m['unit']}\t{m['value']!r}")
    for name, value in raw.items():
        print(f"wall\t{name}\t{end_to_end[name]}\t{value!r}")
    print(f"operations\tattempted\t{run.attempted}\tfailed\t{run.failed}")
    for name, problems in run.checks.items():
        verdict = "FAIL\t" + "; ".join(problems[:3]) if problems else "PASS"
        print(f"check\t{name}\t{verdict}")

    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, wall_s=raw,
                       rounds=run.samples, wall_rounds=run.raw_samples,
                       checks=run.checks), fh, indent=1)
    if trace:
        with open(f"{stem}.trace.json", "w", encoding="utf-8") as fh:
            json.dump({"rounds": run.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
