"""Run the benchmark in alternating pairs of two checkouts and summarise.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload oai_serving \
        --seeds 13301 13302 ... --seconds 30 --out BENCH_13.json

Each seed is one pair: ``perfbench/run.py --trace 0`` runs once in each
checkout, and the side that runs first flips from one pair to the next.
The workload's entry in ``--out`` gets every run's end-to-end values, the
failed-operation counts and output checks, and per metric each side's
quartiles, the number of pairs the change won (ties count for neither)
and the ratio of the medians, and the run length. An existing ``--out``
keeps its other entries and its ``method`` text, so one file can gather
several workloads. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", type=Path, required=True)
    return p.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one untraced benchmark run in ``checkout``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: seed {seed} exited {done.returncode}\n"
                 f"{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _round(value: float) -> float:
    return float(f"{value:.5g}")


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"q1": _round(q1), "median": _round(median), "q3": _round(q3),
            "runs": [_round(v) for v in values]}


def summarise(results: dict, better: dict) -> dict:
    """The workload entry for ``results`` (side -> run results in seed
    order); ``better`` maps each end-to-end metric to "lower" or "higher"."""
    entry = {
        "failed": {side: [r["failed"] for r in results[side]]
                   for side in SIDES},
        "correct": {side: [r["correct"] for r in results[side]]
                    for side in SIDES},
        "metrics": {},
    }
    for name, direction in better.items():
        runs = {side: [r["metrics"][name]["value"] for r in results[side]]
                for side in SIDES}
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (c - p) > 0
                  for p, c in zip(runs["parent"], runs["change"]))
        stats = {side: quartiles(runs[side]) for side in SIDES}
        parent_median = statistics.median(runs["parent"])
        ratio = (_round(statistics.median(runs["change"]) / parent_median)
                 if parent_median else None)
        entry["metrics"][name] = {
            "unit": results["parent"][0]["metrics"][name]["unit"],
            "better": direction, **stats,
            "change_better_pairs": won,
            "median_ratio_change_over_parent": ratio,
        }
    return entry


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    results = {side: [] for side in SIDES}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], args.workload, seed,
                              args.seconds)
            results[side].append(result)
            print(f"{args.workload} seed {seed} {side}: correct="
                  f"{result['correct']} records_per_s="
                  f"{result['metrics']['records_per_s']['value']:.6g}",
                  file=sys.stderr)

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out.setdefault("method", {
        "command": ("python3 perfbench/run.py --workload <w> --seed <s> "
                    "--seconds <seconds> --trace 0"),
        "pairs": ("parent and change alternate, the side that runs first "
                  "flips every pair"),
        "quartiles": ("statistics.quantiles(n=4, method='inclusive') over "
                      "the runs of one side"),
        "host": (f"{os.cpu_count()}-CPU {platform.machine()} host, "
                 f"Python {platform.python_version()}"),
    })
    entry = {"seeds": args.seeds, "seconds": args.seconds,
             **summarise(results, better)}
    out.setdefault("workloads", {})[args.workload] = entry
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
