"""Repeat benchmark runs over seeds and report each metric's median and spread.

    python3 perfbench/repeat.py --workload pair_mix --runs 10 --first-seed 1 --out FILE

Each run is a fresh ``perfbench/run.py`` process with the next seed and the
``run_seconds`` of ``BENCHMARK.json``. The spread of a metric is the distance
between the first and third quartile of its values (``statistics.quantiles``
with n=4) as a share of their median; for an end-to-end metric it is shown
next to the metric's bound. ``--out`` writes every value and summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chiralspin-threads", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    benchmark = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = str(benchmark["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    values: dict[str, list[float]] = {}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                               "--seed", str(seed), "--seconds", seconds,
                               "--trace", str(args.trace),
                               *(["--chiralspin-threads", args.chiralspin_threads]
                                 if args.chiralspin_threads else [])],
                              capture_output=True, text=True, check=False)
        if proc.returncode not in (0, 1):
            print(f"seed {seed}: benchmark could not run: {proc.stderr.strip()[-500:]}")
            failures += 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failures += result["failed"] + (0 if result["correct"] else 1)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for name, vals in values.items():
        summary[name] = {**spread(vals), "bound": bounds.get(name)}
        row = summary[name]
        verdict = ""
        if row["bound"] is not None:  # the target is a third of the bound
            verdict = (" under a third of bound" if row["spread"] < row["bound"] / 3 else
                       " within bound" if row["spread"] < row["bound"] else " OVER BOUND")
            verdict = f" bound={row['bound']}{verdict}"
        print(f"{name}: median={row['median']:.6g} q1={row['q1']:.6g} q3={row['q3']:.6g} "
              f"spread={row['spread']:.4f}{verdict}")
    print(f"failures: {failures}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                              "chiralspin_threads": args.chiralspin_threads,
                                              "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                                              "values": values, "summary": summary}, indent=1) + "\n",
                                  encoding="utf-8")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
