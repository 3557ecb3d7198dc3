"""chiralspin benchmark: seeded CLI workloads, end-to-end metrics, traced layer split.

Run from the repository root:

    python3 perfbench/run.py --workload elimination --seed 1 --seconds 36 --trace 0

``--workload`` is one of elimination, chain5, pair_mix, or ``all`` (each in
turn, for a human-readable overview). One child process per workload run
issues ``chiralspin.cli.main(argv)`` calls one after another (a closed loop
with one client) and checks every output. BLAS thread pools are pinned to 1
and ``CHIRALSPIN_THREADS`` is unset unless ``--chiralspin-threads`` asks for
it. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. Metrics are printed by name and unit; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and the full record
(samples, problems, environment, spans) goes to
``.perfbench-work/results/<workload>-seed<seed>-trace<trace>.json``.
Exit code: 0 when every output checked out, 1 when some did not, 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench-work")
SOURCE = Path("src")
SETUP_PROBES = 6  # fresh interpreters per run, plus the worker itself
DEADLINE_S = 170.0  # one workload's run must finish within 180 s
PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                 "NUMEXPR_NUM_THREADS")}

AUXILIARY = ("couplings", "validate")  # the requests that bracket every pass


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def _child_env(threads: int | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CHIRALSPIN_THREADS"}
    env.update(PINNED)
    if threads:
        env["CHIRALSPIN_THREADS"] = str(threads)
    env["PYTHONPATH"] = str(SOURCE.resolve())
    return env


def _spawn(args, env, deadline, stdin=None) -> dict:
    """Run a worker to completion; returns its last stdout line as JSON."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], input=stdin,
                              env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def _environment(threads) -> dict:
    env = {"pinned": PINNED, "CHIRALSPIN_THREADS": threads, "nproc": len(os.sched_getaffinity(0)),
           "cpu_count": os.cpu_count(), "loadavg_start": os.getloadavg(), "commit": None,
           "cpu_model": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        pass
    head = Path(".git/HEAD")
    if head.is_file():  # only inside this checkout; a plain export has no .git
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = Path(".git") / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        env["commit"] = ref
    return env


def _declared() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json declares them."""
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _median_layers(runs: list[dict], units: dict, problems: list) -> dict:
    merged = {}
    for key in runs[0]:
        values = [run[key] for run in runs]
        if units.get(key) in ("count", "bytes") and len(set(values)) != 1:
            problems.append(f"count {key} differs between traced passes: {values}")
        merged[key] = statistics.median(values)
    return merged


def measure(workload: str, seed: int, seconds: int, trace: bool, threads=None) -> dict:
    """One benchmark run of one workload; returns the full record."""
    deadline = time.monotonic() + DEADLINE_S
    end_to_end, per_layer = _declared()
    units = per_layer if trace else end_to_end
    environment = _environment(threads)
    env = _child_env(threads)
    plan = workloads.plan(workload, seed, str(WORK / workload))
    setups = [] if trace else [_spawn(["--probe"], env, deadline)["setup_s"]
                               for _ in range(SETUP_PROBES)]
    job = json.dumps({"plan": plan, "seconds": seconds, "trace": trace,
                      "workdir": str(WORK / workload)})
    result = _spawn([], env, deadline, stdin=job)
    problems = list(result["problems"])
    if trace:
        metrics = _median_layers(result["layers"], units, problems)
        metrics["trace.overhead_ratio"] = (statistics.median(result["traced_pass_s"])
                                           / statistics.median(result["pass_s"]) - 1.0)
    else:
        setups.append(result["setup_s"])
        # The pass's wall time, robustly: each invocation's median across
        # passes, summed. run_s_p50 pools the experiment invocations only;
        # the couplings and validate bracket would otherwise set the median
        # of the single-experiment workloads.
        step_s = result["step_s"]
        run_s = [t for step, times in zip(plan, step_s) if step["kind"] not in AUXILIARY
                 for t in times]
        metrics = {"total_s": sum(statistics.median(times) for times in step_s),
                   "run_s_p50": statistics.median(run_s),
                   "peak_rss_mb": result["peak_rss_mb"],
                   "setup_s": statistics.median(setups)}
    if metrics.keys() != units.keys():
        raise BenchError(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "correct": not problems, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            "passes": result["passes"],
            "pass_s": result["pass_s"], "step_s": result["step_s"], "setup_s": setups,
            "problems": problems, "plan": plan,
            "environment": {**environment, **result["environment"]},
            "spans": result.get("spans")}


def _print_record(record: dict, prefix: str = ""):
    env = record["environment"]
    print(f"{prefix}# env nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']!r} loadavg={env['loadavg_start']} "
          f"threads={env['CHIRALSPIN_THREADS']} commit={env['commit']}")
    for name, metric in record["metrics"].items():
        print(f"{prefix}{name} = {metric['value']:.6g} {metric['unit']}")
    if not record["trace"]:
        samples = sum(len(times) for step, times in zip(record["plan"], record["step_s"])
                      if step["kind"] not in AUXILIARY)
        print(f"{prefix}run_s_p50 samples = {samples} "
              f"(experiment invocations over {record['passes']} passes)")
    print(f"{prefix}fail_ratio = {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']} invocations)")
    for problem in record["problems"][:20]:
        print(f"{prefix}PROBLEM {problem}", file=sys.stderr)


def _save(record: dict):
    out = WORK / "results" / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chiralspin-threads", type=int, default=None,
                        help="set CHIRALSPIN_THREADS in the child (side measurements only)")
    args = parser.parse_args(argv)
    if not (SOURCE / "chiralspin" / "cli.py").is_file():
        print(f"perfbench: no chiralspin sources under {SOURCE.resolve()}; "
              "run from the repository root", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace),
                             args.chiralspin_threads)
            _save(record)
            _print_record(record, prefix=f"{name}: " if len(names) > 1 else "")
            records.append(record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in records for name, metric in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
