"""Benchmark child process: a closed loop of ``chiralspin.cli.main(argv)`` calls.

Reads a job (plan, seconds, trace flag, work directory) as JSON on stdin and
repeats the plan's pass until the time budget would be exceeded, with at least
two passes so every invocation is repeated with identical argv (the
determinism gate). Outputs are checked after each pass, outside the timed
region. With tracing on, untraced and traced passes alternate (U T T U ...),
so the tracing overhead is measured in the same process. The result is one
JSON line on stdout. ``--probe`` only imports the CLI and prints the monotonic
clock, which the parent uses to time set-up.
"""

# The CLI is imported first: set-up, as the parent times it, ends at READY.
import time
import chiralspin.cli as cli

READY = time.monotonic()

import contextlib
import gc
import io
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path

import checks
import tracer


def run_pass(plan, main, recorder=None) -> tuple[float, list]:
    """Issue every invocation of one pass; returns pass wall time and per-call results."""
    calls = []
    start = time.perf_counter()
    for i, step in enumerate(plan):
        if recorder is not None:
            recorder.invocation = i
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(step["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # the closed loop must survive a crashing invocation
            rc = "traceback: " + traceback.format_exc(limit=3).replace("\n", " | ")
        calls.append((time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, calls


def _span_records(spans) -> list:
    index = {id(span): i for i, span in enumerate(spans)}
    return [[s[tracer.NAME], s[tracer.START], s[tracer.END],
             index.get(id(s[tracer.PARENT])), s[tracer.INVOCATION], s[tracer.EXTRA]]
            for s in spans]


def run(job: dict) -> dict:
    plan, seconds, traced = job["plan"], job["seconds"], job["trace"]
    workdir = Path(job["workdir"])
    recorder = tracer.Tracer()
    traced_main = recorder.wrap(cli.main, tracer.ROOT, "cli")
    fingerprints: list = [None] * len(plan)
    problems: list[str] = []
    failed_calls = 0
    walls = {False: [], True: []}
    step_times: list[list[float]] = [[] for _ in plan]
    layer_runs: list[dict] = []
    span_dumps: list = []
    started = time.perf_counter()
    n_pass = 0
    while True:
        with_trace = traced and n_pass % 4 in (1, 2)  # U T T U: drift cancels in the ratio
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()
        if with_trace:
            recorder.spans.clear()
            restore = tracer.install(recorder)
            try:
                wall, calls = run_pass(plan, traced_main, recorder)
            finally:
                restore()
            layer_runs.append(tracer.layer_metrics(recorder.spans, wall))
            span_dumps.append(_span_records(recorder.spans))
        else:
            wall, calls = run_pass(plan, cli.main)
        walls[with_trace].append(wall)
        for i, (step, (dt, rc, out, err)) in enumerate(zip(plan, calls)):
            found, fingerprint = checks.check(step, rc, out)
            if fingerprints[i] is None:
                fingerprints[i] = fingerprint
            elif fingerprint != fingerprints[i]:
                found.append("output differs from the first pass (determinism gate)")
            if found:
                failed_calls += 1
                problems += [f"pass {n_pass} step {i} {step['kind']}: {p} | {err.strip()[-300:]}"
                             for p in found]
            if not with_trace:
                step_times[i].append(dt)
        n_pass += 1
        # Stop before the next pass (a pair of passes when tracing) would
        # overrun the budget, judged by the mean so far; never before two.
        unit = 2 if traced else 1
        elapsed = time.perf_counter() - started
        if n_pass >= 2 and n_pass % unit == 0 and elapsed * (1 + unit / n_pass) > seconds:
            break
    shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "ready": READY,
        "passes": n_pass,
        "attempted": n_pass * len(plan),
        "failed": failed_calls,
        "problems": problems,
        "pass_s": walls[False],
        "step_s": step_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        result["traced_pass_s"] = walls[True]
        result["layers"] = layer_runs
        result["spans"] = span_dumps
    return result


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "chiralspin": str(Path(cli.__file__).resolve().parent)}


def main():
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps({"ready": READY}))
        return 0
    job = json.load(sys.stdin)
    result = run(job)
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
