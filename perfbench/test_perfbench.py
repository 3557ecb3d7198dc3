"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q

The seed-invariance test runs every workload twice (about 2 minutes in all).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED_INVARIANT = ("dynamics.steps", "dynamics.calls", "dynamics.samples", "dynamics.states",
                  "dynamics.dim_max", "models.build_calls", "core.partial_trace_calls",
                  "cli.csv_rows")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_plan_is_a_function_of_the_seed(workload):
    first = workloads.plan(workload, 7, "w")
    assert first == workloads.plan(workload, 7, "w")
    other = workloads.plan(workload, 8, "w")
    assert first != other
    # Only parameter values change with the seed: same commands, same shape.
    assert [s["kind"] for s in first] == [s["kind"] for s in other]
    assert [len(s["argv"]) for s in first] == [len(s["argv"]) for s in other]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_do_not_depend_on_the_seed(workload, monkeypatch):
    monkeypatch.chdir(ROOT)
    records = [run.measure(workload, seed, seconds=1, trace=True) for seed in (3, 4)]
    for record in records:
        assert record["correct"], record["problems"]
        assert record["failed"] == 0
    for key in SEED_INVARIANT:
        assert records[0]["metrics"][key] == records[1]["metrics"][key], key
    assert records[0]["metrics"]["dynamics.steps"]["value"] > 0


def test_stationary_shortcut_is_reported(tmp_path):
    from chiralspin import cli

    out = tmp_path / "o"
    step = workloads.plan("pair_mix", 1, str(tmp_path))[1]
    step["out"] = str(out)
    assert cli.main(step["argv"][:-1] + [str(out)]) == 0
    assert checks.check(step, 0, "")[0] == []

    report = json.loads((out / "report.json").read_text())
    report["trajectory_diagnostics"]["transfer_forward"]["stationary"] = 1.0
    (out / "report.json").write_text(json.dumps(report))
    problems = checks.check(step, 0, "")[0]
    assert any("MANIFEST hash mismatch" in p for p in problems)
    assert any("stationary shortcut" in p for p in problems)


def test_parameter_echo_is_checked(tmp_path):
    from chiralspin import cli

    out = tmp_path / "o"
    step = workloads.plan("pair_mix", 1, str(tmp_path))[0]
    assert step["kind"] == "couplings"
    assert cli.main(step["argv"][:-1] + [str(out)]) == 0
    step["out"] = str(out)
    assert checks.check(step, 0, "")[0] == []
    step["expect"]["delta_hz"] *= 2
    assert any("parameters.delta_hz" in p for p in checks.check(step, 0, "")[0])


def test_self_times_partition_the_root():
    t = tracer.Tracer()
    root = [tracer.ROOT, "cli", 0.0, 10.0, None, 0, 6.0, None]
    evolve = ["dynamics.evolve", "dynamics", 1.0, 5.0, root, 0, 0.0,
              {"dim": 4, "steps": 100, "samples": 101, "states": 0}]
    build = ["models.build_chain_model", "models", 5.0, 7.0, root, 0, 0.5, None]
    embed = ["core.embed", "core", 5.5, 6.0, build, 0, 0.0, None]
    t.spans.extend([root, evolve, build, embed])
    metrics = tracer.layer_metrics(t.spans, 10.5)
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert self_sum == pytest.approx(10.0)
    assert metrics["trace.unattributed_s"] == pytest.approx(0.5)
    assert metrics["models.build_s"] == pytest.approx(2.0)
    assert metrics["dynamics.us_per_step"] == pytest.approx(4e4)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pair_mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
