"""Correctness checks for one finished invocation.

Each check returns a list of problems (empty when the invocation is good) and
a fingerprint for the determinism gate: the MANIFEST bytes for commands that
write one, the printed report for ``validate``. The physics checks use only
integrator-independent facts, so they hold for any correct stepping scheme:

- forward-only transfer peaks at exactly 4/e^2 (downstream population
  (gamma t)^2 exp(-gamma t) peaks at gamma t = 2);
- the two transfer senses differ by exactly (gamma/gamma')^2 at every time;
- the fitted elimination constant is 1 - 2 (g/Delta)^2 up to the fit's
  sampling error;
- asymmetry at rate ratio 1 is within 1% of 1.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

PEAK_FORWARD = 4.0 / math.e ** 2
PEAK_TOL = 1e-6
RATIO_TOL = 1e-6
ELIMINATION_TOL = 1e-2
ECHO_RTOL = 1e-12


def _close(a, b) -> bool:
    """Equal up to ECHO_RTOL in every number, recursing through lists and dicts."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= ECHO_RTOL * max(abs(a), abs(b))
    return a == b


def _check_manifest(outdir: Path, problems: list) -> bytes:
    manifest = outdir / "MANIFEST"
    try:
        data = manifest.read_bytes()
    except OSError as exc:
        problems.append(f"no MANIFEST: {exc}")
        return b""
    listed = set()
    for line in data.decode("utf-8").splitlines():
        digest, _, name = line.partition("  ")
        listed.add(name)
        path = outdir / name
        if not path.is_file():
            problems.append(f"MANIFEST names missing file {name}")
        elif digest != "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest():
            problems.append(f"MANIFEST hash mismatch for {name}")
    unlisted = {p.name for p in outdir.iterdir()} - listed - {"MANIFEST"}
    if unlisted:
        problems.append(f"files missing from MANIFEST: {sorted(unlisted)}")
    return data


def _csv_peak(path: Path, column: str) -> float:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        col = next(rows).index(column)
        return max(float(row[col]) for row in rows)


def _physics(kind: str, expect: dict, metrics: dict, outdir: Path, problems: list):
    if kind == "transfer_asymmetry":
        q = expect["q"]
        if q == 0.0:
            if abs(metrics["peak_forward"] - PEAK_FORWARD) > PEAK_TOL:
                problems.append(f"peak_forward {metrics['peak_forward']!r} is not 4/e^2")
        elif abs(metrics["asymmetry_ratio"] * q * q - 1.0) > RATIO_TOL:
            problems.append(f"asymmetry_ratio {metrics['asymmetry_ratio']!r} is not 1/q^2 at q={q}")
    elif kind == "reciprocity_sweep":
        for q in expect["ratios"]:
            value = metrics[f"asymmetry_at_{q:g}"]
            if q == 1.0 and abs(value - 1.0) > 0.01:
                problems.append(f"asymmetry at ratio 1 is {value!r}")
            elif 0.0 < q < 1.0 and abs(value * q * q - 1.0) > RATIO_TOL:
                problems.append(f"asymmetry_at_{q:g} {value!r} is not 1/q^2")
    elif kind == "cascade_chain":
        n = expect["n_sites"]
        peak = _csv_peak(outdir / f"chain_head_excited_n{n}.csv", "Re<pop_2>[dimensionless]")
        if abs(peak - PEAK_FORWARD) > PEAK_TOL:
            problems.append(f"chain spin-2 peak {peak!r} is not 4/e^2")
    elif kind == "elimination_validation":
        for r in expect["delta_over_g"]:
            constant = metrics.get(f"exchange_constant_r{r:g}")
            if constant is None or abs(constant - (1.0 - 2.0 / r ** 2)) > ELIMINATION_TOL:
                problems.append(f"exchange constant at ratio {r:g} is {constant!r}, "
                                f"expected {1.0 - 2.0 / r ** 2:.6g}")


def _check_report(step: dict, outdir: Path, problems: list):
    try:
        report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable report.json: {exc}")
        return
    failed = sorted(k for k, ok in report["pass_flags"].items() if not ok)
    if failed:
        problems.append(f"pass flags false: {failed}")
    params = report["parameters"]
    if step["kind"] == "couplings":
        params = params["budget"]
    for key, value in step["expect"].items():
        if key != "q" and not _close(params.get(key), value):
            problems.append(f"parameters.{key} = {params.get(key)!r}, expected {value!r}")
    for label, diag in report["trajectory_diagnostics"].items():
        if diag.get("stationary", 0.0) != 0.0:
            problems.append(f"trajectory {label} took the stationary shortcut")
    try:
        _physics(step["kind"], step["expect"], report["metrics"], outdir, problems)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        problems.append(f"physics check could not run: {exc!r}")


def check(step: dict, rc, stdout: str) -> tuple[list[str], bytes]:
    """Problems found in one invocation's outputs, and its determinism fingerprint."""
    problems: list[str] = []
    if rc != 0:
        problems.append(f"exit code {rc!r}")
    if step["kind"] == "validate":
        # One "PASS name: detail" line per invariant, then "k/n invariants passed".
        lines = stdout.strip().splitlines() or [""]
        passed, _, total = lines[-1].partition(" ")[0].partition("/")
        bad = [line for line in lines[:-1] if not line.startswith("PASS ")]
        if bad or len(lines) < 2 or passed != total:
            problems.append(f"validate reported failures: {bad or lines[-1:]}")
        return problems, stdout.encode("utf-8")
    outdir = Path(step["out"])
    fingerprint = _check_manifest(outdir, problems)
    if fingerprint:
        _check_report(step, outdir, problems)
    return problems, fingerprint
