"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Simulation-heavy criteria share session fixtures so the
physicality sweep (criterion 8) audits exactly the runs the other criteria
used.
"""

import json
import math
import time

import numpy as np
import pytest

from chiralspin import (
    CascadeSpec,
    SpinSite,
    cascade_chain,
    coupling_table,
    elimination_validation,
    transfer_asymmetry,
)
from chiralspin.cli import run as cli_run
from chiralspin.materials import ResonatorGeometry
from chiralspin.validation import generator_forms_agree, nonhermitian_identity

RESULTS = []


def report_line(number, name, ok, detail):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    RESULTS.append((number, ok))
    return ok


def pair_spec(gamma=1.0, gamma_prime=0.0, kd=0.7):
    sites = (SpinSite(0.5, 0.0, "A"), SpinSite(0.5, 2.5e-7, "B"))
    return CascadeSpec(gamma, gamma_prime, kd / 2.5e-7, sites)


def draw_pair_spec(rng):
    return pair_spec(gamma=float(rng.uniform(0.05, 3.0)), kd=float(rng.uniform(-math.pi, math.pi)))


@pytest.fixture(scope="module")
def elimination_run():
    start = time.perf_counter()
    report = elimination_validation(g=1.0, delta_over_g=(25.0, 50.0, 100.0), cutoff=2)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def transfer_runs():
    start = time.perf_counter()
    forward_only = transfer_asymmetry(pair_spec(gamma=1.0, gamma_prime=0.0))
    balanced = transfer_asymmetry(pair_spec(gamma=1.0, gamma_prime=1.0))
    return forward_only, balanced, time.perf_counter() - start


@pytest.fixture(scope="module")
def chain_runs():
    start = time.perf_counter()
    reports = {}
    for n in (2, 3):
        sites = tuple(SpinSite(0.5, j * 2.5e-7, f"s{j}") for j in range(n))
        spec = CascadeSpec(1.0, 0.0, 0.6 / 2.5e-7, sites)
        reports[n] = cascade_chain(n, spec)
    return reports, time.perf_counter() - start


def test_criterion_1_generator_forms_agree():
    start = time.perf_counter()
    worst = generator_forms_agree(np.random.default_rng(42), specs=10, states=50,
                                  draw_spec=draw_pair_spec)["relative_deviation"]
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    assert report_line(1, "master-equation rewrite identity", ok,
                       f"max relative deviation {worst:.2e} over 500 states, {elapsed:.2f}s")


def test_criterion_2_nonhermitian_structure():
    measured = nonhermitian_identity(np.random.default_rng(43), specs=20, draw_spec=draw_pair_spec)
    worst, reverse = measured["relative_deviation"], measured["reverse_coefficient"]
    ok = worst <= 1e-12 and reverse == 0.0
    assert report_line(2, "effective Hamiltonian structural identity", ok,
                       f"identity deviation {worst:.2e}, reverse-transfer coefficient {reverse}")


def test_criterion_3_elimination_oracle(elimination_run):
    report, elapsed = elimination_run
    constants = {r: report.metrics[f"exchange_constant_r{r:g}"] for r in (25.0, 50.0, 100.0)}
    drift = report.metrics["constant_drift_last_two"]
    spread = max(constants.values()) / min(constants.values())
    ok = (drift <= 0.10 and spread <= 1.10 and elapsed < 120.0)
    detail = (f"constant(25,50,100) = {constants[25.0]:.4f}, {constants[50.0]:.4f}, "
              f"{constants[100.0]:.4f} in units of g^2/Delta (tabulated reference: 2); "
              f"drift {drift:.2e}, {elapsed:.1f}s")
    assert report_line(3, "adiabatic-elimination rate oracle", ok, detail)


def test_criterion_4_directionality(transfer_runs):
    forward_only, balanced, elapsed = transfer_runs
    backward = forward_only.metrics["peak_backward"]
    forward = forward_only.metrics["peak_forward"]
    mirror = balanced.metrics["mirror_supnorm"]
    ok = (backward <= 1e-10 and forward > 0.1 and mirror <= 1e-9 and elapsed < 30.0)
    assert report_line(4, "one-way transfer and reciprocal limit", ok,
                       f"backward peak {backward:.1e}, forward peak {forward:.3f}, "
                       f"balanced-rate mirror deviation {mirror:.1e}, {elapsed:.1f}s")


def test_criterion_5_no_back_action(chain_runs):
    reports, elapsed = chain_runs
    worst = 0.0
    for n, report in reports.items():
        for j in range(1, n):
            worst = max(worst, report.metrics[f"prefix_supnorm_{j}"])
    ok = worst <= 1e-8 and elapsed < 60.0
    assert report_line(5, "upstream dynamics independent of downstream", ok,
                       f"worst reduced-trajectory deviation {worst:.2e} over N=2,3, {elapsed:.1f}s")


def test_criterion_6_vacuum_budget():
    start = time.perf_counter()
    budget = coupling_table("alpha-SiO2", ResonatorGeometry(1e-6, 1e-7, 1e-7), "electron", 1e4)
    fwd = budget.row(+1, +1)
    bwd = budget.row(-1, +1)
    elapsed = time.perf_counter() - start
    band_lo, band_hi = 100.0, 1000.0
    margin = 3.0
    g_ok = 100.0 <= fwd.g_hz <= 1e4
    gamma_candidates = [fwd.gamma_hz, fwd.gamma_hz_hplanck]
    gamma_ok = any(band_lo / margin <= g <= band_hi * margin for g in gamma_candidates)
    bwd_ok = bwd.gamma_hz < 1.0
    ratio_ok = budget.gamma_ratio >= 1e3
    ok = g_ok and gamma_ok and bwd_ok and ratio_ok and elapsed < 1.0
    assert report_line(
        6, "vacuum coupling budget", ok,
        f"g = {fwd.g_hz:.0f} Hz (target ~1 kHz within 10x); rate = {fwd.gamma_hz:.1f} Hz "
        f"[{fwd.gamma_hz_hplanck:.0f} Hz under the h-quantum convention] vs band "
        f"[{band_lo:.0f},{band_hi:.0f}] Hz with 3x margin; backward {bwd.gamma_hz:.2e} Hz < 1 Hz; "
        f"ratio {budget.gamma_ratio:.1e} >= 1e3; {elapsed * 1e3:.0f} ms")


def test_criterion_7_driven_budget():
    start = time.perf_counter()
    geom = ResonatorGeometry(1e-6, 1e-7, 1e-7)
    fwd, fwd_2u = (coupling_table("alpha-SiO2", geom, "nuclear", 1e3, drive_u=u).row(+1, +1)
                   for u in (1e-4, 2e-4))
    elapsed = time.perf_counter() - start
    quad = fwd_2u.gamma_hz / fwd.gamma_hz
    g_exact = fwd.g_hz == 100.0
    quad_exact = quad == 4.0
    ok = g_exact and quad_exact and elapsed < 1.0
    assert report_line(7, "driven coupling arithmetic", ok,
                       f"g(u=1e-4) = {fwd.g_hz} Hz exactly; rate(2u)/rate(u) = {quad} exactly; "
                       f"{elapsed * 1e3:.1f} ms")


def test_criterion_8_physicality(elimination_run, transfer_runs, chain_runs):
    worst = {"trace": 0.0, "herm": 0.0, "eig": 0.0, "excitation": 0.0}
    audited = 0
    all_trajectories = []
    all_trajectories += list(elimination_run[0].trajectories.values())
    for report in transfer_runs[:2]:
        all_trajectories += list(report.trajectories.values())
    for report in chain_runs[0].values():
        all_trajectories += list(report.trajectories.values())
    for traj in all_trajectories:
        if "max_trace_drift" not in traj.diagnostics:
            continue  # pure-state comparison run, not a master-equation evolution
        audited += 1
        worst["trace"] = max(worst["trace"], traj.diagnostics["max_trace_drift"])
        worst["herm"] = max(worst["herm"], traj.diagnostics["max_hermiticity_dev"])
        worst["eig"] = min(worst.get("eig", 0.0), traj.diagnostics["min_eigenvalue"])
    for ratio in (25.0, 50.0, 100.0):
        worst["excitation"] = max(worst["excitation"],
                                  elimination_run[0].metrics[f"excitation_drift_r{ratio:g}"])
    ok = (worst["trace"] <= 1e-9 and worst["herm"] <= 1e-9 and worst["eig"] >= -1e-8
          and worst["excitation"] <= 1e-9 and audited >= 7)
    assert report_line(8, "physicality across all simulations", ok,
                       f"{audited} runs audited: trace drift {worst['trace']:.1e}, "
                       f"hermiticity {worst['herm']:.1e}, min eigenvalue {worst['eig']:.1e}, "
                       f"excitation drift {worst['excitation']:.1e}")


def test_criterion_9_determinism(tmp_path):
    config = {
        "schema_version": 1,
        "spin": {"s": 0.5, "positions_m": [0.0, 2.5e-7]},
        "cascade": {"gamma_hz": 1.0, "gamma_prime_hz": 0.0, "k_z_d": 0.7, "direction": "forward"},
        "integrator": {"t_final": 6.0, "dt": 0.002},
        "experiment": {"name": "simulate"},
        "output": {"directory": str(tmp_path / "a"), "formats": ["json", "csv"]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_run(path) == 0
    assert cli_run(path, overrides=[f'output.directory={tmp_path / "b"}']) == 0
    manifest_a = (tmp_path / "a" / "MANIFEST").read_bytes()
    manifest_b = (tmp_path / "b" / "MANIFEST").read_bytes()

    budget_cfg = {
        "schema_version": 1,
        "material": "alpha-SiO2",
        "geometry": {"l_m": 1e-6, "w_m": 1e-7, "h_m": 1e-7},
        "experiment": {"name": "couplings", "parameters": {"delta_hz": 1e4}},
        "output": {"directory": str(tmp_path / "c"), "formats": ["json"]},
    }
    budget_path = tmp_path / "budget.json"
    budget_path.write_text(json.dumps(budget_cfg))
    assert cli_run(budget_path) == 0
    assert cli_run(budget_path, overrides=[f'output.directory={tmp_path / "d"}']) == 0
    manifest_c = (tmp_path / "c" / "MANIFEST").read_bytes()
    manifest_d = (tmp_path / "d" / "MANIFEST").read_bytes()

    ok = manifest_a == manifest_b and manifest_c == manifest_d
    assert report_line(9, "byte-identical reruns", ok,
                       "simulation and budget MANIFEST hashes match across reruns")


def test_summary():
    passed = sum(1 for _, ok in RESULTS if ok)
    print(f"ACCEPTANCE SUMMARY: {passed}/{len(RESULTS)} criteria passed")
    assert passed == len(RESULTS)
