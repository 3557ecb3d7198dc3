"""Seeded invocation plans for the three benchmark workloads.

A plan is the fixed sequence of ``chiralspin`` command lines one pass of a
workload issues, in order. The seed varies only physics parameters, never the
amount of work: every seed of a workload gives the same commands with the
same step counts, sample counts and model dimensions. Each step also carries
``expect``, the inputs its report must echo back, which the checks use.

Every pass brackets its experiment requests the way a user session does:
``couplings --output`` for a seeded resonator first and ``validate`` last.
"""

from __future__ import annotations

import json
import math
import random

TWO_PI = 2.0 * math.pi
SPACING_M = 2.5e-7  # spin spacing; the CLI's default pair positions are [0, 2.5e-7]


def _num(x: float) -> str:
    return json.dumps(x)


def _couplings(rng: random.Random, out: str) -> dict:
    l_m = round(rng.uniform(0.8e-6, 1.5e-6), 10)
    w_m = round(rng.uniform(0.8e-7, 1.5e-7), 11)
    h_m = round(rng.uniform(0.8e-7, 1.5e-7), 11)
    delta_hz = round(rng.uniform(5e3, 2e4), 1)
    argv = ["couplings", "--material", "alpha-SiO2", "--l", _num(l_m), "--w", _num(w_m),
            "--h", _num(h_m), "--delta", _num(delta_hz), "--output", out]
    return {"kind": "couplings", "argv": argv, "out": out,
            "expect": {"material": "alpha-SiO2", "geometry_m": {"l": l_m, "w": w_m, "h": h_m},
                       "delta_hz": delta_hz}}


def _experiment(name: str, sets: dict, out: str, expect: dict) -> dict:
    argv = ["experiment", name]
    for key, value in sets.items():
        argv += ["--set", f"{key}={_num(value)}"]
    argv += ["--output", out]
    return {"kind": name, "argv": argv, "out": out, "expect": expect}


def _k_z_d(rng: random.Random) -> float:
    return round(rng.uniform(0.1, 1.5), 4)


def _transfer(rng: random.Random, out: str, forward_only: bool) -> dict:
    kd = _k_z_d(rng)
    q = 0.0 if forward_only else round(rng.uniform(0.1, 0.9), 4)
    return _experiment("transfer_asymmetry",
                       {"cascade.k_z_d": kd, "cascade.gamma_prime_hz": q}, out,
                       {"gamma_rad_s": TWO_PI, "gamma_prime_rad_s": TWO_PI * q,
                        "k_z_rad_m": kd / SPACING_M, "q": q})


def _sweep(rng: random.Random, out: str) -> dict:
    kd = _k_z_d(rng)
    a, b = sorted(round(rng.uniform(0.05, 0.95), 4) for _ in range(2))
    ratios = [0.0, a, b, 1.0]
    return _experiment("reciprocity_sweep",
                       {"cascade.k_z_d": kd, "experiment.parameters.ratios": ratios}, out,
                       {"gamma_rad_s": TWO_PI, "k_z_rad_m": kd / SPACING_M, "ratios": ratios})


def _body_elimination(rng: random.Random, out) -> list[dict]:
    g_hz = round(rng.uniform(0.5, 2.0), 4)
    ratios = [25.0, 50.0, 100.0]
    return [_experiment("elimination_validation",
                        {"experiment.parameters.g_hz": g_hz,
                         "experiment.parameters.delta_over_g": ratios,
                         "experiment.parameters.cutoff": 2}, out(1),
                        {"g_rad_s": TWO_PI * g_hz, "delta_over_g": ratios, "cutoff": 2})]


def _body_chain5(rng: random.Random, out) -> list[dict]:
    kd = _k_z_d(rng)
    positions = [i * SPACING_M for i in range(5)]
    return [_experiment("cascade_chain",
                        {"spin.positions_m": positions, "cascade.k_z_d": kd,
                         "experiment.parameters.n_sites": 5}, out(1),
                        {"gamma_rad_s": TWO_PI, "k_z_rad_m": kd / SPACING_M, "n_sites": 5,
                         "positions_m": positions})]


def _body_pair_mix(rng: random.Random, out) -> list[dict]:
    steps = []
    for i in range(6):
        steps.append(_transfer(rng, out(len(steps) + 1), forward_only=(i % 2 == 0)))
        if i % 2 == 1:
            steps.append(_sweep(rng, out(len(steps) + 1)))
    return steps


_BODIES = {"elimination": _body_elimination, "chain5": _body_chain5, "pair_mix": _body_pair_mix}
WORKLOADS = tuple(_BODIES)  # why each was chosen: BENCHMARK.json and README.md


def plan(workload: str, seed: int, workdir: str) -> list[dict]:
    """The invocation sequence of one pass of ``workload`` for ``seed``.

    Output directories are fixed per step under ``workdir``, so every pass of
    a run issues byte-identical argv lists.
    """
    if workload not in _BODIES:
        raise KeyError(f"unknown workload {workload!r}; known: {sorted(_BODIES)}")
    rng = random.Random(f"{workload}:{seed}")

    def out(i: int) -> str:
        return f"{workdir}/i{i:02d}"

    steps = [_couplings(rng, out(0))]
    steps += _BODIES[workload](rng, out)
    steps.append({"kind": "validate", "argv": ["validate"], "out": None, "expect": {}})
    return steps
