"""Named, deterministic experiments tying models and dynamics together.

Every experiment is a pure function of its inputs: no randomness enters the
pipeline, configs are owned by the experiment and recorded in its report, and
identical inputs reproduce bit-identical reports. Points of a sweep run in
parameter order. Every run starts from :func:`~chiralspin.core.spin_state`
and goes through :func:`~chiralspin.dynamics.evolve`; every directional model,
the lone decaying spin of a one-site prefix included, comes from
:func:`~chiralspin.models.build_cascade_model`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    DensityMatrix,
    HilbertSpace,
    boson_operators,
    embed,
    partial_trace_stack,
    spin_state,
)
from .dynamics import IntegratorConfig, evolve, fit_exchange_rate
from .errors import DomainError, FitError
from .models import (
    CascadeSpec,
    ModeSpec,
    SpinSite,
    build_cascade_model,
    build_full_model,
    site_number_operators,
    total_excitation,
)

__all__ = [
    "ExperimentReport",
    "one_excited_state",
    "elimination_validation",
    "transfer_asymmetry",
    "reciprocity_sweep",
    "cascade_chain",
]

# Backward/forward peak ratios are floored here to avoid division blow-ups;
# anything above the ceiling is reported as the infinity sentinel.
_ASYMMETRY_FLOOR = 1e-12
_ASYMMETRY_CEILING = 1e12


@dataclass
class ExperimentReport:
    """Parameters in, metrics and pass/fail flags out, plus emitted-file refs.

    Flag keys follow ``<metric>__<condition>`` so every flag names the metric
    it judges; :meth:`validate` enforces that the metric exists.
    ``trajectories`` holds the in-memory time series, which the CLI writes
    one CSV each.
    """

    name: str
    parameters: dict
    metrics: dict
    pass_flags: dict
    trajectories: dict = field(default_factory=dict)

    def validate(self) -> "ExperimentReport":
        for key in self.pass_flags:
            metric = key.split("__", 1)[0]
            if metric not in self.metrics:
                raise DomainError(f"pass flag {key!r} references missing metric {metric!r}")
        return self


def one_excited_state(space: HilbertSpace, excited_index: int) -> DensityMatrix:
    """:func:`~chiralspin.core.spin_state` with only factor ``excited_index`` up, as a density matrix."""
    return DensityMatrix.from_pure(space, spin_state(space, (excited_index,)))


def elimination_validation(g: float = 1.0, delta_over_g=(25.0, 50.0, 100.0),
                           cutoff: int = 2) -> ExperimentReport:
    """Measure the mediated exchange rate of the closed spin-pair/mode model.

    For each detuning-to-coupling ratio the pair starts in |up,down,vacuum>,
    the transferred population is fitted for the first swap maximum, and the
    dimensionless constant gamma_fit * Delta / g^2 is reported. The constant
    must stabilize as the ratio grows; the tabulated reference value for the
    mediated rate is 2 g^2 / Delta, against which the fitted constant is
    reported (the second-order expectation is 1 - 2 (g/Delta)^2).

    Fit failures are recorded per point rather than aborting the experiment;
    with g = 0 nothing oscillates and a null result is reported.
    """
    ratios = tuple(float(r) for r in delta_over_g)
    if any(r < 10.0 for r in ratios):
        raise DomainError(f"all detuning ratios must be >= 10, got {ratios}")
    # the constant divides by g^2
    if g != 0.0 and not np.finfo(float).tiny <= g * g <= np.finfo(float).max:
        raise DomainError(f"g {g:.3e} rad/s leaves g^2 outside the normal floats")
    spins = (SpinSite(0.5, 0.0, "A"), SpinSite(0.5, 1.0, "B"))

    def run_point(ratio: float):
        delta = ratio * g
        mode = ModeSpec(momentum_sign=+1, pam=+1, detuning=delta, g=g, fock_cutoff=cutoff)
        model = build_full_model(spins, (mode,))
        space = model.space
        n_ops = site_number_operators(space, spins)
        a_idx = len(spins)
        a, adag = boson_operators(cutoff)
        phonon = embed(adag, a_idx, space) @ embed(a, a_idx, space)
        watch = [("pop_B", n_ops[1]), ("phonon_n", phonon), ("total_excitation", total_excitation(space))]
        rho0 = one_excited_state(space, 0)
        rate_scale = delta if delta > 0 else 1.0
        t_final = 1.25 * (math.pi / 2.0) * ratio * ratio if g > 0 else 10.0
        cfg = IntegratorConfig(t_final=t_final, rate_scale=rate_scale, dt=0.05, sample_stride=16)
        traj = evolve(model, rho0, cfg, watch)
        point = {"trajectory": traj, "cfg": cfg}
        try:
            gamma_fit = fit_exchange_rate(traj, "pop_B")
            point["constant"] = gamma_fit * delta / (g * g)
        except FitError as exc:
            point["fit_error"] = str(exc)
        point["max_phonon"] = float(np.max(np.real(traj.observables["phonon_n"])))
        exc_series = np.real(traj.observables["total_excitation"])
        point["excitation_drift"] = float(np.max(np.abs(exc_series - exc_series[0])))
        return point

    points = [run_point(ratio) for ratio in ratios]

    metrics: dict = {}
    flags: dict = {}
    trajectories: dict = {}
    constants = []
    for ratio, point in zip(ratios, points):
        tag = f"r{ratio:g}"
        trajectories[f"elimination_{tag}"] = point["trajectory"]
        metrics[f"max_phonon_{tag}"] = point["max_phonon"]
        metrics[f"excitation_drift_{tag}"] = point["excitation_drift"]
        if g > 0:
            bound = 4.0 * (1.0 / ratio) ** 2
            flags[f"max_phonon_{tag}__le_dispersive_bound"] = point["max_phonon"] <= bound
        if "constant" in point:
            metrics[f"exchange_constant_{tag}"] = point["constant"]
            constants.append((ratio, point["constant"]))
        else:
            metrics[f"fit_failed_{tag}"] = 1.0

    if len(constants) >= 2:
        (_, c_prev), (_, c_last) = constants[-2], constants[-1]
        drift = abs(c_last / c_prev - 1.0) if c_prev != 0 else math.inf
        metrics["constant_drift_last_two"] = drift
        flags["constant_drift_last_two__le_0.1"] = drift <= 0.1
        metrics["exchange_constant"] = c_last
        metrics["reference_constant"] = 2.0
        metrics["second_order_constant"] = 1.0 - 2.0 / constants[-1][0] ** 2
    if not constants:
        metrics["null_result"] = 1.0
        flags["null_result__no_oscillation"] = True

    report = ExperimentReport(
        "elimination_validation",
        {"g_rad_s": g, "delta_over_g": list(ratios), "cutoff": cutoff,
         "integrator": {"dt": 0.05, "sample_stride": 16, "rate_scale": "delta"}},
        metrics, flags, trajectories=trajectories)
    return report.validate()


def _cascade_peaks(spec: CascadeSpec, cfg: IntegratorConfig):
    """The head- and tail-excited runs of a two-site cascade, their watch list and the two transfer peaks."""
    if len(spec.sites) != 2:
        raise DomainError(f"a pair-transfer measure takes exactly two sites, got {len(spec.sites)}")
    model = build_cascade_model(spec)
    space = model.space
    n_ops = site_number_operators(space, spec.sites)
    watch = [(f"pop_{site.label or i}", op) for (i, site), op in zip(enumerate(spec.sites), n_ops)]
    fwd, bwd = (evolve(model, one_excited_state(space, excited), cfg, watch) for excited in (0, 1))
    peak_forward = float(np.max(np.real(fwd.observables[watch[1][0]])))
    peak_backward = float(np.max(np.real(bwd.observables[watch[0][0]])))
    return fwd, bwd, watch, peak_forward, peak_backward


def _asymmetry(peak_forward: float, peak_backward: float) -> float:
    if peak_backward <= _ASYMMETRY_FLOOR:
        return math.inf
    ratio = peak_forward / peak_backward
    return math.inf if ratio > _ASYMMETRY_CEILING else ratio


def transfer_asymmetry(spec: CascadeSpec) -> ExperimentReport:
    """Peak transferred population for both propagation senses of a spin pair.

    The spec must hold exactly two sites. The forward run starts with the
    upstream spin up and the downstream one down and watches the
    downstream population; the backward run mirrors it. The ratio of the two
    peaks is the asymmetry metric (infinity sentinel above 1e12).
    """
    rate_scale = max(spec.gamma, spec.gamma_prime)
    if rate_scale <= 0:
        raise DomainError("at least one channel rate must be positive")
    cfg = IntegratorConfig(t_final=8.0, rate_scale=rate_scale, dt=1e-3)
    fwd, bwd, watch, peak_forward, peak_backward = _cascade_peaks(spec, cfg)
    (label_a, _), (label_b, _) = watch
    asym = _asymmetry(peak_forward, peak_backward)
    mirror = float(np.max(np.abs(np.real(fwd.observables[label_b]) - np.real(bwd.observables[label_a]))))

    metrics = {
        "peak_forward": peak_forward,
        "peak_backward": peak_backward,
        "asymmetry_ratio": asym,
        "mirror_supnorm": mirror,
    }
    flags = {}
    if spec.gamma_prime == 0.0:
        flags["peak_backward__le_1e-10"] = peak_backward <= 1e-10
        flags["peak_forward__gt_0.1"] = peak_forward > 0.1
    if spec.gamma_prime == spec.gamma:
        flags["mirror_supnorm__le_1e-9"] = mirror <= 1e-9

    report = ExperimentReport(
        "transfer_asymmetry",
        {"gamma_rad_s": spec.gamma, "gamma_prime_rad_s": spec.gamma_prime,
         "k_z_rad_m": spec.k_z,
         "positions_m": [s.position_z for s in spec.sites],
         "integrator": {"dt": cfg.dt, "t_final": cfg.t_final}},
        metrics, flags,
        trajectories={"transfer_forward": fwd, "transfer_backward": bwd})
    return report.validate()


def reciprocity_sweep(spec: CascadeSpec, ratios) -> ExperimentReport:
    """Transfer asymmetry of a two-site spec against the backward-to-forward rate ratio.

    The asymmetry must fall monotonically with the ratio and reach ~1 at
    ratio 1, where the two channels balance and the interaction is reciprocal.
    """
    ratios = tuple(float(r) for r in ratios)
    if any(r < 0 for r in ratios):
        raise DomainError("rate ratios must be non-negative")
    if spec.gamma <= 0:
        raise DomainError("the forward rate must be positive for a sweep")
    cfg = IntegratorConfig(t_final=8.0, rate_scale=spec.gamma, dt=1e-3)

    def run_point(q: float) -> float:
        *_, peak_forward, peak_backward = _cascade_peaks(replace(spec, gamma_prime=q * spec.gamma), cfg)
        return _asymmetry(peak_forward, peak_backward)

    values = [run_point(q) for q in ratios]
    order = np.argsort(ratios)
    sorted_pairs = [(ratios[i], values[i]) for i in order]
    monotone = all(a >= b - 1e-12 for (_, a), (_, b) in zip(sorted_pairs, sorted_pairs[1:]))

    metrics = {f"asymmetry_at_{q:g}": v for q, v in zip(ratios, values)}
    metrics["asymmetry_monotone"] = 1.0 if monotone else 0.0
    flags = {"asymmetry_monotone__nonincreasing": monotone}
    for q, v in zip(ratios, values):
        if q == 1.0:
            flags[f"asymmetry_at_{q:g}__within_1pct"] = 0.99 <= v <= 1.01
    report = ExperimentReport(
        "reciprocity_sweep",
        {"gamma_rad_s": spec.gamma, "k_z_rad_m": spec.k_z,
         "positions_m": [s.position_z for s in spec.sites],
         "ratios": list(ratios), "integrator": {"dt": cfg.dt, "t_final": cfg.t_final}},
        metrics, flags)
    return report.validate()


def cascade_chain(n_sites: int, spec: CascadeSpec) -> ExperimentReport:
    """No-back-action and excitation ordering down a forward chain.

    For every prefix length j the reduced dynamics of spins 1..j must be
    unchanged (sup-norm over the reduced density-matrix trajectory) when the
    downstream spins are removed from the model; excitation injected at the
    head arrives monotonically later down the chain, and excitation injected
    at the tail never leaks upstream. The window, t_final = max(8, 2(N - 1)) in
    units of 1/gamma, grows with the chain so that the last spin's peak lies inside
    it: from the closed-form amplitudes it comes at least 2 before the end up to
    N = 10 (at t = 7.98 for N = 6 and 13.59 for N = 9).
    """
    if not (2 <= n_sites <= len(spec.sites)):
        raise DomainError(f"n_sites must be between 2 and {len(spec.sites)}")
    sites = spec.sites[:n_sites]
    if spec.gamma_prime != 0:
        raise DomainError("cascade_chain runs the forward channel only; gamma_prime must be 0")
    chain_spec = replace(spec, sites=sites)
    if chain_spec.gamma <= 0:
        raise DomainError("the forward rate must be positive")

    cfg = IntegratorConfig(t_final=max(8.0, 2.0 * (n_sites - 1)), rate_scale=chain_spec.gamma,
                           dt=2e-3, record_states_stride=20)
    model = build_cascade_model(chain_spec)
    space = model.space
    n_ops = site_number_operators(space, sites)
    watch = [(f"pop_{j + 1}", op) for j, op in enumerate(n_ops)]
    head = evolve(model, one_excited_state(space, 0), cfg, watch)

    metrics: dict = {}
    flags: dict = {}
    trajectories = {f"chain_head_excited_n{n_sites}": head}

    for j in range(1, n_sites):
        sub_model = build_cascade_model(replace(chain_spec, sites=sites[:j]))
        sub = evolve(sub_model, one_excited_state(sub_model.space, 0), cfg, [])
        worst = partial_trace_stack(head.states, range(j)).max_deviation(sub.states)
        metrics[f"prefix_supnorm_{j}"] = worst
        flags[f"prefix_supnorm_{j}__le_1e-8"] = worst <= 1e-8

    arrivals = []
    for j in range(1, n_sites):
        series = np.real(head.observables[f"pop_{j + 1}"])
        arrivals.append(float(head.times[int(np.argmax(series))]))
        metrics[f"arrival_time_spin{j + 1}"] = arrivals[-1]
    ordered = all(b >= a for a, b in zip(arrivals, arrivals[1:]))
    metrics["arrival_ordered"] = 1.0 if ordered else 0.0
    flags["arrival_ordered__monotone"] = ordered

    tail = evolve(model, one_excited_state(space, n_sites - 1), cfg, watch)
    trajectories[f"chain_tail_excited_n{n_sites}"] = tail
    leak = max(float(np.max(np.real(tail.observables[f"pop_{j + 1}"])))
               for j in range(n_sites - 1))
    metrics["reverse_leak_max"] = leak
    flags["reverse_leak_max__le_1e-10"] = leak <= 1e-10

    report = ExperimentReport(
        "cascade_chain",
        {"n_sites": n_sites, "gamma_rad_s": chain_spec.gamma, "k_z_rad_m": chain_spec.k_z,
         "positions_m": [s.position_z for s in sites],
         "integrator": {"dt": cfg.dt, "t_final": cfg.t_final,
                        "record_states_stride": cfg.record_states_stride}},
        metrics, flags, trajectories=trajectories)
    return report.validate()

