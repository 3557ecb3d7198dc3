"""The invariants behind the ``validate`` CLI subcommand, as shared measures.

Each invariant is one public measure function. It computes its identity on
the inputs it is given, returns the measured numbers as a dict and asserts
nothing; its defaults are the fixed-seed inputs ``validate`` uses. The bounds
``validate`` applies live in one table, :data:`INVARIANTS`. The acceptance
criteria and the unit tests call the same measures with their own inputs and
literal bounds, so every identity is computed in exactly one place, and a
deployed artifact can re-verify itself without a test harness.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .core import (DensityMatrix, HilbertSpace, Operator, StateStack, basis_vector, boson_operators,
                   commutator, embed, partial_trace_stack, spin_factor, spin_operators)
from .dynamics import IntegratorConfig, evolve
from .materials import ResonatorGeometry, builtin_material, coupling_table, effective_gamma
from .models import (CascadeSpec, ModeSpec, SpinSite, build_cascade_model, build_full_model,
                     site_number_operators, total_excitation)

__all__ = [
    "INVARIANTS", "run_invariant_suite", "random_density",
    "spin_commutators", "boson_truncation", "embed_homomorphism", "partial_trace_identities",
    "dagger_involution", "generator_forms_agree", "nonhermitian_identity", "hermiticity_classes",
    "excitation_conservation", "liouvillian_trace", "dark_state_residual", "upstream_frozen",
    "amplitude_damping", "jump_rewrite", "no_back_action", "budget_identities",
]

_SEED = 20240717


def _pair_spec(gamma=1.0, gamma_prime=0.0, kd=0.7):
    sites = (SpinSite(0.5, 0.0, "A"), SpinSite(0.5, 1.0, "B"))
    return CascadeSpec(gamma, gamma_prime, kd, sites)


def _draw_pair(rng):
    return _pair_spec(gamma=float(rng.uniform(0.1, 3.0)), kd=float(rng.uniform(-math.pi, math.pi)))


def _paper_h_nh(spec, backward=False) -> np.ndarray:
    """The paper's spin-1/2 pair H_nh on |uu>, |ud>, |du>, |dd>, written out as a literal.

    Forward (rate gamma): -i gamma (diag(2, 1, 1, 0) + 2 e^{ikd} |du><ud|). Backward (rate
    gamma_prime) has the transfer at the mirrored entry |ud><du|. No upstream entry exists.
    """
    phase = spec.k_z * (spec.sites[1].position_z - spec.sites[0].position_z)
    h = np.diag([2.0, 1.0, 1.0, 0.0]).astype(complex)
    h[(1, 2) if backward else (2, 1)] = 2.0 * np.exp(1j * phase)
    return h * complex(-1j * (spec.gamma_prime if backward else spec.gamma))


def _max_abs(m) -> float:
    return float(np.max(np.abs(m)))


def _worst(values) -> float:
    """The largest of ``values``; a NaN among them is the result, so no sample is dropped."""
    return float(np.max(list(values)))


def _gaussians(rng, count: int, dim: int) -> np.ndarray:
    """``count`` complex Gaussian matrices: the numbers of sequential real-, then imaginary-part draws."""
    x = rng.standard_normal((count, 2, dim, dim))
    return x[:, 0] + 1j * x[:, 1]


def _random_densities(rng, count: int, dim: int) -> np.ndarray:
    """``count`` sequential :func:`random_density` draws as one (count, dim, dim) stack, bit for bit."""
    g = _gaussians(rng, count, dim)
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[:, None, None]


def random_density(rng, dim: int) -> np.ndarray:
    """Full-rank random density matrix G G^dag / tr(G G^dag) with complex Gaussian G."""
    return _random_densities(rng, 1, dim)[0]


def spin_commutators(spins=(0.5, 1.0, 1.5, 2.5)) -> dict:
    """[S+, S-] = 2 S^z and [S^z, S^±] = ±S^± for every spin value."""
    ladder, sz_dev = [], []
    for s in spins:
        sp, sm, sz = spin_operators(s)
        ladder.append(_max_abs(commutator(sp, sm).matrix - 2.0 * sz.matrix))
        sz_dev += [_max_abs(commutator(sz, sp).matrix - sp.matrix),
                   _max_abs(commutator(sz, sm).matrix + sm.matrix)]
    return {"ladder_deviation": _worst(ladder), "sz_deviation": _worst(sz_dev)}


def boson_truncation() -> dict:
    """The cutoff-2 [a, a^dag] is diag(1, 1, -2), not the identity."""
    a, adag = boson_operators(2)
    return {"deviation": _max_abs(commutator(a, adag).matrix - np.diag([1.0, 1.0, -2.0]))}


def embed_homomorphism(rng=_SEED, samples=5, space=None) -> dict:
    """embed(A B) = embed(A) embed(B) for random operators A, B on the factor at index 1."""
    rng = np.random.default_rng(rng)
    space = space or HilbertSpace((spin_factor(0.5), spin_factor(1.0), spin_factor(0.5)))
    single = HilbertSpace((space.factors[1],))
    d = single.dim
    lhs, rhs = [], []
    for pair in _gaussians(rng, 2 * samples, d).reshape(samples, 2, d, d):
        a, b = (Operator(single, m) for m in pair)
        lhs.append(embed(a @ b, 1, space).matrix)
        rhs.append((embed(a, 1, space) @ embed(b, 1, space)).matrix)
    return {"deviation": _max_abs(np.array(lhs) - np.array(rhs))}


def partial_trace_identities(rng=_SEED + 1, samples=5, space=None, keeps=({1},)) -> dict:
    """Keeping every factor is the identity and every reduced state has unit trace (one state per keep set).

    The states are drawn sample-major, keep-minor; each identity reduces them as one stack."""
    rng = np.random.default_rng(rng)
    space = space or HilbertSpace((spin_factor(0.5), spin_factor(0.5), spin_factor(1.0)))
    keeps = tuple(keeps)
    every = np.arange(space.dim)
    rhos = _random_densities(rng, samples * len(keeps), space.dim)
    kept = partial_trace_stack(StateStack(space, every, rhos), range(len(space.factors))).matrices
    reduced = [partial_trace_stack(StateStack(space, every, rhos[i::len(keeps)]), keep).matrices
               for i, keep in enumerate(keeps)]
    traces = np.array([r.trace(axis1=1, axis2=2) for r in reduced])
    return {"keep_all_deviation": _max_abs(kept - rhos), "trace_deviation": _max_abs(traces - 1.0)}


def dagger_involution(rng=_SEED + 2, samples=5) -> dict:
    """(A^dag)^dag = A exactly for random spin-3/2 operators."""
    space = HilbertSpace((spin_factor(1.5),))
    ops = _gaussians(np.random.default_rng(rng), samples, 4)
    return {"deviation": _max_abs(np.array([Operator(space, m).dag().dag().matrix for m in ops]) - ops)}


def generator_forms_agree(rng=_SEED + 3, specs=10, states=5, draw_spec=_draw_pair) -> dict:
    """Forward L(rho) against -i(H_nh rho - rho H_nh^dag) + 2 gamma z rho z^dag, relative to max|L(rho)|."""
    rng = np.random.default_rng(rng)
    worst = []
    for _ in range(specs):
        spec = draw_spec(rng)
        model = build_cascade_model(spec)
        h_nh = _paper_h_nh(spec)
        z = model.jumps[0][1].matrix
        rho = _random_densities(rng, states, 4)
        lhs = model.generator().apply(rho)
        rhs = -1j * (h_nh @ rho - rho @ h_nh.conj().T) + 2.0 * spec.gamma * (z @ rho @ z.conj().T)
        scale = np.maximum(np.max(np.abs(lhs), axis=(-2, -1), keepdims=True), 1e-300)  # max|L| per state
        worst.append(_max_abs(np.abs(lhs - rhs) / scale))  # dividing by scale > 0 keeps each state's maximum
    return {"relative_deviation": _worst(worst)}


def nonhermitian_identity(rng=_SEED + 4, specs=10, draw_spec=_draw_pair) -> dict:
    """K of each one-channel cascade against the paper's pair H_nh, forward and backward, relative to gamma.

    K is that of the cascade model of the one channel of each direction, with rate gamma, so a
    channel that reads the other rate fails. The reverse coefficient <up,down|K|down,up>
    (upstream gaining from downstream) is read from every forward K.
    """
    rng = np.random.default_rng(rng)
    worst, reverse = [], []
    for _ in range(specs):
        spec = draw_spec(rng)
        for backward, channel in ((False, replace(spec, gamma_prime=0.0)),
                                  (True, replace(spec, gamma=0.0, gamma_prime=spec.gamma))):
            k = build_cascade_model(channel).generator().k
            worst.append(_max_abs(_paper_h_nh(channel, backward) - k) / spec.gamma)
            if not backward:
                reverse.append(abs(k[1, 2]))
    return {"relative_deviation": _worst(worst), "reverse_coefficient": _worst(reverse)}


def _forward_k(spec) -> Operator:
    model = build_cascade_model(replace(spec, gamma_prime=0.0))
    return Operator(model.space, model.generator().k)


def hermiticity_classes(specs=(_pair_spec(gamma=0.8, kd=1.1),)) -> dict:
    """Relative anti-Hermiticity of H (worst), of the forward K = H_nh (least) and of K at gamma = 0."""
    exchange = [build_cascade_model(s).hamiltonian for s in specs]
    effective = [_forward_k(s) for s in specs]
    zero_rate = [_forward_k(replace(s, gamma=0.0)) for s in specs]
    return {"exchange_antihermiticity": _worst(h.antihermiticity() for h in exchange),
            "effective_antihermiticity": float(np.min([h.antihermiticity() for h in effective])),
            "zero_rate_antihermiticity": _worst(h.antihermiticity() for h in zero_rate)}


def excitation_conservation(spins=(SpinSite(0.5, 0.0), SpinSite(0.5, 1.0))) -> dict:
    """max|[H, N]|: relative to max|H| for a rotating mode, absolute for a counter-rotating one."""
    rotating, counter = (build_full_model(spins, (mode,)).hamiltonian
                         for mode in (ModeSpec(+1, +1, 5.0, 0.3, 2), ModeSpec(+1, -1, 50.0, 0.3, 2)))
    violation = [_max_abs(commutator(h, total_excitation(h.space)).matrix) for h in (rotating, counter)]
    return {"rotating_commutator": violation[0] / _max_abs(rotating.matrix),
            "counter_rotating_commutator": violation[1]}


def liouvillian_trace(rng=_SEED + 5, spec=_pair_spec(1.0, 0.4, 0.5)) -> dict:
    """max |tr L(rho)| over random states: the generator preserves the trace."""
    rng = np.random.default_rng(rng)
    model = build_cascade_model(spec)
    out = model.generator().apply(_random_densities(rng, 20, model.space.dim))
    return {"max_abs_trace": _worst(np.abs(np.trace(out, axis1=-2, axis2=-1)))}


def dark_state_residual(spec=_pair_spec(1.0, kd=0.0)) -> dict:
    """max|L(rho)| on the all-ground state, which is exactly stationary."""
    model = build_cascade_model(spec)
    ground = basis_vector(model.space, tuple(d - 1 for d in model.space.dims))
    return {"residual": _max_abs(model.generator().apply(np.outer(ground, ground)))}


def upstream_frozen() -> dict:
    """d<n_head>/dt on a 3-site forward chain, head in its ground state and downstream excited."""
    spec = CascadeSpec(1.0, 0.0, 0.8, tuple(SpinSite(0.5, float(j), f"s{j}") for j in range(3)))
    model = build_cascade_model(spec)
    psi = basis_vector(model.space, (1, 0, 0))
    n_head = site_number_operators(model.space, spec.sites)[0].matrix
    rate = np.trace(n_head @ model.generator().apply(np.outer(psi, psi.conj())))
    return {"upstream_rate": float(np.real(rate))}


def amplitude_damping() -> dict:
    """Lone spin-1/2, the one-site cascade at gamma = 1: excited population at t = 1 against exp(-2)."""
    site = SpinSite(0.5, 0.0)
    model = build_cascade_model(CascadeSpec(1.0, 0.0, 0.0, (site,)))
    rho0 = DensityMatrix.from_pure(model.space, basis_vector(model.space, (0,)))
    n_op = site_number_operators(model.space, (site,))[0]
    traj = evolve(model, rho0, IntegratorConfig(t_final=1.0, rate_scale=1.0, dt=1e-3), [("pop", n_op)])
    return {"deviation": abs(float(np.real(traj.observables["pop"][-1])) - math.exp(-2.0))}


def jump_rewrite(spec=_pair_spec(1.0, kd=0.4), t_final=4.0) -> dict:
    """The H_nh-plus-jump rewrite against the Lindblad integration, sup-norm over both populations.

    From |ud> ``evolve`` takes its amplitude path: no-jump evolution under -iK with the jumped
    population recycled into |dd>. From (|ud><ud| + |dd><dd|)/2 it integrates the master
    equation on its density path; |dd> is stationary and counts no quanta, so twice those
    populations are the same curves.
    """
    model = build_cascade_model(spec)
    ud, dd = (basis_vector(model.space, occ) for occ in ((0, 1), (1, 1)))
    cfg = IntegratorConfig(t_final=t_final, rate_scale=1.0, dt=1e-3)
    watch = list(zip(("pop_A", "pop_B"), site_number_operators(model.space, spec.sites)))
    rewritten = evolve(model, DensityMatrix.from_pure(model.space, ud), cfg, watch)
    mixture = DensityMatrix(model.space, 0.5 * (np.outer(ud, ud) + np.outer(dd, dd)))
    lind = evolve(model, mixture, cfg, watch)
    return {"deviation": _worst(_max_abs(2.0 * lind.observables[label] - rewritten.observables[label])
                                for label, _ in watch)}


def no_back_action(spec=_pair_spec(1.0, kd=0.9), downstream=None) -> dict:
    """Upstream reduced state against the upstream spin's one-site forward cascade, sup-norm over states.

    The upstream spin starts excited, the downstream one in ``downstream`` (default: ground).
    """
    model = build_cascade_model(spec)
    up = np.diag([1.0, 0.0]).astype(complex)
    downstream = np.diag([0.0, 1.0]).astype(complex) if downstream is None else downstream
    cfg = IntegratorConfig(t_final=6.0, rate_scale=1.0, dt=2e-3, record_states_stride=50)
    full = evolve(model, DensityMatrix(model.space, np.kron(up, downstream)), cfg)
    single = build_cascade_model(replace(spec, gamma_prime=0.0, sites=spec.sites[:1]))
    alone = evolve(single, DensityMatrix(single.space, up), cfg)
    return {"reduced_deviation": partial_trace_stack(full.states, {0}).max_deviation(alone.states)}


def budget_identities() -> dict:
    """Quartz micron-beam budget: 2 g^2/Delta on every rotating row, rate split, u^2 and g^2 laws."""
    quartz = builtin_material("alpha-SiO2")
    geom = ResonatorGeometry(1e-6, 1e-7, 1e-7)
    budget = coupling_table(quartz, geom, "electron", 1e4)
    dispersive = []
    for row in budget.rows:
        if row.gamma_hz is not None and row.detuning_hz > 0:
            expected = 2.0 * row.g_hz ** 2 / row.detuning_hz
            dispersive.append(abs(row.gamma_hz - expected) / expected)
    flat = coupling_table(replace(quartz, v_minus=quartz.v_plus), geom, "electron", 1e4)
    ff, fb = flat.row(+1, +1).gamma_hz, flat.row(-1, +1).gamma_hz
    driven = [coupling_table(quartz, geom, "nuclear", 1e3, drive_u=u).row(+1, +1).gamma_hz
              for u in (1e-4, 2e-4)]
    return {"dispersive_deviation": _worst(dispersive),
            "backward_rate_hz": budget.row(-1, +1).gamma_hz,
            "rate_ratio": budget.gamma_ratio,
            "nonchiral_difference": abs(ff - fb) / ff,
            "driven_ratio": driven[1] / driven[0],
            "coupling_scaling_deviation": abs(effective_gamma(3.0, 300.0) / effective_gamma(1.5, 300.0) - 4.0)}


# What ``validate`` requires of each measured quantity: a closed interval (lo, hi),
# None for an open end. A strict bound sits one float inside its boundary.
INVARIANTS = (
    ("spin_ladder_commutators", spin_commutators,
     {"ladder_deviation": (None, 1e-12), "sz_deviation": (None, 1e-12)}),
    ("boson_truncation_identity", boson_truncation, {"deviation": (None, 1e-12)}),
    ("embed_multiplicative", embed_homomorphism, {"deviation": (None, 1e-12)}),
    ("partial_trace_preserving", partial_trace_identities,
     {"keep_all_deviation": (None, 1e-12), "trace_deviation": (None, 1e-12)}),
    ("dagger_involution", dagger_involution, {"deviation": (None, 0.0)}),
    ("generator_forms_agree", generator_forms_agree, {"relative_deviation": (None, 1e-12)}),
    ("nonhermitian_defining_identity", nonhermitian_identity,
     {"relative_deviation": (None, 1e-12), "reverse_coefficient": (None, 0.0)}),
    ("hermiticity_classes", hermiticity_classes,
     {"exchange_antihermiticity": (None, 1e-12), "zero_rate_antihermiticity": (None, 1e-12),
      "effective_antihermiticity": (math.nextafter(1e-12, 1.0), None)}),
    ("excitation_conservation", excitation_conservation,
     {"rotating_commutator": (None, 1e-12), "counter_rotating_commutator": (math.nextafter(1e-6, 1.0), None)}),
    ("liouvillian_traceless", liouvillian_trace, {"max_abs_trace": (None, 1e-12)}),
    ("dark_state_stationary", dark_state_residual, {"residual": (None, 0.0)}),
    ("chain_upstream_frozen", upstream_frozen, {"upstream_rate": (-1e-12, 1e-12)}),
    ("amplitude_damping_closed_form", amplitude_damping, {"deviation": (None, 1e-6)}),
    ("jump_rewrite_equivalence", jump_rewrite, {"deviation": (None, 1e-9)}),
    ("no_back_action_two_spins", no_back_action, {"reduced_deviation": (None, 1e-8)}),
    ("budget_identities", budget_identities,
     {"dispersive_deviation": (None, 1e-12), "backward_rate_hz": (None, math.nextafter(1.0, 0.0)),
      "rate_ratio": (1e3, None), "nonchiral_difference": (None, 1e-12), "driven_ratio": (4.0, 4.0),
      "coupling_scaling_deviation": (None, 1e-12)}),
)


def _judge(value, lo, hi) -> tuple[bool, str]:
    ok = (lo is None or lo <= value) and (hi is None or value <= hi)
    bound = f">= {lo:.3g}" if hi is None else f"<= {hi:.3g}" if lo is None else f"in [{lo:.3g}, {hi:.3g}]"
    return ok, f"{value:.2e} {bound}" + ("" if ok else " VIOLATED")


def run_invariant_suite():
    """Run every invariant of :data:`INVARIANTS`; returns a list of (name, passed, detail).

    The detail gives each measured quantity and its bound; a measure that raises is a failure.
    """
    results = []
    for name, measure, bounds in INVARIANTS:
        try:
            measured = measure()
            verdicts = [(q, *_judge(measured[q], lo, hi)) for q, (lo, hi) in bounds.items()]
        except Exception as exc:  # noqa: BLE001 - report every failure, never crash
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
            continue
        results.append((name, all(ok for _, ok, _ in verdicts),
                        ", ".join(f"{q}={text}" for q, _, text in verdicts)))
    return results
