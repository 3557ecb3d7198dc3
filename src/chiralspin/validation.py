"""Built-in invariant suite behind the ``validate`` CLI subcommand.

Each check is fast, deterministic (fixed seeds) and returns a one-line
detail string; the runner reports pass/fail per invariant. The same
identities are exercised more thoroughly by the test suite; this module
exists so a deployed artifact can re-verify itself without a test harness.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    basis_vector,
    boson_operators,
    commutator,
    embed,
    partial_trace,
    spin_factor,
    spin_operators,
)
from .dynamics import IntegratorConfig, evolve, evolve_nonhermitian
from .experiments import one_excited_state, single_spin_decay_model
from .materials import ResonatorGeometry, builtin_material, coupling_table, effective_gamma
from .models import (
    CascadeSpec,
    ModeSpec,
    SpinSite,
    build_cascade_model,
    build_full_model,
    build_nonhermitian_hamiltonian,
    total_excitation,
)

__all__ = ["run_invariant_suite"]

_SEED = 20240717


def _pair_spec(gamma=1.0, gamma_prime=0.0, kd=0.7):
    sites = (SpinSite(0.5, 0.0, "A"), SpinSite(0.5, 1.0, "B"))
    return CascadeSpec(gamma, gamma_prime, kd, sites)


def _random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def _check_spin_commutators():
    worst = 0.0
    for s in (0.5, 1.0, 1.5, 2.5):
        sp, sm, sz = spin_operators(s)
        dev = np.max(np.abs((sp @ sm - sm @ sp).matrix - 2.0 * sz.matrix))
        worst = max(worst, float(dev))
        dev = np.max(np.abs(commutator(sz, sp).matrix - sp.matrix))
        worst = max(worst, float(dev))
    assert worst <= 1e-12, f"ladder commutator deviation {worst:.2e}"
    return f"max deviation {worst:.2e}"


def _check_boson_truncation():
    a, adag = boson_operators(2)
    comm = (a @ adag - adag @ a).matrix
    expected = np.diag([1.0, 1.0, -2.0])
    dev = float(np.max(np.abs(comm - expected)))
    assert dev <= 1e-12, f"truncated commutator off by {dev:.2e}"
    return "truncation artifact as documented"


def _check_embed_multiplicative():
    rng = np.random.default_rng(_SEED)
    space = HilbertSpace((spin_factor(0.5), spin_factor(1.0), spin_factor(0.5)))
    single = HilbertSpace((spin_factor(1.0),))
    worst = 0.0
    for _ in range(5):
        a = Operator(single, rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        b = Operator(single, rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        lhs = embed(a @ b, 1, space).matrix
        rhs = (embed(a, 1, space) @ embed(b, 1, space)).matrix
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-12, f"embed homomorphism deviation {worst:.2e}"
    return f"max deviation {worst:.2e}"


def _check_partial_trace():
    rng = np.random.default_rng(_SEED + 1)
    space = HilbertSpace((spin_factor(0.5), spin_factor(0.5), spin_factor(1.0)))
    worst = 0.0
    for _ in range(5):
        rho = DensityMatrix(space, _random_density(rng, space.dim))
        full = partial_trace(rho, range(3))
        worst = max(worst, float(np.max(np.abs(full.matrix - rho.matrix))))
        reduced = partial_trace(rho, {1})
        worst = max(worst, abs(reduced.trace() - 1.0))
    assert worst <= 1e-12, f"partial trace deviation {worst:.2e}"
    return f"max deviation {worst:.2e}"


def _check_dagger_involution():
    rng = np.random.default_rng(_SEED + 2)
    space = HilbertSpace((spin_factor(1.5),))
    worst = 0.0
    for _ in range(5):
        op = Operator(space, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        worst = max(worst, float(np.max(np.abs(op.dag().dag().matrix - op.matrix))))
    assert worst == 0.0, f"dagger involution deviation {worst:.2e}"
    return "exact"


def _check_generator_forms_agree():
    rng = np.random.default_rng(_SEED + 3)
    worst = 0.0
    for _ in range(10):
        gamma = float(rng.uniform(0.1, 3.0))
        kd = float(rng.uniform(-math.pi, math.pi))
        spec = _pair_spec(gamma=gamma, kd=kd)
        model = build_cascade_model(spec)
        generator = model.generator()
        h_nh = build_nonhermitian_hamiltonian(spec, "forward").matrix
        z = model.jumps[0][1].matrix
        for _ in range(5):
            rho = _random_density(rng, 4)
            lhs = generator.apply(rho)
            rhs = -1j * (h_nh @ rho - rho @ h_nh.conj().T) + 2.0 * gamma * (z @ rho @ z.conj().T)
            scale = max(float(np.max(np.abs(lhs))), 1e-300)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    assert worst <= 1e-12, f"generator forms disagree by relative {worst:.2e}"
    return f"max relative deviation {worst:.2e}"


def _check_nonhermitian_identity():
    rng = np.random.default_rng(_SEED + 4)
    worst = 0.0
    for _ in range(10):
        gamma = float(rng.uniform(0.1, 3.0))
        kd = float(rng.uniform(-math.pi, math.pi))
        for direction, spec_d in (("forward", _pair_spec(gamma=gamma, kd=kd)),
                                  ("backward", _pair_spec(gamma=0.0, gamma_prime=gamma, kd=kd))):
            model = build_cascade_model(spec_d)
            h = model.hamiltonian.matrix
            z = model.jumps[0][1].matrix
            rate = gamma
            expected = h - 1j * rate * (z.conj().T @ z)
            built = build_nonhermitian_hamiltonian(spec_d, direction).matrix
            worst = max(worst, float(np.max(np.abs(built - expected))) / max(rate, 1e-300))
    spec = _pair_spec(gamma=1.3, kd=0.9)
    h_nh = build_nonhermitian_hamiltonian(spec, "forward").matrix
    reverse_coeff = h_nh[1, 2]  # <up,down| H |down,up>: upstream gaining from downstream
    assert reverse_coeff == 0.0, f"reverse exchange coefficient {reverse_coeff} is not exactly zero"
    assert worst <= 1e-12, f"defining identity off by {worst:.2e}"
    return f"identity within {worst:.2e}; reverse coefficient exactly 0"


def _check_hermiticity_classes():
    spec = _pair_spec(gamma=0.8, kd=1.1)
    h = build_cascade_model(spec).hamiltonian
    assert h.is_hermitian(), "exchange Hamiltonian must be Hermitian"
    h_nh = build_nonhermitian_hamiltonian(spec, "forward")
    assert not h_nh.is_hermitian(), "effective Hamiltonian must be non-Hermitian for gamma > 0"
    zero_spec = _pair_spec(gamma=0.0, kd=1.1)
    assert build_nonhermitian_hamiltonian(zero_spec, "forward").is_hermitian(), \
        "effective Hamiltonian must vanish (trivially Hermitian) at gamma = 0"
    return "exchange Hermitian, effective non-Hermitian unless rate is zero"


def _check_excitation_conservation():
    spins = (SpinSite(0.5, 0.0), SpinSite(0.5, 1.0))
    rotating = build_full_model(spins, (ModeSpec(+1, +1, 5.0, 0.3, 2),))
    n_op = total_excitation(rotating.space)
    dev = np.max(np.abs(commutator(rotating.hamiltonian, n_op).matrix))
    scale = np.max(np.abs(rotating.hamiltonian.matrix))
    assert dev <= 1e-12 * scale, f"rotating model violates excitation conservation by {dev:.2e}"
    counter = build_full_model(spins, (ModeSpec(+1, -1, 50.0, 0.3, 2),))
    n_op = total_excitation(counter.space)
    dev_cr = np.max(np.abs(commutator(counter.hamiltonian, n_op).matrix))
    assert dev_cr > 1e-6, "counter-rotating model unexpectedly conserves excitation"
    return f"rotating conserves (dev {dev:.1e}); counter-rotating violates (dev {dev_cr:.1e})"


def _check_liouvillian_traceless():
    rng = np.random.default_rng(_SEED + 5)
    spec = _pair_spec(gamma=1.0, gamma_prime=0.4, kd=0.5)
    generator = build_cascade_model(spec).generator()
    worst = 0.0
    for _ in range(20):
        rho = _random_density(rng, 4)
        worst = max(worst, abs(np.trace(generator.apply(rho))))
    assert worst <= 1e-12, f"generator fails to annihilate trace by {worst:.2e}"
    return f"max |tr L(rho)| = {worst:.2e}"


def _check_dark_state():
    spec = _pair_spec(gamma=1.0, kd=0.0)
    model = build_cascade_model(spec)
    ground = DensityMatrix.from_pure(model.space, basis_vector(model.space, (1, 1)))
    residual = float(np.max(np.abs(model.generator().apply(ground.matrix))))
    assert residual == 0.0, f"all-ground state not stationary, residual {residual:.2e}"
    return "all-ground state exactly stationary"


def _check_chain_upstream_frozen():
    sites = tuple(SpinSite(0.5, float(j), f"s{j}") for j in range(3))
    spec = CascadeSpec(1.0, 0.0, 0.8, sites)
    model = build_cascade_model(spec)
    space = model.space
    psi = basis_vector(space, (1, 0, 0))  # head ground, downstream excited
    rho = np.outer(psi, psi.conj())
    sp, sm, _ = spin_operators(0.5)
    n1 = (embed(sp, 0, space) @ embed(sm, 0, space)).matrix
    derivative = float(np.real(np.trace(n1 @ model.generator().apply(rho))))
    assert abs(derivative) <= 1e-12, f"upstream occupation grows at rate {derivative:.2e}"
    return f"d<n_1>/dt = {derivative:.1e} with downstream excited"


def _check_amplitude_damping():
    space = HilbertSpace((spin_factor(0.5),))
    model = single_spin_decay_model(SpinSite(0.5, 0.0), 1.0)
    rho0 = DensityMatrix.from_pure(space, basis_vector(space, (0,)))
    sp, sm, _ = spin_operators(0.5)
    n_op = embed(sp, 0, space) @ embed(sm, 0, space)
    cfg = IntegratorConfig(t_final=1.0, rate_scale=1.0, dt=1e-3)
    traj = evolve(model, rho0, cfg, [("pop", n_op)])
    final = float(np.real(traj.observables["pop"][-1]))
    dev = abs(final - math.exp(-2.0))
    assert dev <= 1e-6, f"decay endpoint off by {dev:.2e}"
    return f"population at gamma*t=1 within {dev:.1e} of exp(-2)"


def _check_jump_rewrite_equivalence():
    spec = _pair_spec(gamma=1.0, kd=0.4)
    model = build_cascade_model(spec)
    psi0 = basis_vector(model.space, (0, 1))
    cfg = IntegratorConfig(t_final=4.0, rate_scale=1.0, dt=1e-3)
    sp, sm, _ = spin_operators(0.5)
    n_b = embed(sp, 1, model.space) @ embed(sm, 1, model.space)
    lind = evolve(model, DensityMatrix.from_pure(model.space, psi0), cfg, [("pop_B", n_b)])
    h_nh = build_nonhermitian_hamiltonian(spec, "forward")
    rewritten = evolve_nonhermitian(h_nh, psi0, cfg, include_jumps=True, jump=model.jumps[0],
                                    watch=[("pop_B", n_b)])
    dev = float(np.max(np.abs(lind.observables["pop_B"] - rewritten.observables["pop_B"])))
    assert dev <= 1e-9, f"rewritten generator deviates by {dev:.2e}"
    return f"sup-norm deviation {dev:.2e}"


def _check_no_back_action():
    spec = _pair_spec(gamma=1.0, kd=0.9)
    model = build_cascade_model(spec)
    cfg = IntegratorConfig(t_final=6.0, rate_scale=1.0, dt=2e-3, record_states_stride=50)
    rho0 = one_excited_state(model.space, 0)
    full = evolve(model, rho0, cfg, [])
    single = single_spin_decay_model(spec.sites[0], spec.gamma)
    alone = evolve(single, one_excited_state(single.space, 0), cfg, [])
    worst = 0.0
    for fs, ss in zip(full.states, alone.states):
        reduced = partial_trace(fs, {0})
        worst = max(worst, float(np.max(np.abs(reduced.matrix - ss.matrix))))
    assert worst <= 1e-8, f"downstream spin back-acts at level {worst:.2e}"
    return f"reduced-state sup-norm {worst:.2e}"


def _check_budget_identities():
    quartz = builtin_material("alpha-SiO2")
    geom = ResonatorGeometry(1e-6, 1e-7, 1e-7)
    budget = coupling_table(quartz, geom, "electron", 1e4)
    fwd = budget.row(+1, +1)
    bwd = budget.row(-1, +1)
    identity_dev = abs(fwd.gamma_hz - 2.0 * fwd.g_hz ** 2 / fwd.detuning_hz) / fwd.gamma_hz
    assert identity_dev <= 1e-12, f"dispersive identity off by {identity_dev:.2e}"
    assert bwd.gamma_hz < 1.0, f"backward rate {bwd.gamma_hz:.3g} Hz not below 1 Hz"
    assert budget.gamma_ratio >= 1e3, f"rate ratio {budget.gamma_ratio:.3g} below 1e3"
    flat = coupling_table(
        type(quartz)(quartz.name, quartz.density, quartz.v_plus, quartz.v_plus,
                     quartz.xi_S, quartz.xi_I), geom, "electron", 1e4)
    ff, fb = flat.row(+1, +1), flat.row(-1, +1)
    assert abs(ff.gamma_hz - fb.gamma_hz) <= 1e-12 * ff.gamma_hz, \
        "equal velocities must collapse the two rotating rates"
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the driven point is deliberately marginal
        driven = coupling_table(quartz, geom, "nuclear", 1e3, drive_u=1e-4)
        driven2 = coupling_table(quartz, geom, "nuclear", 1e3, drive_u=2e-4)
    ratio = driven2.row(+1, +1).gamma_hz / driven.row(+1, +1).gamma_hz
    assert ratio == 4.0, f"driven rate ratio {ratio} is not exactly 4"
    gscale = effective_gamma(3.0, 300.0) / effective_gamma(1.5, 300.0)
    assert abs(gscale - 4.0) <= 1e-12, "rate must scale quadratically in the coupling"
    return (f"identity {identity_dev:.1e}; ratio {budget.gamma_ratio:.3g}; "
            "non-chiral collapse and u^2 scaling exact")


_CHECKS = (
    ("spin_ladder_commutators", _check_spin_commutators),
    ("boson_truncation_identity", _check_boson_truncation),
    ("embed_multiplicative", _check_embed_multiplicative),
    ("partial_trace_preserving", _check_partial_trace),
    ("dagger_involution", _check_dagger_involution),
    ("generator_forms_agree", _check_generator_forms_agree),
    ("nonhermitian_defining_identity", _check_nonhermitian_identity),
    ("hermiticity_classes", _check_hermiticity_classes),
    ("excitation_conservation", _check_excitation_conservation),
    ("liouvillian_traceless", _check_liouvillian_traceless),
    ("dark_state_stationary", _check_dark_state),
    ("chain_upstream_frozen", _check_chain_upstream_frozen),
    ("amplitude_damping_closed_form", _check_amplitude_damping),
    ("jump_rewrite_equivalence", _check_jump_rewrite_equivalence),
    ("no_back_action_two_spins", _check_no_back_action),
    ("budget_identities", _check_budget_identities),
)


def run_invariant_suite():
    """Run every invariant; returns a list of (name, passed, detail)."""
    results = []
    for name, check in _CHECKS:
        try:
            detail = check()
            results.append((name, True, detail))
        except Exception as exc:  # noqa: BLE001 - report every failure, never crash
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
