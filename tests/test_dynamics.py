import numpy as np
import pytest
from scipy.linalg import expm

import chiralspin.dynamics as dynamics_module
from chiralspin import (
    CascadeSpec,
    DensityMatrix,
    DomainError,
    FitError,
    IntegrationError,
    IntegratorConfig,
    ModeSpec,
    Trajectory,
    SpinSite,
    basis_vector,
    build_cascade_model,
    build_full_model,
    build_nonhermitian_hamiltonian,
    check_cutoff_convergence,
    evolve,
    evolve_nonhermitian,
    fit_exchange_rate,
    site_number_operators,
)
from chiralspin.core import zero
from chiralspin.experiments import single_spin_decay_model
from chiralspin.models import LindbladModel
from chiralspin.validation import amplitude_damping, jump_rewrite, no_back_action, random_density

UD = (0, 1)
DU = (1, 0)


def pure(space, occ):
    return DensityMatrix.from_pure(space, basis_vector(space, occ))


def reference_liouvillian(h, rate_ops, dim):
    """Column-by-column Liouvillian matrix from the longhand master equation."""

    def rhs(rho):
        out = -1j * (h @ rho - rho @ h)
        for rate, z in rate_ops:
            zd = z.conj().T
            out += rate * (z @ rho @ zd - 0.5 * (zd @ z @ rho + rho @ zd @ z))
        return out

    cols = []
    for j in range(dim * dim):
        unit = np.zeros((dim, dim), dtype=complex)
        unit[j // dim, j % dim] = 1.0
        cols.append(rhs(unit).reshape(-1))
    return np.array(cols).T


class TestEvolveBasics:
    def test_zero_generator_is_flat(self, two_spin_space, two_spins, random_state_factory):
        model = LindbladModel(zero(two_spin_space), (), two_spin_space)
        rho0 = random_state_factory(two_spin_space)
        cfg = IntegratorConfig(t_final=5.0, rate_scale=1.0, dt=0.01)
        traj = evolve(model, rho0, cfg, [("pop", site_number_operators(two_spin_space, two_spins)[0])])
        assert traj.diagnostics["stationary"] == 1.0
        assert np.max(np.abs(np.diff(traj.observables["pop"]))) == 0.0
        assert np.max(np.abs(traj.final_state.matrix - rho0.matrix)) == 0.0

    def test_amplitude_damping_closed_form(self):
        # analytic oracle: excited population e^{-2 gamma t}
        assert amplitude_damping()["deviation"] <= 1e-6

    def test_space_mismatch_rejected(self, two_spin_space, two_spins):
        model = single_spin_decay_model(two_spins[0], 1.0)
        rho0 = DensityMatrix.maximally_mixed(two_spin_space)
        with pytest.raises(DomainError):
            evolve(model, rho0, IntegratorConfig(t_final=1.0, rate_scale=1.0))

    def test_invalid_initial_state_rejected(self, two_spin_space):
        model = LindbladModel(zero(two_spin_space), (), two_spin_space)
        bad = DensityMatrix(two_spin_space, np.eye(4, dtype=complex))  # trace 4
        with pytest.raises(DomainError):
            evolve(model, bad, IntegratorConfig(t_final=1.0, rate_scale=1.0))

    def test_trace_blowup_raises_with_step(self, pair_spec):
        model = build_cascade_model(pair_spec(gamma=1.0, kd=0.3))
        rho0 = pure(model.space, UD)
        cfg = IntegratorConfig(t_final=400.0, rate_scale=1.0, dt=8.0)  # far beyond stability
        with pytest.raises(IntegrationError) as err:
            evolve(model, rho0, cfg)
        assert err.value.step is not None

    def test_sampling_stride_and_final_point(self, pair_spec, two_spins):
        model = build_cascade_model(pair_spec())
        cfg = IntegratorConfig(t_final=1.0, rate_scale=1.0, dt=1e-3, sample_stride=7)
        traj = evolve(model, pure(model.space, UD), cfg,
                      [("pop", site_number_operators(model.space, two_spins)[1])])
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)
        assert len(traj.times) == len(traj.observables["pop"])

    def test_state_recording(self, pair_spec):
        model = build_cascade_model(pair_spec())
        cfg = IntegratorConfig(t_final=1.0, rate_scale=1.0, dt=1e-2, record_states_stride=10)
        traj = evolve(model, pure(model.space, UD), cfg)
        assert traj.states is not None
        assert len(traj.states) == len(traj.state_times)
        assert np.max(np.abs(traj.states[-1].matrix - traj.final_state.matrix)) == 0.0


def encoding_models(pair_spec, two_spins):
    sites = tuple(SpinSite(0.5, 2.5e-7 * j, f"s{j}") for j in range(3))
    return {
        "bidirectional_pair": build_cascade_model(pair_spec(gamma=1.0, gamma_prime=0.4, kd=0.9)),
        "chain3": build_cascade_model(CascadeSpec(1.0, 0.0, 0.6 / 2.5e-7, sites)),
        "full_d12": build_full_model(two_spins, (ModeSpec(+1, +1, detuning=6.0, g=0.9, fock_cutoff=2),)),
    }


class TestGeneratorEncoding:
    @pytest.mark.parametrize("name", ["bidirectional_pair", "chain3", "full_d12"])
    def test_liouvillian_matrix_matches_longhand(self, pair_spec, two_spins, name):
        model = encoding_models(pair_spec, two_spins)[name]
        dim = model.space.dim
        rate_ops = [(r, op.matrix) for r, op in model.jumps]
        reference = reference_liouvillian(model.hamiltonian.matrix, rate_ops, dim)
        assert np.max(np.abs(model.generator().superoperator() - reference)) <= 1e-12

    @pytest.mark.parametrize("name", ["bidirectional_pair", "chain3", "full_d12"])
    def test_apply_equals_matrix_product(self, pair_spec, two_spins, rng, name):
        generator = encoding_models(pair_spec, two_spins)[name].generator(rate_scale=2.0)
        dim = generator.k.shape[0]
        rho = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        direct = generator.apply(rho).reshape(-1)
        assert np.max(np.abs(direct - generator.superoperator() @ rho.reshape(-1))) <= 1e-12

    def test_jump_free_nonhermitian_matches_expm(self, pair_spec, two_spins):
        h_nh = build_nonhermitian_hamiltonian(pair_spec(gamma=1.0, kd=0.6), "forward")
        space = h_nh.space
        psi0 = basis_vector(space, UD)
        n_b = site_number_operators(space, two_spins)[1]
        cfg = IntegratorConfig(t_final=6.0, rate_scale=1.0, dt=1e-3, sample_stride=100)
        traj = evolve_nonhermitian(h_nh, psi0, cfg, watch=[("pop_B", n_b)])
        for i, t in enumerate(traj.times):
            psi = expm(-1j * h_nh.matrix * t) @ psi0
            assert abs(traj.observables["norm"][i] - np.linalg.norm(psi)) <= 1e-9
            assert abs(traj.observables["pop_B"][i] - psi.conj() @ n_b.matrix @ psi) <= 1e-9


class TestAgainstExponentialOracle:
    def test_cascaded_transfer_matches_expm(self, pair_spec, two_spins):
        spec = pair_spec(gamma=1.0, kd=0.9)
        model = build_cascade_model(spec)
        h = model.hamiltonian.matrix
        rate_ops = [(r, op.matrix) for r, op in model.jumps]
        liou = reference_liouvillian(h, rate_ops, 4)
        rho0 = pure(model.space, UD)
        cfg = IntegratorConfig(t_final=4.0, rate_scale=1.0, dt=1e-3, record_states_stride=500)
        traj = evolve(model, rho0, cfg, [("pop_B", site_number_operators(model.space, two_spins)[1])])
        for t, state in zip(traj.state_times, traj.states):
            exact = (expm(liou * t) @ rho0.matrix.reshape(-1)).reshape(4, 4)
            assert np.max(np.abs(state.matrix - exact)) <= 1e-9

    def test_total_excitation_never_increases(self, pair_spec, two_spins):
        model = build_cascade_model(pair_spec(gamma=1.0, kd=0.9))
        n_a, n_b = site_number_operators(model.space, two_spins)
        n_tot = n_a + n_b
        traj = evolve(model, pure(model.space, UD),
                      IntegratorConfig(t_final=6.0, rate_scale=1.0, dt=1e-3),
                      [("n", n_tot)])
        series = np.real(traj.observables["n"])
        assert np.max(np.diff(series)) <= 1e-12

    def test_full_model_matches_expm(self, two_spins):
        mode = ModeSpec(+1, +1, detuning=6.0, g=0.9, fock_cutoff=2)
        model = build_full_model(two_spins, (mode,))
        dim = model.space.dim
        rho0 = pure(model.space, (0, 1, 0))
        cfg = IntegratorConfig(t_final=3.0, rate_scale=6.0, dt=1e-3, record_states_stride=1000)
        traj = evolve(model, rho0, cfg)
        liou_scaled = reference_liouvillian(model.hamiltonian.matrix / cfg.rate_scale, [], dim)
        for t, state in zip(traj.state_times, traj.states):
            exact = (expm(liou_scaled * t) @ rho0.matrix.reshape(-1)).reshape(dim, dim)
            assert np.max(np.abs(state.matrix - exact)) <= 1e-8


class TestCounterRotatingSuppression:
    def test_energy_violating_channel_barely_excites(self, two_spins):
        # pair creation from the joint ground state is detuned by the full
        # mismatch, so its weight stays at the (g/Delta)^2 scale
        g, delta = 1.0, 400.0
        model = build_full_model(two_spins, (ModeSpec(+1, -1, delta, g, 1),))
        space = model.space
        rho0 = pure(space, (1, 1, 0))  # both spins down, vacuum
        traj = evolve(model, rho0,
                      IntegratorConfig(t_final=50.0, rate_scale=delta, dt=0.02),
                      list(zip(("pop_A", "pop_B"), site_number_operators(space, two_spins))))
        peak = max(np.max(np.real(traj.observables["pop_A"])),
                   np.max(np.real(traj.observables["pop_B"])))
        assert peak <= 8.0 * (g / delta) ** 2


class TestPhysicalityDiagnostics:
    @pytest.mark.parametrize("kd", [0.0, 0.7, 2.4])
    def test_trace_hermiticity_positivity(self, pair_spec, kd):
        model = build_cascade_model(pair_spec(gamma=1.0, kd=kd))
        traj = evolve(model, pure(model.space, UD),
                      IntegratorConfig(t_final=8.0, rate_scale=1.0, dt=1e-3))
        assert traj.diagnostics["max_trace_drift"] <= 1e-9
        assert traj.diagnostics["max_hermiticity_dev"] <= 1e-9
        assert traj.diagnostics["min_eigenvalue"] >= -1e-8

    def test_step_halving_consistency(self, pair_spec, two_spins):
        # fourth-order scaling: halving dt moves observables by <= 16x tolerance
        model = build_cascade_model(pair_spec(gamma=1.0, kd=0.8))
        watch = [("pop_B", site_number_operators(model.space, two_spins)[1])]
        rho0 = pure(model.space, UD)
        coarse = evolve(model, rho0, IntegratorConfig(t_final=4.0, rate_scale=1.0, dt=2e-3), watch)
        fine = evolve(model, rho0, IntegratorConfig(t_final=4.0, rate_scale=1.0, dt=1e-3), watch)
        shared = np.real(fine.observables["pop_B"][::2]) - np.real(coarse.observables["pop_B"])
        assert np.max(np.abs(shared)) <= 16.0 * 1e-10

    def test_loop_and_matrix_paths_agree(self, pair_spec, monkeypatch, two_spins):
        model = build_cascade_model(pair_spec(gamma=1.0, kd=1.2))
        watch = [("pop_B", site_number_operators(model.space, two_spins)[1])]
        rho0 = pure(model.space, UD)
        cfg = IntegratorConfig(t_final=3.0, rate_scale=1.0, dt=1e-3)
        fast = evolve(model, rho0, cfg, watch)
        monkeypatch.setattr(dynamics_module, "_PROPAGATOR_MAX_DIM", 0)
        slow = evolve(model, rho0, cfg, watch)
        dev = np.max(np.abs(fast.observables["pop_B"] - slow.observables["pop_B"]))
        assert dev <= 1e-12


class TestNoBackAction:
    @pytest.mark.parametrize("kd", [0.0, 0.9])
    def test_upstream_reduced_dynamics_unchanged(self, pair_spec, kd, rng):
        # product initial state: excited upstream spin, mixed downstream spin
        measured = no_back_action(pair_spec(gamma=1.0, kd=kd), downstream=random_density(rng, 2))
        assert measured["reduced_deviation"] <= 1e-8


class TestNonHermitianEvolution:
    def test_zero_rate_keeps_norm(self, pair_spec):
        h_nh = build_nonhermitian_hamiltonian(pair_spec(gamma=0.0), "forward")
        psi0 = basis_vector(h_nh.space, UD)
        traj = evolve_nonhermitian(h_nh, psi0, IntegratorConfig(t_final=5.0, rate_scale=1.0, dt=1e-2))
        assert np.max(np.abs(np.real(traj.observables["norm"]) - 1.0)) <= 1e-12

    def test_dark_state_stationary_norm(self, pair_spec):
        h_nh = build_nonhermitian_hamiltonian(pair_spec(gamma=1.0, kd=0.4), "forward")
        psi0 = basis_vector(h_nh.space, (1, 1))
        traj = evolve_nonhermitian(h_nh, psi0, IntegratorConfig(t_final=8.0, rate_scale=1.0, dt=1e-2))
        assert np.max(np.abs(np.real(traj.observables["norm"]) - 1.0)) == 0.0

    def test_norm_decays_monotonically(self, pair_spec):
        h_nh = build_nonhermitian_hamiltonian(pair_spec(gamma=1.0, kd=1.1), "forward")
        psi0 = basis_vector(h_nh.space, UD)
        traj = evolve_nonhermitian(h_nh, psi0, IntegratorConfig(t_final=6.0, rate_scale=1.0, dt=1e-3))
        norms = np.real(traj.observables["norm"])
        assert np.max(np.diff(norms)) <= 1e-12

    def test_directional_transfer(self, pair_spec, two_spins):
        spec = pair_spec(gamma=1.0, kd=0.6)
        h_nh = build_nonhermitian_hamiltonian(spec, "forward")
        space = h_nh.space
        cfg = IntegratorConfig(t_final=6.0, rate_scale=1.0, dt=1e-3)
        fwd = evolve_nonhermitian(h_nh, basis_vector(space, UD), cfg,
                                  watch=[("pop_B", site_number_operators(space, two_spins)[1])])
        pop_b = np.real(fwd.observables["pop_B"])
        k = int(np.argmax(pop_b))
        assert pop_b[k] > 0.1 and 0 < k < len(pop_b) - 1  # rises then decays
        bwd = evolve_nonhermitian(h_nh, basis_vector(space, DU), cfg,
                                  watch=[("pop_A", site_number_operators(space, two_spins)[0])])
        assert np.max(np.real(bwd.observables["pop_A"])) <= 1e-10

    def test_with_jump_matches_lindblad(self, pair_spec):
        # both populations, Lindblad form against the H_nh-plus-jump rewrite
        assert jump_rewrite(pair_spec(gamma=1.0, kd=0.4), t_final=5.0)["deviation"] <= 1e-9

    def test_unnormalized_initial_rejected(self, pair_spec):
        h_nh = build_nonhermitian_hamiltonian(pair_spec(), "forward")
        with pytest.raises(DomainError):
            evolve_nonhermitian(h_nh, 2.0 * basis_vector(h_nh.space, UD),
                                IntegratorConfig(t_final=1.0, rate_scale=1.0))

    def test_include_jumps_needs_jump(self, pair_spec):
        h_nh = build_nonhermitian_hamiltonian(pair_spec(), "forward")
        with pytest.raises(DomainError):
            evolve_nonhermitian(h_nh, basis_vector(h_nh.space, UD),
                                IntegratorConfig(t_final=1.0, rate_scale=1.0), include_jumps=True)


class TestFitExchangeRate:
    def test_synthetic_sine_squared(self):
        t = np.arange(0.0, 4.0, 0.01)
        traj = Trajectory(t, {"pop": np.sin(t) ** 2 + 0j}, None, rate_scale=1.0)
        assert abs(fit_exchange_rate(traj, "pop") - 1.0) <= 1e-4

    def test_rate_scale_propagates(self):
        t = np.arange(0.0, 4.0, 0.01)
        traj = Trajectory(t, {"pop": np.sin(t) ** 2 + 0j}, None, rate_scale=250.0)
        assert abs(fit_exchange_rate(traj, "pop") - 250.0) <= 0.1

    def test_closed_exchange_simulation(self, pair_spec, two_spins):
        # H = i*gamma(S_A^+ S_B^- - h.c.) at zero phase swaps with P_B = sin^2(gamma t)
        h = build_cascade_model(pair_spec(gamma=1.0, kd=0.0)).hamiltonian
        model = LindbladModel(h, (), h.space)
        traj = evolve(model, pure(h.space, UD),
                      IntegratorConfig(t_final=2.5, rate_scale=1.0, dt=1e-3),
                      [("pop_B", site_number_operators(h.space, two_spins)[1])])
        assert abs(fit_exchange_rate(traj, "pop_B") - 1.0) <= 1e-6

    def test_full_model_dispersive_rate(self, two_spins):
        # oracle: exact one-excitation diagonalization gives
        # J = (sqrt(Delta^2 + 8 g^2) - Delta) / 4, i.e. constant 1 - 2(g/Delta)^2
        g, ratio = 1.0, 50.0
        delta = ratio * g
        model = build_full_model(two_spins, (ModeSpec(+1, +1, delta, g, 2),))
        rho0 = pure(model.space, (0, 1, 0))
        t_final = 1.25 * (np.pi / 2.0) * ratio ** 2
        cfg = IntegratorConfig(t_final=t_final, rate_scale=delta, dt=0.05, sample_stride=16)
        traj = evolve(model, rho0, cfg, [("pop_B", site_number_operators(model.space, two_spins)[1])])
        constant = fit_exchange_rate(traj, "pop_B") * delta / g ** 2
        exact = (np.sqrt(delta ** 2 + 8 * g ** 2) - delta) * delta / (4 * g ** 2)
        # the fit locks onto a fast micro-oscillation crest near the envelope
        # maximum, good to ~half a crest spacing over the swap time
        assert abs(constant - exact) <= 5e-3
        assert 0.95 <= constant <= 2.0

    def test_flat_series_raises(self):
        t = np.arange(0.0, 1.0, 0.01)
        traj = Trajectory(t, {"pop": np.zeros_like(t) + 0j}, None, rate_scale=1.0)
        with pytest.raises(FitError):
            fit_exchange_rate(traj, "pop")

    def test_monotone_series_raises(self):
        t = np.arange(0.0, 1.0, 0.01)
        traj = Trajectory(t, {"pop": t.astype(complex)}, None, rate_scale=1.0)
        with pytest.raises(FitError):
            fit_exchange_rate(traj, "pop")

    def test_missing_label_raises(self):
        traj = Trajectory(np.arange(3.0), {"x": np.zeros(3, dtype=complex)}, None, rate_scale=1.0)
        with pytest.raises(FitError):
            fit_exchange_rate(traj, "pop")


class TestCutoffConvergence:
    def family(self, two_spins, g, delta, initial_phonons=0):
        def make(cutoff):
            model = build_full_model(two_spins, (ModeSpec(+1, +1, delta, g, cutoff),))
            occ = (0, 1, min(initial_phonons, cutoff))
            rho0 = pure(model.space, occ)
            watch = [("pop_B", site_number_operators(model.space, two_spins)[1])]
            return model, rho0, watch

        return make

    def test_dispersive_vacuum_converges_immediately(self, two_spins):
        cfg = IntegratorConfig(t_final=40.0, rate_scale=5.0, dt=0.05, sample_stride=8)
        found = check_cutoff_convergence(self.family(two_spins, 0.1, 5.0), cfg, "pop_B")
        assert found in (1, 2)

    def test_zero_coupling_converges_at_one(self, two_spins):
        cfg = IntegratorConfig(t_final=10.0, rate_scale=5.0, dt=0.05)
        assert check_cutoff_convergence(self.family(two_spins, 0.0, 5.0), cfg, "pop_B") == 1

    def test_initial_fock_state_needs_larger_cutoff(self, two_spins):
        # |up,down,1> explores double occupation, so the first cutoff cannot do
        cfg = IntegratorConfig(t_final=20.0, rate_scale=2.0, dt=0.02, sample_stride=4)
        found = check_cutoff_convergence(self.family(two_spins, 0.5, 2.0, initial_phonons=1),
                                         cfg, "pop_B")
        assert found >= 2
