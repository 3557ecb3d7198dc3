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
        assert err.value.step == 2

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


N_BLOCKED = 3347  # prime, so no block length divides the step count


def blocked_pair(two_spins):
    d = two_spins[1].position_z - two_spins[0].position_z
    model = build_cascade_model(CascadeSpec(1.0, 0.3, 0.9 / d, two_spins))
    watch = list(zip(("pop_A", "pop_B"), site_number_operators(model.space, two_spins)))
    return model, pure(model.space, UD), watch


@pytest.fixture(scope="class")
def stepped_reference():
    """Every step and state of the per-step stage path, and the expm oracle at every step."""
    two_spins = (SpinSite(0.5, 0.0, "A"), SpinSite(0.5, 2.5e-7, "B"))
    model, rho0, watch = blocked_pair(two_spins)
    cfg = IntegratorConfig(t_final=N_BLOCKED * 1e-3, rate_scale=1.0, dt=1e-3, record_states_stride=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics_module, "_PROPAGATOR_MAX_DIM", 0)
        stepped = evolve(model, rho0, cfg, watch)
    rate_ops = [(r, op.matrix) for r, op in model.jumps]
    liou = reference_liouvillian(model.hamiltonian.matrix, rate_ops, 4)
    exact = {label: np.empty(stepped.times.size, dtype=complex) for label, _ in watch}
    for i, t in enumerate(stepped.times):
        rho = (expm(liou * t) @ rho0.matrix.reshape(-1)).reshape(4, 4)
        for label, op in watch:
            exact[label][i] = np.trace(op.matrix @ rho)
    return stepped, exact


class TestBlockStepping:
    """The blocked propagator path against the per-step stage path and the expm oracle."""

    @staticmethod
    def assert_agree(blocked, stepped):
        assert np.array_equal(blocked.times, stepped.times)
        assert blocked.observables.keys() == stepped.observables.keys()
        for label, series in stepped.observables.items():
            assert blocked.observables[label].shape == series.shape == blocked.times.shape
            assert np.max(np.abs(blocked.observables[label] - series)) <= 1e-10
        if stepped.states is None:
            assert blocked.states is None and blocked.state_times is None
        else:
            assert np.array_equal(blocked.state_times, stepped.state_times)
            assert len(blocked.states) == len(stepped.states) == len(stepped.state_times)
            for mine, theirs in zip(blocked.states, stepped.states):
                assert np.max(np.abs(mine.matrix - theirs.matrix)) <= 1e-10
        assert np.max(np.abs(blocked.final_state.matrix - stepped.final_state.matrix)) <= 1e-10

    @pytest.mark.parametrize("state_stride", [0, 13, 20, 29])
    @pytest.mark.parametrize("sample_stride", [1, 7, 16])
    def test_evolve_matches_stage_path_and_expm(self, two_spins, stepped_reference,
                                                 sample_stride, state_stride):
        model, rho0, watch = blocked_pair(two_spins)
        cfg = IntegratorConfig(t_final=N_BLOCKED * 1e-3, rate_scale=1.0, dt=1e-3,
                               sample_stride=sample_stride, record_states_stride=state_stride)
        k = dynamics_module._block_length(N_BLOCKED // 256, sample_stride, state_stride,
                                          len(watch), 16 * 16)
        assert k > 1
        blocked = evolve(model, rho0, cfg, watch)

        # the per-step run holds every step: subsample it on the strides' grids
        stepped, exact = stepped_reference
        keep = dynamics_module._steps(N_BLOCKED, sample_stride)
        assert blocked.times.size == len(range(0, N_BLOCKED, sample_stride)) + 1 == keep.size
        kept_states = dynamics_module._steps(N_BLOCKED, state_stride) if state_stride else None
        self.assert_agree(blocked, Trajectory(
            stepped.times[keep], {label: series[keep] for label, series in stepped.observables.items()},
            stepped.final_state, stepped.rate_scale,
            states=None if kept_states is None else [stepped.states[i] for i in kept_states],
            state_times=None if kept_states is None else stepped.state_times[kept_states]))
        for label, series in blocked.observables.items():
            assert np.max(np.abs(series - exact[label][keep])) <= 1e-8

    @pytest.mark.parametrize("include_jumps", [False, True])
    def test_nonhermitian_matches_stage_path_and_expm(self, pair_spec, two_spins, monkeypatch,
                                                       include_jumps):
        spec = pair_spec(gamma=1.0, kd=0.6)
        h_nh = build_nonhermitian_hamiltonian(spec, "forward")
        jump = build_cascade_model(spec).jumps[0]
        n_b = site_number_operators(h_nh.space, two_spins)[1]
        psi0 = basis_vector(h_nh.space, UD)
        n = 1031  # prime; K = 4 divides the state stride
        cfg = IntegratorConfig(t_final=n * 4e-3, rate_scale=1.0, dt=4e-3, sample_stride=7,
                               record_states_stride=8)
        assert dynamics_module._block_length(n // 256, 7, 8, 2, 16 * 16) == 4

        def run():
            return evolve_nonhermitian(h_nh, psi0, cfg, include_jumps=include_jumps, jump=jump,
                                       watch=[("pop_B", n_b)])

        blocked = run()
        monkeypatch.setattr(dynamics_module, "_PROPAGATOR_MAX_DIM", 0)
        self.assert_agree(blocked, run())

        h, eye = h_nh.matrix, np.eye(4)
        liou = -1j * (np.kron(h, eye) - np.kron(eye, h.conj()))
        if include_jumps:
            rate, z = jump
            liou = liou + rate * np.kron(z.matrix, z.matrix.conj())
        rho0 = np.outer(psi0, psi0.conj()).reshape(-1)
        for i, t in enumerate(blocked.times):
            exact = (expm(liou * t) @ rho0).reshape(4, 4)
            assert abs(blocked.observables["pop_B"][i] - np.trace(n_b.matrix @ exact)) <= 1e-8
            if not include_jumps:
                norm = np.sqrt(np.trace(exact).real)
                assert abs(blocked.observables["norm"][i] - norm) <= 1e-8

    def test_mid_block_drift_reports_the_sequential_step(self, pair_spec, monkeypatch):
        # A 1e-90 admixture of |up,down> on the stationary ground state grows about 1e4-fold per
        # step at this unstable dt. Its rounding drift crosses the tolerance at one step on both
        # paths: the same step for any tolerance from 1e-11 to 1e-8.
        model = build_cascade_model(pair_spec(gamma=1.0, kd=0.3))
        ground = np.diag([0, 0, 0, 1]).astype(complex)
        rho0 = DensityMatrix(model.space, (1 - 1e-90) * ground + 1e-90 * pure(model.space, UD).matrix)
        cfg = IntegratorConfig(t_final=8.0 * N_BLOCKED, rate_scale=1.0, dt=8.0)
        k = dynamics_module._block_length(N_BLOCKED // 256, 1, 0, 0, 16 * 16)

        def failure():
            with pytest.raises(IntegrationError) as err:
                evolve(model, rho0, cfg)
            return err.value

        blocked = failure()
        monkeypatch.setattr(dynamics_module, "_PROPAGATOR_MAX_DIM", 0)
        stepped = failure()
        assert blocked.step == stepped.step
        assert blocked.step > k and blocked.step % k
        assert f"at step {blocked.step} (t={8.0 * blocked.step:.6g})" in str(blocked)


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


def full_space_support(gen, rho0):
    """Stand-in for dynamics._closed_support that keeps every basis state."""
    return np.arange(gen.k.shape[0])


def chain_sites(n):
    return tuple(SpinSite(0.5, 2.5e-7 * j, f"s{j}") for j in range(n))


def excited(n, sites):
    """Spin pattern with the listed sites up (0) and the others down (1)."""
    return tuple(0 if j in sites else 1 for j in range(n))


# (N, initial pattern): head-, tail- and middle-excited, and one two-excitation state
CHAIN_STARTS = [pytest.param(n, pattern, id="".join("ud"[p] for p in pattern))
                for n, pattern in sorted({(n, excited(n, sites)) for n in (2, 3, 4)
                                          for sites in ({0}, {n - 1}, {n // 2}, {0, n - 1})})]
RATES = {"forward": (1.0, 0.0), "backward": (0.0, 0.7), "bidirectional": (1.0, 0.4)}


class TestClosedSupport:
    """Runs restricted to the generator's closed support against the full space."""

    @staticmethod
    def assert_same_run(mine, full, tol):
        assert np.array_equal(mine.times, full.times)
        assert mine.diagnostics["n_steps"] == full.diagnostics["n_steps"]
        assert mine.diagnostics["dt"] == full.diagnostics["dt"]
        assert mine.observables.keys() == full.observables.keys()
        for label, series in full.observables.items():
            assert mine.observables[label].shape == series.shape == full.times.shape
            assert np.max(np.abs(mine.observables[label] - series)) <= tol
        assert np.array_equal(mine.state_times, full.state_times)
        assert len(mine.states) == len(full.states) == len(full.state_times)
        for a, b in zip(mine.states + [mine.final_state], full.states + [full.final_state]):
            assert a.space == b.space
            assert np.max(np.abs(a.matrix - b.matrix)) <= tol
        assert mine.diagnostics["min_eigenvalue"] == pytest.approx(
            full.diagnostics["min_eigenvalue"], abs=tol)

    def run_both(self, monkeypatch, model, rho0, cfg, watch):
        restricted = evolve(model, rho0, cfg, watch)
        with monkeypatch.context() as patch:
            patch.setattr(dynamics_module, "_closed_support", full_space_support)
            full = evolve(model, rho0, cfg, watch)
        return restricted, full

    @pytest.mark.parametrize("direction", sorted(RATES))
    @pytest.mark.parametrize("n, pattern", CHAIN_STARTS)
    def test_cascade_matches_full_space(self, monkeypatch, direction, n, pattern):
        sites = chain_sites(n)
        model = build_cascade_model(CascadeSpec(*RATES[direction], 0.6 / 2.5e-7, sites))
        watch = list(zip((f"pop_{j}" for j in range(n)), site_number_operators(model.space, sites)))
        cfg = IntegratorConfig(t_final=3.0, rate_scale=1.0, dt=2e-3, sample_stride=7,
                               record_states_stride=50)
        restricted, full = self.run_both(monkeypatch, model, pure(model.space, pattern), cfg, watch)
        self.assert_same_run(restricted, full, 1e-12)

    def test_rotating_full_model_matches_full_space(self, monkeypatch, two_spins):
        # the d=12 rotating model of elimination_validation at ratio 25, from |up,down,0>
        model = build_full_model(two_spins, (ModeSpec(+1, +1, 25.0, 1.0, 2),))
        watch = list(zip(("pop_A", "pop_B"), site_number_operators(model.space, two_spins)))
        cfg = IntegratorConfig(t_final=60.0, rate_scale=25.0, sample_stride=16,
                               record_states_stride=1000)
        rho0 = pure(model.space, (0, 1, 0))
        restricted, full = self.run_both(monkeypatch, model, rho0, cfg, watch)
        assert restricted.diagnostics["n_steps"] > 10000
        self.assert_same_run(restricted, full, 1e-10)

    @pytest.mark.parametrize("n, pattern", [(3, (0, 1, 1)), (3, (0, 1, 0))])
    def test_bidirectional_chain_matches_expm(self, n, pattern):
        sites = chain_sites(n)
        model = build_cascade_model(CascadeSpec(1.0, 0.4, 0.6 / 2.5e-7, sites))
        dim = model.space.dim
        rho0 = pure(model.space, pattern)
        cfg = IntegratorConfig(t_final=4.0, rate_scale=1.0, dt=1e-3, record_states_stride=400)
        traj = evolve(model, rho0, cfg)
        rate_ops = [(r, op.matrix) for r, op in model.jumps]
        liou = reference_liouvillian(model.hamiltonian.matrix, rate_ops, dim)
        for t, state in zip(traj.state_times, traj.states):
            exact = (expm(liou * t) @ rho0.matrix.reshape(-1)).reshape(dim, dim)
            assert np.max(np.abs(state.matrix - exact)) <= 1e-8

    @staticmethod
    def support(model, rho):
        return dynamics_module._closed_support(model.generator(), rho)

    @pytest.mark.parametrize("direction", sorted(RATES))
    @pytest.mark.parametrize("n, pattern", CHAIN_STARTS)
    def test_support_is_closed(self, direction, n, pattern):
        model = build_cascade_model(CascadeSpec(*RATES[direction], 0.6 / 2.5e-7, chain_sites(n)))
        rho0 = pure(model.space, pattern).matrix
        inside = np.zeros(model.space.dim, dtype=bool)
        inside[self.support(model, rho0)] = True
        assert inside[np.flatnonzero(rho0.diagonal())].all()
        gen = model.generator()
        for op in (gen.k, *(z for _, z in gen.sandwiches)):
            assert np.count_nonzero(op[np.ix_(~inside, inside)]) == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_head_excited_forward_chain_has_n_plus_one_states(self, n):
        model = build_cascade_model(CascadeSpec(1.0, 0.0, 0.6 / 2.5e-7, chain_sites(n)))
        assert self.support(model, pure(model.space, excited(n, {0})).matrix).size == n + 1

    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    def test_full_model_sectors(self, two_spins, cutoff):
        # rotating coupling conserves n + S^z and counter-rotating coupling n - S^z, so
        # |up,down,0> reaches |down,down,1> in the first and |up,up,1> in the second
        for pam, third in ((+1, (1, 1, 1)), (-1, (0, 0, 1))):
            model = build_full_model(two_spins, (ModeSpec(+1, pam, 6.0, 0.9, cutoff),))
            space = model.space
            expected = [int(np.flatnonzero(basis_vector(space, occ))[0])
                        for occ in ((0, 1, 0), (1, 0, 0), third)]
            found = self.support(model, pure(space, (0, 1, 0)).matrix)
            assert found.tolist() == sorted(expected)

    @pytest.mark.parametrize("pam", [+1, -1])
    def test_mixed_start_keeps_every_state(self, two_spins, rng, pam):
        model = build_full_model(two_spins, (ModeSpec(+1, pam, 6.0, 0.9, 2),))
        for rho in (DensityMatrix.maximally_mixed(model.space).matrix,
                    random_density(rng, model.space.dim)):
            assert self.support(model, rho).tolist() == list(range(model.space.dim))

    def test_rotating_run_does_not_depend_on_fock_cutoff(self, two_spins):
        # a one-excitation rotating run holds at most one phonon, so every cutoff agrees
        runs = []
        for cutoff in (1, 2, 3, 4):
            model = build_full_model(two_spins, (ModeSpec(+1, +1, detuning=6.0, g=0.9,
                                                          fock_cutoff=cutoff),))
            watch = list(zip(("pop_A", "pop_B"), site_number_operators(model.space, two_spins)))
            cfg = IntegratorConfig(t_final=20.0, rate_scale=6.0, dt=1e-3, sample_stride=8)
            runs.append(evolve(model, pure(model.space, (0, 1, 0)), cfg, watch))
        for other in runs[1:]:
            assert np.array_equal(other.times, runs[0].times)
            for label, series in runs[0].observables.items():
                assert np.max(np.abs(other.observables[label] - series)) <= 1e-14
