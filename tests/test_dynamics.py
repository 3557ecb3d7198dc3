import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_genlaguerre

import chiralspin.dynamics as dynamics_module
from chiralspin import (
    CascadeSpec,
    DensityMatrix,
    DomainError,
    FitError,
    IntegrationError,
    IntegratorConfig,
    ModeSpec,
    Operator,
    Trajectory,
    SpinSite,
    basis_vector,
    build_cascade_model,
    build_full_model,
    embed,
    evolve,
    expectation,
    fit_exchange_rate,
    site_number_operators,
    spin_operators,
    spin_state,
)
from chiralspin.core import zero
from chiralspin.models import LindbladModel
from chiralspin.validation import amplitude_damping, jump_rewrite, no_back_action, random_density

UD = (0, 1)
DU = (1, 0)


def pure(space, occ):
    return DensityMatrix.from_pure(space, basis_vector(space, occ))


def force_density_path(patch):
    """Route every evolution to the density path: the seam that selects the amplitude path finds none."""
    patch.setattr(dynamics_module, "_cascade_amplitudes", lambda gen, rho: None)


@pytest.fixture
def density_path(monkeypatch):
    force_density_path(monkeypatch)


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
        model = build_cascade_model(CascadeSpec(1.0, 0.0, 0.0, two_spins[:1]))
        rho0 = DensityMatrix.maximally_mixed(two_spin_space)
        with pytest.raises(DomainError):
            evolve(model, rho0, IntegratorConfig(t_final=1.0, rate_scale=1.0))

    @pytest.mark.parametrize("changes", [{"t_final": math.nan}, {"t_final": math.inf},
                                         {"rate_scale": math.inf}, {"dt": math.nan}])
    def test_non_finite_config_rejected(self, changes):
        with pytest.raises(DomainError, match=f"{next(iter(changes))} must be finite"):
            IntegratorConfig(**{"t_final": 1.0, "rate_scale": 1.0, **changes})

    def test_invalid_initial_state_rejected(self, two_spin_space):
        model = LindbladModel(zero(two_spin_space), (), two_spin_space)
        bad = DensityMatrix(two_spin_space, np.eye(4, dtype=complex))  # trace 4
        with pytest.raises(DomainError):
            evolve(model, bad, IntegratorConfig(t_final=1.0, rate_scale=1.0))

    def test_diagonal_start_with_negative_entry_rejected(self, two_spin_space):
        model = LindbladModel(zero(two_spin_space), (), two_spin_space)
        bad = DensityMatrix(two_spin_space, np.diag([0.7, 0.5, 0.0, -0.2]).astype(complex))
        with pytest.raises(DomainError) as err:
            evolve(model, bad, IntegratorConfig(t_final=1.0, rate_scale=1.0))
        assert str(err.value) == "density matrix minimum eigenvalue -2.000e-01 below -1e-08"

    def test_trace_blowup_raises_with_step(self, pair_spec, density_path):
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

    def test_generator_scale_only_without_dt(self, pair_spec, monkeypatch):
        # the ||H||_2 SVD sets the default step only; a run with a given dt never computes it
        class Computed(Exception):
            pass

        def computed(*args):
            raise Computed

        model = build_cascade_model(pair_spec(gamma=1.0, kd=0.4))
        watch = [("pop_B", site_number_operators(model.space, pair_spec().sites)[1])]
        # the amplitude path, and the density path from a mixed start
        mixed = DensityMatrix(model.space, np.diag([0.0, 0.5, 0.0, 0.5]).astype(complex))
        runs = [lambda cfg: evolve(model, pure(model.space, UD), cfg, watch),
                lambda cfg: evolve(model, mixed, cfg, watch)]
        given = IntegratorConfig(t_final=1.0, rate_scale=1.0, dt=1e-2)
        expected = [run(given).observables for run in runs]
        monkeypatch.setattr(dynamics_module, "_generator_scale", computed)
        for run, observables in zip(runs, expected):
            traj = run(given)
            assert traj.diagnostics["n_steps"] == 100
            assert all(np.array_equal(traj.observables[k], v) for k, v in observables.items())
            with pytest.raises(Computed):
                run(IntegratorConfig(t_final=1.0, rate_scale=1.0))

    @pytest.mark.parametrize("path", ["amplitude", "propagator", "stage"])
    def test_driver_entry_checks_every_evolution(self, pair_spec, monkeypatch, path):
        # a watch on another space, a generator that a tiny rate_scale makes non-finite, and
        # step grids numpy cannot size (ValueError at 1e33 steps, MemoryError at 1e15)
        model = build_cascade_model(pair_spec(gamma=1.0, kd=0.4))
        rho0 = pure(model.space, UD)
        if path != "amplitude":
            force_density_path(monkeypatch)
        if path == "stage":
            monkeypatch.setattr(dynamics_module, "_PROPAGATOR_MAX_DIM", 0)

        def run(cfg, watch=()):
            return evolve(model, rho0, cfg, watch)

        one_spin = build_cascade_model(CascadeSpec(1.0, 0.0, 0.0, (SpinSite(0.5, 0.0),))).jumps[0][1]
        with pytest.raises(DomainError, match="watched operator 'far' acts on a different space"):
            run(IntegratorConfig(t_final=1.0, rate_scale=1.0, dt=1e-2), [("far", one_spin)])
        with pytest.raises(DomainError, match="rate_scale 1.000e-310 leaves the scaled generator"):
            run(IntegratorConfig(t_final=1.0, rate_scale=1e-310))
        for t_final in (1e30, 1e12):
            with pytest.raises(DomainError, match=f"grid of {round(t_final / 1e-3)} steps is too large"):
                run(IntegratorConfig(t_final=t_final, rate_scale=1.0, dt=1e-3))

    @pytest.mark.parametrize("path", ["amplitude", "density"])
    def test_step_budget_refuses_before_stepping(self, pair_spec, monkeypatch, path):
        # a large sample stride keeps the sample grid small, so only the step budget bounds
        # the run; every stepper fails here, so a run that is let through never steps
        def stepped(*args, **kwargs):
            raise AssertionError("the run stepped")

        for name in ("_step_amplitudes", "_PropagatorBlocks", "_StageSteps"):
            monkeypatch.setattr(dynamics_module, name, stepped)
        if path == "density":
            force_density_path(monkeypatch)
        model = build_cascade_model(pair_spec(gamma=1.0, kd=0.4))
        rho0 = pure(model.space, UD)
        with pytest.raises(DomainError, match=r"steps is too large to run: the budget is 100000000 steps"):
            evolve(model, rho0, IntegratorConfig(t_final=1e6, rate_scale=1.0, sample_stride=10 ** 12))
        with pytest.raises(DomainError, match="grid of 100000001 steps is too large to run"):
            evolve(model, rho0, IntegratorConfig(t_final=100000.001, rate_scale=1.0, dt=1e-3,
                                                 sample_stride=10 ** 12))
        # the budget itself is allowed: the run reaches its stepper
        with pytest.raises(AssertionError, match="the run stepped"):
            evolve(model, rho0, IntegratorConfig(t_final=1e5, rate_scale=1.0, dt=1e-3, sample_stride=10 ** 12))

    @pytest.mark.parametrize("path", ["amplitude", "density"])
    def test_record_budget_refuses_before_stepping(self, pair_spec, monkeypatch, path):
        # 2e7 steps are within the step budget, but one watch at sample stride 1 takes
        # 2e7 * (16 + 8) bytes; every stepper fails here, so only a run let through raises
        # "the run stepped"
        def stepped(*args, **kwargs):
            raise AssertionError("the run stepped")

        for name in ("_step_amplitudes", "_PropagatorBlocks", "_StageSteps"):
            monkeypatch.setattr(dynamics_module, name, stepped)
        if path == "density":
            force_density_path(monkeypatch)
        model = build_cascade_model(pair_spec(gamma=1.0, kd=0.4))
        rho0 = pure(model.space, UD)
        watch = [("pop_A", site_number_operators(model.space, chain_sites(2))[0])]
        with pytest.raises(DomainError, match=r"20000001 samples and 0 states take 458 MiB, over the budget "
                                              r"of 256 MiB: raise integrator.sample_stride"):
            evolve(model, rho0, IntegratorConfig(t_final=2e4, rate_scale=1.0, dt=1e-3), watch)
        # the budget counts each sample's watched values and time, and each state on the
        # closed support {ud, du, dd} and its time: 1001 * 24 + 101 * (9 * 16 + 8) bytes
        cfg = IntegratorConfig(t_final=1.0, rate_scale=1.0, dt=1e-3, record_states_stride=10)
        monkeypatch.setattr(dynamics_module, "_MAX_RECORD_BYTES", 1001 * 24 + 101 * 152 - 1)
        with pytest.raises(DomainError, match="1001 samples and 101 states"):
            evolve(model, rho0, cfg, watch)
        monkeypatch.setattr(dynamics_module, "_MAX_RECORD_BYTES", 1001 * 24 + 101 * 152)
        with pytest.raises(AssertionError, match="the run stepped"):
            evolve(model, rho0, cfg, watch)

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
        # from |ud> the excitation amplitudes are exp(-iKt)|ud> with K = H_nh, and the
        # jumped weight 1 - |exp(-iKt)|ud>|^2 sits in |dd>
        model = build_cascade_model(pair_spec(gamma=1.0, kd=0.6))
        space = model.space
        k = model.generator().k
        psi0 = basis_vector(space, UD)
        n_b = site_number_operators(space, two_spins)[1]
        ground = Operator(space, np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))
        cfg = IntegratorConfig(t_final=6.0, rate_scale=1.0, dt=1e-3, sample_stride=100)
        traj = evolve(model, pure(space, UD), cfg, [("pop_B", n_b), ("ground", ground)])
        for i, t in enumerate(traj.times):
            psi = expm(-1j * k * t) @ psi0
            assert abs(traj.observables["ground"][i] - (1.0 - np.linalg.norm(psi) ** 2)) <= 1e-9
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
        # sum_j <m_j + s_j> from the upstream spin up and the downstream one down, at s = 1/2, 1, 3/2
        for s in (0.5, 1.0, 1.5):
            sites = tuple(replace(site, s=s) for site in two_spins)
            model = build_cascade_model(replace(pair_spec(gamma=1.0, kd=0.9), sites=sites))
            n_a, n_b = site_number_operators(model.space, sites)
            n_tot = n_a + n_b
            traj = evolve(model, DensityMatrix.from_pure(model.space, spin_state(model.space, (0,))),
                          IntegratorConfig(t_final=6.0, rate_scale=1.0, dt=1e-3),
                          [("n", n_tot)])
            series = np.real(traj.observables["n"])
            assert series[0] == 2 * s
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

    def test_loop_and_matrix_paths_agree(self, pair_spec, monkeypatch, two_spins, density_path):
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
        force_density_path(patch)
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


def subsampled(stepped, sample_stride, state_stride):
    """The per-step stage run on the grids of ``sample_stride`` and ``state_stride``."""
    keep = dynamics_module._steps(N_BLOCKED, sample_stride)
    kept_states = dynamics_module._steps(N_BLOCKED, state_stride) if state_stride else None
    return Trajectory(
        stepped.times[keep], {label: series[keep] for label, series in stepped.observables.items()},
        stepped.final_state, stepped.rate_scale, stepped.diagnostics,
        states=None if kept_states is None else [stepped.states[i] for i in kept_states],
        state_times=None if kept_states is None else stepped.state_times[kept_states])


DIAGNOSTICS = ("max_trace_drift", "max_hermiticity_dev", "min_eigenvalue", "max_step_doubling_error")


@pytest.mark.usefixtures("density_path")
class TestBlockStepping:
    """The blocked propagator path against the per-step stage path and the expm oracle."""

    @staticmethod
    def assert_agree(blocked, stepped):
        # the diagnostics sample different block ends on the two paths, all near rounding level
        assert blocked.diagnostics.keys() == stepped.diagnostics.keys()
        for key in DIAGNOSTICS:
            if key in stepped.diagnostics:
                assert abs(blocked.diagnostics[key] - stepped.diagnostics[key]) <= 1e-12
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

    @pytest.mark.parametrize("state_stride", [0, 13, 20, 26, 29, 30])
    @pytest.mark.parametrize("sample_stride", [1, 7, 16])
    def test_evolve_matches_stage_path_and_expm(self, two_spins, stepped_reference,
                                                 sample_stride, state_stride):
        model, rho0, watch = blocked_pair(two_spins)
        cfg = IntegratorConfig(t_final=N_BLOCKED * 1e-3, rate_scale=1.0, dt=1e-3,
                               sample_stride=sample_stride, record_states_stride=state_stride)
        k = dynamics_module._block_length(N_BLOCKED // 256, sample_stride, state_stride,
                                          len(watch), 16 * 16)
        # K divides the state stride and is at most 13: one step per block at the prime 29
        assert (k > 1) == (state_stride != 29)
        blocked = evolve(model, rho0, cfg, watch)

        # the per-step run holds every step: subsample it on the strides' grids
        stepped, exact = stepped_reference
        keep = dynamics_module._steps(N_BLOCKED, sample_stride)
        assert blocked.times.size == len(range(0, N_BLOCKED, sample_stride)) + 1 == keep.size
        self.assert_agree(blocked, subsampled(stepped, sample_stride, state_stride))
        for label, series in blocked.observables.items():
            assert np.max(np.abs(series - exact[label][keep])) <= 1e-8

    @pytest.mark.parametrize("gamma_prime", [0.0, 0.4])
    def test_one_excitation_matches_stage_path_and_expm(self, pair_spec, two_spins, monkeypatch,
                                                         gamma_prime):
        # the head-excited pair, which the amplitude path steps unless forced onto this one
        model = build_cascade_model(pair_spec(gamma=1.0, gamma_prime=gamma_prime, kd=0.6))
        watch = list(zip(("pop_A", "pop_B"), site_number_operators(model.space, two_spins)))
        rho0 = pure(model.space, UD)
        n = 1031  # prime; K = 4 divides the state stride
        cfg = IntegratorConfig(t_final=n * 1e-3, rate_scale=1.0, dt=1e-3, sample_stride=7,
                               record_states_stride=8)
        assert dynamics_module._block_length(n // 256, 7, 8, 2, 16 * 16) == 4

        blocked = evolve(model, rho0, cfg, watch)
        monkeypatch.setattr(dynamics_module, "_PROPAGATOR_MAX_DIM", 0)
        self.assert_agree(blocked, evolve(model, rho0, cfg, watch))

        liou = model.generator().superoperator()
        for i, t in enumerate(blocked.times):
            exact = (expm(liou * t) @ rho0.matrix.reshape(-1)).reshape(4, 4)
            for label, op in watch:
                assert abs(blocked.observables[label][i] - np.trace(op.matrix @ exact)) <= 1e-8

    @pytest.mark.parametrize("sample_stride, state_stride, k, cap", [
        (1, 0, 4000, None),  # n < K: the run is one short block
        (7, 0, 40, None),  # n not a multiple of K, K not a multiple of the sample stride
        (16, 13, 13, None),  # one block per state stride, K not a multiple of the sample stride
        (1, 30, 10, 1 << 13),  # three blocks per state stride, several strides per chunk
        (16, 30, 2, 1280),  # chunks of 4 blocks across the marks of 15-block strides
        (16, 29, 1, 1280),  # a prime state stride: one step per block
    ])
    @pytest.mark.parametrize("watched", [True, False])
    def test_block_patterns_match_stage_path_and_expm(self, two_spins, stepped_reference, monkeypatch,
                                                       sample_stride, state_stride, k, cap, watched):
        if cap:
            monkeypatch.setattr(dynamics_module, "_STACK_MAX_BYTES", cap)
        monkeypatch.setattr(dynamics_module, "_block_length", lambda *args: k)
        chunks = chunk_spy(monkeypatch)
        lasts = []
        ends = dynamics_module._PropagatorBlocks.ends
        monkeypatch.setattr(dynamics_module._PropagatorBlocks, "ends",
                            lambda self, out, last: lasts.append(last) or ends(self, out, last))
        model, rho0, watch = blocked_pair(two_spins)
        cfg = IntegratorConfig(t_final=N_BLOCKED * 1e-3, rate_scale=1.0, dt=1e-3,
                               sample_stride=sample_stride, record_states_stride=state_stride)
        blocked = evolve(model, rho0, cfg, watch if watched else [])
        assert {chunk_k for chunk_k, _, _ in chunks} == {k}
        assert len(chunks) > 1 or not cap
        # only the run's last block is shorter than K
        assert lasts == [k] * (len(chunks) - 1) + [N_BLOCKED % k or k]

        stepped, exact = stepped_reference
        reference = subsampled(stepped, sample_stride, state_stride)
        self.assert_agree(blocked, reference if watched else replace(reference, observables={}))
        keep = dynamics_module._steps(N_BLOCKED, sample_stride)
        for label, series in blocked.observables.items():
            assert np.max(np.abs(series - exact[label][keep])) <= 1e-8

    def test_block_length_is_a_multiple_of_the_sample_stride(self):
        # elimination's three runs (3 watches on a d = 3 support, every 16th step sampled):
        # K = 95, 383, 1532 carried watched rows at every 1st, 1st and 4th offset
        ks = [dynamics_module._block_length(limit, 16, 0, 3, 9 * 16) for limit in (95, 383, 1532)]
        assert ks == [80, 368, 1520]
        # with recorded states K divides the state stride: a multiple of the sample stride
        # where one does (40 of 200 at stride 8), else the largest divisor (100 at stride 16)
        assert dynamics_module._block_length(100, 8, 200, 2, 256) == 40
        assert dynamics_module._block_length(100, 16, 200, 2, 256) == 100
        # a sample stride above the limit leaves K free
        assert dynamics_module._block_length(13, 16, 0, 2, 256) == 13

    def test_block_length_is_the_largest_valid_divisor(self, monkeypatch):
        # brute force over a grid: the largest K <= limit that divides the state stride (any K
        # without one) and whose stack fits the cap, a multiple of the sample stride if one is
        monkeypatch.setattr(dynamics_module, "_STACK_MAX_BYTES", 1 << 14)
        for limit, sample_stride, state_stride, n_watch, row_bytes in itertools.product(
                (1, 2, 13, 40, 100), (1, 3, 7, 16), (0, 1, 12, 13, 26, 29, 30, 200), (0, 2, 5),
                (144, 256, 4096)):
            valid = [k for k in range(1, limit + 1)
                     if (state_stride == 0 or state_stride % k == 0)
                     and (k + n_watch * (k // math.gcd(k, sample_stride) - 1)) * row_bytes <= 1 << 14]
            multiples = [k for k in valid if k % sample_stride == 0]
            k = dynamics_module._block_length(limit, sample_stride, state_stride, n_watch, row_bytes)
            assert k == max(multiples or valid or [1]), (limit, sample_stride, state_stride, n_watch,
                                                         row_bytes)
            assert state_stride % k == 0

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


def chunk_spy(monkeypatch, stepper=dynamics_module._PropagatorBlocks):
    """Record (K, blocks, whether the last boundary state is finite) for every chunk."""
    chunks = []
    records = stepper.records

    def spy(self, states):
        chunks.append((self.k, len(states) - 1, bool(np.isfinite(states[-1]).all())))
        return records(self, states)

    monkeypatch.setattr(stepper, "records", spy)
    return chunks


@pytest.mark.usefixtures("density_path")
class TestChunkedDriver:
    """Runs whose blocks span several chunks against the per-step stage path."""

    # K is the largest divisor of the state stride whose stack fits the cap: 1 at the primes
    @pytest.mark.parametrize("sample_stride, state_stride, k", [
        (1, 0, 10), (7, 13, 1), (16, 29, 1), (7, 26, 2), (16, 30, 10)])
    def test_chunks_match_stage_path(self, two_spins, stepped_reference, monkeypatch,
                                     sample_stride, state_stride, k):
        monkeypatch.setattr(dynamics_module, "_STACK_MAX_BYTES", 1 << 12)
        chunks = chunk_spy(monkeypatch)
        model, rho0, watch = blocked_pair(two_spins)
        cfg = IntegratorConfig(t_final=N_BLOCKED * 1e-3, rate_scale=1.0, dt=1e-3,
                               sample_stride=sample_stride, record_states_stride=state_stride)
        chunked = evolve(model, rho0, cfg, watch)
        assert len(chunks) >= 3
        assert {chunk_k for chunk_k, _, _ in chunks} == {k}
        assert max(blocks for _, blocks, _ in chunks) > 1

        stepped, _ = stepped_reference
        reference = subsampled(stepped, sample_stride, state_stride)
        TestBlockStepping.assert_agree(chunked, reference)
        assert all(key in chunked.diagnostics for key in DIAGNOSTICS)

    def test_drift_in_a_later_chunk_reports_the_sequential_step(self, pair_spec, monkeypatch):
        # the drifting run of test_mid_block_drift_reports_the_sequential_step, in chunks of a
        # few short blocks, so its first bad step lies past the first chunk and inside a block
        monkeypatch.setattr(dynamics_module, "_STACK_MAX_BYTES", 512)
        chunks = chunk_spy(monkeypatch)
        model = build_cascade_model(pair_spec(gamma=1.0, kd=0.3))
        ground = np.diag([0, 0, 0, 1]).astype(complex)
        rho0 = DensityMatrix(model.space, (1 - 1e-90) * ground + 1e-90 * pure(model.space, UD).matrix)
        cfg = IntegratorConfig(t_final=8.0 * N_BLOCKED, rate_scale=1.0, dt=8.0)

        def failure():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(IntegrationError) as err:
                    evolve(model, rho0, cfg)
            return err.value

        blocked = failure()
        k, first_chunk_blocks, _ = chunks[0]
        assert len(chunks) >= 3 and k > 1
        assert blocked.step > k * first_chunk_blocks and blocked.step % k
        monkeypatch.setattr(dynamics_module, "_PROPAGATOR_MAX_DIM", 0)
        stepped = failure()
        assert blocked.step == stepped.step
        assert f"at step {blocked.step} (t={8.0 * blocked.step:.6g})" in str(blocked)

    def test_block_ends_and_row_stack_take_logarithmically_many_products(self, two_spins,
                                                                          monkeypatch):
        # every product with P or an array made from it is counted: 400 blocks (the
        # cascade_chain grid) take about 2 log2(400) of them, and a 400-row stack about
        # 2 log2(400) more per doubling, where one product per block or row took 400
        products = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                def plain(arrays):
                    return tuple(a.view(np.ndarray) if isinstance(a, Counted) else a for a in arrays)

                products.append(ufunc is np.matmul)
                if out is not None:
                    kwargs["out"] = plain(out)
                result = getattr(ufunc, method)(*plain(inputs), **kwargs)
                if out is not None:
                    return out[0]
                return result.view(Counted) if isinstance(result, np.ndarray) else result

        taylor4 = dynamics_module._taylor4
        monkeypatch.setattr(dynamics_module, "_taylor4", lambda f, h: taylor4(f, h).view(Counted))
        stepper = dynamics_module._PropagatorBlocks
        calls = {"__init__": [], "ends": []}

        def counting(name):
            method = getattr(stepper, name)

            def counted(self, *args):
                before = sum(products)
                method(self, *args)
                calls[name].append((self.k, len(args[0]) - 1 if name == "ends" else None,
                                    sum(products) - before))
            return counted

        for name in calls:
            monkeypatch.setattr(stepper, name, counting(name))
        model, rho0, watch = blocked_pair(two_spins)
        traj = evolve(model, rho0, IntegratorConfig(t_final=4.0, rate_scale=1.0, dt=1e-3,
                                                    record_states_stride=20), watch)
        (k, blocks, count), = calls["ends"]
        assert (k, blocks) == (10, 400) and len(traj.states) == 201
        assert count <= 2 * np.ceil(np.log2(blocks + 1)) == 18

        evolve(model, rho0, IntegratorConfig(t_final=102.4, rate_scale=1.0, dt=1e-3, sample_stride=16),
               watch)
        k, _, count = calls["__init__"][-1]
        assert k == 400 and count <= 6 * np.log2(k)
        # 256 blocks in chunks of at most 38: each chunk takes about 2 log2 of its blocks
        assert len(calls["ends"]) == 1 + 7
        assert all(count <= 2 * np.ceil(np.log2(blocks + 1)) for _, blocks, count in calls["ends"])

    @pytest.mark.parametrize("stepper, max_dim, step", [
        (dynamics_module._PropagatorBlocks, 16, 2),
        # the stage path's own rounding crosses the tolerance one step earlier
        (dynamics_module._StageSteps, 0, 1),
    ])
    def test_overflowing_chunk_tail_is_silent(self, pair_spec, monkeypatch, stepper, max_dim, step):
        # 400 unstable steps in one chunk: the guard fails at the first steps, and the chunk
        # has already stepped on until the state overflowed
        monkeypatch.setattr(dynamics_module, "_PROPAGATOR_MAX_DIM", max_dim)
        chunks = chunk_spy(monkeypatch, stepper)
        model = build_cascade_model(pair_spec(gamma=1.0, kd=0.3))
        cfg = IntegratorConfig(t_final=3200.0, rate_scale=1.0, dt=8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IntegrationError) as err:
                evolve(model, pure(model.space, UD), cfg)
        assert err.value.step == step
        assert chunks == [(1, 400, False)]


class TestRecordedObservables:
    """Hermitian watches record Re tr(O rho) and an exact 0; other watches keep tr(O rho)."""

    @pytest.mark.parametrize("path", ["propagator", "stage", "amplitude"])
    def test_values_match_expectation_at_recorded_states(self, pair_spec, two_spins, monkeypatch,
                                                         amplitude_runs, path):
        spec = pair_spec(gamma=1.0, gamma_prime=0.3, kd=0.9)
        model = build_cascade_model(spec)
        space = model.space
        s_plus, s_minus, _ = spin_operators(0.5)
        coherence = embed(s_plus, 0, space) @ embed(s_minus, 1, space)
        hermitian = list(zip(("pop_A", "pop_B"), site_number_operators(space, two_spins)))
        watch = hermitian + [("coherence", coherence)]
        # a superposition runs on the density path, one excited basis state on the amplitude path
        psi0 = (basis_vector(space, UD) + basis_vector(space, DU)) / np.sqrt(2.0)
        if path == "amplitude":
            psi0 = basis_vector(space, UD)
        cfg = IntegratorConfig(t_final=3.0, rate_scale=1.0, dt=2e-3, record_states_stride=25)
        if path == "stage":
            monkeypatch.setattr(dynamics_module, "_PROPAGATOR_MAX_DIM", 0)
        traj = evolve(model, DensityMatrix.from_pure(space, psi0), cfg, watch)
        assert amplitude_runs == ([2] if path == "amplitude" else [])

        at_states = np.isin(traj.times, traj.state_times)
        assert np.count_nonzero(at_states) == len(traj.states) > 10
        for label, op in hermitian:
            series = traj.observables[label]
            assert np.all(series.imag == 0.0)
            exact = np.array([expectation(op, state).real for state in traj.states])
            assert np.max(np.abs(series.real[at_states] - exact)) <= 1e-12
        series = traj.observables["coherence"]
        exact = np.array([expectation(coherence, state) for state in traj.states])
        assert np.max(np.abs(series[at_states] - exact)) <= 1e-12
        assert np.max(np.abs(series.imag)) > 1e-2

    def test_hermitian_on_the_support_records_exact_zero(self, pair_spec, rng):
        # a head-excited forward pair runs on the support S = {|ud>, |du>, |dd>}; the watch
        # breaks Hermiticity only in row |uu>, outside S, where tr(O rho) never reads it
        model = build_cascade_model(pair_spec(gamma=1.0, kd=0.9))
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        hermitian = m + m.conj().T
        off_support = hermitian.copy()
        off_support[0, 1] += 3.0
        watch = [("hermitian", Operator(model.space, hermitian)),
                 ("off_support", Operator(model.space, off_support))]
        cfg = IntegratorConfig(t_final=3.0, rate_scale=1.0, dt=2e-3, record_states_stride=25)
        traj = evolve(model, pure(model.space, UD), cfg, watch)
        assert not watch[1][1].is_hermitian()
        series = traj.observables["off_support"]
        assert np.all(series.imag == 0.0)
        assert np.max(np.abs(series.real - traj.observables["hermitian"].real)) <= 1e-12
        at_states = np.isin(traj.times, traj.state_times)
        exact = np.array([expectation(watch[1][1], state).real for state in traj.states])
        assert np.max(np.abs(series.real[at_states] - exact)) <= 1e-12


class TestNoBackAction:
    @pytest.mark.parametrize("kd", [0.0, 0.9])
    def test_upstream_reduced_dynamics_unchanged(self, pair_spec, kd, rng):
        # product initial state: excited upstream spin, mixed downstream spin
        measured = no_back_action(pair_spec(gamma=1.0, kd=kd), downstream=random_density(rng, 2))
        assert measured["reduced_deviation"] <= 1e-8


class TestNonHermitianEvolution:
    @staticmethod
    def excitation(spec, occ, cfg):
        # pop_A + pop_B, the excitation norm |c|^2 of a one-excitation state
        model = build_cascade_model(spec)
        n_a, n_b = site_number_operators(model.space, spec.sites)
        traj = evolve(model, pure(model.space, occ), cfg, [("n", n_a + n_b)])
        return traj, traj.observables["n"]

    def test_zero_rate_keeps_norm(self, pair_spec):
        cfg = IntegratorConfig(t_final=5.0, rate_scale=1.0, dt=1e-2)
        _, n = self.excitation(pair_spec(gamma=0.0), UD, cfg)
        assert np.max(np.abs(n - 1.0)) <= 1e-12

    def test_dark_state_stationary_norm(self, pair_spec):
        # |dd> is dark: K and the jump vanish on it, so the run keeps it exactly
        cfg = IntegratorConfig(t_final=8.0, rate_scale=1.0, dt=1e-2)
        traj, n = self.excitation(pair_spec(gamma=1.0, kd=0.4), (1, 1), cfg)
        assert np.max(np.abs(n)) == 0.0
        assert np.array_equal(traj.final_state.matrix, pure(traj.final_state.space, (1, 1)).matrix)

    def test_norm_decays_monotonically(self, pair_spec):
        # the excitation norm |c|^2 under -iK only falls
        cfg = IntegratorConfig(t_final=6.0, rate_scale=1.0, dt=1e-3)
        _, n = self.excitation(pair_spec(gamma=1.0, kd=1.1), UD, cfg)
        assert np.max(np.diff(np.real(n))) <= 1e-12
        assert np.real(n[-1]) < 0.1

    def test_directional_transfer(self, pair_spec, two_spins):
        # the excitation amplitudes evolve under -iK = -iH_nh between jumps
        model = build_cascade_model(pair_spec(gamma=1.0, kd=0.6))
        space = model.space
        cfg = IntegratorConfig(t_final=6.0, rate_scale=1.0, dt=1e-3)
        fwd = evolve(model, pure(space, UD), cfg, [("pop_B", site_number_operators(space, two_spins)[1])])
        pop_b = np.real(fwd.observables["pop_B"])
        k = int(np.argmax(pop_b))
        assert pop_b[k] > 0.1 and 0 < k < len(pop_b) - 1  # rises then decays
        bwd = evolve(model, pure(space, DU), cfg, [("pop_A", site_number_operators(space, two_spins)[0])])
        assert np.max(np.real(bwd.observables["pop_A"])) <= 1e-10

    def test_with_jump_matches_lindblad(self, pair_spec):
        # both populations, Lindblad form against the H_nh-plus-jump rewrite
        assert jump_rewrite(pair_spec(gamma=1.0, kd=0.4), t_final=5.0)["deviation"] <= 1e-9

    def test_jump_rewrite_compares_the_two_paths(self, amplitude_runs, stepper_builds):
        # one amplitude-path run (the rewrite) and one density-path run (the Lindblad form),
        # so the measure never compares a path with itself
        jump_rewrite()
        assert [kind for kind, _ in stepper_builds] == ["amplitude", "propagator"]
        assert amplitude_runs == [2]

    @pytest.mark.parametrize("max_dim, kind, dt, bound", [
        pytest.param(16, "propagator", 1e-3, 1e-12, id="16-propagator"),
        pytest.param(0, "stage", 1e-3, 1e-12, id="0-stage"),
        # the propagator path drifts from the singlet by rounding that grows with the step
        # count (4.7e-14 / 2.1e-13 / 3.3e-12 at 800 / 8,000 / 80,000 steps); the stage path
        # keeps it exactly
        pytest.param(16, "propagator", 1e-4, 1e-11, id="propagator_80000_steps"),
        pytest.param(0, "stage", 1e-2, 0.0, id="stage_800_steps"),
    ])
    def test_non_basis_dark_start_is_stepped(self, monkeypatch, stepper_builds, two_spins,
                                             max_dim, kind, dt, bound):
        # the balanced pair at kd = 0 has H = 0 and z = S_A^- + S_B^- in both channels, so the
        # singlet (|ud> - |du>)/sqrt(2) is dark, L(rho0) = 0 exactly, without being a basis
        # state; it is stepped on its closed support {ud, du, dd} like any other start
        monkeypatch.setattr(dynamics_module, "_PROPAGATOR_MAX_DIM", max_dim)
        model = build_cascade_model(CascadeSpec(1.0, 1.0, 0.0, two_spins))
        space = model.space
        rho0 = DensityMatrix.from_pure(space, (basis_vector(space, UD) - basis_vector(space, DU)) / math.sqrt(2))
        cfg = IntegratorConfig(t_final=8.0, rate_scale=1.0, dt=dt, record_states_stride=10)
        traj = evolve(model, rho0, cfg)
        assert traj.diagnostics["stationary"] == 1.0
        assert traj.diagnostics["n_steps"] == round(8.0 / dt)
        assert stepper_builds == [(kind, 3)]
        assert traj.state_times[-1] == 8.0
        assert max(np.max(np.abs(state.matrix - rho0.matrix)) for state in traj.states) <= bound

    def test_unnormalized_initial_rejected(self, pair_spec):
        model = build_cascade_model(pair_spec())
        doubled = DensityMatrix(model.space, 2.0 * pure(model.space, UD).matrix)
        with pytest.raises(DomainError, match="trace"):
            evolve(model, doubled, IntegratorConfig(t_final=1.0, rate_scale=1.0))


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
        for a, b in zip(list(mine.states) + [mine.final_state], list(full.states) + [full.final_state]):
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

    @pytest.mark.parametrize("pattern", [(0, 1, 1), (1, 1, 1)], ids=["head", "stationary"])
    def test_recorded_states_read_as_full_space(self, monkeypatch, pattern):
        # a state stride that does not divide the 1500 steps, and the stationary all-ground start
        sites = chain_sites(3)
        model = build_cascade_model(CascadeSpec(1.0, 0.0, 0.6 / 2.5e-7, sites))
        cfg = IntegratorConfig(t_final=3.0, rate_scale=1.0, dt=2e-3, record_states_stride=70)
        restricted, full = self.run_both(monkeypatch, model, pure(model.space, pattern), cfg, [])
        self.assert_same_run(restricted, full, 1e-12)
        assert restricted.diagnostics["stationary"] == float(pattern == (1, 1, 1))
        states = restricted.states
        assert states and len(states) == len(full.states) == 1500 // 70 + 2
        assert restricted.state_times[-1] == pytest.approx(3.0)
        for k in (0, 1, 21, -1, -2, -len(states)):
            assert states[k].space == model.space
            assert np.max(np.abs(states[k].matrix - full.states[k].matrix)) <= 1e-12
        assert np.array_equal(states[-1].matrix, restricted.final_state.matrix)
        with pytest.raises(IndexError):
            states[len(states)]

    def test_state_count_as_the_benchmark_tracer_reads_it(self):
        # perfbench's tracer counts recorded states as len(result.states or ())
        model = build_cascade_model(CascadeSpec(1.0, 0.0, 0.6 / 2.5e-7, chain_sites(3)))
        rho0 = pure(model.space, (0, 1, 1))
        for stride, count in ((0, 0), (70, 23), (1500, 2), (5000, 2)):
            cfg = IntegratorConfig(t_final=3.0, rate_scale=1.0, dt=2e-3, record_states_stride=stride)
            assert len(evolve(model, rho0, cfg).states or ()) == count

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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_one_excitation_support_is_the_downstream_sites(self, n):
        # from the excitation at site j (1-based) a forward chain reaches sites j..N and |G>,
        # N - j + 2 states; a backward chain reaches sites 1..j and |G>
        for rates, size in (((1.0, 0.0), lambda j: n - j + 2), ((0.0, 0.7), lambda j: j + 1)):
            model = build_cascade_model(CascadeSpec(*rates, 0.6 / 2.5e-7, chain_sites(n)))
            for j in range(1, n + 1):
                rho0 = pure(model.space, excited(n, {j - 1})).matrix
                assert self.support(model, rho0).size == size(j)

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


@pytest.fixture
def amplitude_runs(monkeypatch):
    """Count the evolutions that take the amplitude path."""
    runs = []
    step = dynamics_module._step_amplitudes

    def spy(*args):
        runs.append(args[1].size)  # |A|
        return step(*args)

    monkeypatch.setattr(dynamics_module, "_step_amplitudes", spy)
    return runs


def cascade_run(direction, n, site, t_final=8.0, dt=2e-3):
    """A one-excitation cascade chain with its populations watched and a state every 20 steps."""
    sites = chain_sites(n)
    model = build_cascade_model(CascadeSpec(*RATES[direction], 0.7 / 2.5e-7, sites))
    watch = list(zip((f"pop_{j}" for j in range(n)), site_number_operators(model.space, sites)))
    cfg = IntegratorConfig(t_final=t_final, rate_scale=1.0, dt=dt, record_states_stride=20)
    return model, pure(model.space, excited(n, {site})), cfg, watch


# (direction, N, excited site): head and tail starts of N = 1..6 in every direction
ONE_EXCITATION = [pytest.param(direction, n, site, id=f"{direction}-n{n}-{name}")
                  for direction in sorted(RATES) for n in range(1, 7)
                  for name, site in (("head", 0), ("tail", n - 1)) if n > 1 or name == "head"]


class TestAmplitudePath:
    """One decaying excitation stepped as amplitudes, against the density path, expm and the closed form."""

    @pytest.mark.parametrize("direction, n, site", ONE_EXCITATION)
    def test_selected_and_matches_density_path(self, monkeypatch, amplitude_runs, direction, n, site):
        model, rho0, cfg, watch = cascade_run(direction, n, site)
        amplitudes = evolve(model, rho0, cfg, watch)
        assert len(amplitude_runs) == 1
        force_density_path(monkeypatch)
        density = evolve(model, rho0, cfg, watch)
        assert len(amplitude_runs) == 1

        assert amplitudes.diagnostics.keys() == density.diagnostics.keys()
        for key in ("n_steps", "dt", "stationary"):
            assert amplitudes.diagnostics[key] == density.diagnostics[key]
        assert amplitudes.diagnostics["max_hermiticity_dev"] == 0.0
        assert amplitudes.diagnostics["max_step_doubling_error"] <= 1e-10
        assert np.array_equal(amplitudes.times, density.times)
        for label, series in density.observables.items():
            assert np.max(np.abs(amplitudes.observables[label] - series)) <= 1e-10
            assert np.all(amplitudes.observables[label].imag == 0.0)
        assert np.array_equal(amplitudes.state_times, density.state_times)
        assert np.array_equal(amplitudes.states.support, density.states.support)
        assert amplitudes.states.max_deviation(density.states) <= 1e-10
        assert np.max(np.abs(amplitudes.final_state.matrix - density.final_state.matrix)) <= 1e-10

    @pytest.mark.parametrize("direction", sorted(RATES))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_expm(self, amplitude_runs, direction, n):
        # rho(t) = |psi><psi| + (1 - |psi|^2)|G><G| with psi(t) = exp(-iKt) psi(0) on the full space;
        # at dt = 1e-3 the fourth-order truncation error stays below 1e-13 up to N = 7
        model, rho0, cfg, watch = cascade_run(direction, n, 0, dt=1e-3)
        cfg = replace(cfg, record_states_stride=800)
        traj = evolve(model, rho0, cfg, watch)
        assert amplitude_runs == [n if direction != "backward" else 1]
        k = model.generator().k
        psi0 = spin_state(model.space, (0,))
        for t, state in zip(traj.state_times, traj.states):
            psi = expm(-1j * k * t) @ psi0
            exact = np.outer(psi, psi.conj())
            exact[-1, -1] += 1.0 - np.vdot(psi, psi).real
            assert np.max(np.abs(state.matrix - exact)) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_forward_chain_matches_closed_form(self, amplitude_runs, n):
        # from the head: |c_1| = e^{-t}, |c_j| = e^{-t} (2t) |L^(1)_{j-2}(2t)| / (j - 1) at gamma = 1
        model, rho0, cfg, watch = cascade_run("forward", n, 0)
        traj = evolve(model, rho0, replace(cfg, sample_stride=10, record_states_stride=0), watch)
        assert amplitude_runs == [n]
        t = traj.times
        for j in range(1, n + 1):
            amplitude = np.exp(-t) if j == 1 else (
                np.exp(-t) * 2 * t * np.abs(eval_genlaguerre(j - 2, 1, 2 * t)) / (j - 1))
            assert np.max(np.abs(traj.observables[f"pop_{j - 1}"].real - amplitude ** 2)) <= 1e-10

    def test_density_path_for_other_starts(self, pair_spec, two_spins, rng, amplitude_runs):
        n = 3
        model, _, cfg, watch = cascade_run("forward", n, 0)
        cfg = replace(cfg, t_final=1.0)
        evolve(model, pure(model.space, excited(n, {0, n - 1})), cfg, watch)  # two excitations
        evolve(model, DensityMatrix(model.space, random_density(rng, model.space.dim)), cfg, watch)
        evolve(model, DensityMatrix.maximally_mixed(model.space), cfg, watch)
        # spin 1 at m = +1: the first jump lands in m = 0, which is not dark
        sites = tuple(replace(site, s=1.0) for site in two_spins)
        spin_one = build_cascade_model(replace(pair_spec(gamma=1.0, kd=0.9), sites=sites))
        evolve(spin_one, DensityMatrix.from_pure(spin_one.space, spin_state(spin_one.space, (0,))), cfg)
        # elimination's jump-free full model
        full = build_full_model(two_spins, (ModeSpec(+1, +1, 25.0, 1.0, 2),))
        evolve(full, pure(full.space, (0, 1, 0)), replace(cfg, rate_scale=25.0))
        assert amplitude_runs == []
        # the same one-excitation pair under evolve takes the amplitude path
        pair = build_cascade_model(pair_spec(gamma=1.0, kd=0.4))
        evolve(pair, pure(pair.space, UD), cfg)
        assert amplitude_runs == [2]

    def test_unstable_step_raises(self, pair_spec, amplitude_runs):
        model = build_cascade_model(pair_spec(gamma=1.0, kd=0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IntegrationError) as err:
                evolve(model, pure(model.space, UD),
                       IntegratorConfig(t_final=400.0, rate_scale=1.0, dt=8.0))
        assert amplitude_runs == [2]
        assert err.value.step == 1
        assert "at step 1 (t=8)" in str(err.value)

    def test_rise_in_a_later_chunk_reports_the_same_step(self, monkeypatch, amplitude_runs):
        # the middle-excited bidirectional 3-chain at dt = 1.5 first loses norm, then a barely
        # unstable mode takes over; the rise crosses 1e-10 between two steps about 3.4x apart
        model = build_cascade_model(CascadeSpec(1.0, 1.0, 1.5 / 2.5e-7, chain_sites(3)))
        rho0 = pure(model.space, excited(3, {1}))
        cfg = IntegratorConfig(t_final=1.5 * 3000, rate_scale=1.0, dt=1.5)
        fills = []
        fill = dynamics_module._fill_powers
        monkeypatch.setattr(dynamics_module, "_fill_powers", lambda out, squares: (
            fills.append(len(out) - 1), fill(out, squares)))

        def failure():
            fills.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(IntegrationError) as err:
                    evolve(model, rho0, cfg)
            return err.value

        whole = failure()
        assert fills == [3000]
        monkeypatch.setattr(dynamics_module, "_STACK_MAX_BYTES", 512)
        chunked = failure()
        assert len(fills) >= 3 and chunked.step > fills[0]
        assert chunked.step == whole.step > 40
        assert f"at step {whole.step} (t={1.5 * whole.step:.6g})" in str(chunked)
        assert amplitude_runs == [3, 3]
