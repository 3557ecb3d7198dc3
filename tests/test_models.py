import math

import numpy as np
import pytest

from dataclasses import replace

from chiralspin import (
    CascadeSpec,
    DomainError,
    DensityMatrix,
    IntegratorConfig,
    ModeSpec,
    Operator,
    SpinSite,
    basis_vector,
    build_cascade_model,
    build_full_model,
    embed,
    evolve,
    site_number_operators,
    spin_operators,
    total_excitation,
)
import chiralspin.models as models_module
from chiralspin.core import spin_factor
from chiralspin.validation import (
    dark_state_residual,
    excitation_conservation,
    hermiticity_classes,
    liouvillian_trace,
    nonhermitian_identity,
    random_density,
    upstream_frozen,
)
from conftest import model_digest

# one-excitation basis bookkeeping for two spins-1/2: |uu>, |ud>, |du>, |dd>
UU, UD, DU, DD = 0, 1, 2, 3


def one_channel(spec, direction):
    """``spec`` with only the forward (gamma) or only the backward (gamma_prime) channel."""
    if direction == "forward":
        return replace(spec, gamma_prime=0.0)
    return replace(spec, gamma=0.0)


def reverse_factors(matrix, dims):
    """``matrix`` with the order of its tensor factors reversed."""
    n = len(dims)
    order = list(range(n - 1, -1, -1))
    tensor = matrix.reshape(tuple(dims) * 2).transpose(order + [n + i for i in order])
    return tensor.reshape(matrix.shape)


def lindblad_rhs(h, rate_ops, rho):
    """Reference master-equation right-hand side, written out longhand."""
    out = -1j * (h @ rho - rho @ h)
    for rate, z in rate_ops:
        zd = z.conj().T
        out += rate * (z @ rho @ zd - 0.5 * (zd @ z @ rho + rho @ zd @ z))
    return out


def builder_grid():
    """The output of every model builder over a fixed grid of spins, channels and modes."""
    spins = (0.5, 1.0, 0.5, 1.5, 0.5, 0.5)
    rates = ((1.3, 0.0), (0.0, 0.7), (1.3, 0.7), (0.9, 0.9), (0.0, 0.0), (2.0e3, 1.0e-3))
    out = []
    for n in range(2, 7):
        chain = spins[:n] if n % 2 else spins[:n][::-1]
        sites = tuple(SpinSite(s, 2.5e-7 * j * (1.0 + 0.1 * j)) for j, s in enumerate(chain))
        for gamma, gamma_prime in rates:
            model = build_cascade_model(CascadeSpec(gamma, gamma_prime, 0.7 / 2.5e-7, sites))
            out += [model, site_number_operators(model.space, sites), total_excitation(model.space)]
    for pair in ((0.5, 0.5), (0.5, 1.0)):
        sites = (SpinSite(pair[0], 0.0), SpinSite(pair[1], 2.5e-7))
        for cutoff in (1, 2, 3):
            for modes in ((ModeSpec(+1, +1, 5.0, 0.3, cutoff),),
                          (ModeSpec(-1, -1, 80.0, 0.2, cutoff),),
                          (ModeSpec(+1, +1, 5.0, 0.3, cutoff), ModeSpec(-1, -1, 80.0, 0.2, 1)),
                          (ModeSpec(-1, -1, 40.0, 0.4, cutoff), ModeSpec(+1, +1, 7.5, 0.1, 2))):
                model = build_full_model(sites, modes)
                out += [model, total_excitation(model.space)]
    return out


class TestBuilderDigest:
    def test_builders_unchanged_bit_for_bit(self):
        # pinned to the array-by-array builders as they stood before they moved to raw arrays,
        # with the number operators counting m + s (the earlier S^+ S^- differs at s > 1/2 only);
        # any change of an entry, a zero's sign, a shape or a rate changes the digest
        assert model_digest(builder_grid()) == "53c3698f16debefb44eaf9719c5af4931753150867893f6bb039c43ec56580fa"


class TestModeSpec:
    def test_class_derived_from_angular_momentum(self):
        assert ModeSpec(+1, +1, 1.0, 0.1, 2).coupling_class == "rotating"
        assert ModeSpec(+1, -1, 1.0, 0.1, 2).coupling_class == "counter_rotating"

    def test_negative_coupling_rejected(self):
        with pytest.raises(DomainError):
            ModeSpec(+1, +1, 1.0, -0.1, 2)

    @pytest.mark.parametrize("detuning, g", [(math.inf, 0.1), (1.0, math.nan)])
    def test_non_finite_mode_rejected(self, detuning, g):
        with pytest.raises(DomainError, match="must be finite"):
            ModeSpec(+1, +1, detuning, g, 2)


class TestDenseGuard:
    @pytest.mark.parametrize("build", [
        lambda: build_cascade_model(CascadeSpec(1.0, 0.0, 0.0, [SpinSite(0.5, 1e-7 * j) for j in range(40)])),
        lambda: build_cascade_model(CascadeSpec(1.0, 0.0, 0.0, [SpinSite(1e12, 0.0), SpinSite(0.5, 1.0)])),
        lambda: build_full_model([SpinSite(1e12, 0.0), SpinSite(0.5, 1.0)], [ModeSpec(+1, +1, 1.0, 0.1, 2)]),
        lambda: build_full_model([SpinSite(0.5, 0.0), SpinSite(0.5, 1.0)], [ModeSpec(+1, +1, 1.0, 0.1, 10**8)]),
    ], ids=["cascade_40_sites", "cascade_spin_1e12", "full_spin_1e12", "full_cutoff_1e8"])
    def test_oversized_space_rejected(self, build):
        # refused by the one guard, before numpy is asked for a matrix of that size
        with pytest.raises(DomainError, match="exceeds the dense limit 4096"):
            build()

    def test_bound_is_inclusive(self):
        # the guard sizes the space only, so this allocates nothing: 4096 states pass
        assert models_module._dense_space([spin_factor(0.5)] * 12).dim == 4096
        with pytest.raises(DomainError, match="8192"):
            models_module._dense_space([spin_factor(0.5)] * 13)


class TestSiteNumberOperators:
    @pytest.mark.parametrize("spins", [(0.5,) * 9, (0.5, 1.0, 1.5, 0.5), (1.0,) * 5, (2.5, 0.5, 1.0)],
                             ids=["9x1/2", "1/2,1,3/2,1/2", "5x1", "5/2,1/2,1"])
    def test_equal_product_of_embedded_ladders_bit_for_bit(self, spins):
        # each site counts m + s = S^z + s, the embedded ladder; at s = 1/2 that is S^+ S^- bit for bit
        sites = [SpinSite(s, 1e-7 * j) for j, s in enumerate(spins)]
        space = build_cascade_model(CascadeSpec(0.0, 0.0, 0.0, sites)).space
        for j, (site, op) in enumerate(zip(sites, site_number_operators(space, sites))):
            sp, sm, sz = spin_operators(site.s)
            count = embed(Operator(sz.space, sz.matrix + site.s * np.eye(sz.space.dim)), j, space).matrix
            assert np.array_equal(op.matrix, count)
            assert np.array_equal(np.diag(op.matrix).real, np.diag(embed(sz, j, space).matrix).real + site.s)
            if site.s == 0.5:
                product = (embed(sp, j, space) @ embed(sm, j, space)).matrix
                assert op.matrix.tobytes() == product.tobytes()
            assert np.array_equal(np.signbit(op.matrix.view(float)), np.signbit(count.view(float)))


    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
    def test_one_quantum_on_a_spin_s_pair_matches_the_spin_half_pair(self, s):
        # one quantum above ground: S^- from m = -s + 1 has |<m - 1|S^-|m>|^2 = 2s, so a spin-s
        # pair at forward rate gamma/(2s) is the spin-1/2 pair at gamma, counted as m + s
        def run(spin, gamma):
            sites = (SpinSite(spin, 0.0), SpinSite(spin, 2.5e-7))
            model = build_cascade_model(CascadeSpec(gamma, 0.0, 0.7 / 2.5e-7, sites))
            dim = int(round(2 * spin)) + 1
            rho0 = DensityMatrix.from_pure(model.space, basis_vector(model.space, (dim - 2, dim - 1)))
            watch = list(zip(("A", "B"), site_number_operators(model.space, sites)))
            return evolve(model, rho0, IntegratorConfig(t_final=4.0, rate_scale=1.0, dt=1e-3), watch)

        spin_s, spin_half = run(s, 1.0 / (2 * s)), run(0.5, 1.0)
        assert np.max(spin_half.observables["B"].real) > 0.5
        for label in ("A", "B"):
            assert np.max(np.abs(spin_s.observables[label] - spin_half.observables[label])) <= 1e-12


class TestCascadeSpec:
    def test_positions_must_increase(self, two_spins):
        with pytest.raises(DomainError):
            CascadeSpec(1.0, 0.0, 1.0, tuple(reversed(two_spins)))

    def test_needs_a_site(self):
        with pytest.raises(DomainError, match="at least one site"):
            CascadeSpec(1.0, 0.0, 1.0, ())

    def test_negative_rate_rejected(self, two_spins):
        with pytest.raises(DomainError):
            CascadeSpec(-1.0, 0.0, 1.0, two_spins)

    def test_integer_wavenumber_beyond_int64_accepted(self, two_spins):
        assert CascadeSpec(1.0, 0.0, 2 ** 64, two_spins).k_z == 2 ** 64

    def test_non_finite_phase_rejected(self):
        # k_z times the chain's length overflows, though each factor is finite
        sites = [SpinSite(0.5, 0.0), SpinSite(0.5, 1e-300), SpinSite(0.5, 1e300)]
        with pytest.raises(DomainError, match="non-finite phase"):
            CascadeSpec(1.0, 0.0, 7e299, sites)


class TestOneSiteCascade:
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_lone_decaying_spin(self, s):
        # one site: no Hamiltonian and the one jump (2 gamma, S^-), whatever the position and k_z
        model = build_cascade_model(CascadeSpec(1.3, 0.0, 0.7 / 2.5e-7, (SpinSite(s, 4e-7),)))
        assert np.array_equal(model.hamiltonian.matrix, np.zeros((model.space.dim,) * 2))
        ((rate, z),) = model.jumps
        assert rate == 2.0 * 1.3
        assert np.array_equal(z.matrix, spin_operators(s)[1].matrix)


class TestExcitationNumber:
    @pytest.mark.parametrize("spins", [(0.5, 1.0), (1.5, 0.5), (1.0, 1.5, 0.5), (1.5, 0.5, 1.0, 0.5)])
    @pytest.mark.parametrize("rates", [(1.3, 0.0), (0.0, 0.7), (1.3, 0.7)],
                             ids=["forward", "backward", "both"])
    def test_hamiltonian_conserves_and_each_jump_removes_one(self, spins, rates):
        # N = sum_j (m_j + s_j): [H, N] = 0 exactly, and [N, z] = -z for every jump z
        sites = tuple(SpinSite(s, 2.5e-7 * j * (1.0 + 0.1 * j)) for j, s in enumerate(spins))
        model = build_cascade_model(CascadeSpec(*rates, 0.7 / 2.5e-7, sites))
        n = sum(op.matrix for op in site_number_operators(model.space, sites))
        h = model.hamiltonian.matrix
        assert np.max(np.abs(h)) > 0.0
        assert np.max(np.abs(h @ n - n @ h)) == 0.0
        assert len(model.jumps) == sum(rate > 0 for rate in rates)
        for _, z in model.jumps:
            assert np.max(np.abs(n @ z.matrix - z.matrix @ n + z.matrix)) <= 1e-12


class TestFullModel:
    def test_zero_coupling_is_diagonal_detuning(self, two_spins):
        mode = ModeSpec(+1, +1, detuning=3.0, g=0.0, fock_cutoff=1)
        model = build_full_model(two_spins, (mode,))
        h = model.hamiltonian.matrix
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
        # spin term only: Delta (S_A^z + S_B^z)
        expected = 3.0 * np.array([1, 0, 0, 0, 0, -1, -1, -1], dtype=float)[[0, 1, 2, 3, 4, 5, 6, 7]]
        expected = 3.0 * np.array([1, 1, 0, 0, 0, 0, -1, -1], dtype=float)
        assert np.allclose(np.diag(h).real, expected)

    def test_single_flip_matrix_element(self, two_spins):
        # <down,down,1| H |up,down,0> = g : spin A lowers while a phonon appears
        g = 0.37
        mode = ModeSpec(+1, +1, detuning=5.0, g=g, fock_cutoff=1)
        model = build_full_model(two_spins, (mode,))
        bra = basis_vector(model.space, (1, 1, 1))
        ket = basis_vector(model.space, (0, 1, 0))
        assert abs((bra.conj() @ model.hamiltonian.matrix @ ket) - g) <= 1e-14

    def test_rotating_conserves_total_excitation(self, two_spins):
        assert excitation_conservation(two_spins)["rotating_commutator"] <= 1e-12

    def test_counter_rotating_violates_total_excitation(self, two_spins):
        assert excitation_conservation(two_spins)["counter_rotating_commutator"] > 1e-6

    def test_hermitian(self, two_spins):
        model = build_full_model(
            two_spins, (ModeSpec(+1, +1, 5.0, 0.3, 2), ModeSpec(-1, -1, 80.0, 0.2, 1)))
        assert model.hamiltonian.is_hermitian()

    def test_closed_system_has_no_jumps(self, two_spins):
        model = build_full_model(two_spins, (ModeSpec(+1, +1, 5.0, 0.3, 1),))
        assert model.jumps == ()

    def test_zero_modes_rejected(self, two_spins):
        with pytest.raises(DomainError):
            build_full_model(two_spins, ())

    def test_one_spin_rejected(self, two_spins):
        with pytest.raises(DomainError):
            build_full_model(two_spins[:1], (ModeSpec(+1, +1, 5.0, 0.3, 1),))


class TestCascadeHamiltonian:
    def test_transfer_matrix_element_at_zero_phase(self, pair_spec):
        h = build_cascade_model(pair_spec(gamma=1.0, kd=0.0)).hamiltonian.matrix
        assert h[DU, UD] == -1j

    def test_phase_periodicity(self, pair_spec):
        h1 = build_cascade_model(pair_spec(kd=np.pi)).hamiltonian.matrix
        h2 = build_cascade_model(pair_spec(kd=-np.pi)).hamiltonian.matrix
        assert np.max(np.abs(h1 - h2)) <= 1e-12

    def test_zero_rate_gives_zero_operator(self, pair_spec):
        model = build_cascade_model(pair_spec(gamma=0.0, kd=1.3))
        assert np.max(np.abs(model.hamiltonian.matrix)) == 0.0
        assert model.jumps == ()

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_always_hermitian(self, pair_spec, direction, rng):
        specs = [one_channel(pair_spec(gamma=float(rng.uniform(0, 3)),
                                       gamma_prime=float(rng.uniform(0, 3)),
                                       kd=float(rng.uniform(-7, 7))), direction) for _ in range(10)]
        assert hermiticity_classes(specs)["exchange_antihermiticity"] <= 1e-12


class TestCollectiveJump:
    def test_superradiant_combination_at_zero_phase(self, pair_spec):
        z = build_cascade_model(pair_spec(kd=0.0)).jumps[0][1].matrix
        spA = np.kron(spin_operators(0.5)[1].matrix, np.eye(2))
        spB = np.kron(np.eye(2), spin_operators(0.5)[1].matrix)
        assert np.max(np.abs(z - (spA + spB))) <= 1e-15

    def test_annihilates_all_ground(self, pair_spec):
        z = build_cascade_model(pair_spec(kd=0.9)).jumps[0][1].matrix
        ground = np.zeros(4)
        ground[DD] = 1.0
        assert np.max(np.abs(z @ ground)) == 0.0

    def test_symmetric_state_eigenvalue_two(self, pair_spec):
        # independent oracle: diagonalize the 4x4 weight operator
        z = build_cascade_model(pair_spec(kd=0.0)).jumps[0][1].matrix
        eigs = np.linalg.eigvalsh(z.conj().T @ z)
        assert np.max(np.abs(np.sort(eigs) - np.array([0.0, 0.0, 2.0, 2.0]))) <= 1e-12
        sym = np.zeros(4)
        sym[UD] = sym[DU] = 1 / np.sqrt(2)
        assert abs(sym @ (z.conj().T @ z) @ sym - 2.0) <= 1e-12

    def test_backward_swaps_roles(self, pair_spec):
        spec = pair_spec(gamma=0.0, gamma_prime=1.0, kd=0.4)
        z = build_cascade_model(spec).jumps[0][1].matrix
        phase = np.exp(-1j * 0.4)
        smA = np.kron(spin_operators(0.5)[1].matrix, np.eye(2))
        smB = np.kron(np.eye(2), spin_operators(0.5)[1].matrix)
        assert np.max(np.abs(z - (smB + phase * smA))) <= 1e-15


class TestCascadedModel:
    def test_jump_rate_is_twice_gamma(self, pair_spec):
        model = build_cascade_model(pair_spec(gamma=1.7))
        assert model.jumps[0][0] == pytest.approx(3.4)

    def test_dark_steady_state(self, pair_spec):
        assert dark_state_residual(pair_spec(gamma=1.0, kd=0.0))["residual"] == 0.0

    def test_generator_annihilates_trace(self, pair_spec, rng):
        assert liouvillian_trace(rng, spec=pair_spec(gamma=0.8, kd=1.1))["max_abs_trace"] <= 1e-12

    def test_single_excitation_decays(self, pair_spec):
        # from |up,down> the excited-manifold weight must not grow at t=0
        model = build_cascade_model(pair_spec(gamma=1.0, kd=0.5))
        rho = np.zeros((4, 4), dtype=complex)
        rho[UD, UD] = 1.0
        p_excited = np.eye(4)
        p_excited[DD, DD] = 0.0
        derivative = np.trace(p_excited @ model.generator().apply(rho)).real
        assert derivative <= 1e-12


class TestNonHermitianHamiltonian:
    def test_defining_identity_random_parameters(self, pair_spec, rng):
        def draw(rng):
            return pair_spec(gamma=float(rng.uniform(0.05, 3.0)), kd=float(rng.uniform(-np.pi, np.pi)))

        assert nonhermitian_identity(rng, specs=10, draw_spec=draw)["relative_deviation"] <= 1e-12

    def test_frozen_zero_phase_matrix(self, pair_spec):
        # the forward cascade's K, expanded termwise: -i[diag(2,1,1,0) + 2|du><ud|]
        built = build_cascade_model(pair_spec(gamma=1.0, kd=0.0)).generator().k
        expected = np.zeros((4, 4), dtype=complex)
        expected[UU, UU] = -2j
        expected[UD, UD] = expected[DU, DU] = -1j
        expected[DU, UD] = -2j
        assert np.max(np.abs(built - expected)) <= 1e-14

    def test_forward_reverse_coefficient_exactly_zero(self, pair_spec, rng):
        # upstream spin gaining from downstream: the |ud><du| element of every forward H_nh
        def draw(rng):
            return pair_spec(gamma=float(rng.uniform(0.1, 2.0)), kd=float(rng.uniform(-3, 3)))

        assert nonhermitian_identity(rng, specs=5, draw_spec=draw)["reverse_coefficient"] == 0.0

    def test_nonhermitian_unless_rate_vanishes(self, pair_spec):
        measured = hermiticity_classes([pair_spec(gamma=1.0)])
        assert measured["effective_antihermiticity"] > 1e-12
        assert measured["zero_rate_antihermiticity"] <= 1e-12


class TestGeneratorEquivalence:
    def test_jump_rewrite_matches_lindblad_form(self, pair_spec, rng):
        # the two ways of writing the same superoperator agree on random states
        for _ in range(10):
            gamma = float(rng.uniform(0.05, 3.0))
            kd = float(rng.uniform(-np.pi, np.pi))
            spec = pair_spec(gamma=gamma, kd=kd)
            model = build_cascade_model(spec)
            h = model.hamiltonian.matrix
            z = model.jumps[0][1].matrix
            h_nh = model.generator().k
            for _ in range(5):
                rho = random_density(rng, 4)
                lhs = lindblad_rhs(h, [(2.0 * gamma, z)], rho)
                rhs = -1j * (h_nh @ rho - rho @ h_nh.conj().T) + 2.0 * gamma * (z @ rho @ z.conj().T)
                scale = np.max(np.abs(lhs))
                assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(scale, 1e-30)


class TestBidirectionalModel:
    def test_zero_backward_equals_forward_only(self, pair_spec):
        # gamma_prime = 0 drops the backward channel; otherwise it adds to H and the jump list
        bid = build_cascade_model(pair_spec(gamma=1.2, gamma_prime=0.5, kd=0.8))
        fwd = build_cascade_model(pair_spec(gamma=1.2, gamma_prime=0.0, kd=0.8))
        bwd = build_cascade_model(pair_spec(gamma=0.0, gamma_prime=0.5, kd=0.8))
        assert len(fwd.jumps) == 1 and len(bid.jumps) == 2
        assert np.max(np.abs(bid.hamiltonian.matrix
                             - (fwd.hamiltonian + bwd.hamiltonian).matrix)) == 0.0
        for (rate, z), (ref_rate, ref_z) in zip(bid.jumps, fwd.jumps + bwd.jumps):
            assert rate == ref_rate
            assert np.max(np.abs(z.matrix - ref_z.matrix)) == 0.0

    def test_equal_rates_give_reciprocal_exchange(self, pair_spec):
        # matrix expansion of the two directional forms
        gamma, kd = 0.9, 0.6
        spec = pair_spec(gamma=gamma, gamma_prime=gamma, kd=kd)
        h = build_cascade_model(spec).hamiltonian.matrix
        sp = spin_operators(0.5)[0].matrix
        sm = spin_operators(0.5)[1].matrix
        flip = np.kron(sp, sm) + np.kron(sm, sp)
        expected = 2.0 * gamma * np.sin(kd) * flip
        assert np.max(np.abs(h - expected)) <= 1e-12

    def test_equal_rates_zero_phase_pure_dissipation(self, pair_spec):
        spec = pair_spec(gamma=1.0, gamma_prime=1.0, kd=0.0)
        model = build_cascade_model(spec)
        assert np.max(np.abs(model.hamiltonian.matrix)) <= 1e-15
        assert len(model.jumps) == 2


class TestChainModel:
    def chain_spec(self, n, gamma=1.0, kd=0.8, gamma_prime=0.0):
        sites = tuple(SpinSite(0.5, float(j), f"s{j}") for j in range(n))
        return CascadeSpec(gamma, gamma_prime, kd, sites)

    def test_two_sites_reduces_to_cascaded(self):
        # the two-site forward model is the pair formula written out with kron
        gamma, kd = 1.3, 0.5
        model = build_cascade_model(self.chain_spec(2, gamma=gamma, kd=kd))
        sp, sm, _ = spin_operators(0.5)
        t = (1j * gamma * np.exp(-1j * kd)) * np.kron(sp.matrix, sm.matrix)
        z = np.kron(sm.matrix, np.eye(2)) + np.exp(-1j * kd) * np.kron(np.eye(2), sm.matrix)
        assert np.max(np.abs(model.hamiltonian.matrix - (t + t.conj().T))) == 0.0
        assert np.max(np.abs(model.jumps[0][1].matrix - z)) <= 1e-15
        assert model.jumps[0][0] == 2.0 * gamma

    def test_three_sites_symmetric_weight_three(self):
        # all phases zero: diagonalize the 8x8 weight operator directly
        spec = self.chain_spec(3, kd=0.0)
        z = build_cascade_model(spec).jumps[0][1].matrix
        eigs = np.linalg.eigvalsh(z.conj().T @ z)
        assert np.min(np.abs(eigs - 3.0)) <= 1e-12
        sym = np.zeros(8)
        # one-excitation symmetric state over sites (indices 3, 5, 6 = udd perms)
        for idx in (3, 5, 6):
            sym[idx] = 1 / np.sqrt(3)
        weight = z.conj().T @ z
        assert np.max(np.abs(weight @ sym - 3.0 * sym)) <= 1e-12  # eigenvector, eigenvalue 3

    def test_all_ground_stationary(self):
        for n in (2, 3, 4):
            assert dark_state_residual(self.chain_spec(n, kd=0.7))["residual"] == 0.0

    def test_upstream_occupation_frozen_against_downstream(self):
        # leftmost spin in its ground state never gains from excited downstream: |down, up, up>
        assert abs(upstream_frozen()["upstream_rate"]) <= 1e-12

    def test_backward_chain_mirrors_forward(self):
        # the backward channel is the forward one of the mirrored sites, factors reversed
        sites = (SpinSite(0.5, 0.0, "a"), SpinSite(1.0, 0.7, "b"), SpinSite(1.0, 1.9, "c"))
        mirrored = tuple(SpinSite(s.s, -s.position_z, s.label) for s in reversed(sites))
        bwd = build_cascade_model(CascadeSpec(0.0, 0.8, 1.3, sites))
        fwd = build_cascade_model(CascadeSpec(0.8, 0.0, 1.3, mirrored))
        dims = fwd.space.dims
        assert bwd.space.dims == dims[::-1]
        assert np.max(np.abs(bwd.hamiltonian.matrix
                             - reverse_factors(fwd.hamiltonian.matrix, dims))) <= 1e-15
        assert len(bwd.jumps) == len(fwd.jumps) == 1
        assert bwd.jumps[0][0] == fwd.jumps[0][0]
        assert np.max(np.abs(bwd.jumps[0][1].matrix
                             - reverse_factors(fwd.jumps[0][1].matrix, dims))) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_upstream_entries_of_k_vanish_exactly(self, n):
        # K = H - i gamma z^dag z never moves the excitation against the channel, not even by
        # rounding; the forward entries stay nonzero
        sites = tuple(SpinSite(0.5, 2.5e-7 * j, f"s{j}") for j in range(n))
        for gamma, gamma_prime in ((1.0, 0.0), (0.0, 0.7)):
            model = build_cascade_model(CascadeSpec(gamma, gamma_prime, 0.6 / 2.5e-7, sites))
            k = model.generator().k
            excited = [int(np.flatnonzero(basis_vector(model.space, tuple(
                0 if i == j else 1 for i in range(n))))[0]) for j in range(n)]
            if gamma == 0.0:
                excited.reverse()  # the backward channel runs from the last site
            for a, j in enumerate(excited):
                for l in excited[a + 1:]:
                    assert k[j, l] == 0.0
                    assert k[l, j] != 0.0

    def test_equal_rate_chain_hermitian_and_trace_preserving(self, rng):
        spec = self.chain_spec(3, gamma=0.9, gamma_prime=0.9, kd=0.6)
        model = build_cascade_model(spec)
        assert model.hamiltonian.is_hermitian()
        assert len(model.jumps) == 2
        assert liouvillian_trace(rng, spec=spec)["max_abs_trace"] <= 1e-12

    def test_unsorted_positions_rejected(self):
        sites = (SpinSite(0.5, 0.0), SpinSite(0.5, 2.0), SpinSite(0.5, 1.0))
        with pytest.raises(DomainError):
            CascadeSpec(1.0, 0.0, 1.0, sites)
