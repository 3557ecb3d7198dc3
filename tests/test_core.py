import dataclasses
import importlib
import inspect
import itertools
import math
import pickle

import numpy as np
import pytest

from chiralspin import (
    DensityMatrix,
    DomainError,
    ModeSpec,
    Operator,
    StateStack,
    basis_vector,
    boson_operators,
    embed,
    expectation,
    partial_trace,
    partial_trace_stack,
    spin_operators,
    spin_state,
    tensor_product,
)
from chiralspin import validation
from chiralspin.core import HilbertSpace, _spin_ladders, boson_factor, identity, spin_factor
from chiralspin.validation import (
    boson_truncation,
    dagger_involution,
    embed_homomorphism,
    partial_trace_identities,
    random_density,
    spin_commutators,
)


class TestSpinOperators:
    def test_spin_half_raising(self):
        sp, sm, sz = spin_operators(0.5)
        assert np.array_equal(sp.matrix, np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.array_equal(sm.matrix, np.array([[0, 0], [1, 0]], dtype=complex))

    def test_spin_half_sz(self):
        _, _, sz = spin_operators(0.5)
        assert np.array_equal(sz.matrix, np.diag([0.5, -0.5]).astype(complex))

    def test_spin_one_ladder_elements(self):
        sp, _, _ = spin_operators(1)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = expected[1, 2] = np.sqrt(2)
        assert np.allclose(sp.matrix, expected, atol=1e-15)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_ladder_commutator_identity(self, s):
        assert spin_commutators(spins=(s,))["ladder_deviation"] <= 1e-12

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
    def test_sz_ladder_commutators(self, s):
        assert spin_commutators(spins=(s,))["sz_deviation"] <= 1e-12

    def test_plus_is_dagger_of_minus(self):
        sp, sm, _ = spin_operators(1.5)
        assert np.array_equal(sp.matrix, sm.dag().matrix)

    @pytest.mark.parametrize("bad", [0.3, -0.5, 0.51])
    def test_non_half_integer_rejected(self, bad):
        with pytest.raises(DomainError):
            spin_operators(bad)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_memoised_ladders_are_read_only(self, s):
        # the ladders are built once per s and shared; no caller can write into them
        assert _spin_ladders(s) is _spin_ladders(s)
        for ladder, op in zip(_spin_ladders(s), spin_operators(s)):
            assert np.array_equal(ladder, op.matrix)
            with pytest.raises(ValueError):
                ladder[0, 0] = 7.0

    def test_exported_functions_stay_plain_functions(self):
        # a caching wrapper on an exported name would hide it from function-level tracing
        for module_name in ("cli", "core", "dynamics", "experiments", "g17", "materials", "models",
                            "validation"):
            module = importlib.import_module(f"chiralspin.{module_name}")
            for name in module.__all__:
                value = getattr(module, name)
                if callable(value) and not inspect.isclass(value):
                    assert inspect.isfunction(value), f"{module.__name__}.{name}"


class TestBosonOperators:
    def test_cutoff_one_matrix(self):
        a, _ = boson_operators(1)
        assert np.array_equal(a.matrix, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_number_operator(self):
        a, adag = boson_operators(2)
        assert np.allclose((adag @ a).matrix, np.diag([0, 1, 2]), atol=1e-14)

    def test_truncated_commutator(self):
        # [a, a^dag] on the cutoff-2 ladder is diag(1, 1, -2)
        assert boson_truncation()["deviation"] <= 1e-14

    def test_lowering_action(self):
        a, _ = boson_operators(3)
        vec = np.zeros(4)
        vec[2] = 1.0
        out = a.matrix @ vec
        assert abs(out[1] - np.sqrt(2)) < 1e-15

    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_bad_cutoff_rejected(self, bad):
        with pytest.raises(DomainError):
            boson_operators(bad)


    @pytest.mark.parametrize("reader", [boson_factor, lambda c: ModeSpec(+1, +1, 1.0, 0.1, c)],
                             ids=["boson_factor", "ModeSpec"])
    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_bad_cutoff_rejected_by_every_reader(self, reader, bad):
        with pytest.raises(DomainError, match=f"Fock cutoff must be a positive integer, got {bad}"):
            reader(bad)


class TestEmbed:
    def test_first_site(self, two_spin_space):
        _, _, sz = spin_operators(0.5)
        out = embed(sz, 0, two_spin_space)
        assert np.array_equal(np.diag(out.matrix), np.array([0.5, 0.5, -0.5, -0.5], dtype=complex))

    def test_second_site(self, two_spin_space):
        _, _, sz = spin_operators(0.5)
        out = embed(sz, 1, two_spin_space)
        assert np.array_equal(np.diag(out.matrix), np.array([0.5, -0.5, 0.5, -0.5], dtype=complex))

    def test_boson_site_action(self):
        space = HilbertSpace((spin_factor(0.5), spin_factor(0.5), boson_factor(1)))
        a, _ = boson_operators(1)
        op = embed(a, 2, space)
        state = basis_vector(space, (0, 1, 1))  # |up, down, 1>
        out = op.matrix @ state
        assert np.allclose(out, basis_vector(space, (0, 1, 0)))

    def test_multiplicative_homomorphism(self, rng):
        space = HilbertSpace((spin_factor(0.5), spin_factor(1.0), boson_factor(2)))
        assert embed_homomorphism(rng, samples=10, space=space)["deviation"] <= 1e-12

    @pytest.mark.parametrize("factors", [
        (spin_factor(0.5), spin_factor(0.5)),
        (spin_factor(0.5), spin_factor(0.5), boson_factor(2)),
        (spin_factor(1.0), spin_factor(0.5), spin_factor(0.5), boson_factor(3)),
        (spin_factor(0.5),) * 5,
        (boson_factor(2), spin_factor(1.0), boson_factor(1), spin_factor(0.5)),
    ], ids=["2,2", "2,2,3", "3,2,2,4", "2^5", "3,3,2,2"])
    def test_equals_kron_chain(self, rng, factors):
        # bit for bit, except that the chain writes -0.0 where 0 * op[a, b] has a negative
        # part; adding +0.0 maps -0.0 to +0.0 and leaves every other entry's bits alone
        space = HilbertSpace(factors)
        for site, factor in enumerate(factors):
            op = Operator(HilbertSpace((factor,)), rng.standard_normal((factor.dim, factor.dim))
                          + 1j * rng.standard_normal((factor.dim, factor.dim)))
            chain = np.ones((1, 1), dtype=complex)
            for i, f in enumerate(factors):
                chain = np.kron(chain, op.matrix if i == site else np.eye(f.dim, dtype=complex))
            assert (embed(op, site, space).matrix + 0.0).tobytes() == (chain + 0.0).tobytes()

    def test_dimension_mismatch(self, two_spin_space):
        sp, _, _ = spin_operators(1.0)
        with pytest.raises(DomainError):
            embed(sp, 0, two_spin_space)

    def test_site_out_of_range(self, two_spin_space):
        sp, _, _ = spin_operators(0.5)
        with pytest.raises(DomainError):
            embed(sp, 2, two_spin_space)


class TestPartialTrace:
    def test_product_state_factors(self, two_spin_space, rng):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        product = DensityMatrix(two_spin_space, np.kron(rho_a, rho_b))
        assert np.max(np.abs(partial_trace(product, {0}).matrix - rho_a)) <= 1e-14
        assert np.max(np.abs(partial_trace(product, {1}).matrix - rho_b)) <= 1e-14

    def test_maximally_mixed_reduction(self, two_spin_space):
        rho = DensityMatrix.maximally_mixed(two_spin_space)
        reduced = partial_trace(rho, {1})
        assert np.allclose(reduced.matrix, np.eye(2) / 2)

    def test_bell_state_reduces_to_mixed(self, two_spin_space):
        vec = (basis_vector(two_spin_space, (0, 1)) + basis_vector(two_spin_space, (1, 0))) / np.sqrt(2)
        rho = DensityMatrix.from_pure(two_spin_space, vec)
        reduced = partial_trace(rho, {0})
        assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) <= 1e-12

    def test_keep_all_is_identity(self, rng):
        space = HilbertSpace((spin_factor(0.5), boson_factor(2), spin_factor(0.5)))
        assert partial_trace_identities(rng, samples=1, space=space)["keep_all_deviation"] <= 1e-14

    def test_trace_preserved(self, rng):
        space = HilbertSpace((spin_factor(1.0), spin_factor(0.5), boson_factor(3)))
        keeps = ({0}, {1}, {2}, {0, 2}, {1, 2})
        assert partial_trace_identities(rng, samples=1, space=space, keeps=keeps)["trace_deviation"] <= 1e-12

    def test_empty_keep_rejected(self, two_spin_space, random_state_factory):
        with pytest.raises(DomainError):
            partial_trace(random_state_factory(two_spin_space), set())

    def test_out_of_range_keep_rejected(self, two_spin_space, random_state_factory):
        with pytest.raises(DomainError):
            partial_trace(random_state_factory(two_spin_space), {0, 5})


class TestRandomDraws:
    """The measures draw their random states and operators as one stack each."""

    @staticmethod
    def sequential_gaussian(rng, dim):
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    # the seeds of the validate measures, at the stack sizes they draw (generator forms, the
    # Liouvillian trace, the partial trace) and as a single draw
    @pytest.mark.parametrize("seed", [validation._SEED + i for i in range(6)])
    @pytest.mark.parametrize("count, dim", [(5, 4), (20, 4), (5, 12), (1, 2)])
    def test_stacked_densities_equal_sequential_draws_bit_for_bit(self, seed, count, dim):
        rngs = [np.random.default_rng(seed) for _ in range(3)]
        stacked = validation._random_densities(rngs[0], count, dim)
        one_by_one = np.array([random_density(rngs[1], dim) for _ in range(count)])
        longhand = []
        for _ in range(count):
            g = self.sequential_gaussian(rngs[2], dim)
            rho = g @ g.conj().T
            longhand.append(rho / np.trace(rho))
        assert stacked.tobytes() == one_by_one.tobytes() == np.array(longhand).tobytes()
        # the stacks leave each generator where the sequential draws leave it
        assert len({rng.standard_normal() for rng in rngs}) == 1

    @pytest.mark.parametrize("seed", [validation._SEED, validation._SEED + 2])
    @pytest.mark.parametrize("count, dim", [(10, 3), (5, 4)])
    def test_stacked_gaussians_equal_sequential_draws_bit_for_bit(self, seed, count, dim):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        stacked = validation._gaussians(rng, count, dim)
        assert stacked.tobytes() == np.array([self.sequential_gaussian(ref, dim) for _ in range(count)]).tobytes()


# spin-1/2, spin-1 and boson factors in different orders
MIXED_SPACES = [
    pytest.param(HilbertSpace((spin_factor(0.5), spin_factor(1.0), boson_factor(2))), id="s1b"),
    pytest.param(HilbertSpace((boson_factor(1), spin_factor(0.5), spin_factor(1.0),
                               spin_factor(0.5))), id="bs1s"),
]


def restricted_stack(rng, space, size, count=3):
    """``count`` random states that vanish outside a random support of ``size`` basis states."""
    support = np.sort(rng.choice(space.dim, size, replace=False))
    return StateStack(space, support, [random_density(rng, size) for _ in range(count)])


def einsum_reduction(rho, keep) -> np.ndarray:
    """The reduced matrix of ``rho``: one einsum over its (row digits, column digits) tensor
    that sums the diagonal of every traced-out factor."""
    dims, n = rho.space.dims, len(rho.space.factors)
    kept = sorted(keep)
    columns = [n + i if i in keep else i for i in range(n)]
    reduced = np.einsum(rho.matrix.reshape(dims + dims), list(range(n)) + columns,
                        kept + [n + i for i in kept])
    size = math.prod(dims[i] for i in kept)
    return reduced.reshape(size, size)


class TestPartialTraceStack:
    """The batched reduction on the support against an einsum over each embedded state."""

    @pytest.mark.parametrize("space", MIXED_SPACES)
    def test_matches_partial_trace_of_embedded_states(self, rng, space):
        n = len(space.factors)
        # every keep set: singletons, non-contiguous sets and keep-all among them
        keeps = [set(c) for r in range(1, n + 1) for c in itertools.combinations(range(n), r)]
        for size in (1, 3, space.dim // 2, space.dim):
            states = restricted_stack(rng, space, size)
            for keep in keeps:
                reduced = partial_trace_stack(states, keep)
                assert reduced.space == space.subspace(sorted(keep))
                assert len(reduced) == len(states)
                for mine, state in zip(reduced, states):
                    oracle = einsum_reduction(state, keep)
                    assert np.max(np.abs(mine.matrix - oracle)) <= 1e-15
                    assert np.max(np.abs(partial_trace(state, keep).matrix - oracle)) <= 1e-15

    def test_reduced_support_holds_the_kept_digits(self, rng):
        # |00>, |01> and |11> of two spins keep {0, 1} of the first spin, and {0, 1} of the second
        space = HilbertSpace((spin_factor(0.5), spin_factor(0.5)))
        states = StateStack(space, [0, 1, 3], [random_density(rng, 3)])
        assert partial_trace_stack(states, {0}).support.tolist() == [0, 1]
        assert partial_trace_stack(states, {1}).support.tolist() == [0, 1]
        assert partial_trace_stack(states, {0, 1}).support.tolist() == [0, 1, 3]

    def test_bad_keep_rejected(self, rng, two_spin_space):
        states = restricted_stack(rng, two_spin_space, 2)
        for keep in (set(), {0, 5}, {-1}):
            with pytest.raises(DomainError):
                partial_trace_stack(states, keep)


class TestStateStack:
    def test_sequence_of_embedded_states(self, rng):
        space = HilbertSpace((spin_factor(1.0), boson_factor(2)))
        states = restricted_stack(rng, space, 4, count=5)
        embedded = []
        for block in states.matrices:
            full = np.zeros((space.dim, space.dim), dtype=complex)
            full[np.ix_(states.support, states.support)] = block
            embedded.append(full)
        assert len(states) == 5 and states
        assert [state.matrix.tolist() for state in states] == [m.tolist() for m in embedded]
        for k in (0, 3, -1, -5, np.int64(2)):
            assert states[k].space == space
            assert np.array_equal(states[k].matrix, embedded[k])
        for k in (5, -6):
            with pytest.raises(IndexError):
                states[k]
        with pytest.raises(ValueError):
            states.matrices[0, 0, 0] = 1.0

    def test_shape_must_match_support(self, two_spin_space):
        for support, shape in (([0, 1], (2, 2)), ([0, 1], (1, 2, 3)), ([[0, 1]], (1, 2, 2))):
            with pytest.raises(DomainError):
                StateStack(two_spin_space, support, np.zeros(shape))

    def test_empty_stack_is_false(self, two_spin_space):
        states = StateStack(two_spin_space, [0], np.empty((0, 1, 1)))
        assert not states and len(states or ()) == 0 and list(states) == []

    def test_max_deviation_places_both_on_one_support(self, rng):
        space = HilbertSpace((spin_factor(0.5), spin_factor(1.0)))
        for size_a, size_b in ((2, 5), (6, 6), (1, 3)):
            a = restricted_stack(rng, space, size_a)
            b = restricted_stack(rng, space, size_b)
            expected = max(float(np.max(np.abs(x.matrix - y.matrix))) for x, y in zip(a, b))
            assert a.max_deviation(b) == b.max_deviation(a) == expected
        assert a.max_deviation(a) == 0.0
        nan = StateStack(space, a.support, np.full_like(a.matrices, np.nan))
        assert np.isnan(nan.max_deviation(a))

    def test_max_deviation_rejects_other_space_or_length(self, rng, two_spin_space):
        a = restricted_stack(rng, two_spin_space, 2)
        with pytest.raises(DomainError):
            a.max_deviation(restricted_stack(rng, HilbertSpace((spin_factor(1.5),)), 2))
        with pytest.raises(DomainError):
            a.max_deviation(restricted_stack(rng, two_spin_space, 2, count=2))


class TestExpectation:
    def test_sz_on_up(self):
        space = HilbertSpace((spin_factor(0.5),))
        _, _, sz = spin_operators(0.5)
        rho = DensityMatrix.from_pure(space, basis_vector(space, (0,)))
        assert abs(expectation(sz, rho) - 0.5) <= 1e-14

    def test_identity_gives_trace(self, two_spin_space, random_state_factory):
        rho = random_state_factory(two_spin_space)
        assert abs(expectation(identity(two_spin_space), rho) - 1.0) <= 1e-12

    def test_number_on_vacuum(self):
        space = HilbertSpace((boson_factor(3),))
        a, adag = boson_operators(3)
        rho = DensityMatrix.from_pure(space, basis_vector(space, (0,)))
        assert abs(expectation(adag @ a, rho)) <= 1e-14

    def test_hermitian_expectation_real(self, two_spin_space, random_state_factory, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        herm = Operator(two_spin_space, m + m.conj().T)
        val = expectation(herm, random_state_factory(two_spin_space))
        assert abs(val.imag) <= 1e-10

    def test_space_mismatch(self, two_spin_space):
        space = HilbertSpace((spin_factor(0.5),))
        _, _, sz = spin_operators(0.5)
        with pytest.raises(DomainError):
            expectation(sz, DensityMatrix.maximally_mixed(two_spin_space))


class TestOperatorValueSemantics:
    def test_dagger_involution_on_random(self, rng):
        assert dagger_involution(rng, samples=20)["deviation"] == 0.0

    def test_matrices_frozen(self, two_spin_space):
        op = identity(two_spin_space)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_constructor_copies(self, two_spin_space):
        m = np.eye(4, dtype=complex)
        op = Operator(two_spin_space, m)
        m[0, 0] = 9.0
        assert op.matrix[0, 0] == 1.0

    def test_hermitian_check_tolerance(self, two_spin_space, rng):
        m = rng.standard_normal((4, 4))
        herm = Operator(two_spin_space, m + m.T)
        assert herm.is_hermitian()
        assert not Operator(two_spin_space, m + m.T + 1j * np.eye(4)).is_hermitian()

    def test_tensor_product_concatenates_factors(self):
        sp, _, _ = spin_operators(0.5)
        a, _ = boson_operators(1)
        out = tensor_product(sp, a)
        assert out.space.dims == (2, 2)
        assert np.array_equal(out.matrix, np.kron(sp.matrix, a.matrix))

    def test_non_square_rejected(self, two_spin_space):
        with pytest.raises(DomainError):
            Operator(two_spin_space, np.zeros((4, 3)))

    def test_wrong_dimension_rejected(self, two_spin_space):
        with pytest.raises(DomainError):
            Operator(two_spin_space, np.zeros((3, 3)))


class TestDensityMatrixInvariants:
    def test_validate_accepts_physical(self, two_spin_space, random_state_factory):
        random_state_factory(two_spin_space).validate()

    def test_trace_violation_rejected(self, two_spin_space):
        with pytest.raises(DomainError):
            DensityMatrix(two_spin_space, 2.0 * np.eye(4, dtype=complex) / 4).validate()

    def test_nonhermitian_rejected(self, two_spin_space):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.5
        with pytest.raises(DomainError):
            DensityMatrix(two_spin_space, m).validate()

    def test_negative_eigenvalue_rejected(self, two_spin_space):
        m = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        with pytest.raises(DomainError):
            DensityMatrix(two_spin_space, m).validate()

    @pytest.mark.parametrize("entries", ["one_nan", "all_nan"])
    def test_non_finite_rejected(self, two_spin_space, entries):
        # one NaN passed every "> bound" check; NaN throughout escaped eigvalsh as LinAlgError
        m = np.diag([np.nan, 1.0, 0.0, 0.0]) if entries == "one_nan" else np.full((4, 4), np.nan)
        with pytest.raises(DomainError, match="non-finite entries"):
            DensityMatrix(two_spin_space, m.astype(complex)).validate()


    @staticmethod
    def on_support(matrix, support, dim=8):
        full = np.zeros((dim, dim), dtype=complex)
        full[np.ix_(support, support)] = matrix
        return DensityMatrix(HilbertSpace((spin_factor(0.5),) * 3), full)

    @staticmethod
    def full_space_verdict(rho):
        """validate()'s message for a unit-trace state, eigenvalues taken on the whole space."""
        herm = 0.5 * (rho.matrix + rho.matrix.conj().T)
        lo = float(np.linalg.eigvalsh(herm)[0])
        dev = float(np.max(np.abs(rho.matrix - rho.matrix.conj().T)))
        if dev > 1e-10:
            return f"density matrix hermiticity deviation {dev:.3e} exceeds 1e-10"
        if lo < -1e-8:
            return f"density matrix minimum eigenvalue {lo:.3e} below -1e-08"
        return None

    @pytest.mark.parametrize("case", ["basis_state", "negative_inside", "nonhermitian_block",
                                      "mixed_block", "full_support"])
    def test_partial_support_verdicts_match_full_space(self, rng, case):
        # the lowest eigenvalue is taken on the nonzero block; verdicts and messages are
        # those of a full-space eigvalsh
        if case == "basis_state":
            rho = self.on_support([[1.0]], [5])
        elif case == "negative_inside":
            rho = self.on_support(np.diag([0.7, 0.5, -0.2]), [0, 3, 6])
        elif case == "nonhermitian_block":
            rho = self.on_support([[0.5, 0.3], [0.0, 0.5]], [2, 7])
        elif case == "mixed_block":
            rho = self.on_support(random_density(rng, 4), [1, 2, 4, 7])
        else:
            rho = self.on_support(random_density(rng, 8), range(8))
        expected = self.full_space_verdict(rho)
        if expected is None:
            assert rho.validate() is rho
            full = float(np.linalg.eigvalsh(0.5 * (rho.matrix + rho.matrix.conj().T))[0])
            assert rho.min_eigenvalue() == pytest.approx(full, abs=1e-15)
        else:
            with pytest.raises(DomainError) as err:
                rho.validate()
            assert str(err.value) == expected


    @pytest.mark.parametrize("shape", ["diagonal", "partly_zero_diagonal", "dense", "partly_zero_dense"])
    def test_min_eigenvalue_matches_eigvalsh(self, rng, shape):
        # a diagonal Hermitian part is its own spectrum, returned exactly; others are diagonalised
        space = HilbertSpace((spin_factor(0.5),) * 3)
        for draw in range(20):
            if shape.endswith("diagonal"):
                values = rng.random(8) if draw % 2 else rng.standard_normal(8)
                m = np.diag(values).astype(complex)
            else:
                noise = rng.standard_normal((2, 8, 8))
                m = random_density(rng, 8) + 0.1 * (noise[0] + 1j * noise[1])
            if shape.startswith("partly_zero"):
                zero = rng.choice(8, 3, replace=False)
                m[zero, :] = 0.0
                m[:, zero] = 0.0
            full = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
            if shape.endswith("diagonal"):
                assert DensityMatrix(space, m).min_eigenvalue() == full
            else:
                assert DensityMatrix(space, m).min_eigenvalue() == pytest.approx(full, abs=1e-15)


class TestHilbertSpace:
    def test_dimension_product(self):
        space = HilbertSpace((spin_factor(1.0), boson_factor(4), spin_factor(0.5)))
        assert space.dim == 3 * 5 * 2

    def test_value_semantics_unchanged_after_dim_is_read(self):
        factors = (spin_factor(1.0), boson_factor(4), spin_factor(0.5))
        space, fresh = HilbertSpace(factors), HilbertSpace(factors)
        pickled, hashed = pickle.dumps(space), hash(space)
        assert (space.dim, space.dims) == (30, (3, 5, 2))
        assert space == fresh and hash(space) == hash(fresh) == hashed
        assert pickle.dumps(space) == pickled == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(space))
        assert restored == space and (restored.dim, restored.dims) == (30, (3, 5, 2))
        assert space != HilbertSpace(factors[:2])
        with pytest.raises(dataclasses.FrozenInstanceError):
            space.factors = factors[:2]

    def test_boson_factor_minimum(self):
        with pytest.raises(DomainError):
            boson_factor(0)

    def test_basis_vector_indexing(self):
        space = HilbertSpace((spin_factor(0.5), boson_factor(2)))
        v = basis_vector(space, (1, 2))
        assert v[1 * 3 + 2] == 1.0
        assert np.sum(np.abs(v)) == 1.0

    def test_basis_vector_range_check(self):
        space = HilbertSpace((spin_factor(0.5),))
        with pytest.raises(DomainError):
            basis_vector(space, (2,))

    def test_spin_state_digits(self):
        # an up spin at m = +s (digit 0), every other spin at m = -s (its last digit), bosons empty
        space = HilbertSpace((spin_factor(1.0), boson_factor(2), spin_factor(0.5), spin_factor(1.5)))
        assert np.array_equal(spin_state(space), basis_vector(space, (2, 0, 1, 3)))
        assert np.array_equal(spin_state(space, (0, 3)), basis_vector(space, (0, 0, 1, 0)))
