"""Dense complex operator algebra over composite spin/boson Hilbert spaces.

Conventions fixed package-wide:

- spin bases are ordered by descending magnetic quantum number (|m=+s> first),
- boson (Fock) bases are ordered by ascending occupation number,
- a composite space enumerates its basis row-major over the factor list, so
  the first factor varies slowest (same ordering as chained ``numpy.kron``),
- a spin is "up" at m = +s (index 0) and "down", its ground state, at m = -s
  (its last index); :func:`spin_state` applies this to every run's start state.

These orderings are global so that emitted matrices are reproducible
bit-for-bit. Everything here is value-semantic: instances are immutable
after construction, every operation is a pure function, and values can be
copied or sent between concurrent workers freely.

Storage is dense only; the spaces in scope stay well below ~10^3 dimensions,
where sparse machinery would cost more than it saves.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod

import numpy as np

from .errors import DomainError

__all__ = [
    "Factor",
    "HilbertSpace",
    "Operator",
    "DensityMatrix",
    "StateStack",
    "spin_factor",
    "boson_factor",
    "spin_operators",
    "boson_operators",
    "identity",
    "zero",
    "embed",
    "tensor_product",
    "commutator",
    "partial_trace",
    "partial_trace_stack",
    "expectation",
    "basis_vector",
    "spin_state",
]


@dataclass(frozen=True)
class Factor:
    """One tensor factor: ``kind`` is ``"spin"`` or ``"boson"``, ``dim`` its dimension."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in ("spin", "boson"):
            raise DomainError(f"unknown factor kind {self.kind!r}")
        if self.kind == "spin" and self.dim < 1:
            raise DomainError(f"spin factor dimension must be >= 1, got {self.dim}")
        if self.kind == "boson" and self.dim < 2:
            raise DomainError(f"boson factor dimension must be >= 2, got {self.dim}")


def spin_factor(s: float) -> Factor:
    """Factor for a spin-``s`` degree of freedom (dimension 2s+1)."""
    return Factor("spin", _spin_dim(s))


def boson_factor(cutoff: int) -> Factor:
    """Factor for a bosonic mode truncated at Fock occupation ``cutoff``."""
    return Factor("boson", _boson_dim(cutoff))


def _spin_dim(s: float) -> int:
    two_s = 2.0 * s
    if abs(two_s - round(two_s)) > 1e-12 or round(two_s) < 0:
        raise DomainError(f"spin quantum number must be a non-negative half-integer, got {s}")
    return int(round(two_s)) + 1


def _boson_dim(cutoff: int) -> int:
    if int(cutoff) != cutoff or cutoff < 1:
        raise DomainError(f"Fock cutoff must be a positive integer, got {cutoff}")
    return int(cutoff) + 1


@dataclass(frozen=True)
class HilbertSpace:
    """An ordered list of spin/boson factors; total dimension is their product.

    ``dim`` and ``dims`` are computed on first read and kept on the instance; they
    are left out of the pickled state, so only ``factors`` is compared, hashed and
    pickled.
    """

    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise DomainError("a Hilbert space needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))

    @cached_property
    def dim(self) -> int:
        return prod(self.dims)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    def __getstate__(self):
        return {"factors": self.factors}

    def __len__(self) -> int:
        return len(self.factors)

    def subspace(self, indices) -> "HilbertSpace":
        return HilbertSpace(tuple(self.factors[i] for i in indices))

    def __repr__(self):  # pragma: no cover - cosmetic
        parts = ",".join(f"{f.kind}{f.dim}" for f in self.factors)
        return f"HilbertSpace[{parts}]"


def _as_matrix(elements, dim: int) -> np.ndarray:
    m = np.array(elements, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"operator elements must form a square matrix, got shape {m.shape}")
    if m.shape[0] != dim:
        raise DomainError(f"matrix dimension {m.shape[0]} does not match space dimension {dim}")
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False, repr=False)
class Operator:
    """A dense complex matrix tagged with the space it acts on.

    Hamiltonian-valued operators carry angular-frequency units (rad/s);
    ladder and jump structure operators are dimensionless.
    """

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.matrix, self.space.dim))

    def dag(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def antihermiticity(self) -> float:
        """max|A - A^dag| relative to max|A|; 0 for the zero operator."""
        scale = float(np.abs(self.matrix).max())
        return float(np.abs(self.matrix - self.matrix.conj().T).max()) / scale if scale else 0.0

    def is_hermitian(self) -> bool:
        return self.antihermiticity() <= 1e-12

    def _check_same_space(self, other: "Operator"):
        if self.space != other.space:
            raise DomainError("operators act on different spaces")

    def __add__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.space, self.matrix - other.matrix)

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.matrix)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Operator":
        return Operator(self.space, self.matrix / complex(scalar))

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.space, self.matrix @ other.matrix)

    def __repr__(self):  # pragma: no cover - cosmetic
        h = "hermitian" if self.is_hermitian() else "non-hermitian"
        return f"Operator(dim={self.space.dim}, {h})"


@dataclass(frozen=True, eq=False, repr=False)
class DensityMatrix:
    """A density matrix over a composite space.

    Construction only checks shape; physical invariants (finite entries, unit
    trace, hermiticity, positivity) are asserted by :meth:`validate`, which
    ``dynamics.evolve`` applies to its start state.
    """

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.matrix, self.space.dim))

    @classmethod
    def from_pure(cls, space: HilbertSpace, vector: np.ndarray) -> "DensityMatrix":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        if v.size != space.dim:
            raise DomainError(f"state vector length {v.size} does not match space dimension {space.dim}")
        return cls(space, np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, space: HilbertSpace) -> "DensityMatrix":
        d = space.dim
        return cls(space, np.eye(d, dtype=complex) / d)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def min_eigenvalue(self) -> float:
        """Lowest eigenvalue of the Hermitian part, diagonalised on its nonzero rows and columns.

        Outside that block the Hermitian part is exactly zero, which adds the eigenvalue 0.
        A diagonal Hermitian part, such as that of a basis state, is its own spectrum: its
        smallest diagonal entry, zeros included, is returned without a diagonalisation.
        """
        herm = 0.5 * (self.matrix + self.matrix.conj().T)
        diagonal = herm.diagonal().real
        if np.count_nonzero(herm) == np.count_nonzero(diagonal):
            return float(diagonal.min())
        inside = np.flatnonzero(np.any(herm != 0, axis=0))
        low = float(np.linalg.eigvalsh(herm[np.ix_(inside, inside)])[0]) if inside.size else 0.0
        return low if inside.size == herm.shape[0] else min(low, 0.0)

    def validate(self) -> "DensityMatrix":
        # first: every check below is written "value > bound", which NaN passes
        if not np.isfinite(self.matrix).all():
            raise DomainError("density matrix has non-finite entries")
        if abs(self.trace() - 1.0) > 1e-9:
            raise DomainError(f"density matrix trace {self.trace():.3e} deviates from 1 beyond 1e-09")
        dev = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        if dev > 1e-10:
            raise DomainError(f"density matrix hermiticity deviation {dev:.3e} exceeds 1e-10")
        lo = self.min_eigenvalue()
        if lo < -1e-8:
            raise DomainError(f"density matrix minimum eigenvalue {lo:.3e} below -1e-08")
        return self

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"DensityMatrix(dim={self.space.dim}, trace={self.trace().real:.6f})"


def spin_operators(s: float) -> tuple[Operator, Operator, Operator]:
    """Raising, lowering and z operators for spin ``s`` in the descending-m basis.

    Satisfies [S_z, S_+-] = +-S_+- and S_+ S_- - S_- S_+ = 2 S_z exactly.
    """
    space = HilbertSpace((Factor("spin", _spin_dim(s)),))
    return tuple(Operator(space, m) for m in _spin_ladders(s))


@lru_cache(maxsize=64)
def _spin_ladders(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only matrices of :func:`spin_operators`, built once per ``s``."""
    dim = _spin_dim(s)
    m = s - np.arange(dim)  # descending: +s, s-1, ..., -s
    sz = np.diag(m.astype(complex))
    sp = np.zeros((dim, dim), dtype=complex)
    for col in range(1, dim):
        mm = m[col]
        sp[col - 1, col] = np.sqrt(s * (s + 1) - mm * (mm + 1))
    ladders = (sp, np.array(sp.conj().T), sz)
    for matrix in ladders:
        matrix.setflags(write=False)
    return ladders


def boson_operators(cutoff: int) -> tuple[Operator, Operator]:
    """Annihilation and creation operators truncated at Fock occupation ``cutoff``.

    a|n> = sqrt(n)|n-1>. The truncated pair does not satisfy [a, a^dag] = 1 on
    the top Fock state; that artifact is inherent to the cutoff and is handled
    downstream by cutoff-doubling convergence checks, not papered over here.
    """
    dim = _boson_dim(cutoff)
    space = HilbertSpace((Factor("boson", dim),))
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(n)
    return (Operator(space, a), Operator(space, a.conj().T))


def identity(space: HilbertSpace) -> Operator:
    return Operator(space, np.eye(space.dim, dtype=complex))


def zero(space: HilbertSpace) -> Operator:
    return Operator(space, np.zeros((space.dim, space.dim), dtype=complex))


def embed(op: Operator, site: int, space: HilbertSpace) -> Operator:
    """Place ``op`` on factor ``site`` of ``space``, identity elsewhere."""
    return Operator(space, _embedded(op.matrix, site, space.dims))


def _embedded(matrix: np.ndarray, site: int, dims: tuple[int, ...]) -> np.ndarray:
    """:func:`embed` on raw arrays: a new array on the space of factor dimensions ``dims``."""
    if not (0 <= site < len(dims)):
        raise DomainError(f"site {site} out of range for {len(dims)} factors")
    if matrix.shape[0] != dims[site]:
        raise DomainError(
            f"operator dimension {matrix.shape[0]} does not match factor {site} dimension {dims[site]}")
    # the (left, d, right) x (left, d, right) block diagonal of I_left (x) matrix (x) I_right
    left, d, right = prod(dims[:site]), dims[site], prod(dims[site + 1:])
    out = np.zeros((left, d, right, left, d, right), dtype=complex)
    np.einsum("iajibj->ijab", out)[...] = matrix  # a writable view of the (i, :, j, i, :, j) blocks
    return out.reshape(left * d * right, left * d * right)


def tensor_product(*ops: Operator) -> Operator:
    """Kronecker product of operators; factor lists concatenate in order."""
    if not ops:
        raise DomainError("tensor_product needs at least one operator")
    factors: tuple[Factor, ...] = ()
    out = np.ones((1, 1), dtype=complex)
    for op in ops:
        factors = factors + op.space.factors
        out = np.kron(out, op.matrix)
    return Operator(HilbertSpace(factors), out)


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


@dataclass(frozen=True, eq=False, repr=False)
class StateStack(Sequence):
    """A sequence of density matrices over ``space`` that vanish outside S x S, stored on S.

    ``support`` holds the sorted basis indices S and ``matrices[k]`` state k restricted
    to S x S. Reading state k embeds it into a full-space :class:`DensityMatrix`; nothing
    of size dim x dim exists until a state is read.
    """

    space: HilbertSpace
    support: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support).view()
        matrices = np.asarray(self.matrices, dtype=complex).view()
        if support.ndim != 1 or matrices.ndim != 3 or matrices.shape[1:] != (support.size,) * 2:
            raise DomainError(f"a stack on {support.size} basis states must have shape "
                              f"(m, {support.size}, {support.size}), got {matrices.shape}")
        for name, value in (("support", support), ("matrices", matrices)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.matrices)

    def __getitem__(self, k) -> DensityMatrix:
        block = self.matrices[operator.index(k)]
        full = np.zeros((self.space.dim, self.space.dim), dtype=complex)
        full[np.ix_(self.support, self.support)] = block
        return DensityMatrix(self.space, full)

    def max_deviation(self, other: "StateStack") -> float:
        """max |rho_k - sigma_k| over every entry of every state pair, on the union of both supports."""
        if self.space != other.space or len(self) != len(other):
            raise DomainError("state stacks differ in space or length")
        both, at = _placement(self.space.dim, np.concatenate((self.support, other.support)))
        placed = np.zeros((2, len(self), both.size, both.size), dtype=complex)
        for out, stack, at in zip(placed, (self, other), np.split(at, [self.support.size])):
            out[:, at[:, None], at] = stack.matrices
        return float(np.max(np.abs(placed[0] - placed[1]), initial=0.0))


def _placement(dim: int, indices: np.ndarray):
    """The sorted distinct values of ``indices`` (each below ``dim``) and the position of each index among them.

    A mask instead of ``np.unique``: its sort kernels, and the ``numpy.ma`` import of
    ``np.union1d``, added about 1 MB to the peak memory of a benchmark process.
    """
    inside = np.zeros(dim, dtype=bool)
    inside[indices] = True
    return np.flatnonzero(inside), (np.cumsum(inside) - 1)[indices]


def _keep_indices(n: int, keep) -> list[int]:
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise DomainError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise DomainError(f"keep indices {keep} out of range for {n} factors")
    return keep


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every factor not listed in ``keep`` (kept factors keep their order).

    The one state as a :func:`partial_trace_stack` on every basis index.
    """
    space = rho.space
    return partial_trace_stack(StateStack(space, np.arange(space.dim), rho.matrix[None]), keep)[0]


def partial_trace_stack(states: StateStack, keep) -> StateStack:
    """Trace out every factor not in ``keep`` from each state of ``states``, read on their support S.

    Entry (a, b) of S x S adds to entry (a', b') of the reduced state, where a' and b'
    keep only the digits of the factors in ``keep``, when a and b agree on every
    traced-out digit. The reduced states are stored on the a' that occur. The terms of
    one entry are added in increasing order of their traced-out digits. Besides the
    input and output stacks it allocates one gather of the input per round and index
    masks of the space's dimension.
    """
    space = states.space
    keep = _keep_indices(len(space.factors), keep)
    sub = space.subspace(keep)
    digits = np.unravel_index(states.support, space.dims)
    kept = np.ravel_multi_index([digits[i] for i in keep], sub.dims)
    traced = np.ravel_multi_index(
        [np.zeros_like(d) if i in keep else d for i, d in enumerate(digits)], space.dims)
    support, position = _placement(sub.dim, kept)
    reduced = np.zeros((len(states), support.size, support.size), dtype=complex)
    # one round per traced-out value, in increasing order: the states of S that share it
    # have distinct kept digits, so a round adds at most one term to each entry
    for value in _placement(space.dim, traced)[0]:
        share = np.flatnonzero(traced == value)
        at = position[share]
        reduced[:, at[:, None], at] += states.matrices[:, share[:, None], share]
    return StateStack(sub, support, reduced)


def expectation(op: Operator, rho: DensityMatrix) -> complex:
    """tr(op . rho); real to ~1e-10 when ``op`` is Hermitian and ``rho`` physical."""
    if op.space != rho.space:
        raise DomainError("operator and state act on different spaces")
    return complex(np.einsum("ij,ji->", op.matrix, rho.matrix))


def basis_vector(space: HilbertSpace, occupations) -> np.ndarray:
    """Computational basis vector from per-factor indices.

    Spin factors index from the highest m downward (0 = |m=+s>); boson factors
    index by occupation number.
    """
    occ = tuple(int(i) for i in occupations)
    if len(occ) != len(space.factors):
        raise DomainError(f"expected {len(space.factors)} occupation indices, got {len(occ)}")
    for i, (f, k) in enumerate(zip(space.factors, occ)):
        if not (0 <= k < f.dim):
            raise DomainError(f"occupation {k} out of range for factor {i} (dim {f.dim})")
    idx = int(np.ravel_multi_index(occ, space.dims))
    v = np.zeros(space.dim, dtype=complex)
    v[idx] = 1.0
    return v


def spin_state(space: HilbertSpace, up=()) -> np.ndarray:
    """Product basis vector with the spin factors in ``up`` at m = +s, every other spin at m = -s.

    Every boson factor is in its vacuum. This is the one rule for which basis digit
    is "up" and which is "down" (the ground state) when a run's start state is made.
    """
    up = set(up)
    return basis_vector(space, [(0 if i in up else f.dim - 1) if f.kind == "spin" else 0
                                for i, f in enumerate(space.factors)])
