"""Builders for every Hamiltonian and master-equation generator in scope.

Covers the closed two-spin/one-mode model with rotating or counter-rotating
coupling and the directional (cascaded) spin model over N >= 1 ordered sites
(at N = 1 the lone spin decaying through (2 gamma, S^-)). The paper's
non-Hermitian interaction H_nh = H - i gamma z^dag z of a directional channel
is the ``k`` of the model's :class:`Generator`. Every model is dense, on a
space made by :func:`_dense_space`, the one size guard.

Sign and phase conventions:

- detunings are spin frequency minus mode frequency (positive when the spin
  sits above the phonon branch), in rad/s;
- the propagation phase between two sites at distance d along the chain axis
  is k_z * d, and a channel's jump operator weights each site with
  exp(-i k_z d) at distance d from the channel's head;
- the forward channel (rate gamma) has its head at the first site; the
  backward channel (rate gamma_prime) is the same construction with its head
  at the last site.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isfinite

import numpy as np

from .core import (
    HilbertSpace,
    Operator,
    _embedded,
    _spin_ladders,
    boson_factor,
    boson_operators,
    spin_factor,
)
from .errors import DomainError

__all__ = [
    "ModeSpec",
    "SpinSite",
    "CascadeSpec",
    "Generator",
    "LindbladModel",
    "build_full_model",
    "build_cascade_model",
    "site_number_operators",
    "total_excitation",
]

ROTATING = "rotating"
COUNTER_ROTATING = "counter_rotating"


@dataclass(frozen=True)
class ModeSpec:
    """One phonon mode: momentum sign, angular-momentum label, detuning and coupling.

    ``detuning`` is the energy mismatch of the mode's phonon-creation process, rad/s.
    """

    momentum_sign: int
    pam: int
    detuning: float
    g: float
    fock_cutoff: int

    def __post_init__(self):
        if self.momentum_sign not in (-1, 1):
            raise DomainError(f"momentum_sign must be +-1, got {self.momentum_sign}")
        if self.pam not in (-1, 1):
            raise DomainError(f"pseudoangular momentum must be +-1, got {self.pam}")
        if not (isfinite(self.detuning) and isfinite(self.g)):
            raise DomainError(f"detuning and coupling must be finite, got {self.detuning}, {self.g}")
        if self.g < 0:
            raise DomainError(f"coupling must be non-negative, got {self.g}")
        boson_factor(self.fock_cutoff)  # rejects a cutoff that is not a positive integer

    @property
    def coupling_class(self) -> str:
        """The +1 label pairs spin lowering with phonon creation (rotating), the -1 label
        spin raising with phonon creation (counter-rotating, strongly energy-violating)."""
        return ROTATING if self.pam == 1 else COUNTER_ROTATING


@dataclass(frozen=True)
class SpinSite:
    """A localized spin: quantum number, position along the chain axis, label."""

    s: float
    position_z: float
    label: str = ""


@dataclass(frozen=True)
class CascadeSpec:
    """Rates, wavenumber and site list for a directional spin chain.

    ``gamma`` is the forward channel rate and ``gamma_prime`` the backward one,
    both in rad/s; ``k_z`` (rad/m) sets the propagation phases together with
    the absolute site positions. Positions are stored rather than premultiplied
    phases so distance sweeps can reuse one spec. Any non-empty site list is a
    spec; what needs two sites checks that where it uses them.
    """

    gamma: float
    gamma_prime: float
    k_z: float
    sites: tuple[SpinSite, ...]

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        if not all(isfinite(r) and r >= 0 for r in (self.gamma, self.gamma_prime)):
            raise DomainError(f"rates must be finite and non-negative, got {self.gamma}, {self.gamma_prime}")
        if not self.sites:
            raise DomainError("a cascade needs at least one site")
        positions = [s.position_z for s in self.sites]
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise DomainError(f"site positions must be strictly increasing, got {positions}")
        # the largest propagation phase, k_z times the chain's length (NaN for a non-finite k_z)
        if not isfinite(self.k_z * (positions[-1] - positions[0])):
            raise DomainError(f"k_z {self.k_z:.3e} rad/m over sites {positions[0]} to {positions[-1]} m "
                              "leaves a non-finite phase")


@dataclass(frozen=True)
class Generator:
    """Master-equation generator L(rho) = -i(K rho - rho K^dag) + sum_k r_k z_k rho z_k^dag.

    ``k`` is the effective non-Hermitian Hamiltonian and ``sandwiches`` the
    (rate, z) pairs of the recycling term. A Lindblad model carries its
    -(r/2){z^dag z, rho} terms inside ``k`` (see :meth:`LindbladModel.generator`),
    so for a cascade channel of rate gamma and jump (2 gamma, z), ``k`` is the
    paper's H_nh = H - i gamma z^dag z. This is the one encoding every evolution
    and invariant check uses.
    """

    k: np.ndarray
    sandwiches: tuple[tuple[float, np.ndarray], ...]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L(rho) on a raw matrix, or on each matrix of a (..., d, d) stack, without integrating."""
        out = -1j * (self.k @ rho - rho @ self.k.conj().T)
        for rate, z in self.sandwiches:
            out = out + rate * (z @ rho @ z.conj().T)
        return out

    def superoperator(self) -> np.ndarray:
        """Matrix of :meth:`apply` on row-major vectorized density matrices."""
        eye = np.eye(self.k.shape[0], dtype=complex)
        f = -1j * (np.kron(self.k, eye) - np.kron(eye, self.k.conj()))
        for rate, z in self.sandwiches:
            f = f + rate * np.kron(z, z.conj())
        return f


@dataclass(frozen=True)
class LindbladModel:
    """A Hamiltonian plus (rate, jump operator) pairs: the single evolution currency."""

    hamiltonian: Operator
    jumps: tuple[tuple[float, Operator], ...]
    space: HilbertSpace

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple((float(r), op) for r, op in self.jumps))
        if self.hamiltonian.space != self.space:
            raise DomainError("hamiltonian space does not match model space")
        for rate, op in self.jumps:
            if rate < 0:
                raise DomainError(f"jump rates must be non-negative, got {rate}")
            if op.space != self.space:
                raise DomainError("jump operator space does not match model space")
        if not self.hamiltonian.is_hermitian():
            raise DomainError("hamiltonian is not Hermitian")

    def generator(self, rate_scale: float = 1.0) -> Generator:
        """The master equation in units of ``rate_scale``.

        -i(H rho - rho H^dag) + sum_k r_k (z_k rho z_k^dag - (1/2){z_k^dag z_k, rho})
        as K = H - (i/2) sum_k r_k z_k^dag z_k plus the sandwiches r_k z_k rho z_k^dag.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # the step driver rejects inf/nan
            k = self._unscaled_k / rate_scale
        return Generator(k, tuple((rate / rate_scale, op.matrix) for rate, op in self.jumps))

    @cached_property
    def _unscaled_k(self) -> np.ndarray:
        """K at rate scale 1, formed once per model: every generator divides this array."""
        k = self.hamiltonian.matrix.astype(complex)
        for rate, op in self.jumps:
            k = k - (0.5j * rate) * (op.matrix.conj().T @ op.matrix)
        return k


def _dense_space(factors) -> HilbertSpace:
    """The space of ``factors``, refused before anything is allocated above 4096 basis states."""
    space = HilbertSpace(tuple(factors))
    if space.dim > 4096:  # one 4096 x 4096 complex matrix is 256 MB
        raise DomainError(f"model space dimension {space.dim} exceeds the dense limit 4096")
    return space


def _zeros(space: HilbertSpace) -> np.ndarray:
    return np.zeros((space.dim, space.dim), dtype=complex)


def build_full_model(spins, modes) -> LindbladModel:
    """Closed two-spin model coupled to explicit phonon modes, one boson factor each.

    H = Delta_ref (S_A^z + S_B^z) + sum over modes of an offset number term and
    the class-appropriate coupling g (S^- a^dag + S^+ a) or g (S^+ a^dag + S^- a)
    per spin. The offset on each mode's number operator is chosen so its own
    phonon-creation process costs exactly the mode's stated detuning; with a
    single mode the offset vanishes and the spin term alone carries the
    mismatch. Rotating-class couplings conserve the total excitation number.
    """
    spins = tuple(spins)
    modes = tuple(modes)
    if len(spins) != 2:
        raise DomainError(f"the full model takes exactly two spins, got {len(spins)}")
    if not modes:
        raise DomainError("the full model needs at least one mode")
    space = _dense_space(tuple(spin_factor(s.s) for s in spins)
                         + tuple(boson_factor(m.fock_cutoff) for m in modes))
    dims = space.dims
    delta_ref = modes[0].detuning
    h = _zeros(space)
    for j, spin in enumerate(spins):
        h += _embedded(_spin_ladders(spin.s)[2], j, dims) * complex(delta_ref)
    for m_idx, mode in enumerate(modes):
        a, adag = (_embedded(op.matrix, len(spins) + m_idx, dims)
                   for op in boson_operators(mode.fock_cutoff))
        if mode.coupling_class == ROTATING:
            offset = delta_ref - mode.detuning
        else:
            offset = mode.detuning - delta_ref
        if offset != 0.0:
            h += (adag @ a) * complex(offset)
        for j, spin in enumerate(spins):
            sp, sm = (_embedded(m, j, dims) for m in _spin_ladders(spin.s)[:2])
            if mode.coupling_class == ROTATING:
                h += (sm @ adag + sp @ a) * complex(mode.g)
            else:
                h += (sp @ adag + sm @ a) * complex(mode.g)
    return LindbladModel(Operator(space, h), (), space)


def build_cascade_model(spec: CascadeSpec) -> LindbladModel:
    """Forward (rate gamma) plus backward (rate gamma_prime) channel over all sites.

    A channel with rate r runs over the sites in order from its head (the
    first site forward, the last site backward) and contributes
    H = i r sum_{j upstream of l} (e^{-i k |z_l - z_j|} S_j^+ S_l^- - h.c.) and
    the collective jump (2r, sum_j e^{-i k |z_j - z_head|} S_j^-). A zero-rate
    channel is dropped, so gamma_prime = 0 is the forward cascade exactly and
    gamma = 0 the backward one. On two sites with gamma = gamma_prime the
    coherent part is the reciprocal exchange 2 gamma sin(k d)(S_A^+ S_B^- + h.c.).
    On one site H = 0 and each channel is the jump (2r, S^-): the lone
    decaying spin.

    The hopping coefficient e^{-i k |z_l - z_j|} is read from the entries of
    z^dag z itself (the product conj(c_j) c_l of the jump weights), so in
    K = H - i r z^dag z the upstream entries cancel exactly, not only to
    rounding: the effective Hamiltonian never moves an excitation against
    the channel. In the descending-m, row-major basis an entry of S_j^+ S_l^-
    has row - column = stride_l - stride_j, negative exactly when j comes before
    l, so the forward hops are the strict upper triangle of z^dag z
    (``np.triu(zz, 1)``) and the backward hops the strict lower one
    (``np.tril(zz, -1)``). The builder holds one embedded ladder at a time.
    """
    sites = spec.sites
    space = _dense_space(spin_factor(site.s) for site in sites)
    dims, n = space.dims, len(sites)
    h = _zeros(space)
    jumps = []
    upper = np.arange(space.dim)[:, None] < np.arange(space.dim)  # the strict upper triangle
    for rate, order, hops in ((spec.gamma, range(n), upper), (spec.gamma_prime, range(n)[::-1], upper.T)):
        if rate <= 0:
            continue
        head = sites[order[0]].position_z
        z = _zeros(space)
        for j in reversed(order):
            weight = complex(np.exp(-1j * spec.k_z * abs(sites[j].position_z - head)))
            z += _embedded(_spin_ladders(sites[j].s)[1], j, dims) * weight
        zz = z.conj().T @ z  # the same product LindbladModel.generator forms
        t = (1j * rate) * np.where(hops, zz, 0)
        h += t + t.conj().T
        jumps.append((2.0 * rate, Operator(space, z)))
    return LindbladModel(Operator(space, h), tuple(jumps), space)


def site_number_operators(space: HilbertSpace, sites) -> list[Operator]:
    """Per-site quanta above the ground state, m_j + s_j = S_j^z + s_j, embedded in ``space``.

    Site j reads 0 at m = -s and 2s at m = +s, one per quantum in between. At
    s = 1/2 this is S^+ S^- bit for bit; at s > 1/2 S^+ S^- = s(s+1) - m^2 + m is no count.
    """
    ops = []
    for j, site in enumerate(sites):
        sz = _spin_ladders(site.s)[2]
        ops.append(Operator(space, _embedded(sz + site.s * np.eye(sz.shape[0]), j, space.dims)))
    return ops


def total_excitation(space: HilbertSpace) -> Operator:
    """Sum of S^z over spin factors and number operators over boson factors.

    Commutes with every rotating-class coupling; counter-rotating couplings
    violate it, which is exactly what makes them strongly detuned.
    """
    out = _zeros(space)
    for i, f in enumerate(space.factors):
        if f.kind == "spin":
            out += _embedded(_spin_ladders((f.dim - 1) / 2.0)[2], i, space.dims)
        else:
            a, adag = boson_operators(f.dim - 1)
            out += _embedded(adag.matrix @ a.matrix, i, space.dims)
    return Operator(space, out)
