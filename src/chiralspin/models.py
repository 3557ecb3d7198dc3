"""Builders for every Hamiltonian and master-equation generator in scope.

Covers the closed two-spin/one-mode model with rotating or counter-rotating
coupling, the directional (cascaded) spin model over N ordered sites, and the
explicit non-Hermitian rewrite of one directional pair channel.

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

import numpy as np

from .core import (
    HilbertSpace,
    Operator,
    boson_factor,
    boson_operators,
    embed,
    spin_factor,
    spin_operators,
    zero,
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
    "build_nonhermitian_hamiltonian",
    "site_number_operators",
    "total_excitation",
]

ROTATING = "rotating"
COUNTER_ROTATING = "counter_rotating"
_DIRECTIONS = ("forward", "backward")


@dataclass(frozen=True)
class ModeSpec:
    """One phonon mode: momentum sign, angular-momentum label, detuning and coupling.

    ``coupling_class`` is derived from the angular-momentum label when omitted:
    the +1 label pairs spin lowering with phonon creation (rotating), the -1
    label pairs spin raising with phonon creation (counter-rotating, strongly
    energy-violating). ``detuning`` is the energy mismatch of the mode's
    phonon-creation process, rad/s.
    """

    momentum_sign: int
    pam: int
    detuning: float
    g: float
    fock_cutoff: int
    coupling_class: str = ""

    def __post_init__(self):
        if self.momentum_sign not in (-1, 1):
            raise DomainError(f"momentum_sign must be +-1, got {self.momentum_sign}")
        if self.pam not in (-1, 1):
            raise DomainError(f"pseudoangular momentum must be +-1, got {self.pam}")
        if self.g < 0:
            raise DomainError(f"coupling must be non-negative, got {self.g}")
        if int(self.fock_cutoff) != self.fock_cutoff or self.fock_cutoff < 1:
            raise DomainError(f"fock_cutoff must be a positive integer, got {self.fock_cutoff}")
        derived = ROTATING if self.pam == 1 else COUNTER_ROTATING
        if self.coupling_class == "":
            object.__setattr__(self, "coupling_class", derived)
        elif self.coupling_class != derived:
            raise DomainError(
                f"coupling_class {self.coupling_class!r} inconsistent with angular-momentum label {self.pam:+d}")


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
    phases so distance sweeps can reuse one spec.
    """

    gamma: float
    gamma_prime: float
    k_z: float
    sites: tuple[SpinSite, ...]

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        if not all(np.isfinite(r) and r >= 0 for r in (self.gamma, self.gamma_prime)):
            raise DomainError(f"rates must be finite and non-negative, got {self.gamma}, {self.gamma_prime}")
        if not np.isfinite(self.k_z):
            raise DomainError(f"k_z must be finite, got {self.k_z}")
        if len(self.sites) < 2:
            raise DomainError("a cascade needs at least two sites")
        positions = [s.position_z for s in self.sites]
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise DomainError(f"site positions must be strictly increasing, got {positions}")


@dataclass(frozen=True)
class Generator:
    """Master-equation generator L(rho) = -i(K rho - rho K^dag) + sum_k r_k z_k rho z_k^dag.

    ``k`` is the effective non-Hermitian Hamiltonian and ``sandwiches`` the
    (rate, z) pairs of the recycling term. A Lindblad model carries its
    -(r/2){z^dag z, rho} terms inside ``k`` (see :meth:`LindbladModel.generator`);
    a non-Hermitian Hamiltonian evolved without jumps has no sandwiches. This
    is the one encoding every evolution and invariant check uses.
    """

    k: np.ndarray
    sandwiches: tuple[tuple[float, np.ndarray], ...] = ()
    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L(rho) on a raw matrix, without integrating."""
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
        k = self.hamiltonian.matrix.astype(complex)
        for rate, op in self.jumps:
            k = k - (0.5j * rate) * (op.matrix.conj().T @ op.matrix)
        return Generator(k / rate_scale,
                         tuple((rate / rate_scale, op.matrix) for rate, op in self.jumps))


def _spin_space(sites) -> HilbertSpace:
    return HilbertSpace(tuple(spin_factor(s.s) for s in sites))


def _site_ops(space: HilbertSpace, sites, index: int):
    sp, sm, sz = spin_operators(sites[index].s)
    return embed(sp, index, space), embed(sm, index, space), embed(sz, index, space)


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
    factors = tuple(spin_factor(s.s) for s in spins) + tuple(boson_factor(m.fock_cutoff) for m in modes)
    space = HilbertSpace(factors)
    delta_ref = modes[0].detuning
    h = zero(space)
    for j in range(len(spins)):
        _, _, sz = _site_ops(space, spins, j)
        h = h + delta_ref * sz
    for m_idx, mode in enumerate(modes):
        a, adag = boson_operators(mode.fock_cutoff)
        a_full = embed(a, len(spins) + m_idx, space)
        adag_full = embed(adag, len(spins) + m_idx, space)
        if mode.coupling_class == ROTATING:
            offset = delta_ref - mode.detuning
        else:
            offset = mode.detuning - delta_ref
        if offset != 0.0:
            h = h + offset * (adag_full @ a_full)
        for j in range(len(spins)):
            sp, sm, _ = _site_ops(space, spins, j)
            if mode.coupling_class == ROTATING:
                h = h + mode.g * (sm @ adag_full + sp @ a_full)
            else:
                h = h + mode.g * (sp @ adag_full + sm @ a_full)
    return LindbladModel(h, (), space)


def _pair_geometry(spec: CascadeSpec):
    if len(spec.sites) != 2:
        raise DomainError(f"the two-site builders take exactly two sites, got {len(spec.sites)}")
    d = spec.sites[1].position_z - spec.sites[0].position_z
    return spec.k_z * d


def _direction_roles(spec: CascadeSpec, direction: str):
    if direction == "forward":
        return spec.gamma, 0, 1
    if direction == "backward":
        return spec.gamma_prime, 1, 0
    raise DomainError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")


def build_cascade_model(spec: CascadeSpec) -> LindbladModel:
    """Forward (rate gamma) plus backward (rate gamma_prime) channel over all sites.

    A channel with rate r runs over the sites in order from its head (the
    first site forward, the last site backward) and contributes
    H = i r sum_{j upstream of l} (e^{-i k |z_l - z_j|} S_j^+ S_l^- - h.c.) and
    the collective jump (2r, sum_j e^{-i k |z_j - z_head|} S_j^-). A zero-rate
    channel is dropped, so gamma_prime = 0 is the forward cascade exactly and
    gamma = 0 the backward one. On two sites with gamma = gamma_prime the
    coherent part is the reciprocal exchange 2 gamma sin(k d)(S_A^+ S_B^- + h.c.).
    """
    sites = spec.sites
    space = _spin_space(sites)
    n = len(sites)
    h = zero(space)
    jumps = []
    for rate, order in ((spec.gamma, range(n)), (spec.gamma_prime, range(n - 1, -1, -1))):
        if rate <= 0:
            continue
        head = sites[order[0]].position_z
        z = zero(space)
        for a, j in enumerate(order):
            sp_j, sm_j, _ = _site_ops(space, sites, j)
            z = z + np.exp(-1j * spec.k_z * abs(sites[j].position_z - head)) * sm_j
            for l in order[a + 1:]:
                _, sm_l, _ = _site_ops(space, sites, l)
                phi = spec.k_z * abs(sites[l].position_z - sites[j].position_z)
                t = (1j * rate * np.exp(-1j * phi)) * (sp_j @ sm_l)
                h = h + t + t.dag()
        jumps.append((2.0 * rate, z))
    return LindbladModel(h, tuple(jumps), space)


def build_nonhermitian_hamiltonian(spec: CascadeSpec, direction: str) -> Operator:
    """Effective non-Hermitian Hamiltonian of the directional channel.

    Forward: -i*gamma (S_A^+ S_A^- + S_B^+ S_B^- + 2 e^{+i k d} S_A^- S_B^+),
    identically equal to H_exchange - i*gamma z^dag z. Note the reversed-order
    exchange term is absent entirely: the upstream site drives the downstream
    one, never the other way around.
    """
    phi = _pair_geometry(spec)
    rate, up, down = _direction_roles(spec, direction)
    space = _spin_space(spec.sites)
    sp_up, sm_up, _ = _site_ops(space, spec.sites, up)
    sp_down, sm_down, _ = _site_ops(space, spec.sites, down)
    n_up = sp_up @ sm_up
    n_down = sp_down @ sm_down
    transfer = (2.0 * np.exp(1j * phi)) * (sm_up @ sp_down)
    return (-1j * rate) * (n_up + n_down + transfer)


def site_number_operators(space: HilbertSpace, sites) -> list[Operator]:
    """Per-site excitation number operators S_j^+ S_j^- embedded in ``space``."""
    ops = []
    for j, site in enumerate(sites):
        sp, sm, _ = spin_operators(site.s)
        ops.append(embed(sp, j, space) @ embed(sm, j, space))
    return ops


def total_excitation(space: HilbertSpace) -> Operator:
    """Sum of S^z over spin factors and number operators over boson factors.

    Commutes with every rotating-class coupling; counter-rotating couplings
    violate it, which is exactly what makes them strongly detuned.
    """
    out = zero(space)
    for i, f in enumerate(space.factors):
        if f.kind == "spin":
            _, _, sz = spin_operators((f.dim - 1) / 2.0)
            out = out + embed(sz, i, space)
        else:
            a, adag = boson_operators(f.dim - 1)
            num = adag @ a
            out = out + embed(num, i, space)
    return out
