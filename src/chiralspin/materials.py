"""Coupling budgets: material constants and resonator geometry to rates.

Unit regime: mode frequencies and wavenumbers are stored in angular units
(rad/s, rad/m); every user-facing rate (g, gamma, detunings) is an ordinary
frequency in Hz. The conversion happens only at the budget boundary, in this
module, so 2*pi factors cannot leak around silently.

The zero-point strain is ambiguous up to one 2*pi depending on whether the
mode quantum is taken as hbar*omega (the physical choice, used for the
primary figures) or h*omega. Budgets record both variants so the ambiguity
stays visible instead of being resolved by fiat; see the ``*_hplanck``
fields.
"""

from __future__ import annotations

import json
import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import cache
from importlib import resources
from math import inf, isfinite, pi, sqrt

from .errors import DispersiveLimitWarning, DomainError, ResonanceError

__all__ = [
    "HBAR",
    "MaterialParams",
    "ResonatorGeometry",
    "ModeBudget",
    "CouplingBudget",
    "builtin_material",
    "builtin_material_names",
    "resonator_mode",
    "zero_point_strain",
    "coupling_g",
    "effective_gamma",
    "detuning_prime",
    "coupling_table",
]

HBAR = 1.054571817e-34  # J*s

# Below this coupling (Hz) a vacuum-mediated channel is flagged as too weak
# to beat realistic decoherence. Heuristic threshold, not a physical constant.
TOO_WEAK_G_HZ = 1e-2

_MODE_ORDER = ((+1, +1), (-1, +1), (+1, -1), (-1, -1))
_TERMS = {(+1, +1): "S- a†", (-1, +1): "S+ a", (+1, -1): "S+ a†", (-1, -1): "S- a"}


@dataclass(frozen=True)
class MaterialParams:
    """Density, the two chiral TA velocities, and strain-response constants.

    ``v_plus`` is shared by the (+k,+L)/(-k,-L) pair and ``v_minus`` by the
    (-k,+L)/(+k,-L) pair; time reversal maps each pair onto itself, which is
    why only two velocities exist.
    """

    name: str
    density: float       # kg/m^3
    v_plus: float        # m/s
    v_minus: float       # m/s
    xi_S: float          # Hz per unit strain (electron)
    xi_I: float          # Hz per unit strain (nuclear)
    provenance: str = ""

    def __post_init__(self):
        if not all(map(isfinite, (self.density, self.v_plus, self.v_minus, self.xi_S, self.xi_I))):
            raise DomainError("material constants must be finite")
        if self.density <= 0 or self.v_plus <= 0 or self.v_minus <= 0:
            raise DomainError("density and velocities must be positive")

    def velocity(self, momentum_sign: int, pam: int) -> float:
        if momentum_sign * pam == 1:
            return self.v_plus
        return self.v_minus

    def xi(self, spin_kind: str) -> float:
        if spin_kind == "electron":
            return self.xi_S
        if spin_kind == "nuclear":
            return self.xi_I
        raise DomainError(f"spin_kind must be 'electron' or 'nuclear', got {spin_kind!r}")


@dataclass(frozen=True)
class ResonatorGeometry:
    """Beam dimensions (m); the long axis l lies along the chiral axis."""

    l: float
    w: float
    h: float

    def __post_init__(self):
        if not all(isfinite(x) and x > 0 for x in (self.l, self.w, self.h)):
            raise DomainError(f"all dimensions must be positive and finite, got {(self.l, self.w, self.h)}")
        if self.l < self.w or self.l < self.h:
            raise DomainError("the beam axis l must be the longest dimension")

    @property
    def volume(self) -> float:
        # Plain l*w*h; no mode-shape participation factor.
        return self.l * self.w * self.h


@cache
def _table() -> dict:
    with resources.files("chiralspin.data").joinpath("materials.json").open("r") as fh:
        return json.load(fh)


def builtin_material_names() -> tuple[str, ...]:
    return tuple(entry["name"] for entry in _table()["materials"])


def builtin_material(name: str) -> MaterialParams:
    """Look up a built-in material by canonical name or alias (case-insensitive)."""
    wanted = name.strip().lower()
    for entry in _table()["materials"]:
        names = [entry["name"].lower()] + [a.lower() for a in entry.get("aliases", ())]
        if wanted in names:
            return MaterialParams(entry["name"], entry["density_kg_m3"],
                                  entry["v_plus_m_s"], entry["v_minus_m_s"],
                                  entry["xi_S_hz"], entry["xi_I_hz"],
                                  entry.get("provenance", ""))
    raise DomainError(f"unknown material {name!r}; built-ins: {', '.join(builtin_material_names())}")


def resonator_mode(geom: ResonatorGeometry, velocity: float, n: int = 1) -> tuple[float, float]:
    """Wavenumber and angular frequency of standing mode ``n``: k = n*pi/l, omega = v*k."""
    if not isfinite(n) or int(n) != n or n < 1:
        raise DomainError(f"mode index must be a positive integer, got {n}")
    if velocity <= 0:
        raise DomainError(f"velocity must be positive, got {velocity}")
    k_z = n * pi / geom.l
    return k_z, velocity * k_z


def zero_point_strain(omega: float, density: float, velocity: float, volume: float) -> float:
    """Vacuum strain amplitude sqrt(hbar*omega / (2 rho v^2 V)); omega in rad/s.

    A strain that leaves the floats raises :class:`DomainError`.
    """
    if omega < 0 or density <= 0 or velocity <= 0 or volume <= 0:
        raise DomainError("zero_point_strain needs omega >= 0 and positive density/velocity/volume")
    try:
        u = sqrt(HBAR * omega / (2.0 * density * velocity ** 2 * volume))
    except (OverflowError, ZeroDivisionError):  # v^2 overflows, or the denominator underflows to zero
        u = inf
    if not isfinite(u):
        raise DomainError(f"the vacuum strain of omega {omega:.3g} rad/s at density {density:.3g} kg/m^3, "
                          f"velocity {velocity:.3g} m/s and volume {volume:.3g} m^3 leaves the floats")
    return u


def coupling_g(xi: float, u: float) -> float:
    """Reduced spin-phonon coupling Xi * u, Hz."""
    if u < 0:
        raise DomainError(f"strain amplitude must be non-negative, got {u}")
    return xi * u


def _dispersive_rate(g: float, delta: float) -> tuple[float, bool]:
    """The rate 2 g^2 / Delta, and whether |Delta| < 10 |g| makes it marginal."""
    if delta == 0:
        raise ResonanceError("effective rate undefined at zero detuning (large-detuning limit violated)")
    return 2.0 * g * g / delta, abs(delta) < 10.0 * abs(g)


def effective_gamma(g: float, delta: float) -> float:
    """Dispersive exchange rate 2 g^2 / Delta, Hz in / Hz out.

    Invalid on resonance; warns when |Delta| < 10 g because the large-detuning
    assumption behind the formula is then marginal.
    """
    gamma, marginal = _dispersive_rate(g, delta)
    if marginal:
        warnings.warn(f"detuning {delta:.3g} Hz is below 10x the coupling {g:.3g} Hz; "
                      "the dispersive rate is marginal here", DispersiveLimitWarning, stacklevel=2)
    return gamma


def detuning_prime(delta: float, omega_plus: float, omega_minus: float) -> float:
    """Detuning of the counter-propagating co-rotating mode, Hz.

    The spin is tuned near the (+k,+L) branch, so the (-k,+L) branch sits a
    velocity splitting away: Delta' = Delta + (omega_minus - omega_plus)/2pi.
    Equal velocities collapse Delta' to Delta (the non-chiral case).
    """
    return delta + (omega_minus - omega_plus) / (2.0 * pi)


@dataclass(frozen=True)
class ModeBudget:
    """Derived quantities for one of the four (momentum, angular momentum) classes."""

    momentum_sign: int
    pam: int
    coupling_class: str
    interaction: str          # spin-phonon term allowed by angular-momentum selection
    velocity: float           # m/s
    k_z: float                # rad/m
    omega: float              # rad/s
    u_strain: float           # dimensionless (zero-point or drive amplitude)
    g_hz: float
    detuning_hz: float        # signed; see flags when negative
    gamma_hz: float | None    # dispersive rate magnitude; None for counter-rotating rows
    suppression_bound_hz: float | None  # order-of-magnitude bound for counter-rotating rows
    u_strain_hplanck: float | None      # h*omega quantum convention variant
    g_hz_hplanck: float | None
    gamma_hz_hplanck: float | None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class CouplingBudget:
    """Machine-readable four-row coupling table for one material/geometry/spin choice."""

    material: str
    spin_kind: str
    geometry: ResonatorGeometry
    mode_index: int
    delta_hz: float
    drive_u: float | None
    spin_frequency_hz: float
    rows: tuple[ModeBudget, ...]
    gamma_ratio: float | None
    flags: tuple[str, ...]
    notes: tuple[str, ...]

    def row(self, momentum_sign: int, pam: int) -> ModeBudget:
        for r in self.rows:
            if r.momentum_sign == momentum_sign and r.pam == pam:
                return r
        raise DomainError(f"no row for ({momentum_sign:+d}k, {pam:+d}L)")

    def to_dict(self) -> dict:
        return {
            "material": self.material,
            "spin_kind": self.spin_kind,
            "geometry_m": {"l": self.geometry.l, "w": self.geometry.w, "h": self.geometry.h},
            "mode_index": self.mode_index,
            "delta_hz": self.delta_hz,
            "drive_u": self.drive_u,
            "spin_frequency_hz": self.spin_frequency_hz,
            "gamma_ratio": self.gamma_ratio,
            "flags": list(self.flags),
            "notes": list(self.notes),
            "rows": [
                {
                    "mode": f"({r.momentum_sign:+d}k,{r.pam:+d}L)",
                    "coupling_class": r.coupling_class,
                    "interaction": r.interaction,
                    "velocity_m_s": r.velocity,
                    "k_z_rad_m": r.k_z,
                    "omega_rad_s": r.omega,
                    "u_strain": r.u_strain,
                    "g_hz": r.g_hz,
                    "detuning_hz": r.detuning_hz,
                    "gamma_hz": r.gamma_hz,
                    "suppression_bound_hz": r.suppression_bound_hz,
                    "u_strain_hplanck": r.u_strain_hplanck,
                    "g_hz_hplanck": r.g_hz_hplanck,
                    "gamma_hz_hplanck": r.gamma_hz_hplanck,
                    "flags": list(r.flags),
                }
                for r in self.rows
            ],
        }


# One velocity branch's mode, strain and coupling; the h-quantum variants are None when driven.
_Branch = namedtuple("_Branch", "velocity k_z omega u g u_alt g_alt")


def coupling_table(material, geom: ResonatorGeometry, spin_kind: str, delta_hz: float,
                   drive_u: float | None = None, n: int = 1) -> CouplingBudget:
    """Budget for the four mode classes of one resonator.

    ``material`` is a built-in name or a :class:`MaterialParams`. ``delta_hz``
    is the detuning of the spin from the (+k,+L) branch. A ``drive_u`` strain
    amplitude replaces the vacuum zero-point strain (externally pumped wave);
    rates then scale exactly as drive_u^2 and the 2*pi quantum-convention
    variants do not apply.

    The four rows ride on two branches: (+k,+L) and (-k,-L) propagate at
    v_plus, (-k,+L) and (+k,-L) at v_minus (:meth:`MaterialParams.velocity`).
    Each branch's mode, strain and coupling are computed once, and each row
    reads its branch by momentum_sign * pam. The backward (-k,+L) row takes
    the forward coupling (the two are comparable; their own zero-point
    strains differ by under ~10%) and records its own vacuum strain in
    ``u_strain``. A non-finite input, or a budget whose numbers would leave
    the floats, raises :class:`DomainError`.
    """
    params = builtin_material(material) if isinstance(material, str) else material
    xi = params.xi(spin_kind)
    if not (isfinite(delta_hz) and delta_hz > 0):
        raise DomainError(f"the (+k,+L) detuning must be positive and finite, got {delta_hz}")
    driven = drive_u is not None
    if driven and not (isfinite(drive_u) and drive_u >= 0):
        raise DomainError(f"drive amplitude must be finite and non-negative, got {drive_u}")

    branches = {}
    for sign in (+1, -1):
        v = params.velocity(sign, +1)
        k_z, omega = resonator_mode(geom, v, n)
        u = drive_u if driven else zero_point_strain(omega, params.density, v, geom.volume)
        u_alt = None if driven else u * sqrt(2.0 * pi)
        branches[sign] = _Branch(v, k_z, omega, u, coupling_g(xi, u), u_alt,
                                 None if driven else coupling_g(xi, u_alt))
    fast = branches[+1]
    spin_frequency_hz = fast.omega / (2.0 * pi) + delta_hz
    delta_prime_hz = detuning_prime(delta_hz, fast.omega, branches[-1].omega)
    delta_cr_hz = 2.0 * spin_frequency_hz + delta_hz

    rows = []
    notes = []
    for momentum_sign, pam in _MODE_ORDER:
        branch = branches[momentum_sign * pam]
        g, g_alt, gamma_alt = branch.g, branch.g_alt, None
        row_flags = ["driven"] if driven else []
        if pam == +1:
            coupling_class = "rotating"
            detuning = delta_hz
            if momentum_sign == -1:
                # the backward coupling is the forward one; u_strain keeps the
                # row's own zero-point value for reference
                g, g_alt = fast.g, fast.g_alt
                row_flags.append("g_prime_equals_g")
                detuning = delta_prime_hz
            if detuning == 0:
                raise ResonanceError("rotating-mode detuning is exactly zero; dispersive budget invalid")
            if detuning < 0:
                row_flags.append("detuning_negative_spin_above_branch")
            gamma, marginal = _dispersive_rate(g, detuning)
            gamma = abs(gamma)
            if g_alt is not None:
                gamma_alt, marginal_alt = _dispersive_rate(g_alt, detuning)
                gamma_alt, marginal = abs(gamma_alt), marginal or marginal_alt
            if marginal:
                row_flags.append("dispersive_marginal")
            suppression = None
        else:
            coupling_class = "counter_rotating"
            detuning = delta_cr_hz
            gamma = None
            # 2 g^2 / Delta at the mismatch as an order-of-magnitude bound only:
            # no dispersive exchange exists for an energy-violating process
            suppression, _ = _dispersive_rate(g, detuning)
            row_flags.append("counter_rotating_negligible")
        rows.append(ModeBudget(momentum_sign, pam, coupling_class,
                               _TERMS[(momentum_sign, pam)], branch.velocity,
                               momentum_sign * branch.k_z, branch.omega, branch.u, g,
                               detuning, gamma, suppression, branch.u_alt, g_alt, gamma_alt,
                               tuple(row_flags)))

    forward = rows[0]
    backward = rows[1]
    budget_flags = []
    gamma_ratio = None
    if backward.gamma_hz and backward.gamma_hz > 0:
        gamma_ratio = forward.gamma_hz / backward.gamma_hz
        if gamma_ratio >= 1e3:
            budget_flags.append("nonreciprocal")
    if forward.g_hz < TOO_WEAK_G_HZ:
        budget_flags.append("too_weak")
        notes.append(f"coupling {forward.g_hz:.3g} Hz is below {TOO_WEAK_G_HZ:g} Hz and "
                     "likely too weak to produce observable effects without driving")
    if drive_u is not None:
        budget_flags.append("driven")
        notes.append("driven amplitude supplied; rates scale as drive_u^2 and the "
                     "collective decay grows with them")
    notes.append("u_strain uses the hbar*omega mode quantum; *_hplanck fields record the "
                 "h*omega variant (one factor 2*pi larger in energy)")
    # finite inputs whose products leave the floats are refused, never reported as inf or nan
    numbers = (spin_frequency_hz, gamma_ratio, *(x for r in rows for x in (
        r.omega, r.g_hz, r.detuning_hz, r.gamma_hz, r.suppression_bound_hz, r.g_hz_hplanck, r.gamma_hz_hplanck)))
    if not all(isfinite(x) for x in numbers if x is not None):
        raise DomainError(f"the budget of {params.name} at delta_hz {delta_hz:.3g}, drive_u {drive_u} "
                          f"and mode {n} of a {geom.l:.3g} m beam leaves the floats")
    return CouplingBudget(params.name, spin_kind, geom, n, delta_hz, drive_u,
                          spin_frequency_hz, tuple(rows), gamma_ratio,
                          tuple(budget_flags), tuple(notes))
