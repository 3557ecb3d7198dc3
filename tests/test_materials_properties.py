"""Property test: the two-branch coupling table against the four-row loop it replaced.

``four_row_table`` is a copy of the budget code as it was before each row read its velocity
branch and before the dispersive rule got one helper: every row computed its own mode, strain
and coupling, and the marginal flag was recovered by recording the warning of
``effective_gamma``. Both sides must agree bit for bit.

A driven table follows the u^2 law of an externally pumped wave exactly: doubling the drive
quadruples every rotating rate and counter-rotating bound, bit for bit.
"""

import math
import warnings

from hypothesis import given, settings, strategies as st

from chiralspin import (
    DispersiveLimitWarning,
    MaterialParams,
    ResonatorGeometry,
    builtin_material,
    coupling_g,
    coupling_table,
    detuning_prime,
    effective_gamma,
    resonator_mode,
    zero_point_strain,
)
from chiralspin.materials import TOO_WEAK_G_HZ, CouplingBudget, ModeBudget

# derandomized and without an example database, so a run is repeatable and writes no files
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

_MODE_ORDER = ((+1, +1), (-1, +1), (+1, -1), (-1, -1))
_TERMS = {(+1, +1): "S- a†", (-1, +1): "S+ a", (+1, -1): "S+ a†", (-1, -1): "S- a"}


def four_row_table(params, geom, spin_kind, delta_hz, drive_u=None, n=1) -> CouplingBudget:
    """The coupling table computed row by row, each row from scratch."""
    xi = params.xi(spin_kind)
    volume = geom.volume
    _, omega_plus = resonator_mode(geom, params.velocity(+1, +1), n)
    _, omega_minus = resonator_mode(geom, params.velocity(-1, +1), n)
    spin_frequency_hz = omega_plus / (2.0 * math.pi) + delta_hz
    delta_prime_hz = detuning_prime(delta_hz, omega_plus, omega_minus)
    delta_cr_hz = 2.0 * spin_frequency_hz + delta_hz

    rows = []
    notes = []
    forward_g = forward_g_alt = None
    for momentum_sign, pam in _MODE_ORDER:
        v = params.velocity(momentum_sign, pam)
        k_z, omega = resonator_mode(geom, v, n)
        k_z = momentum_sign * k_z
        driven = drive_u is not None
        u = drive_u if driven else zero_point_strain(omega, params.density, v, volume)
        g = coupling_g(xi, u)
        row_flags = []
        if driven:
            row_flags.append("driven")
            u_alt = g_alt = gamma_alt = None
        else:
            u_alt = u * math.sqrt(2.0 * math.pi)
            g_alt = coupling_g(xi, u_alt)
            gamma_alt = None
        if momentum_sign == +1 and pam == +1:
            forward_g, forward_g_alt = g, g_alt
        elif momentum_sign == -1 and pam == +1:
            g, g_alt = forward_g, forward_g_alt
            row_flags.append("g_prime_equals_g")
        if pam == +1:
            coupling_class = "rotating"
            detuning = delta_hz if momentum_sign == +1 else delta_prime_hz
            if detuning < 0:
                row_flags.append("detuning_negative_spin_above_branch")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                gamma = abs(effective_gamma(g, detuning))
                if g_alt is not None:
                    gamma_alt = abs(effective_gamma(g_alt, detuning))
            if any(issubclass(w.category, DispersiveLimitWarning) for w in caught):
                row_flags.append("dispersive_marginal")
            suppression = None
        else:
            coupling_class = "counter_rotating"
            detuning = delta_cr_hz
            gamma = None
            suppression = 2.0 * g * g / detuning
            row_flags.append("counter_rotating_negligible")
        rows.append(ModeBudget(momentum_sign, pam, coupling_class, _TERMS[(momentum_sign, pam)],
                               v, k_z, omega, u, g, detuning, gamma, suppression, u_alt, g_alt,
                               gamma_alt, tuple(row_flags)))

    forward, backward = rows[0], rows[1]
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
    return CouplingBudget(params.name, spin_kind, geom, n, delta_hz, drive_u, spin_frequency_hz,
                          tuple(rows), gamma_ratio, tuple(budget_flags), tuple(notes))


def decade(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


velocity = st.floats(1e3, 6e3)
inline = st.builds(lambda d, vp, vm, xs, xn, same: MaterialParams("inline", d, vp, vp if same else vm, xs, xn),
                   st.floats(1e3, 1e4), velocity, velocity, decade(8, 11), decade(4, 7), st.booleans())
material = st.sampled_from(["alpha-SiO2", "alpha-HgS", "alpha-TeO2"]).map(builtin_material) | inline
geometry = st.builds(lambda l, fw, fh: ResonatorGeometry(l, l * fw, l * fh),
                     decade(-7, -2), st.floats(0.01, 1.0), st.floats(0.01, 1.0))
# from far below the coupling (marginal rows, and Delta' < 0 where v_minus < v_plus) to GHz
detuning = decade(-3, 10)
drive = st.none() | st.just(0.0) | decade(-10, -3)


@SETTINGS
@given(params=material, geom=geometry, spin_kind=st.sampled_from(["electron", "nuclear"]),
       delta_hz=detuning, drive_u=drive, n=st.integers(1, 3))
def test_two_branch_table_equals_four_row_loop(params, geom, spin_kind, delta_hz, drive_u, n):
    old = four_row_table(params, geom, spin_kind, delta_hz, drive_u, n)
    new = coupling_table(params, geom, spin_kind, delta_hz, drive_u=drive_u, n=n)
    # repr spells every float exactly, the sign of zero included, and every flag in order
    assert repr(new) == repr(old)
    assert new.to_dict() == old.to_dict()


@SETTINGS
@given(params=material, geom=geometry, spin_kind=st.sampled_from(["electron", "nuclear"]),
       delta_hz=detuning, drive_u=decade(-10, -3), n=st.integers(1, 3))
def test_driven_rates_follow_the_u_squared_law(params, geom, spin_kind, delta_hz, drive_u, n):
    once = coupling_table(params, geom, spin_kind, delta_hz, drive_u=drive_u, n=n)
    twice = coupling_table(params, geom, spin_kind, delta_hz, drive_u=2.0 * drive_u, n=n)
    g = params.xi(spin_kind) * drive_u
    for row, doubled in zip(once.rows, twice.rows):
        assert row.u_strain == drive_u and row.g_hz == g and doubled.g_hz == 2.0 * g
        if row.coupling_class == "rotating":
            assert row.gamma_hz == abs(2.0 * g * g / row.detuning_hz)
            assert doubled.gamma_hz == 4.0 * row.gamma_hz
        else:
            assert doubled.suppression_bound_hz == 4.0 * row.suppression_bound_hz
