"""Property test: the two-branch coupling table against the four-row loop it replaced.

``four_row_table`` and ``old_decoherence_metrics`` are copies of the budget code as it was
before each row read its velocity branch and before the dispersive rule got one helper:
every row computed its own mode, strain and coupling, and the marginal flag was recovered
by recording the warning of ``effective_gamma``. Both sides must agree bit for bit.
"""

import itertools
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
    decoherence_budget,
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


def old_decoherence_metrics(gamma0, amplitudes, xi, delta):
    """The metrics and flags of ``decoherence_budget`` from its warning-recording loop."""
    metrics, flags = {}, {}
    for i, u in enumerate(amplitudes):
        g = xi * u
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            gamma = effective_gamma(g, delta)
        metrics[f"g_hz_u{i}"] = g
        metrics[f"gamma_hz_u{i}"] = gamma
        metrics[f"gamma_over_gamma0_u{i}"] = gamma / gamma0 if gamma0 > 0 else math.inf
        if caught:
            metrics[f"dispersive_marginal_u{i}"] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quad = effective_gamma(xi * (2.0 * amplitudes[0]), delta) / effective_gamma(xi * amplitudes[0], delta)
    metrics["quadratic_ratio"] = quad
    flags["quadratic_ratio__exact4"] = quad == 4.0
    crossover = math.sqrt(gamma0 * delta / 2.0) / xi if gamma0 > 0 else 0.0
    metrics["crossover_u"] = crossover
    if gamma0 > 0:
        above = [u for u in amplitudes if 2.0 * (xi * u) ** 2 / delta >= gamma0]
        metrics["crossover_reached"] = 1.0 if above else 0.0
        flags["crossover_reached__at_some_amplitude"] = bool(above) or crossover > max(amplitudes)
    return metrics, flags


def test_decoherence_budget_equals_its_recording_loop():
    # gamma0 = 20 Hz ties the rate of 1e-4 at xi = 1e6 and the default detuning
    sweeps = [(1e-4,), (1e-4, 2e-4), (1e-5, 1e-4, 3.7e-3), (2.2e-6, 9e-5, 1.3e-4, 6e-4)]
    for gamma0, amplitudes, xi, delta_hz in itertools.product(
            (0.0, 0.5, 1.0, 5.0, 20.0, 1e3), sweeps, (1e6, 3e7, 1e10), (None, 50.0, 2000.0, 3.3e6)):
        report = decoherence_budget(gamma0, amplitudes, xi=xi, delta_hz=delta_hz)
        delta = report.parameters["delta_hz"]
        metrics, flags = old_decoherence_metrics(gamma0, amplitudes, xi, delta)
        assert repr(report.metrics) == repr(metrics)
        assert report.pass_flags == flags
