import math

import pytest

from chiralspin import (
    DispersiveLimitWarning,
    DomainError,
    MaterialParams,
    ResonatorGeometry,
    ResonanceError,
    builtin_material,
    coupling_g,
    coupling_table,
    detuning_prime,
    effective_gamma,
    resonator_mode,
    zero_point_strain,
)
from chiralspin.materials import builtin_material_names
from chiralspin.validation import budget_identities

MICRON_BEAM = ResonatorGeometry(1e-6, 1e-7, 1e-7)
MM_BEAM = ResonatorGeometry(1e-3, 1e-4, 1e-4)


class TestResonatorMode:
    def test_micron_quartz_fundamental(self):
        # k = pi/l, omega = v k: ~2.1 GHz ordinary frequency for the fast branch
        k, omega = resonator_mode(MICRON_BEAM, 4.2e3, 1)
        assert k == pytest.approx(math.pi * 1e6)
        assert omega == pytest.approx(1.3194689e10, rel=1e-6)
        assert omega / (2 * math.pi) == pytest.approx(2.1e9)

    def test_index_doubles_frequency(self):
        _, w1 = resonator_mode(MICRON_BEAM, 4.2e3, 1)
        _, w2 = resonator_mode(MICRON_BEAM, 4.2e3, 2)
        assert w2 == 2.0 * w1

    def test_millimeter_beam_is_megahertz(self):
        _, omega = resonator_mode(MM_BEAM, 4.2e3, 1)
        assert omega / (2 * math.pi) == pytest.approx(2.1e6)

    def test_bad_index(self):
        with pytest.raises(DomainError):
            resonator_mode(MICRON_BEAM, 4.2e3, 0)


class TestZeroPointStrain:
    def test_vanishes_with_frequency(self):
        assert zero_point_strain(0.0, 2650.0, 4.2e3, 1e-20) == 0.0

    def test_volume_square_root_scaling(self):
        u1 = zero_point_strain(1e10, 2650.0, 4.2e3, 1e-20)
        u4 = zero_point_strain(1e10, 2650.0, 4.2e3, 4e-20)
        assert u1 / u4 == pytest.approx(2.0, rel=1e-12)

    def test_quartz_micron_value(self):
        # frozen arithmetic: sqrt(hbar*omega / (2 rho v^2 V))
        omega = 4.2e3 * math.pi * 1e6
        u = zero_point_strain(omega, 2650.0, 4.2e3, 1e-20)
        assert u == pytest.approx(3.857895297e-08, rel=1e-9)
        assert coupling_g(1e10, u) == pytest.approx(385.7895297, rel=1e-9)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(DomainError):
            zero_point_strain(1e10, -1.0, 4.2e3, 1e-20)

    @pytest.mark.parametrize("velocity, volume", [(1e300, 1e-20), (4.2e3, 1e-310)])
    def test_strain_beyond_the_floats_rejected(self, velocity, volume):
        # v^2 overflows, or the denominator underflows to zero
        with pytest.raises(DomainError, match="leaves the floats"):
            zero_point_strain(1e10, 1e-300, velocity, volume)


class TestCouplingG:
    def test_driven_nuclear_value(self):
        assert coupling_g(1e6, 1e-4) == 100.0

    def test_zero_strain(self):
        assert coupling_g(1e10, 0.0) == 0.0

    def test_electron_scale(self):
        assert coupling_g(1e10, 1e-7) == pytest.approx(1e3)

    def test_negative_strain_rejected(self):
        with pytest.raises(DomainError):
            coupling_g(1e6, -1e-4)


class TestEffectiveGamma:
    def test_reference_point(self):
        assert effective_gamma(1e3, 1e4) == pytest.approx(200.0)

    def test_zero_coupling(self):
        assert effective_gamma(0.0, 1e4) == 0.0

    def test_backward_rate_below_table_bound(self):
        # 2 g^2 / Delta' at the velocity-splitting detuning stays below 1 Hz
        assert effective_gamma(1e3, 1e8) == pytest.approx(0.02)
        assert effective_gamma(1e3, 1e8) < 1.0

    def test_resonance_error(self):
        with pytest.raises(ResonanceError):
            effective_gamma(1e3, 0.0)

    def test_marginal_detuning_warns(self):
        with pytest.warns(DispersiveLimitWarning):
            effective_gamma(1e3, 5e3)

    def test_quadratic_and_inverse_scaling(self, rng):
        # random decades: gamma ~ g^2 and ~ 1/Delta exactly
        for _ in range(20):
            g = 10.0 ** rng.uniform(-3, 6)
            delta = 10.0 ** rng.uniform(2, 11)
            if delta < 10 * g:
                continue
            base = effective_gamma(g, delta)
            assert effective_gamma(2.0 * g, delta) == pytest.approx(4.0 * base, rel=1e-12)
            assert effective_gamma(g, 10.0 * delta) == pytest.approx(base / 10.0, rel=1e-12)


class TestDetuningPrime:
    def test_quartz_micron_splitting(self):
        # velocity splitting alone contributes ~0.4 GHz
        _, wp = resonator_mode(MICRON_BEAM, 4.2e3, 1)
        _, wm = resonator_mode(MICRON_BEAM, 5.0e3, 1)
        dprime = detuning_prime(1e4, wp, wm)
        assert dprime == pytest.approx(4.0001e8, rel=1e-4)
        assert dprime / 1e4 == pytest.approx(4.0001e4, rel=1e-4)

    def test_nonchiral_collapse(self):
        assert detuning_prime(1e4, 5e9, 5e9) == 1e4


class TestBuiltinMaterials:
    def test_names(self):
        assert builtin_material_names() == ("alpha-SiO2", "alpha-HgS", "alpha-TeO2")

    def test_velocity_table(self):
        # the two TA branch velocities per material, 10^3 m/s
        expected = {"alpha-SiO2": (4.2e3, 5.0e3), "alpha-HgS": (1.3e3, 1.6e3),
                    "alpha-TeO2": (2.5e3, 2.4e3)}
        for name, (vp, vm) in expected.items():
            mat = builtin_material(name)
            assert (mat.v_plus, mat.v_minus) == (vp, vm)

    def test_alias_lookup(self):
        assert builtin_material("quartz").name == "alpha-SiO2"
        assert builtin_material("ALPHA-SIO2").name == "alpha-SiO2"

    def test_response_constants(self):
        mat = builtin_material("alpha-SiO2")
        assert mat.xi_S == 1e10
        assert mat.xi_I == 1e6

    def test_time_reversal_velocity_pairing(self):
        mat = builtin_material("alpha-SiO2")
        assert mat.velocity(+1, +1) == mat.velocity(-1, -1) == mat.v_plus
        assert mat.velocity(-1, +1) == mat.velocity(+1, -1) == mat.v_minus

    def test_unknown_material(self):
        with pytest.raises(DomainError):
            builtin_material("unobtainium")


class TestCouplingTable:
    def quartz_budget(self, **kwargs):
        return coupling_table("alpha-SiO2", MICRON_BEAM, "electron", 1e4, **kwargs)

    def test_four_rows_in_table_order(self):
        budget = self.quartz_budget()
        order = [(r.momentum_sign, r.pam) for r in budget.rows]
        assert order == [(1, 1), (-1, 1), (1, -1), (-1, -1)]

    def test_interaction_terms(self):
        budget = self.quartz_budget()
        terms = [r.interaction for r in budget.rows]
        assert terms == ["S- a†", "S+ a", "S+ a†", "S- a"]

    def test_quartz_electron_band(self):
        budget = self.quartz_budget()
        fwd = budget.row(+1, +1)
        assert 100.0 <= fwd.g_hz <= 1e4  # within a factor 10 of ~1 kHz
        assert fwd.gamma_hz == pytest.approx(29.7667, rel=1e-4)
        assert fwd.gamma_hz_hplanck == pytest.approx(2 * math.pi * fwd.gamma_hz, rel=1e-12)
        assert 100.0 <= fwd.gamma_hz_hplanck <= 1000.0  # in the tabulated band

    def test_backward_rate_and_ratio(self):
        measured = budget_identities()
        assert measured["backward_rate_hz"] < 1.0
        assert measured["rate_ratio"] >= 1e3
        assert "nonreciprocal" in self.quartz_budget().flags

    def test_dispersive_identity_exact(self):
        # 2 g^2 / Delta on every rotating row of the quartz micron-beam budget
        assert budget_identities()["dispersive_deviation"] <= 1e-12

    def test_counter_rotating_rows(self):
        budget = self.quartz_budget()
        for sign in (+1, -1):
            row = budget.row(sign, -1)
            assert row.coupling_class == "counter_rotating"
            assert row.gamma_hz is None
            assert row.detuning_hz == pytest.approx(2 * budget.spin_frequency_hz + 1e4)
            assert row.detuning_hz > 1e9  # GHz scale
            assert row.suppression_bound_hz < budget.row(-1, +1).gamma_hz

    def test_g_prime_defaults_to_g(self):
        budget = self.quartz_budget()
        assert budget.row(-1, +1).g_hz == budget.row(+1, +1).g_hz
        assert "g_prime_equals_g" in budget.row(-1, +1).flags

    def test_nonchiral_control_collapses_rates(self):
        q = builtin_material("alpha-SiO2")
        flat = MaterialParams("flat", q.density, q.v_plus, q.v_plus, q.xi_S, q.xi_I)
        budget = coupling_table(flat, MICRON_BEAM, "electron", 1e4)
        assert budget.row(+1, +1).gamma_hz == budget.row(-1, +1).gamma_hz
        assert budget.gamma_ratio == pytest.approx(1.0)

    def test_nuclear_undriven_too_weak(self):
        budget = coupling_table("alpha-SiO2", MM_BEAM, "nuclear", 1e3)
        assert budget.row(+1, +1).g_hz <= 1e-4
        assert "too_weak" in budget.flags

    def test_driven_quadratic_scaling(self):
        b1 = coupling_table("alpha-SiO2", MM_BEAM, "nuclear", 1e3, drive_u=1e-4)
        b2 = coupling_table("alpha-SiO2", MM_BEAM, "nuclear", 1e3, drive_u=2e-4)
        assert b1.row(+1, +1).g_hz == 100.0
        assert b2.row(+1, +1).gamma_hz == 4.0 * b1.row(+1, +1).gamma_hz
        assert b2.row(-1, +1).gamma_hz == 4.0 * b1.row(-1, +1).gamma_hz
        assert "driven" in b1.flags

    def test_driven_has_no_quantum_convention_variant(self):
        budget = coupling_table("alpha-SiO2", MM_BEAM, "nuclear", 1e3, drive_u=1e-4)
        assert budget.row(+1, +1).g_hz_hplanck is None

    def test_teo2_negative_backward_detuning_flagged(self):
        budget = coupling_table("alpha-TeO2", MICRON_BEAM, "electron", 1e4)
        row = budget.row(-1, +1)
        assert row.detuning_hz < 0
        assert "detuning_negative_spin_above_branch" in row.flags
        assert row.gamma_hz > 0  # magnitude reported

    def test_to_dict_round_trip_fields(self):
        d = self.quartz_budget().to_dict()
        assert d["material"] == "alpha-SiO2"
        assert len(d["rows"]) == 4
        assert d["rows"][0]["mode"] == "(+1k,+1L)"
        assert d["rows"][2]["gamma_hz"] is None

    def test_geometry_validation(self):
        with pytest.raises(DomainError):
            ResonatorGeometry(1e-7, 1e-6, 1e-7)  # l not the longest
        with pytest.raises(DomainError):
            ResonatorGeometry(1e-6, -1e-7, 1e-7)

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(DomainError):
            ResonatorGeometry(math.nan, 1e-7, 1e-7)
        with pytest.raises(DomainError):
            ResonatorGeometry(math.inf, 1e-7, 1e-7)
        with pytest.raises(DomainError):
            MaterialParams("x", math.nan, 4.2e3, 5e3, 1e10, 1e6)
        with pytest.raises(DomainError):
            MaterialParams("x", 2650.0, 4.2e3, 5e3, math.inf, 1e6)
        for delta in (math.nan, math.inf):
            with pytest.raises(DomainError):
                coupling_table("alpha-SiO2", MICRON_BEAM, "electron", delta)
        with pytest.raises(DomainError):
            coupling_table("alpha-SiO2", MICRON_BEAM, "electron", 1e4, drive_u=math.nan)
        for n in (math.nan, math.inf):
            with pytest.raises(DomainError):
                coupling_table("alpha-SiO2", MICRON_BEAM, "electron", 1e4, n=n)

    def test_budget_beyond_the_floats_rejected(self):
        # a finite drive whose coupling overflows, and a detuning whose rate ratio overflows
        with pytest.raises(DomainError, match="leaves the floats"):
            self.quartz_budget(drive_u=1e300)
        with pytest.raises(DomainError, match="leaves the floats"):
            coupling_table("alpha-SiO2", MICRON_BEAM, "electron", 1e-300, drive_u=1e-7)

    def test_unknown_spin_kind(self):
        with pytest.raises(DomainError):
            coupling_table("alpha-SiO2", MICRON_BEAM, "muon", 1e4)


class TestDrivenBudget:
    """The u^2 law of an externally pumped wave, read from the nuclear budget of a quartz beam."""

    def driven(self, drive_u, delta_hz=1e3, geom=MM_BEAM):
        return coupling_table("alpha-SiO2", geom, "nuclear", delta_hz, drive_u=drive_u)

    def test_reference_arithmetic(self):
        # g = xi_I * u = 1e6 * 1e-4 = 100 Hz, and 2 g^2 / Delta = 20 Hz at Delta = 10 g
        fwd = self.driven(1e-4).row(+1, +1)
        assert fwd.g_hz == 100.0
        assert fwd.gamma_hz == 20.0
        assert fwd.flags == ("driven",)

    def test_pinned_detuning(self):
        assert self.driven(1e-4, delta_hz=2000.0).row(+1, +1).gamma_hz == 10.0

    def test_crossover_amplitude(self):
        # the drive at which the mediated rate reaches a decoherence floor gamma0
        gamma0, delta = 5.0, 1e3
        u_star = math.sqrt(gamma0 * delta / 2.0) / builtin_material("alpha-SiO2").xi_I
        assert self.driven(u_star, delta).row(+1, +1).gamma_hz == pytest.approx(gamma0, rel=1e-12)

    def test_zero_drive_gives_zero_rates(self):
        budget = self.driven(0.0)
        assert [r.g_hz for r in budget.rows] == [0.0] * 4
        assert [r.gamma_hz for r in budget.rows[:2]] == [0.0, 0.0]
        assert [r.suppression_bound_hz for r in budget.rows[2:]] == [0.0, 0.0]
        assert budget.flags == ("too_weak", "driven")

    def test_drive_replaces_the_vacuum_strain_of_every_branch(self):
        # the pumped strain is the same on both velocity branches and in any beam
        for geom in (MICRON_BEAM, MM_BEAM):
            budget = self.driven(1e-4, geom=geom)
            assert [(r.u_strain, r.g_hz) for r in budget.rows] == [(1e-4, 100.0)] * 4
            assert budget.row(+1, +1).gamma_hz == 20.0

    def test_strong_drive_flags_the_marginal_row(self):
        # g = 1 kHz at Delta = 1 kHz breaks the large-detuning limit on the forward row only
        budget = self.driven(1e-3)
        assert "dispersive_marginal" in budget.row(+1, +1).flags
        assert "dispersive_marginal" not in budget.row(-1, +1).flags

    @pytest.mark.parametrize("drive_u", [-1e-4, math.inf, -math.inf], ids=["negative", "inf", "-inf"])
    def test_invalid_drive_rejected(self, drive_u):
        with pytest.raises(DomainError, match="drive amplitude"):
            self.driven(drive_u)
