import math

import pytest

from chiralspin import (
    CascadeSpec,
    DomainError,
    SpinSite,
    cascade_chain,
    elimination_validation,
    reciprocity_sweep,
    transfer_asymmetry,
)
from chiralspin.experiments import ExperimentReport


def chain_spec(n, gamma=1.0, gamma_prime=0.0, kd=0.6):
    sites = tuple(SpinSite(0.5, j * 2.5e-7, f"s{j}") for j in range(n))
    return CascadeSpec(gamma, gamma_prime, kd / 2.5e-7, sites)


class TestExperimentReport:
    def test_flag_must_reference_metric(self):
        with pytest.raises(DomainError):
            ExperimentReport("x", {}, {"a": 1.0}, {"b__le_1": True}).validate()

    def test_valid_flag_naming(self):
        report = ExperimentReport("x", {}, {"a": 1.0}, {"a__le_1": True}).validate()
        assert all(report.pass_flags.values())


class TestEliminationValidation:
    def test_constant_near_second_order_value(self):
        # small ratios keep the unit test fast; the oracle is the exact
        # one-excitation diagonalization constant 1 - 2 (g/Delta)^2
        report = elimination_validation(1.0, (12.0, 16.0), cutoff=2)
        for ratio in (12.0, 16.0):
            constant = report.metrics[f"exchange_constant_r{ratio:g}"]
            exact = 1.0 - 2.0 / ratio ** 2
            assert abs(constant - exact) <= 2e-2
        assert report.metrics["constant_drift_last_two"] <= 0.1
        assert report.pass_flags["constant_drift_last_two__le_0.1"]

    def test_virtual_phonon_bound(self):
        report = elimination_validation(1.0, (12.0, 16.0), cutoff=2)
        for ratio in (12.0, 16.0):
            assert report.metrics[f"max_phonon_r{ratio:g}"] <= 4.0 / ratio ** 2
            assert report.pass_flags[f"max_phonon_r{ratio:g}__le_dispersive_bound"]

    def test_excitation_conserved(self):
        report = elimination_validation(1.0, (12.0,), cutoff=2)
        assert report.metrics["excitation_drift_r12"] <= 1e-9

    def test_zero_coupling_null_result(self):
        report = elimination_validation(0.0, (12.0, 16.0), cutoff=1)
        assert report.metrics["null_result"] == 1.0
        assert report.pass_flags["null_result__no_oscillation"]

    def test_small_ratio_rejected(self):
        with pytest.raises(DomainError):
            elimination_validation(1.0, (5.0,), cutoff=2)

    def test_deterministic_reports(self):
        a = elimination_validation(1.0, (12.0,), cutoff=2)
        b = elimination_validation(1.0, (12.0,), cutoff=2)
        assert a.metrics == b.metrics
        assert a.pass_flags == b.pass_flags


class TestTransferAsymmetry:
    def test_forward_only(self):
        report = transfer_asymmetry(chain_spec(2, gamma=1.0, gamma_prime=0.0))
        assert report.metrics["peak_backward"] <= 1e-10
        assert report.metrics["peak_forward"] > 0.1
        assert report.metrics["asymmetry_ratio"] == math.inf
        assert report.pass_flags["peak_backward__le_1e-10"]
        assert report.pass_flags["peak_forward__gt_0.1"]

    def test_forward_peak_value(self):
        # analytic oracle: P_B(t) = 4 (gamma t)^2 e^{-2 gamma t}, peak 4 e^{-2}
        report = transfer_asymmetry(chain_spec(2, gamma=1.0, gamma_prime=0.0))
        assert report.metrics["peak_forward"] == pytest.approx(4.0 * math.exp(-2.0), abs=1e-6)

    def test_equal_rates_reciprocal(self):
        report = transfer_asymmetry(chain_spec(2, gamma=1.0, gamma_prime=1.0))
        assert report.metrics["mirror_supnorm"] <= 1e-9
        assert report.pass_flags["mirror_supnorm__le_1e-9"]
        assert report.metrics["asymmetry_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_budget_scale_rates(self):
        # strongly lopsided channels: asymmetry must clear three decades
        report = transfer_asymmetry(chain_spec(2, gamma=200.0, gamma_prime=2e-3))
        assert report.metrics["asymmetry_ratio"] >= 1e3

    def test_spin_one_runs_start_with_the_downstream_spin_down(self):
        # the forward run starts at m = -s downstream
        sites = (SpinSite(1.0, 0.0, "A"), SpinSite(1.0, 2.5e-7, "B"))
        report = transfer_asymmetry(CascadeSpec(1.0, 0.0, 0.7 / 2.5e-7, sites))
        assert report.trajectories["transfer_forward"].observables["pop_B"][0] == 0.0


class TestReciprocitySweep:
    def test_monotone_to_unity(self):
        report = reciprocity_sweep(chain_spec(2), (0.0, 0.25, 0.5, 1.0))
        assert report.metrics["asymmetry_at_0"] == math.inf
        assert report.pass_flags["asymmetry_monotone__nonincreasing"]
        assert 0.99 <= report.metrics["asymmetry_at_1"] <= 1.01
        assert report.pass_flags["asymmetry_at_1__within_1pct"]

    def test_negative_ratio_rejected(self):
        with pytest.raises(DomainError):
            reciprocity_sweep(chain_spec(2), (-0.1, 1.0))

    def test_three_sites_rejected(self):
        # head -> tail and tail -> head span the same distance only for a pair
        with pytest.raises(DomainError, match="exactly two sites"):
            reciprocity_sweep(chain_spec(3), (0.0, 1.0))


class TestCascadeChain:
    @pytest.mark.parametrize("n", [2, 3])
    def test_no_back_action_prefixes(self, n):
        report = cascade_chain(n, chain_spec(n))
        for j in range(1, n):
            assert report.metrics[f"prefix_supnorm_{j}"] <= 1e-8
            assert report.pass_flags[f"prefix_supnorm_{j}__le_1e-8"]

    def test_arrival_ordering_three_sites(self):
        report = cascade_chain(3, chain_spec(3))
        assert report.metrics["arrival_time_spin3"] >= report.metrics["arrival_time_spin2"]
        assert report.pass_flags["arrival_ordered__monotone"]

    def test_tail_excitation_never_leaks_upstream(self):
        report = cascade_chain(3, chain_spec(3))
        assert report.metrics["reverse_leak_max"] <= 1e-10
        assert report.pass_flags["reverse_leak_max__le_1e-10"]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_tail_leak_is_exactly_zero(self, n):
        # the tail-excited run steps on {|e_N>, |G>} only, so nothing ever reaches upstream
        assert cascade_chain(n, chain_spec(n)).metrics["reverse_leak_max"] == 0.0

    def test_four_sites(self):
        report = cascade_chain(4, chain_spec(4))
        assert all(report.pass_flags.values())

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_arrivals_inside_a_window_that_grows_with_the_chain(self, n):
        # the last spin peaks at t = 7.98, 9.84 and 11.71 against windows of 10, 12 and 14
        report = cascade_chain(n, chain_spec(n))
        t_final = report.parameters["integrator"]["t_final"]
        assert t_final == 2.0 * (n - 1)
        assert all(report.pass_flags.values()) and report.pass_flags["arrival_ordered__monotone"]
        for j in range(2, n + 1):
            assert report.metrics[f"arrival_time_spin{j}"] <= t_final - 1.0

    @pytest.mark.parametrize("n", [2, 5])
    def test_short_chains_keep_the_fixed_window(self, n):
        assert cascade_chain(n, chain_spec(n)).parameters["integrator"]["t_final"] == 8.0

    def test_too_many_sites_rejected(self):
        with pytest.raises(DomainError):
            cascade_chain(5, chain_spec(3))

    def test_backward_channel_rejected(self):
        # the chain runs the forward channel only; a backward rate is an error, not dropped
        with pytest.raises(DomainError, match="gamma_prime"):
            cascade_chain(2, chain_spec(2, gamma_prime=0.5))

