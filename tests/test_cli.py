import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chiralspin
from chiralspin import DomainError
from chiralspin import validation
from chiralspin.cli import RunConfig, emit_report, main, run
from chiralspin.experiments import ExperimentReport, transfer_asymmetry
from chiralspin import CascadeSpec, SpinSite


def write_config(tmp_path, name="cascade.json", **changes):
    config = {
        "schema_version": 1,
        "spin": {"s": 0.5, "positions_m": [0.0, 2.5e-7]},
        "cascade": {"gamma_hz": 1.0, "gamma_prime_hz": 0.0, "k_z_d": 0.7, "direction": "forward"},
        "integrator": {"t_final": 6.0, "dt": 0.002},
        "experiment": {"name": "simulate"},
        "output": {"directory": str(tmp_path / "out"), "formats": ["json", "csv"]},
    }
    for key, value in changes.items():
        if value is None:
            config.pop(key, None)
        else:
            config[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path, config


# (command, overrides) that must exit 2 with a config_schema error naming the key of the
# first override; "{config}" stands for a valid simulate config file. Each command reads
# the section it overrides, so the value itself is what gets rejected.
MALFORMED = [
    *(pytest.param(command, [override], id=override)
      for command, override in ((["experiment", "couplings"], "geometry.l_m=abc"),
                                (["experiment", "transfer_asymmetry"], 'cascade.gamma_hz="x"'),
                                (["experiment", "couplings"], "geometry.w_m=true"),
                                (["simulate", "{config}"], "integrator.dt=NaN"),
                                (["experiment", "transfer_asymmetry"], "cascade.gamma_prime_hz=Infinity"))),
    *(pytest.param(["experiment", "cascade_chain"], [override], id=f"cascade_chain:{override}")
      for override in ("cascade.k_z_d=abc", "cascade.k_z_rad_m=null",
                       'spin.positions_m=[0,"a"]', 'spin.s="x"')),
    pytest.param(["simulate", "{config}"], ['integrator.sample_stride="x"'],
                 id="simulate:integrator.sample_stride"),
    pytest.param(["simulate", "{config}"], ["modes=[5]"], id="simulate:modes=[5]"),
    pytest.param(["experiment", "cascade_chain"],
                 ["experiment.parameters.n_sites=2.5", "spin.positions_m=[0,2.5e-7,5e-7]"],
                 id="cascade_chain:n_sites=2.5"),
    pytest.param(["experiment", "couplings"],
                 ['material={"v_plus_m_s": 5e3, "v_minus_m_s": 4e3, "xi_S_hz": 1e9, "xi_I_hz": 1e6}'],
                 id="couplings:material_without_density"),
]


class TestRunConfig:
    def test_round_trip_identity(self, tmp_path):
        path, original = write_config(tmp_path)
        config = RunConfig.load(path)
        assert config.to_dict() == original
        assert RunConfig.from_dict(config.to_dict()).to_dict() == original

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(DomainError, match="unknown key"):
            RunConfig.from_dict({"schema_version": 1, "experiment": {"name": "simulate"},
                                 "extra": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(DomainError, match="cascade.typo"):
            RunConfig.from_dict({"schema_version": 1, "experiment": {"name": "simulate"},
                                 "cascade": {"typo": 1.0}})

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(DomainError, match="schema_version"):
            RunConfig.from_dict({"schema_version": 99, "experiment": {"name": "simulate"}})

    def test_missing_experiment_rejected(self):
        with pytest.raises(DomainError, match="experiment"):
            RunConfig.from_dict({"schema_version": 1})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(DomainError, match="unknown experiment"):
            RunConfig.from_dict({"schema_version": 1, "experiment": {"name": "frobnicate"}})

    def test_negative_geometry_rejected(self):
        with pytest.raises(DomainError, match="geometry"):
            RunConfig.from_dict({"schema_version": 1, "experiment": {"name": "simulate"},
                                 "geometry": {"l_m": -1.0}})

    def test_overrides_take_precedence(self, tmp_path):
        path, _ = write_config(tmp_path)
        config = RunConfig.load(path).with_overrides(["cascade.gamma_hz=2.5"])
        assert config.to_dict()["cascade"]["gamma_hz"] == 2.5

    def test_override_revalidates(self, tmp_path):
        path, _ = write_config(tmp_path)
        with pytest.raises(DomainError):
            RunConfig.load(path).with_overrides(["cascade.gamma_hz=-1.0"])

    def test_cascade_spec_units(self, tmp_path):
        path, _ = write_config(tmp_path)
        spec = RunConfig.load(path).cascade_spec()
        assert spec.gamma == pytest.approx(2 * np.pi * 1.0)  # Hz -> rad/s at the boundary
        d = spec.sites[1].position_z - spec.sites[0].position_z
        assert spec.k_z * d == pytest.approx(0.7)


class TestRunAndEmit:
    def test_simulate_writes_expected_files(self, tmp_path):
        path, config = write_config(tmp_path)
        assert run(path) == 0
        outdir = tmp_path / "out"
        assert (outdir / "report.json").exists()
        assert (outdir / "simulation.csv").exists()
        assert (outdir / "MANIFEST").exists()
        report = json.loads((outdir / "report.json").read_text())
        assert report["name"] == "simulate"
        assert report["trajectory_refs"] == ["simulation.csv"]

    def test_csv_header_contract(self, tmp_path):
        path, _ = write_config(tmp_path)
        run(path)
        header = (tmp_path / "out" / "simulation.csv").read_text().splitlines()[0]
        cols = header.split(",")
        assert cols[0].startswith("t[")
        assert cols[1].startswith("Re<pop_A>")
        assert cols[2].startswith("Im<pop_A>")
        assert all("[" in c and c.endswith("]") for c in cols)  # every column carries units

    def test_csv_has_one_row_per_sample(self, tmp_path):
        path, config = write_config(tmp_path)
        run(path)
        lines = (tmp_path / "out" / "simulation.csv").read_text().strip().splitlines()
        n_steps = round(config["integrator"]["t_final"] / config["integrator"]["dt"])
        assert len(lines) == n_steps + 2  # header + t=0 + every step

    def test_rerun_is_byte_identical(self, tmp_path):
        path, _ = write_config(tmp_path)
        run(path)
        first = (tmp_path / "out" / "MANIFEST").read_bytes()
        first_report = (tmp_path / "out" / "report.json").read_bytes()
        run(path)
        assert (tmp_path / "out" / "MANIFEST").read_bytes() == first
        assert (tmp_path / "out" / "report.json").read_bytes() == first_report

    def test_manifest_hashes_match_contents(self, tmp_path):
        import hashlib

        path, _ = write_config(tmp_path)
        run(path)
        outdir = tmp_path / "out"
        for line in (outdir / "MANIFEST").read_text().strip().splitlines():
            digest, name = line.split("  ")
            actual = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            assert digest == f"sha256:{actual}"

    def test_schema_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "experiment": {"name": "simulate"},
                                    "bogus": True}))
        assert run(path) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR")
        assert "config_schema" in err

    def test_unparseable_json_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(path) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert run(tmp_path / "nope.json") == 2

    def test_integration_failure_exit_code(self, tmp_path, capsys):
        # absurd step size drives the integrator unstable -> exit 3
        path, _ = write_config(tmp_path, integrator={"t_final": 400.0, "dt": 8.0})
        assert run(path) == 3
        assert "trace_drift" in capsys.readouterr().err

    def test_io_failure_exit_code(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        path, _ = write_config(tmp_path, output={"directory": str(target), "formats": ["json"]})
        assert run(path) == 4

    def test_unknown_output_format_exit_code(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, output={"directory": str(tmp_path / "o"), "formats": ["xml"]})
        assert run(path) == 2
        assert "unknown output format" in capsys.readouterr().err

    def test_infinite_metric_serialized(self, tmp_path):
        report = ExperimentReport("x", {}, {"ratio": float("inf")}, {})
        emit_report(report, tmp_path / "o")
        data = json.loads((tmp_path / "o" / "report.json").read_text())
        assert data["metrics"]["ratio"] == "inf"

    def test_empty_metrics_valid_json(self, tmp_path):
        report = ExperimentReport("empty", {}, {}, {})
        emit_report(report, tmp_path / "o")
        data = json.loads((tmp_path / "o" / "report.json").read_text())
        assert data["metrics"] == {}
        assert data["pass_flags"] == {}

    def test_two_trajectories_two_csvs(self, tmp_path):
        sites = (SpinSite(0.5, 0.0, "A"), SpinSite(0.5, 2.5e-7, "B"))
        spec = CascadeSpec(1.0, 0.0, 0.7 / 2.5e-7, sites)
        report = transfer_asymmetry(spec)
        files = emit_report(report, tmp_path / "o")
        names = sorted(p.name for p in files)
        assert "transfer_forward.csv" in names
        assert "transfer_backward.csv" in names


class TestMainSubcommands:
    def test_couplings_prints_four_rows(self, capsys):
        code = main(["couplings", "--material", "alpha-SiO2", "--l", "1e-6",
                     "--w", "1e-7", "--h", "1e-7", "--delta", "1e4"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("(+1k,+1L)") == 1
        assert out.count("counter_rotating") == 2
        assert "rate ratio" in out

    def test_couplings_emits_report(self, tmp_path, capsys):
        code = main(["couplings", "--delta", "1e4", "--output", str(tmp_path / "b")])
        assert code == 0
        data = json.loads((tmp_path / "b" / "report.json").read_text())
        assert data["name"] == "couplings"
        assert len(data["parameters"]["budget"]["rows"]) == 4

    def test_simulate_subcommand(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert main(["simulate", str(path)]) == 0

    def test_experiment_subcommand_with_config(self, tmp_path):
        path, _ = write_config(
            tmp_path, integrator=None, spin=None, cascade=None,
            experiment={"name": "decoherence_budget",
                        "parameters": {"gamma0_hz": 1.0, "drive_u": [1e-4, 2e-4]}})
        assert main(["experiment", "decoherence_budget", "--config", str(path)]) == 0
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert data["metrics"]["quadratic_ratio"] == 4.0

    def test_experiment_subcommand_inline(self, tmp_path, capsys):
        code = main(["experiment", "transfer_asymmetry",
                     "--set", "cascade.gamma_hz=1.0",
                     "--set", "cascade.gamma_prime_hz=0.0",
                     "--output", str(tmp_path / "t")])
        assert code == 0
        data = json.loads((tmp_path / "t" / "report.json").read_text())
        assert data["pass_flags"]["peak_backward__le_1e-10"] is True
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"INFO experiment=transfer_asymmetry outputs=5 directory={tmp_path / 't'}"

    @pytest.mark.parametrize("command, overrides", MALFORMED)
    def test_malformed_number_exits_2_without_traceback(self, tmp_path, command, overrides):
        src = Path(chiralspin.__file__).parents[1]
        path, _ = write_config(tmp_path)
        argv = [str(path) if arg == "{config}" else arg for arg in command]
        for override in overrides:
            argv += ["--set", override]
        proc = subprocess.run(
            [sys.executable, "-m", "chiralspin.cli", *argv, "--output", str(tmp_path / "t")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("ERROR invariant=config_schema")
        assert overrides[0].split("=")[0] in proc.stderr

    @pytest.mark.parametrize("name, override", [
        ("decoherence_budget", "cascade.gamma_hz=5"),
        ("decoherence_budget", 'modes=[{"detuning_hz": 1, "g_hz": 1}]'),
        ("elimination_validation", "cascade.gamma_hz=5"),
        ("transfer_asymmetry", "geometry.l_m=1e-6"),
        ("cascade_chain", "material=alpha-SiO2"),
        ("couplings", "cascade.gamma_hz=1"),
    ])
    def test_unread_section_rejected(self, tmp_path, capsys, name, override):
        section = override.split("=")[0].split(".")[0]
        code = main(["experiment", name, "--set", override, "--output", str(tmp_path / "t")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR invariant=config_schema") and f"'{section}'" in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("name", ["cascade_chain", "transfer_asymmetry"])
    def test_integrator_section_rejected_for_named_experiment(self, tmp_path, capsys, name):
        # only simulate reads integrator.*; every other experiment fixes its own grid
        code = main(["experiment", name, "--set", "integrator.dt=0.5",
                     "--output", str(tmp_path / "t")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR invariant=config_schema") and "integrator" in err
        assert not (tmp_path / "t").exists()

    def test_command_experiment_applies_before_validation(self, tmp_path):
        # a cascade_chain file with an integrator section is a valid simulate run
        path, _ = write_config(tmp_path, experiment={"name": "cascade_chain"})
        assert main(["simulate", str(path)]) == 0
        assert main(["experiment", "cascade_chain", "--config", str(path)]) == 2

    def test_unknown_experiment_parameter_rejected(self, tmp_path, capsys):
        code = main(["experiment", "cascade_chain", "--set", "experiment.parameters.n_site=3",
                     "--output", str(tmp_path / "t")])
        assert code == 2
        assert "experiment.parameters.n_site" in capsys.readouterr().err

    @pytest.mark.parametrize("name, parameters", [
        ("cascade_chain", {"n_sites": 3}),
        ("reciprocity_sweep", {"ratios": [0.0, 0.5, 1.0]}),
        ("elimination_validation", {"g_hz": 1.0, "delta_over_g": [25.0, 50.0], "cutoff": 2}),
    ], ids=["cascade_chain", "reciprocity_sweep", "elimination_validation"])
    def test_known_experiment_parameters_accepted(self, name, parameters):
        config = RunConfig.from_dict({"schema_version": 1,
                                      "experiment": {"name": name, "parameters": parameters}})
        assert config.experiment_parameters == parameters

    @pytest.mark.parametrize("direction", ["backward", "bidirectional"])
    def test_simulate_any_direction_on_three_sites(self, tmp_path, direction):
        path, _ = write_config(
            tmp_path, spin={"s": 0.5, "positions_m": [0.0, 2.5e-7, 6.0e-7]},
            cascade={"gamma_hz": 1.0, "gamma_prime_hz": 0.3, "k_z_d": 0.7,
                     "direction": direction})
        assert main(["simulate", str(path)]) == 0
        metrics = json.loads((tmp_path / "out" / "report.json").read_text())["metrics"]
        # the head-excited first site is the tail of the backward channel
        if direction == "backward":
            assert max(metrics["peak_pop_B"], metrics["peak_pop_C"]) <= 1e-10
        else:
            assert metrics["peak_pop_C"] > 1e-3

    @pytest.mark.parametrize("measure", [validation.spin_commutators, validation.dagger_involution,
                                         validation.generator_forms_agree])
    def test_measure_propagates_nan(self, measure, monkeypatch):
        # a NaN sample must reach the reported value, never be dropped by the reduction
        monkeypatch.setattr(validation, "_max_abs", lambda m: float("nan"))
        assert all(math.isnan(v) for v in measure().values())

    def test_validate_subcommand(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_validate_reports_failures(self, monkeypatch, capsys):
        def broken():
            raise ValueError("measure broke")

        monkeypatch.setattr(validation, "INVARIANTS", (
            ("within", lambda: {"x": 0.5}, {"x": (None, 1.0)}),
            ("raises", broken, {"x": (None, 1.0)}),
            ("outside", lambda: {"x": 2.0}, {"x": (None, 1.0)}),
            ("nan", lambda: {"x": float("nan")}, {"x": (0.0, 1.0)}),
        ))
        assert main(["validate"]) == 3
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "PASS within: x=5.00e-01 <= 1",
            "FAIL raises: ValueError: measure broke",  # reported, and the suite goes on
            "FAIL outside: x=2.00e+00 <= 1 VIOLATED",
            "FAIL nan: x=nan in [0, 1] VIOLATED",
            "1/4 invariants passed",
        ]
        errors = captured.err.splitlines()
        assert [line.split()[1] for line in errors] == ["invariant=raises", "invariant=outside", "invariant=nan"]
        assert all(line.startswith("ERROR ") for line in errors)

    @pytest.mark.parametrize("modes, section, extra", [
        ([{"detuning_hz": 50.0, "g_hz": 1.0}], "cascade", {}),
        ([{"detuning_hz": 50.0, "g_hz": 1.0}], "geometry",
         {"cascade": None, "geometry": {"l_m": 1e-6, "w_m": 1e-7, "h_m": 1e-7}}),
        ([{"detuning_hz": 50.0, "g_hz": 1.0}], "material", {"cascade": None, "material": "alpha-SiO2"}),
        ("auto", "cascade", {"material": "alpha-SiO2"}),
    ], ids=["explicit-cascade", "explicit-geometry", "explicit-material", "auto-cascade"])
    def test_simulate_modes_rejects_unread_section(self, tmp_path, capsys, modes, section, extra):
        # with modes the cascade section is never read, and explicit modes need no material
        # or geometry; such a config used to run and drop the section from its report
        path, _ = write_config(tmp_path, modes=modes, **extra)
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR invariant=config_schema") and f"'{section}'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("modes, key, extra", [
        ([{"detuning_hz": 50.0, "g_hz": 1.0}], "initial", {"initial": "tail_excited"}),
        ([{"detuning_hz": 50.0, "g_hz": 1.0}], "kind", {"kind": "nuclear"}),
        ([{"detuning_hz": 50.0, "g_hz": 1.0}], "frequency_hz", {"frequency_hz": 5.0}),
        ("auto", "initial", {"initial": "tail_excited", "kind": "electron",
                             "frequency_hz": 2.1e9 + 1e4}),
    ], ids=["explicit-initial", "explicit-kind", "explicit-frequency", "auto-initial"])
    def test_simulate_modes_rejects_unread_spin_key(self, tmp_path, capsys, modes, key, extra):
        # the mode path always starts in |up, down, vacuum> and reads the spin kind and
        # frequency only to derive the auto mode; such a config used to run with peak_pop_A 1
        sections = {"cascade": None}
        if modes == "auto":
            sections.update(material="alpha-SiO2", geometry={"l_m": 1e-6, "w_m": 1e-7, "h_m": 1e-7})
        path, _ = write_config(tmp_path, modes=modes, spin={"s": 0.5, "positions_m": [0.0, 2.5e-7],
                                                            **extra}, **sections)
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR invariant=config_schema") and f"'{key}'" in err
        assert not (tmp_path / "out").exists()

    def test_simulate_explicit_modes(self, tmp_path):
        path, _ = write_config(
            tmp_path, cascade=None,
            modes=[{"momentum_sign": 1, "pam": 1, "detuning_hz": 50.0, "g_hz": 1.0,
                    "fock_cutoff": 2}],
            integrator={"t_final": 30.0, "dt": 0.05})
        assert main(["simulate", str(path)]) == 0
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert data["metrics"]["peak_pop_A"] == pytest.approx(1.0, abs=1e-6)
        # excitation recorded alongside the site populations
        header = (tmp_path / "out" / "simulation.csv").read_text().splitlines()[0]
        assert "total_excitation" in header

    def test_simulate_auto_modes_from_geometry(self, tmp_path):
        path, _ = write_config(
            tmp_path, cascade=None, modes="auto",
            material="alpha-SiO2",
            geometry={"l_m": 1e-6, "w_m": 1e-7, "h_m": 1e-7},
            spin={"kind": "electron", "s": 0.5, "frequency_hz": 2.1e9 + 1e4,
                  "positions_m": [0.0, 2.5e-7]},
            integrator={"t_final": 5.0, "dt": 0.05})
        assert main(["simulate", str(path)]) == 0
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        mode = data["parameters"]["modes"][0]
        assert mode["detuning_hz"] == pytest.approx(1e4, rel=1e-3)
        assert mode["g_hz"] == pytest.approx(385.79, rel=1e-3)

    def test_chain_experiment_via_config(self, tmp_path):
        path, _ = write_config(
            tmp_path, integrator=None,
            spin={"s": 0.5, "positions_m": [0.0, 2.5e-7, 5.0e-7]},
            experiment={"name": "cascade_chain", "parameters": {"n_sites": 3}})
        assert main(["experiment", "cascade_chain", "--config", str(path)]) == 0
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert data["pass_flags"]["reverse_leak_max__le_1e-10"] is True
