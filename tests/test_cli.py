import hashlib
import importlib.util
import json
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import chiralspin
import chiralspin.cli as cli_module
import chiralspin.dynamics as dynamics_module
import chiralspin.experiments as experiments_module
from chiralspin import DensityMatrix, DomainError, Trajectory, one_excited_state, spin_state
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
    # an integer beyond the float range is no finite number
    pytest.param(["simulate", "{config}"], ["integrator.t_final=1" + "0" * 400],
                 id="simulate:integrator.t_final=10^400"),
    pytest.param(["simulate", "{config}"], ['integrator.sample_stride="x"'],
                 id="simulate:integrator.sample_stride"),
    pytest.param(["simulate", "{config}"], ["modes=[5]"], id="simulate:modes=[5]"),
    *(pytest.param(["simulate", "{config}"], [f"spin.initial={initial}"], id=f"simulate:initial={initial}")
      for initial in ('["up",1]', '["up","sideways"]', '["up"]', '"sideways"', '{"up":0}')),
    pytest.param(["experiment", "cascade_chain"],
                 ["experiment.parameters.n_sites=2.5", "spin.positions_m=[0,2.5e-7,5e-7]"],
                 id="cascade_chain:n_sites=2.5"),
    pytest.param(["experiment", "couplings"],
                 ['material={"v_plus_m_s": 5e3, "v_minus_m_s": 4e3, "xi_S_hz": 1e9, "xi_I_hz": 1e6}'],
                 id="couplings:material_without_density"),
]

# budget commands whose finite inputs make a strain, coupling or rate beyond the floats
BUDGET_OVERFLOWS = [
    pytest.param(["experiment", "couplings", "--set", 'material={"density_kg_m3": 2650, "v_plus_m_s": 1e300, '
                  '"v_minus_m_s": 5e3, "xi_S_hz": 1e10, "xi_I_hz": 1e6}'], id="couplings:v_plus_m_s=1e300"),
    pytest.param(["couplings", "--drive-u", "1e300"], id="couplings_command:drive_u=1e300"),
    pytest.param(["experiment", "couplings", "--set", "experiment.parameters.drive_u=1e300"],
                 id="couplings:drive_u=1e300"),
    pytest.param(["experiment", "couplings", "--set", 'material={"density_kg_m3": 2650, "v_plus_m_s": 5e3, '
                  '"v_minus_m_s": 4e3, "xi_S_hz": 1e300, "xi_I_hz": 1e6}'], id="couplings:xi_S_hz=1e300"),
]

# (experiment, overrides) with a model or step grid far beyond what the program can hold, or
# with numbers whose products leave the floats: each must exit 2 before anything of that size
# is allocated.
_POSITIONS = [i * 1e-7 for i in range(40)]
OVERSIZED = [
    pytest.param("simulate", [f"spin.positions_m={_POSITIONS}"], id="simulate:40_positions"),
    pytest.param("transfer_asymmetry", ["spin.s=1e12"], id="transfer_asymmetry:spin.s=1e12"),
    pytest.param("elimination_validation", ["experiment.parameters.cutoff=100000000"],
                 id="elimination_validation:cutoff=1e8"),
    pytest.param("cascade_chain", [f"spin.positions_m={_POSITIONS[:13]}",
                                   "experiment.parameters.n_sites=13"], id="cascade_chain:13_sites"),
    pytest.param("simulate", ["integrator.t_final=1e30"], id="simulate:t_final=1e30"),
    pytest.param("elimination_validation", ["experiment.parameters.delta_over_g=[1e12]"],
                 id="elimination_validation:delta_over_g=1e12"),
    # a window of 1e400 overflows to inf, which the integrator config rejects
    pytest.param("elimination_validation", ["experiment.parameters.delta_over_g=[1e200]"],
                 id="elimination_validation:delta_over_g=1e200"),
    pytest.param("elimination_validation", ["experiment.parameters.g_hz=1e-300"],
                 id="elimination_validation:g^2_underflows"),
    pytest.param("elimination_validation", ["experiment.parameters.delta_over_g=[1e300]",
                                            f"experiment.parameters.g_hz={2 ** 62}"],
                 id="elimination_validation:detuning_overflows"),
    pytest.param("simulate", ["integrator.t_final=1e300", "integrator.dt=1e-300"],
                 id="simulate:step_count_overflows"),
    pytest.param("simulate", [f"integrator.t_final={2 ** 63}", f"integrator.sample_stride={2 ** 63}"],
                 id="simulate:steps_beyond_int64"),
    pytest.param("simulate", ["spin.positions_m=[0,1e-300,1e300]"], id="simulate:phase_overflows"),
    pytest.param("simulate", ["integrator.rate_scale_hz=1e-310"], id="simulate:rate_scale_hz=1e-310"),
]


def per_value_csv(traj) -> bytes:
    """The trajectory CSV written one format(x, ".17g") at a time."""
    columns = [np.asarray(traj.times, dtype=float)]
    names = ["t[1/rate_scale]"]
    for name, values in traj.observables.items():
        columns += [np.real(values), np.imag(values)]
        names += [f"Re<{name}>[dimensionless]", f"Im<{name}>[dimensionless]"]
    lines = [",".join(names)] + [",".join(format(float(x), ".17g") for x in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def benchmark_workloads():
    """perfbench/workloads.py, the benchmark's invocation plans."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


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

    def test_inline_defaults_fill_only_absent_keys(self):
        # a run without a config file reads the program's cascade where the user gave no key,
        # and a cascade section set whole is the user's, without the defaults
        def spec(*overrides):
            return RunConfig.load(None, ["experiment.name=transfer_asymmetry", *overrides]).cascade_spec()

        default = spec()
        assert default.gamma == pytest.approx(2 * np.pi) and default.k_z * 2.5e-7 == pytest.approx(0.7)
        one_key = spec("cascade.gamma_hz=2")
        assert one_key.gamma == pytest.approx(4 * np.pi) and one_key.k_z == default.k_z
        whole = spec('cascade={"gamma_hz": 2}')
        assert whole.gamma == pytest.approx(4 * np.pi) and whole.k_z == 0.0
        assert RunConfig.load(None, ["experiment.name=transfer_asymmetry"]).to_dict() == {
            "schema_version": 1, "experiment": {"name": "transfer_asymmetry"}}

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

    @pytest.mark.parametrize("initial", [[], ['spin.initial=["up","up"]']],
                             ids=["amplitude_path", "density_path"])
    def test_sample_stride_beyond_the_run_samples_its_ends(self, tmp_path, initial):
        # any stride of the run's 3000 steps or more samples steps 0 and 3000; 2^63 overflows int64
        path, _ = write_config(tmp_path)
        csvs = []
        for stride in (3000, 2 ** 63):
            out = tmp_path / str(stride)
            assert run(path, [*initial, f"integrator.sample_stride={stride}"], output_dir=out) == 0
            csvs.append((out / "simulation.csv").read_bytes())
        assert csvs[0] == csvs[1] and csvs[0].count(b"\n") == 3

    def test_csv_bytes_match_per_value_format(self, tmp_path, monkeypatch):
        special = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-300, 1 / 3, 2.0 ** 60]
        # eight encoded columns (Re<zero> is part of a separator), each separator one word
        step = cli_module._CSV_PIECE_BYTES // cli_module.g17.row_bytes([b","] * 8)
        n = 2 * step + 3  # the rows are written in three pieces
        rng = np.random.default_rng(11)
        times = np.resize(special, n)
        observables = {"pop_A": np.empty(n, dtype=complex), "x<y>": np.empty(n, dtype=complex)}
        observables["pop_A"].real, observables["pop_A"].imag = times, np.resize(special[::-1], n)
        observables["x<y>"].real = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
        observables["x<y>"].imag = rng.standard_normal(n)
        # all +0.0 (written as the literal "0"), all -0.0, and +0.0 with one -0.0
        observables["zero"] = np.full(n, complex(0.0, -0.0))
        observables["signed"] = np.zeros(n, dtype=complex)
        observables["signed"].real[n - 2] = -0.0
        observables["signed"].imag = rng.standard_normal(n)
        traj = Trajectory(times, observables, None, rate_scale=1.0)
        path = tmp_path / "values.csv"
        join, pieces = cli_module.g17.join, []
        monkeypatch.setattr(cli_module.g17, "join",
                            lambda records, seps: pieces.append(len(seps)) or join(records, seps))
        cli_module._write_trajectory_csv(path, traj)
        assert pieces == [8, 8, 8]

        names = [f"{part}<{label}>[dimensionless]" for label in observables for part in ("Re", "Im")]
        lines = [",".join(["t[1/rate_scale]"] + names)]
        for i in range(n):
            row = [times[i]]
            for series in observables.values():
                row += [series[i].real, series[i].imag]
            lines.append(",".join(format(float(x), ".17g") for x in row))
        written = path.read_bytes()
        assert written == ("\n".join(lines) + "\n").encode("utf-8")
        assert written.count(b"\n") == n + 1 and written.endswith(b"\n")
        assert b"-0," in written and b"inf" in written and b"nan" in written
        zero_re, zero_im, signed_re = zip(*(line.split(",")[5:8] for line in lines[1:]))
        assert set(zero_re) == {"0"} and set(zero_im) == {"-0"}
        assert signed_re[n - 2] == "-0" and set(signed_re[:n - 2] + signed_re[n - 1:]) == {"0"}

    def test_benchmark_csvs_match_per_value_format(self, tmp_path, monkeypatch, capsys):
        # every CSV of every benchmark invocation (seed 1) against a writer that formats
        # one value at a time
        workloads = benchmark_workloads()
        reports = []

        def emit(report, directory, formats=("json", "csv")):
            reports.append((Path(directory), report))
            return emit_report(report, directory, formats)

        monkeypatch.setattr(cli_module, "emit_report", emit)
        for workload in workloads.WORKLOADS:
            for step in workloads.plan(workload, 1, str(tmp_path / workload)):
                assert main(step["argv"]) == 0
        checked = 0
        for directory, report in reports:
            for label, traj in report.trajectories.items():
                path = directory / (cli_module._csv_label(label) + ".csv")
                assert path.read_bytes() == per_value_csv(traj), path
                checked += 1
        assert checked == 3 + 2 + 12  # elimination, chain5, pair_mix

    def test_benchmark_reports_match_the_density_path(self, tmp_path, monkeypatch, capsys,
                                                      stepper_builds):
        # every benchmark invocation (seed 1) with the amplitude path and with it forced off:
        # identical pass flags, metrics within 1e-9 relative; rounding-level metrics such as
        # prefix_supnorm (1e-16 against 1e-13) within 1e-12
        workloads = benchmark_workloads()
        evolutions = []
        for module in (cli_module, experiments_module, validation):
            monkeypatch.setattr(module, "evolve", lambda *args, evolve=module.evolve, **kwargs: (
                evolutions.append(1) or evolve(*args, **kwargs)))
        emit = cli_module.emit_report

        def reports(workload):
            emitted = []
            monkeypatch.setattr(cli_module, "emit_report", lambda report, directory, formats: (
                emitted.append(report), emit(report, directory, formats))[1])
            for item in workloads.plan(workload, 1, str(tmp_path / workload)):
                assert main(item["argv"]) == 0
            return emitted

        def kinds():
            return tuple(sum(kind == name for kind, _ in stepper_builds)
                         for name in ("amplitude", "propagator", "stage"))

        # steppers built per pass (amplitude, propagator, stage), validate's five runs included;
        # every propagator run is on a closed support of 3 states
        traffic = {"elimination": (4, 4, 0), "chain5": (10, 1, 0), "pair_mix": (40, 1, 0)}
        for workload in workloads.WORKLOADS:
            stepper_builds.clear()
            evolutions.clear()
            amplitudes = reports(workload)
            assert kinds() == traffic[workload]
            assert len(stepper_builds) == len(evolutions)  # exactly one stepper per evolution
            assert {size for kind, size in stepper_builds if kind == "propagator"} == {3}
            stepper_builds.clear()
            evolutions.clear()
            with monkeypatch.context() as patch:
                patch.setattr(dynamics_module, "_cascade_amplitudes", lambda gen, rho: None)
                densities = reports(workload)
            assert kinds()[0] == 0 and len(stepper_builds) == len(evolutions)
            assert len(amplitudes) == len(densities) > 0
            for mine, theirs in zip(amplitudes, densities):
                assert mine.pass_flags == theirs.pass_flags and all(mine.pass_flags.values())
                assert mine.metrics.keys() == theirs.metrics.keys()
                for key, value in theirs.metrics.items():
                    assert mine.metrics[key] == pytest.approx(value, rel=1e-9, abs=1e-12), key

    def test_shared_time_grid_encoded_once(self, tmp_path, monkeypatch):
        # a report's trajectories on one time grid encode it once; another grid is encoded anew
        times = np.linspace(0.0, 3.0, 1201)
        grids = {"a": times, "b": times.copy(), "c": 2.0 * times, "d": 2.0 * times}
        report = ExperimentReport("grids", {}, {}, {}, trajectories={
            label: Trajectory(t, {"pop": np.sin(t + k).astype(complex)}, None, rate_scale=1.0)
            for k, (label, t) in enumerate(grids.items())})
        encoded = []
        encode = cli_module.g17.encode
        monkeypatch.setattr(cli_module.g17, "encode",
                            lambda values: encoded.append(values.size) or encode(values))
        emit_report(report, tmp_path)
        assert sum(encoded) == 6 * len(times)  # t twice, pop four times
        for label, traj in report.trajectories.items():
            assert (tmp_path / f"{label}.csv").read_bytes() == per_value_csv(traj)

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

    def test_parser_built_once_and_calls_share_no_lists(self, monkeypatch):
        # the cached parser hands each call its own --set list, which a later call leaves
        # as it was; the parser's defaults stay empty
        seen = []
        monkeypatch.setattr(cli_module, "run", lambda config, overrides, **kwargs: seen.append(
            (config, overrides, kwargs)) or 0)
        assert main(["experiment", "simulate", "--set", "spin.s=1", "--set", "cascade.k_z_d=0.3"]) == 0
        assert main(["experiment", "cascade_chain"]) == 0
        assert main(["simulate", "c.json", "--set", "spin.s=1.5", "--output", "o"]) == 0
        assert seen == [
            (None, ["spin.s=1", "cascade.k_z_d=0.3"], {"experiment_name": "simulate", "output_dir": None}),
            (None, [], {"experiment_name": "cascade_chain", "output_dir": None}),
            ("c.json", ["spin.s=1.5"], {"experiment_name": "simulate", "output_dir": "o"})]
        parser = cli_module._parser()
        assert parser is cli_module._parser()
        subparsers = parser._subparsers._group_actions[0].choices
        for name in ("simulate", "experiment"):
            assert subparsers[name].get_default("overrides") == []

    def test_missing_file_exit_code(self, tmp_path):
        assert run(tmp_path / "nope.json") == 2

    def test_integration_failure_exit_code(self, tmp_path, capsys):
        # absurd step size drives the integrator unstable -> exit 3
        path, _ = write_config(tmp_path, integrator={"t_final": 400.0, "dt": 8.0})
        assert run(path) == 3
        assert "trace_drift" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [[], ['spin.initial=["up","up"]'],
                                           ["spin.s=1", "spin.positions_m=[0,1,2]"]],
                             ids=["amplitude_path", "propagator_path", "stage_path"])
    def test_overflowing_step_is_reported_without_warnings(self, tmp_path, capsys, overrides):
        # a generator of about 1e300 at dt = 1 overflows the step polynomial; the per-step
        # guard reports it, and no RuntimeWarning reaches stderr (warnings are errors here)
        argv = ["experiment", "simulate", "--set", "integrator.dt=1",
                "--set", "integrator.rate_scale_hz=1e-300", "--output", str(tmp_path / "t")]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("ERROR invariant=trace_drift step=1 ")

    def test_io_failure_exit_code(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        path, _ = write_config(tmp_path, output={"directory": str(target), "formats": ["json"]})
        assert run(path) == 4

    def test_manifest_hashes_bytes_as_written(self, tmp_path, monkeypatch):
        # no output file is read back to be hashed; the digests are those of the files on disk
        step = cli_module._CSV_PIECE_BYTES // cli_module.g17.row_bytes([b",", b",0\n"])
        times = np.linspace(0.0, 3.0, 2 * step + 3)  # three CSV pieces
        report = ExperimentReport("hashes", {"p": 1.0}, {"m": 2.0}, {}, trajectories={
            label: Trajectory(times, {"pop": np.cos(times * k).astype(complex)}, None, rate_scale=1.0)
            for k, label in enumerate(("b", "a"))})

        def refuse(path):
            raise AssertionError(f"{path} was read back")

        with monkeypatch.context() as patch:
            patch.setattr(Path, "read_bytes", refuse)
            files = emit_report(report, tmp_path)
        assert [path.name for path in files] == ["b.csv", "a.csv", "report.json", "MANIFEST"]
        expected = [f"sha256:{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"
                    for path in sorted(files[:-1])]
        assert (tmp_path / "MANIFEST").read_text(encoding="utf-8") == "\n".join(expected) + "\n"

    def test_emission_memory_does_not_grow_with_rows(self, tmp_path):
        # the CSV pieces bound what emit_report allocates: four times the rows, the same peak
        step = cli_module._CSV_PIECE_BYTES // cli_module.g17.row_bytes([b",", b",0\n"])
        peaks = []
        for rows in (2 * step + 3, 8 * step + 12):
            times = np.linspace(0.0, 3.0, rows)
            report = ExperimentReport("memory", {}, {}, {}, trajectories={
                "only": Trajectory(times, {"pop": np.cos(times).astype(complex)}, None, rate_scale=1.0)})
            emit_report(report, tmp_path / "warm")  # the encoder's tables are built on first use
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                emit_report(report, tmp_path / "measured")
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        assert peaks[1] == pytest.approx(peaks[0], rel=0.1)

    def test_unknown_output_format_exit_code(self, tmp_path, capsys, monkeypatch):
        evolved = []
        monkeypatch.setattr(cli_module, "evolve", lambda *args: evolved.append(args))
        path, _ = write_config(tmp_path, output={"directory": str(tmp_path / "o"), "formats": ["xml"]})
        assert run(path) == 2
        err = capsys.readouterr().err
        assert "unknown output format" in err
        assert err.startswith("ERROR invariant=config_schema")
        assert not evolved  # rejected with the config, before anything runs

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
            tmp_path, integrator=None, cascade={"gamma_hz": 1.0, "k_z_d": 0.7},
            experiment={"name": "reciprocity_sweep", "parameters": {"ratios": [0.25, 1.0]}})
        assert main(["experiment", "reciprocity_sweep", "--config", str(path)]) == 0
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert data["parameters"]["ratios"] == [0.25, 1.0]
        assert data["metrics"]["asymmetry_at_1"] == pytest.approx(1.0, abs=0.01)
        assert data["metrics"]["asymmetry_at_0.25"] > data["metrics"]["asymmetry_at_1"]

    def test_removed_experiment_name_exits_2(self, tmp_path, capsys):
        # the driven u^2 law lives in the couplings budget alone; its old experiment name is gone
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "decoherence_budget", "--output", str(tmp_path / "t")])
        assert exc.value.code == 2
        assert "invalid choice: 'decoherence_budget'" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_config_naming_removed_experiment_exits_2(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema_version": 1, "experiment": {"name": "decoherence_budget"}}))
        assert run(path, output_dir=str(tmp_path / "t")) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR invariant=config_schema") and "unknown experiment 'decoherence_budget'" in err
        assert not (tmp_path / "t").exists()

    def test_experiment_subcommand_inline(self, tmp_path, capsys):
        code = main(["experiment", "transfer_asymmetry",
                     "--set", "cascade.gamma_hz=1.0",
                     "--set", "cascade.gamma_prime_hz=0.0",
                     "--output", str(tmp_path / "t")])
        assert code == 0
        data = json.loads((tmp_path / "t" / "report.json").read_text())
        assert data["pass_flags"]["peak_backward__le_1e-10"] is True
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"INFO experiment=transfer_asymmetry outputs=4 directory={tmp_path / 't'}"

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

    @pytest.mark.parametrize("name, overrides", OVERSIZED)
    def test_oversized_input_exits_2_without_traceback(self, tmp_path, name, overrides):
        src = Path(chiralspin.__file__).parents[1]
        argv = ["experiment", name]
        for override in overrides:
            argv += ["--set", override]

        def cap_memory():
            # an input that is not refused fails fast here instead of exhausting the host
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

        proc = subprocess.run(
            [sys.executable, "-m", "chiralspin.cli", *argv, "--output", str(tmp_path / "t")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            preexec_fn=cap_memory, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("ERROR invariant=")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("argv", BUDGET_OVERFLOWS)
    def test_budget_beyond_the_floats_exits_2_and_writes_nothing(self, tmp_path, capsys, argv):
        code = main([*argv, "--output", str(tmp_path / "t")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines and all(re.fullmatch(r'(INFO|WARN|ERROR)( \w+=("[^"]*"|\S+))+', line) for line in lines)
        assert not (tmp_path / "t").exists()

    def test_step_budget_exits_2_before_stepping(self, tmp_path, capsys, monkeypatch):
        # 10^9 steps with two samples: the sample grid is small, the step budget refuses the run;
        # every stepper fails here, so a run that is let through never steps
        def stepped(*args, **kwargs):
            raise AssertionError("the run stepped")

        for name in ("_step_amplitudes", "_PropagatorBlocks", "_StageSteps"):
            monkeypatch.setattr(dynamics_module, name, stepped)
        code = main(["experiment", "simulate", "--set", "integrator.t_final=1e6",
                     "--set", "integrator.sample_stride=1000000000000", "--output", str(tmp_path / "t")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR invariant=") and "the budget is 100000000 steps" in err
        assert not (tmp_path / "t").exists()

    def test_record_budget_exits_2_before_stepping(self, tmp_path, capsys, monkeypatch):
        # the auto mode at a 3.592 Hz rate scale takes 22,403,720 steps, within the step budget,
        # but its 3 watches at sample stride 1 would fill a table of over 1 GiB
        def stepped(*args, **kwargs):
            raise AssertionError("the run stepped")

        for name in ("_step_amplitudes", "_PropagatorBlocks", "_StageSteps"):
            monkeypatch.setattr(dynamics_module, name, stepped)
        code = main(["experiment", "simulate", "--set", 'modes="auto"', "--set", "integrator.rate_scale_hz=3.592",
                     "--output", str(tmp_path / "t")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR invariant=") and "22403721 samples" in err
        assert "over the budget of 256 MiB: raise integrator.sample_stride" in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("name, override", [
        ("transfer_asymmetry", 'modes=[{"detuning_hz": 1, "g_hz": 1}]'),
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

    @pytest.mark.parametrize("command, overrides, unread", [
        (["simulate", "{config}"], ["material=alpha-SiO2"], "'material'"),
        (["simulate", "{config}"], ["geometry.l_m=1e-6"], "'geometry'"),
        (["simulate", "{config}"], ["spin.kind=nuclear"], "'kind'"),
        (["simulate", "{config}"], ["spin.frequency_hz=2.1e9"], "'frequency_hz'"),
        (["experiment", "transfer_asymmetry"], ["cascade.direction=backward"], "'direction'"),
        (["experiment", "transfer_asymmetry"], ["spin.initial=tail_excited"], "'initial'"),
        (["experiment", "transfer_asymmetry"], ["spin.kind=nuclear"], "'kind'"),
        (["experiment", "couplings"], ["spin.positions_m=[0, 5e-7]"], "'positions_m'"),
        (["experiment", "couplings"], ["spin.s=1"], "'s'"),
        (["experiment", "cascade_chain"], ["cascade.k_z_d=0.7", "cascade.k_z_rad_m=1e6"], "'k_z_d'"),
        (["experiment", "cascade_chain"], ["cascade.gamma_prime_hz=0.5"],
         "cascade.gamma_prime_hz must be 0"),
        (["experiment", "simulate"], ["cascade.gamma_prime_hz=0.5"],
         "cascade.gamma_prime_hz must be 0"),
        (["simulate", "{config}"], ["cascade.direction=backward", "cascade.gamma_prime_hz=0.5"],
         "cascade.gamma_hz must be 0"),
    ], ids=["simulate-material", "simulate-geometry", "simulate-spin.kind",
            "simulate-spin.frequency_hz", "transfer_asymmetry-cascade.direction",
            "transfer_asymmetry-spin.initial", "transfer_asymmetry-spin.kind",
            "couplings-spin.positions_m", "couplings-spin.s", "cascade_chain-k_z_d-and-k_z_rad_m",
            "cascade_chain-gamma_prime_hz", "simulate-masked-gamma_prime_hz",
            "simulate-masked-gamma_hz"])
    def test_unread_input_rejected(self, tmp_path, capsys, command, overrides, unread):
        # each of these used to run and drop the named input without a word
        path, _ = write_config(tmp_path)
        argv = [str(path) if arg == "{config}" else arg for arg in command]
        for override in overrides:
            argv += ["--set", override]
        assert main([*argv, "--output", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR invariant=config_schema") and unread in err
        assert not (tmp_path / "t").exists() and not (tmp_path / "out").exists()

    def test_readme_config_runs(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("A run configuration looks like:\n\n```json\n", 1)[1].split("```", 1)[0]
        config = json.loads(example)
        assert config["experiment"]["name"] == "simulate"
        path = tmp_path / "example.json"
        path.write_text(example)
        assert main(["simulate", str(path), "--output", str(tmp_path / "t")]) == 0
        assert (tmp_path / "t" / "simulation.csv").exists()

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
            cascade={"gamma_hz": 0.0 if direction == "backward" else 1.0, "gamma_prime_hz": 0.3,
                     "k_z_d": 0.7, "direction": direction})
        assert main(["simulate", str(path)]) == 0
        metrics = json.loads((tmp_path / "out" / "report.json").read_text())["metrics"]
        # the head-excited first site is the tail of the backward channel
        if direction == "backward":
            assert max(metrics["peak_pop_B"], metrics["peak_pop_C"]) <= 1e-10
        else:
            assert metrics["peak_pop_C"] > 1e-3

    def test_simulate_one_site_is_the_lone_decaying_spin(self, tmp_path):
        # the one-site cascade decays through (2 gamma, S^-): e^{-16} at t_final = 8 / gamma
        out = tmp_path / "t"
        assert main(["experiment", "simulate", "--set", "spin.positions_m=[0]",
                     "--set", "cascade.k_z_rad_m=0", "--output", str(out)]) == 0
        metrics = json.loads((out / "report.json").read_text())["metrics"]
        assert metrics["final_pop_A"] == pytest.approx(math.exp(-16.0), rel=1e-10)

    def test_one_site_takes_no_default_phase(self, tmp_path):
        # the program's k_z_d = 0.7 needs a pair; a lone spin runs without any k_z given
        out = tmp_path / "t"
        assert main(["experiment", "simulate", "--set", "spin.positions_m=[0]", "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["final_pop_A"] == pytest.approx(math.exp(-16.0), rel=1e-10)

    def test_one_site_with_user_k_z_d_rejected(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert main(["experiment", "simulate", "--set", "spin.positions_m=[0]",
                     "--set", "cascade.k_z_d=0.7", "--output", str(out)]) == 2
        assert 'detail="k_z_d needs two distinct first spin positions"' in capsys.readouterr().err
        assert not out.exists()

    def test_inline_default_rate_is_not_user_input(self, tmp_path):
        # the program's inline gamma_hz = 1 is not the user's, so a backward run may leave it
        out = tmp_path / "t"
        assert main(["experiment", "simulate", "--set", "cascade.direction=backward",
                     "--set", "cascade.gamma_prime_hz=0.5", "--output", str(out)]) == 0
        parameters = json.loads((out / "report.json").read_text())["parameters"]
        assert parameters["direction"] == "backward"

    def test_backward_run_reads_only_its_channel(self, tmp_path):
        # the dropped inline gamma is neither echoed nor counted in the default rate scale
        out = tmp_path / "t"
        assert main(["experiment", "simulate", "--set", "cascade.direction=backward",
                     "--set", "cascade.gamma_prime_hz=0.5", "--output", str(out)]) == 0
        parameters = json.loads((out / "report.json").read_text())["parameters"]
        assert parameters["gamma_rad_s"] == 0.0
        assert parameters["gamma_prime_rad_s"] == pytest.approx(math.pi)
        assert parameters["integrator"]["rate_scale_rad_s"] == pytest.approx(math.pi)
        # without a backward rate no channel runs: rejected like a config with both rates 0
        assert main(["experiment", "simulate", "--set", "cascade.direction=backward",
                     "--output", str(tmp_path / "u")]) == 2

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

    @pytest.mark.parametrize("s", [0.5, 1.0])
    @pytest.mark.parametrize("overrides, up", [
        (["spin.initial=head_excited"], (0,)),
        (["spin.initial=tail_excited"], (2,)),
        (["spin.initial=all_ground"], ()),
        (['spin.initial=["up","down","up"]'], (0, 2)),
        (['modes=[{"detuning_hz": 50, "g_hz": 1}]', "spin.positions_m=[0, 2.5e-7]"], (0,)),
    ], ids=["head_excited", "tail_excited", "all_ground", "tokens", "modes"])
    def test_simulate_start_state(self, monkeypatch, s, overrides, up):
        # every start puts the named spins at m = +s and the rest at m = -s, modes in vacuum
        class Started(Exception):
            pass

        def start(model, rho0, cfg, watch):
            raise Started(model.space, rho0)

        monkeypatch.setattr(cli_module, "evolve", start)
        config = RunConfig.load(None, ["experiment.name=simulate", f"spin.s={s}",
                                       "spin.positions_m=[0, 2.5e-7, 5e-7]", *overrides])
        with pytest.raises(Started) as caught:
            cli_module._read_simulate(config)()
        space, rho0 = caught.value.args
        expected = (one_excited_state(space, up[0]) if len(up) == 1
                    else DensityMatrix.from_pure(space, spin_state(space, up)))
        assert np.array_equal(rho0.matrix, expected.matrix)

    def test_spin_one_ground_start_is_stationary(self, tmp_path):
        # every spin at m = -s: there is nothing to transfer or to decay
        out = tmp_path / "t"
        assert main(["experiment", "simulate", "--set", "spin.s=1", "--set", "spin.initial=all_ground",
                     "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["trajectory_diagnostics"]["simulation"]["stationary"] == 1.0
        assert set(report["metrics"].values()) == {0.0}

    @pytest.mark.parametrize("name, overrides, invariant", [
        ("transfer_asymmetry", [], "domain"),
        ("reciprocity_sweep", [], "domain"),
        ("simulate", ['modes=[{"detuning_hz": 50, "g_hz": 1}]'], "config_schema"),
    ], ids=["transfer_asymmetry", "reciprocity_sweep", "simulate_modes"])
    def test_pair_run_rejects_three_sites(self, tmp_path, capsys, name, overrides, invariant):
        # the pair-transfer measure and the spin-pair/mode model each take exactly two spins
        argv = ["experiment", name, "--set", "spin.positions_m=[0, 2.5e-7, 5e-7]"]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv + ["--output", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR invariant={invariant} ") and "exactly two" in err
        assert not (tmp_path / "t").exists()

    def test_couplings_defaults_match_explicit_flags(self, capsys):
        # a flag left out takes the value the config accessors default to
        assert main(["couplings"]) == 0
        bare = capsys.readouterr().out
        assert main(["couplings", "--material", "alpha-SiO2", "--l", "1e-6", "--w", "1e-7", "--h", "1e-7",
                     "--delta", "1e4", "--spin", "electron", "--n", "1"]) == 0
        assert capsys.readouterr().out == bare

    def test_chain_experiment_via_config(self, tmp_path):
        path, _ = write_config(
            tmp_path, integrator=None,
            spin={"s": 0.5, "positions_m": [0.0, 2.5e-7, 5.0e-7]},
            cascade={"gamma_hz": 1.0, "gamma_prime_hz": 0.0, "k_z_d": 0.7},
            experiment={"name": "cascade_chain", "parameters": {"n_sites": 3}})
        assert main(["experiment", "cascade_chain", "--config", str(path)]) == 0
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert data["pass_flags"]["reverse_leak_max__le_1e-10"] is True
