"""Config ingestion, experiment orchestration, and machine-readable output.

This is the only component that performs I/O. Configs and reports are JSON,
trajectories are CSV with units in every column header, and each output
directory gets a MANIFEST of content hashes so identical configs can be
checked for byte-identical reruns. Exit codes: 0 success, 2 validation
error, 3 integration/fit failure, 4 I/O failure; diagnostics go to stderr
as ``LEVEL key=value`` lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from copy import deepcopy
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import DensityMatrix, basis_vector
from .dynamics import IntegratorConfig, evolve
from .errors import DomainError, FitError, IntegrationError
from .experiments import (
    ExperimentReport,
    cascade_chain,
    decoherence_budget,
    elimination_validation,
    reciprocity_sweep,
    transfer_asymmetry,
)
from .materials import (
    MaterialParams,
    ResonatorGeometry,
    builtin_material,
    coupling_table,
    resonator_mode,
)
from .models import (
    CascadeSpec,
    ModeSpec,
    SpinSite,
    build_cascade_model,
    build_full_model,
    site_number_operators,
    total_excitation,
)

__all__ = ["RunConfig", "run", "emit_report", "main"]

TWO_PI = 2.0 * math.pi
SCHEMA_VERSION = 1

def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Value kinds of the config schema: (test, what the error message asks for).
_KINDS = {
    "any": (lambda v: True, "anything"),
    "number": (_finite, "a finite number"),
    "positive": (lambda v: _finite(v) and v > 0, "a positive number"),
    "nonnegative": (lambda v: _finite(v) and v >= 0, "a non-negative number"),
    "integer": (_integer, "an integer"),
    "count": (lambda v: _integer(v) and v >= 1, "a positive integer"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "numbers": (lambda v: isinstance(v, list) and all(map(_finite, v)), "a list of finite numbers"),
    "strings": (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
                "a list of strings"),
}

# Every section's keys and value kinds; "" is the config root, "mode" one entry of "modes".
_SCHEMA = {
    "": dict.fromkeys(("schema_version", "material", "geometry", "spin", "modes", "cascade",
                       "integrator", "experiment", "output"), "any"),
    "material": {"name": "string", "density_kg_m3": "number", "v_plus_m_s": "number",
                 "v_minus_m_s": "number", "xi_S_hz": "number", "xi_I_hz": "number",
                 "provenance": "string"},
    "geometry": {"l_m": "positive", "w_m": "positive", "h_m": "positive"},
    "spin": {"kind": "string", "s": "nonnegative", "frequency_hz": "number",
             "positions_m": "numbers", "initial": "any"},
    "mode": {"momentum_sign": "integer", "pam": "integer", "detuning_hz": "number",
             "g_hz": "number", "fock_cutoff": "count"},
    "cascade": {"gamma_hz": "nonnegative", "gamma_prime_hz": "nonnegative",
                "k_z_rad_m": "number", "k_z_d": "number", "direction": "string"},
    "integrator": {"dt": "positive", "t_final": "positive", "rate_scale_hz": "positive",
                   "tolerance": "positive", "sample_stride": "count"},
    "experiment": {"name": "string", "parameters": "any"},
    "output": {"directory": "string", "formats": "strings"},
}
_REQUIRED = {"material": ("density_kg_m3", "v_plus_m_s", "v_minus_m_s", "xi_S_hz", "xi_I_hz"),
             "mode": ("detuning_hz", "g_hz")}

# Every experiment: the kinds of the ``experiment.parameters`` it reads, and the sections it
# reads besides schema_version, experiment and output. Any other section is rejected.
_EXPERIMENTS = {
    "simulate": ({}, ("material", "geometry", "spin", "modes", "cascade", "integrator")),
    "couplings": ({"delta_hz": "number", "drive_u": "number", "n": "count"},
                  ("material", "geometry", "spin")),
    "transfer_asymmetry": ({}, ("spin", "cascade")),
    "reciprocity_sweep": ({"ratios": "numbers"}, ("spin", "cascade")),
    "cascade_chain": ({"n_sites": "count"}, ("spin", "cascade")),
    "elimination_validation": ({"g_hz": "number", "delta_over_g": "numbers", "cutoff": "count"}, ()),
    "decoherence_budget": ({"gamma0_hz": "number", "drive_u": "numbers", "xi_hz": "number",
                            "delta_hz": "number"}, ()),
}

# The channels each cascade.direction keeps: (forward rate gamma, backward rate gamma_prime).
_CHANNELS = {"forward": (True, False), "chain": (True, False),
             "backward": (False, True), "bidirectional": (True, True)}


def _diag(level: str, **fields):
    parts = [level]
    for key, value in fields.items():
        text = str(value)
        if any(ch.isspace() for ch in text):
            text = '"' + text.replace('"', "'") + '"'
        parts.append(f"{key}={text}")
    print(" ".join(parts), file=sys.stderr)


def _check_section(kinds: dict, data, path: str, required=()):
    """Reject a non-object, an unknown key, a value of the wrong kind or a missing key."""
    if not isinstance(data, dict):
        raise DomainError(f"{path.rstrip('.') or 'config root'} must be an object")
    for key, value in data.items():
        if key not in kinds:
            raise DomainError(f"unknown key {path + key!r} (allowed: {sorted(kinds)})")
        test, what = _KINDS[kinds[key]]
        if not test(value):
            raise DomainError(f"{path + key} must be {what}, got {value!r}")
    for key in required:
        if key not in data:
            raise DomainError(f"missing required key {path + key!r}")


def _apply_overrides(data, overrides):
    if overrides and not isinstance(data, dict):
        raise DomainError("config root must be a JSON object")
    for item in overrides:
        if "=" not in item:
            raise DomainError(f"override {item!r} must look like section.key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        *parents, key = dotted.split(".")
        for part in parents:
            if not isinstance(node, dict):
                break
            node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise DomainError(f"override path {dotted!r} crosses a non-object value")
        node[key] = value
    return data


@dataclass(frozen=True)
class RunConfig:
    """A validated run configuration; wraps the canonical JSON dict.

    Only keys the user supplied are stored, so parse -> serialize -> parse is
    the identity. Typed accessors construct the domain objects on demand.
    """

    data: dict

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        _check_section(_SCHEMA[""], data, "")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise DomainError(f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION}")
        _check_section(_SCHEMA["experiment"], data.get("experiment"), "experiment.")
        name = data["experiment"].get("name")
        if name not in _EXPERIMENTS:
            raise DomainError(f"unknown experiment {name!r}; known: {tuple(_EXPERIMENTS)}")
        parameters, sections = _EXPERIMENTS[name]
        _check_section(parameters, data["experiment"].get("parameters", {}), "experiment.parameters.")
        unread = sorted(set(data) - {"schema_version", "experiment", "output", *sections})
        if unread:
            raise DomainError(f"experiment {name!r} does not read section(s) {unread}")
        if not isinstance(data.get("material", ""), str):
            _check_section(_SCHEMA["material"], data["material"], "material.", _REQUIRED["material"])
        for section in ("geometry", "spin", "cascade", "integrator", "output"):
            if section in data:
                _check_section(_SCHEMA[section], data[section], section + ".")
        modes = data.get("modes", "auto")
        if modes != "auto":
            if not isinstance(modes, list):
                raise DomainError("modes must be 'auto' or a list of mode objects")
            for i, mode in enumerate(modes):
                _check_section(_SCHEMA["mode"], mode, f"modes[{i}].", _REQUIRED["mode"])
        if name == "simulate" and "modes" in data:
            # A mode-based simulation reads no cascade, and an explicit mode list needs no
            # material or geometry: those are read only to derive the "auto" mode.
            label = f"simulate with modes={'auto' if modes == 'auto' else '[...]'}"
            ignored = {"cascade"} if modes == "auto" else {"cascade", "material", "geometry"}
            unread = sorted(ignored & set(data))
            if unread:
                raise DomainError(f"{label} does not read section(s) {unread}")
            # It starts in |up, down, vacuum>, and reads the spin kind and frequency only to
            # derive the "auto" mode.
            ignored = {"initial"} if modes == "auto" else {"initial", "kind", "frequency_hz"}
            unread = sorted(ignored & set(data.get("spin", {})))
            if unread:
                raise DomainError(f"{label} does not read spin key(s) {unread}")
        return cls(deepcopy(data))

    @classmethod
    def load(cls, path, overrides=()) -> "RunConfig":
        """Read a JSON config and apply ``section.key=value`` overrides, then validate."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DomainError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(_apply_overrides(data, overrides))

    def to_dict(self) -> dict:
        return deepcopy(self.data)

    def with_overrides(self, overrides) -> "RunConfig":
        """Apply ``section.key=value`` overrides on top of the file values."""
        return RunConfig.from_dict(_apply_overrides(self.to_dict(), overrides))

    # -- typed accessors ----------------------------------------------------

    @property
    def experiment_name(self) -> str:
        return self.data["experiment"]["name"]

    @property
    def experiment_parameters(self) -> dict:
        return deepcopy(self.data["experiment"].get("parameters", {}))

    def material(self):
        section = self.data.get("material", "alpha-SiO2")
        if isinstance(section, str):
            return builtin_material(section)
        return MaterialParams(section.get("name", "custom"), section["density_kg_m3"],
                              section["v_plus_m_s"], section["v_minus_m_s"],
                              section["xi_S_hz"], section["xi_I_hz"],
                              section.get("provenance", "inline config"))

    def geometry(self) -> ResonatorGeometry:
        g = self.data.get("geometry", {})
        return ResonatorGeometry(g.get("l_m", 1e-6), g.get("w_m", 1e-7), g.get("h_m", 1e-7))

    def spin_positions(self) -> list[float]:
        return list(self.data.get("spin", {}).get("positions_m", [0.0, 2.5e-7]))

    def cascade_spec(self) -> CascadeSpec:
        cascade = self.data.get("cascade", {})
        spin = self.data.get("spin", {})
        positions = self.spin_positions()
        s = spin.get("s", 0.5)
        sites = tuple(SpinSite(s, z, chr(ord("A") + i) if i < 26 else f"s{i}")
                      for i, z in enumerate(positions))
        gamma = TWO_PI * cascade.get("gamma_hz", 0.0)
        gamma_prime = TWO_PI * cascade.get("gamma_prime_hz", 0.0)
        if "k_z_rad_m" in cascade:
            k_z = cascade["k_z_rad_m"]
        elif "k_z_d" in cascade:
            if len(positions) < 2 or positions[0] == positions[1]:
                raise DomainError("k_z_d needs two distinct first spin positions")
            k_z = cascade["k_z_d"] / (positions[1] - positions[0])
        else:
            k_z = 0.0
        return CascadeSpec(gamma, gamma_prime, k_z, sites)

    def integrator_config(self, default_rate_scale: float) -> IntegratorConfig:
        integ = self.data.get("integrator", {})
        rate_scale = TWO_PI * integ["rate_scale_hz"] if "rate_scale_hz" in integ else default_rate_scale
        return IntegratorConfig(
            t_final=integ.get("t_final", 8.0),
            rate_scale=rate_scale,
            dt=integ.get("dt"),
            tolerance=integ.get("tolerance", 1e-10),
            sample_stride=integ.get("sample_stride", 1),
        )

    def output_directory(self) -> Path:
        return Path(self.data.get("output", {}).get("directory", "out"))

    def output_formats(self) -> tuple[str, ...]:
        formats = tuple(self.data.get("output", {}).get("formats", ("json", "csv")))
        for fmt in formats:
            if fmt not in ("json", "csv"):
                raise DomainError(f"unknown output format {fmt!r}")
        return formats


# -- experiment dispatch ----------------------------------------------------


def _config_modes(config: RunConfig) -> tuple[ModeSpec, ...]:
    """Mode list from the config: explicit entries or derived from the geometry.

    ``"auto"`` builds the near-resonant co-rotating mode of the configured
    material and resonator: its detuning comes from the spin frequency against
    the fast branch and its coupling from the vacuum strain.
    """
    section = config.data["modes"]
    if section == "auto":
        material = config.material()
        geom = config.geometry()
        spin = config.data.get("spin", {})
        kind = spin.get("kind", "electron")
        _, omega_plus = resonator_mode(geom, material.v_plus, 1)
        f_plus = omega_plus / TWO_PI
        f_spin = spin.get("frequency_hz", f_plus + 1e4)
        delta_hz = f_spin - f_plus
        if delta_hz == 0:
            raise DomainError("auto mode derivation hit zero detuning; adjust spin.frequency_hz")
        budget = coupling_table(material, geom, kind, abs(delta_hz))
        g_hz = budget.row(+1, +1).g_hz
        return (ModeSpec(+1, +1, TWO_PI * delta_hz, TWO_PI * g_hz, 2),)
    modes = []
    for entry in section:
        modes.append(ModeSpec(entry.get("momentum_sign", +1), entry.get("pam", +1),
                              TWO_PI * entry["detuning_hz"], TWO_PI * entry["g_hz"],
                              entry.get("fock_cutoff", 2)))
    return tuple(modes)


def _simulate_full_model(config: RunConfig) -> ExperimentReport:
    modes = _config_modes(config)
    positions = config.spin_positions()
    if len(positions) != 2:
        raise DomainError("mode-based simulation takes exactly two spin positions")
    s = config.data.get("spin", {}).get("s", 0.5)
    spins = (SpinSite(s, positions[0], "A"), SpinSite(s, positions[1], "B"))
    model = build_full_model(spins, modes)
    space = model.space

    pattern = [0, 1] + [0] * len(modes)  # first spin excited, vacuum modes
    rho0 = DensityMatrix.from_pure(space, basis_vector(space, pattern))
    cfg = config.integrator_config(abs(modes[0].detuning))
    watch = [(f"pop_{label}", op)
             for label, op in zip("AB", site_number_operators(space, spins))]
    watch.append(("total_excitation", total_excitation(space)))
    traj = evolve(model, rho0, cfg, watch)
    metrics = {}
    for label, _ in watch[:2]:
        series = np.real(traj.observables[label])
        metrics[f"peak_{label}"] = float(np.max(series))
        metrics[f"final_{label}"] = float(series[-1])
    report = ExperimentReport(
        "simulate",
        {"modes": [{"momentum_sign": m.momentum_sign, "pam": m.pam,
                    "detuning_hz": m.detuning / TWO_PI, "g_hz": m.g / TWO_PI,
                    "fock_cutoff": m.fock_cutoff} for m in modes],
         "positions_m": positions,
         "integrator": {"dt": cfg.dt, "t_final": cfg.t_final, "rate_scale_rad_s": cfg.rate_scale}},
        metrics, {}, trajectories={"simulation": traj})
    return report.validate()


def _simulate(config: RunConfig) -> ExperimentReport:
    # _EXPERIMENTS and the modes rule in RunConfig.from_dict list the config sections this
    # reads: keep them in step with it.
    if "modes" in config.data:
        return _simulate_full_model(config)
    spec = config.cascade_spec()
    direction = config.data.get("cascade", {}).get("direction", "forward")
    if direction not in _CHANNELS:
        raise DomainError(f"unknown cascade.direction {direction!r}")
    forward, backward = _CHANNELS[direction]
    model = build_cascade_model(replace(spec, gamma=spec.gamma if forward else 0.0,
                                        gamma_prime=spec.gamma_prime if backward else 0.0))

    initial = config.data.get("spin", {}).get("initial", "head_excited")
    if initial == "head_excited":
        pattern = [0] + [1] * (len(spec.sites) - 1)
    elif initial == "tail_excited":
        pattern = [1] * (len(spec.sites) - 1) + [0]
    elif initial == "all_ground":
        pattern = [1] * len(spec.sites)
    elif isinstance(initial, list):
        mapping = {"up": 0, "down": 1}
        try:
            pattern = [mapping[token] for token in initial]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"spin.initial entries must be 'up' or 'down', got {initial}") from exc
        if len(pattern) != len(spec.sites):
            raise DomainError("spin.initial length must match the number of positions")
    else:
        raise DomainError(f"unknown spin.initial {initial!r}")
    rho0 = DensityMatrix.from_pure(model.space, basis_vector(model.space, pattern))

    default_scale = max(spec.gamma, spec.gamma_prime)
    if default_scale <= 0:
        raise DomainError("simulate needs a positive channel rate")
    cfg = config.integrator_config(default_scale)
    ops = site_number_operators(model.space, spec.sites)
    watch = [(f"pop_{site.label}", op) for site, op in zip(spec.sites, ops)]
    traj = evolve(model, rho0, cfg, watch)

    metrics = {}
    for label, _ in watch:
        series = np.real(traj.observables[label])
        metrics[f"peak_{label}"] = float(np.max(series))
        metrics[f"final_{label}"] = float(series[-1])
    report = ExperimentReport(
        "simulate",
        {"direction": direction, "gamma_rad_s": spec.gamma, "gamma_prime_rad_s": spec.gamma_prime,
         "k_z_rad_m": spec.k_z, "positions_m": [s.position_z for s in spec.sites],
         "initial": initial,
         "integrator": {"dt": cfg.dt, "t_final": cfg.t_final, "rate_scale_rad_s": cfg.rate_scale}},
        metrics, {}, trajectories={"simulation": traj})
    return report.validate()


def _couplings(config: RunConfig) -> ExperimentReport:
    # _EXPERIMENTS lists the config sections each experiment reads: keep it in step with this.
    params = config.experiment_parameters
    material = config.material()
    geom = config.geometry()
    spin_kind = config.data.get("spin", {}).get("kind", "electron")
    delta_hz = params.get("delta_hz", 1e4)
    budget = coupling_table(material, geom, spin_kind, delta_hz,
                            drive_u=params.get("drive_u"), n=params.get("n", 1))
    metrics = {}
    for row in budget.rows:
        tag = f"{'p' if row.momentum_sign > 0 else 'm'}k_{'p' if row.pam > 0 else 'm'}L"
        metrics[f"g_hz_{tag}"] = row.g_hz
        metrics[f"detuning_hz_{tag}"] = row.detuning_hz
        if row.gamma_hz is not None:
            metrics[f"gamma_hz_{tag}"] = row.gamma_hz
        if row.suppression_bound_hz is not None:
            metrics[f"suppression_bound_hz_{tag}"] = row.suppression_bound_hz
    if budget.gamma_ratio is not None:
        metrics["gamma_ratio"] = budget.gamma_ratio
    report = ExperimentReport("couplings", {"budget": budget.to_dict()}, metrics, {})
    return report.validate()


def _dispatch(config: RunConfig) -> ExperimentReport:
    # _EXPERIMENTS lists the config sections each experiment reads: keep it in step with this.
    name = config.experiment_name
    params = config.experiment_parameters
    if name == "simulate":
        return _simulate(config)
    if name == "couplings":
        return _couplings(config)
    if name == "transfer_asymmetry":
        return transfer_asymmetry(config.cascade_spec())
    if name == "reciprocity_sweep":
        return reciprocity_sweep(config.cascade_spec(), params.get("ratios", (0.0, 0.25, 0.5, 1.0)))
    if name == "cascade_chain":
        spec = config.cascade_spec()
        return cascade_chain(params.get("n_sites", len(spec.sites)), spec)
    if name == "elimination_validation":
        g = TWO_PI * params.get("g_hz", 1.0)
        return elimination_validation(g, params.get("delta_over_g", (25.0, 50.0, 100.0)),
                                      params.get("cutoff", 2))
    if name == "decoherence_budget":
        return decoherence_budget(params.get("gamma0_hz", 1.0),
                                  params.get("drive_u", (1e-4, 2e-4)),
                                  xi=params.get("xi_hz", 1e6),
                                  delta_hz=params.get("delta_hz"))
    raise DomainError(f"unknown experiment {name!r}")


# -- emission ----------------------------------------------------------------


def _sanitize(value):
    """Make metrics JSON-safe: non-finite floats become strings."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    if isinstance(value, (np.floating, np.integer)):
        return _sanitize(float(value))
    return value


def _csv_label(label: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in label)


_CSV_PIECE_ROWS = 512  # CSV rows formatted and written per call


def _write_trajectory_csv(path: Path, traj) -> None:
    """Time plus the real and imaginary part of each observable, one row per sample.

    Every value is written as format(x, ".17g"): the "%.17g" row template gives
    the same text, and formats a whole row in one call.
    """
    labels = list(traj.observables.keys())
    header = ["t[1/rate_scale]"]
    columns = [np.asarray(traj.times, dtype=float)]
    for label in labels:
        header.append(f"Re<{label}>[dimensionless]")
        header.append(f"Im<{label}>[dimensionless]")
        values = np.asarray(traj.observables[label])
        columns += [values.real, values.imag]
    table = np.column_stack(columns)
    template = ",".join(["%.17g"] * len(columns)) + "\n"
    with path.open("w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        for first in range(0, len(table), _CSV_PIECE_ROWS):
            out.write("".join([template % tuple(row)
                               for row in table[first:first + _CSV_PIECE_ROWS].tolist()]))


def emit_report(report: ExperimentReport, directory, formats=("json", "csv")) -> list[Path]:
    """Write report.json, one CSV per trajectory, and a MANIFEST of content hashes.

    Outputs contain no timestamps or environment data, so re-running an
    identical config reproduces byte-identical files.
    """
    outdir = Path(directory)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    refs: list[str] = []
    if "csv" in formats:
        for label, traj in report.trajectories.items():
            name = _csv_label(label) + ".csv"
            _write_trajectory_csv(outdir / name, traj)
            refs.append(name)
            written.append(outdir / name)
    report.trajectory_refs = refs

    if "json" in formats:
        payload = {
            "name": report.name,
            "parameters": _sanitize(report.parameters),
            "metrics": _sanitize(report.metrics),
            "pass_flags": {k: bool(v) for k, v in report.pass_flags.items()},
            "trajectory_refs": refs,
            "trajectory_diagnostics": {
                label: _sanitize(traj.diagnostics) for label, traj in report.trajectories.items()
            },
            "units": {"metrics": "suffix of each key (hz, rad_s, ratios dimensionless)",
                      "trajectory_time": "1/rate_scale"},
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        (outdir / "report.json").write_text(text, encoding="utf-8")
        written.append(outdir / "report.json")

    manifest_lines = []
    for path in sorted(written, key=lambda p: p.name):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest_lines.append(f"sha256:{digest}  {path.name}")
    (outdir / "MANIFEST").write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    written.append(outdir / "MANIFEST")
    return written


# -- entry points ------------------------------------------------------------


def _execute(load_config, output_dir=None, *, write=True, show=None) -> int:
    """Load a config, run its experiment and write its outputs; returns the exit code.

    This is the one place errors become exit codes: 2 for config and domain
    errors (an unreadable config file included), 3 for integration, fit and
    convergence failures, 4 for any other I/O failure. ``show`` is called
    with the report before anything is written; ``write=False`` skips the
    output files.
    """
    stage = "config"
    try:
        config = load_config()
        stage = "run"
        report = _dispatch(config)
        if show is not None:
            show(report)
        if write:
            stage = "output"
            outdir = Path(output_dir) if output_dir else config.output_directory()
            files = emit_report(report, outdir, config.output_formats())
            _diag("INFO", experiment=report.name, outputs=len(files), directory=outdir)
    except IntegrationError as exc:
        _diag("ERROR", invariant="trace_drift", step=exc.step, detail=exc)
        return 3
    except FitError as exc:
        _diag("ERROR", invariant=type(exc).__name__, detail=exc)
        return 3
    except OSError as exc:
        if stage == "config":
            _diag("ERROR", invariant="config_schema", detail=exc)
            return 2
        _diag("ERROR", invariant="io", detail=exc)
        return 4
    except DomainError as exc:
        _diag("ERROR", invariant="config_schema" if stage == "config" else "domain", detail=exc)
        return 2
    for key, ok in report.pass_flags.items():
        _diag("INFO" if ok else "WARN", flag=key, passed=ok)
    return 0


def run(config_path, overrides=(), experiment_name=None, output_dir=None) -> int:
    """Execute one configured run; returns the process exit code."""
    def load():
        # the command's experiment name applies before validation, like any override
        name = [] if experiment_name is None else [f"experiment.name={experiment_name}"]
        return RunConfig.load(config_path, [*name, *overrides])

    return _execute(load, output_dir)


def _budget_table_text(budget_dict: dict) -> str:
    rows = budget_dict["rows"]
    header = f"{'mode':>10} | {'interaction':>12} | {'class':>16} | {'detuning [Hz]':>14} | {'rate [Hz]':>12} | {'v [m/s]':>8}"
    lines = [header, "-" * len(header)]
    for row in rows:
        rate = row["gamma_hz"]
        rate_text = f"{rate:.4g}" if rate is not None else f"<{row['suppression_bound_hz']:.2g}"
        lines.append(f"{row['mode']:>10} | {row['interaction']:>12} | {row['coupling_class']:>16} | "
                     f"{row['detuning_hz']:>14.4g} | {rate_text:>12} | {row['velocity_m_s']:>8.3g}")
    lines.append("")
    fwd = rows[0]
    lines.append(f"u = {fwd['u_strain']:.4g}  g = {fwd['g_hz']:.4g} Hz"
                 + (f"  (h-quantum variant: g = {fwd['g_hz_hplanck']:.4g} Hz)" if fwd["g_hz_hplanck"] else ""))
    if budget_dict["gamma_ratio"] is not None:
        lines.append(f"forward/backward rate ratio = {budget_dict['gamma_ratio']:.4g}")
    if budget_dict["flags"]:
        lines.append("flags: " + ", ".join(budget_dict["flags"]))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chiralspin",
        description="Directional phonon-mediated spin-spin coupling: budgets, simulations, experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_coup = sub.add_parser("couplings", help="four-mode coupling budget for a material/resonator")
    p_coup.add_argument("--material", default="alpha-SiO2")
    p_coup.add_argument("--l", type=float, default=1e-6, help="beam length along the chiral axis, m")
    p_coup.add_argument("--w", type=float, default=1e-7, help="beam width, m")
    p_coup.add_argument("--h", type=float, default=1e-7, help="beam height, m")
    p_coup.add_argument("--delta", type=float, default=1e4, help="detuning from the co-rotating branch, Hz")
    p_coup.add_argument("--spin", choices=("electron", "nuclear"), default="electron")
    p_coup.add_argument("--drive-u", type=float, default=None, help="driven strain amplitude (replaces vacuum)")
    p_coup.add_argument("--n", type=int, default=1, help="standing-mode index")
    p_coup.add_argument("--output", default=None, help="emit report files into this directory")

    p_sim = sub.add_parser("simulate", help="integrate a configured model and emit trajectories")
    p_sim.add_argument("config", help="JSON run configuration")
    p_sim.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config value (dotted path)")
    p_sim.add_argument("--output", default=None, help="override the output directory")

    p_exp = sub.add_parser("experiment", help="run a named experiment from a config")
    p_exp.add_argument("name", choices=tuple(_EXPERIMENTS))
    p_exp.add_argument("--config", default=None, help="JSON run configuration (optional)")
    p_exp.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE")
    p_exp.add_argument("--output", default=None)

    sub.add_parser("validate", help="run the built-in invariant suite")

    args = parser.parse_args(argv)

    if args.command == "couplings":
        config_dict = {
            "schema_version": SCHEMA_VERSION,
            "material": args.material,
            "geometry": {"l_m": args.l, "w_m": args.w, "h_m": args.h},
            "spin": {"kind": args.spin},
            "experiment": {"name": "couplings",
                           "parameters": {"delta_hz": args.delta, "n": args.n,
                                          **({"drive_u": args.drive_u} if args.drive_u is not None else {})}},
        }
        return _execute(lambda: RunConfig.from_dict(config_dict), args.output,
                        write=bool(args.output),
                        show=lambda report: print(_budget_table_text(report.parameters["budget"])))

    if args.command == "simulate":
        return run(args.config, args.overrides, experiment_name="simulate", output_dir=args.output)

    if args.command == "experiment":
        if args.config is not None:
            return run(args.config, args.overrides, experiment_name=args.name, output_dir=args.output)
        minimal = {"schema_version": SCHEMA_VERSION, "experiment": {"name": args.name}}
        if "cascade" in _EXPERIMENTS[args.name][1]:
            minimal["cascade"] = {"gamma_hz": 1.0, "k_z_d": 0.7}
        return _execute(lambda: RunConfig.from_dict(minimal).with_overrides(args.overrides),
                        args.output)

    if args.command == "validate":
        from .validation import run_invariant_suite

        results = run_invariant_suite()
        failed = 0
        for name, ok, detail in results:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
            if not ok:
                failed += 1
                _diag("ERROR", invariant=name, detail=detail)
        print(f"{len(results) - failed}/{len(results)} invariants passed")
        return 0 if failed == 0 else 3

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
