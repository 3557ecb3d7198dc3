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
from dataclasses import dataclass, field, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import g17
from .core import DensityMatrix, spin_state
from .dynamics import IntegratorConfig, evolve
from .errors import DomainError, FitError, IntegrationError
from .experiments import (
    ExperimentReport,
    cascade_chain,
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
    # exact comparisons: NaN, infinities and integers beyond the float range all fail
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


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
    "formats": (lambda v: isinstance(v, list) and all(x in ("json", "csv") for x in v),
                "a list naming no unknown output format (known: 'json', 'csv')"),
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
    "output": {"directory": "string", "formats": "formats"},
}
_REQUIRED = {"material": ("density_kg_m3", "v_plus_m_s", "v_minus_m_s", "xi_S_hz", "xi_I_hz"),
             "mode": ("detuning_hz", "g_hz")}

# The program's default values for a run without a config file (see RunConfig.value).
_INLINE_DEFAULTS = {"cascade": {"gamma_hz": 1.0, "k_z_d": 0.7}}

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

    Only the keys it was given are stored, so parse -> serialize -> parse is
    the identity. ``defaults`` holds the program's default values by section,
    which :meth:`value` reads where ``data`` lacks the key. Typed accessors
    construct the domain objects on demand and record in ``read`` each
    (section, key) whose value they use, with key None for a section used
    whole. After an experiment's reader has run, :meth:`check_read` rejects
    every key of ``data`` that it did not use.
    """

    data: dict
    defaults: dict = field(default_factory=dict)
    read: set = field(default_factory=set, init=False, compare=False, repr=False)

    @classmethod
    def from_dict(cls, data: dict, defaults=None) -> "RunConfig":
        _check_section(_SCHEMA[""], data, "")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise DomainError(f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION}")
        _check_section(_SCHEMA["experiment"], data.get("experiment"), "experiment.")
        name = data["experiment"].get("name")
        if name not in _EXPERIMENTS:
            raise DomainError(f"unknown experiment {name!r}; known: {tuple(_EXPERIMENTS)}")
        _check_section(_EXPERIMENTS[name][0], data["experiment"].get("parameters", {}),
                       "experiment.parameters.")
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
        return cls(deepcopy(data), defaults or {})

    @classmethod
    def load(cls, path=None, overrides=()) -> "RunConfig":
        """Read a JSON config (or without one start from the defaults), apply overrides, validate."""
        if path is None:
            return cls({"schema_version": SCHEMA_VERSION}, _INLINE_DEFAULTS).with_overrides(overrides)
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DomainError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(_apply_overrides(data, overrides))

    def to_dict(self) -> dict:
        return deepcopy(self.data)

    def with_overrides(self, overrides) -> "RunConfig":
        """Apply ``section.key=value`` overrides; a section they set whole drops its defaults."""
        whole = {item.split("=", 1)[0] for item in overrides}
        return RunConfig.from_dict(_apply_overrides(self.to_dict(), overrides),
                                   {name: keys for name, keys in self.defaults.items() if name not in whole})

    def check_read(self) -> None:
        """Reject every key of ``data`` that no accessor has read.

        ``schema_version``, ``experiment`` and ``output`` are exempt. A section
        none of whose keys was read is named whole, otherwise its unread keys.
        """
        read_sections = {section for section, _ in self.read}
        sections, keys = [], []
        for section, value in self.data.items():
            if section in ("schema_version", "experiment", "output") or (section, None) in self.read:
                continue
            if section not in read_sections:
                sections.append(section)
            elif unread := sorted(key for key in value if (section, key) not in self.read):
                keys.append(f"{section} key(s) {unread}")
        problems = ([f"section(s) {sorted(sections)}"] if sections else []) + sorted(keys)
        if problems:
            raise DomainError(f"experiment {self.experiment_name!r} does not read "
                              + ", ".join(problems))

    # -- typed accessors ----------------------------------------------------

    @property
    def experiment_name(self) -> str:
        return self.data["experiment"]["name"]

    @property
    def experiment_parameters(self) -> dict:
        return deepcopy(self.data["experiment"].get("parameters", {}))

    def parameter(self, key: str, default=None):
        """One of the ``experiment.parameters``, or ``default`` when it is absent."""
        return self.experiment_parameters.get(key, default)

    def section(self, name: str, default=None):
        """A whole section, or ``default`` when it is absent."""
        self.read.add((name, None))
        return self.data.get(name, default)

    def value(self, section: str, key: str, default=None):
        """One key of a section; where it is absent, the program's default or else ``default``."""
        self.read.add((section, key))
        return self.data.get(section, {}).get(key, self.defaults.get(section, {}).get(key, default))

    def material(self):
        section = self.section("material", "alpha-SiO2")
        if isinstance(section, str):
            return builtin_material(section)
        return MaterialParams(section.get("name", "custom"), section["density_kg_m3"],
                              section["v_plus_m_s"], section["v_minus_m_s"],
                              section["xi_S_hz"], section["xi_I_hz"],
                              section.get("provenance", "inline config"))

    def geometry(self) -> ResonatorGeometry:
        return ResonatorGeometry(self.value("geometry", "l_m", 1e-6),
                                 self.value("geometry", "w_m", 1e-7),
                                 self.value("geometry", "h_m", 1e-7))

    def spin_sites(self) -> tuple[SpinSite, ...]:
        """A spin of ``spin.s`` at each of ``spin.positions_m``, labelled A, B, ..."""
        s = self.value("spin", "s", 0.5)
        positions = self.value("spin", "positions_m", [0.0, 2.5e-7])
        return tuple(SpinSite(s, z, chr(ord("A") + i) if i < 26 else f"s{i}")
                     for i, z in enumerate(positions))

    def cascade_spec(self) -> CascadeSpec:
        sites = self.spin_sites()
        gamma = TWO_PI * self.value("cascade", "gamma_hz", 0.0)
        gamma_prime = TWO_PI * self.value("cascade", "gamma_prime_hz", 0.0)
        k_z = self.value("cascade", "k_z_rad_m")
        if k_z is None:
            # the program's default k_z_d applies to two or more spins; a lone spin has no phase
            given = "k_z_d" in self.data.get("cascade", {})
            k_z_d = self.value("cascade", "k_z_d") if given or len(sites) >= 2 else None
            if k_z_d is None:
                k_z = 0.0
            elif len(sites) < 2 or sites[0].position_z == sites[1].position_z:
                raise DomainError("k_z_d needs two distinct first spin positions")
            else:
                k_z = k_z_d / (sites[1].position_z - sites[0].position_z)
        return CascadeSpec(gamma, gamma_prime, k_z, sites)

    def integrator_config(self, default_rate_scale: float) -> IntegratorConfig:
        """The ``integrator`` section; ``dt``, ``tolerance`` and ``sample_stride`` left out keep
        :class:`IntegratorConfig`'s defaults."""
        rate_scale_hz = self.value("integrator", "rate_scale_hz")
        given = {key: self.value("integrator", key) for key in ("dt", "tolerance", "sample_stride")}
        return IntegratorConfig(
            t_final=self.value("integrator", "t_final", 8.0),
            rate_scale=default_rate_scale if rate_scale_hz is None else TWO_PI * rate_scale_hz,
            **{key: value for key, value in given.items() if value is not None},
        )

    def output_directory(self) -> Path:
        return Path(self.data.get("output", {}).get("directory", "out"))

    def output_formats(self) -> tuple[str, ...]:
        return tuple(self.data.get("output", {}).get("formats", ("json", "csv")))


# -- experiment readers -------------------------------------------------------


def _config_modes(config: RunConfig) -> tuple[ModeSpec, ...]:
    """Mode list from the config: explicit entries or derived from the geometry.

    ``"auto"`` builds the near-resonant co-rotating mode of the configured
    material and resonator: its detuning comes from the spin frequency against
    the fast branch and its coupling from the vacuum strain.
    """
    section = config.section("modes")
    if section == "auto":
        material = config.material()
        geom = config.geometry()
        kind = config.value("spin", "kind", "electron")
        _, omega_plus = resonator_mode(geom, material.v_plus, 1)
        f_plus = omega_plus / TWO_PI
        f_spin = config.value("spin", "frequency_hz", f_plus + 1e4)
        delta_hz = f_spin - f_plus
        if delta_hz == 0:
            raise DomainError("auto mode derivation hit zero detuning; adjust spin.frequency_hz")
        budget = coupling_table(material, geom, kind, abs(delta_hz))
        g_hz = budget.row(+1, +1).g_hz
        return (ModeSpec(+1, +1, TWO_PI * delta_hz, TWO_PI * g_hz, 2),)
    return tuple(ModeSpec(entry.get("momentum_sign", +1), entry.get("pam", +1),
                          TWO_PI * entry["detuning_hz"], TWO_PI * entry["g_hz"],
                          entry.get("fock_cutoff", 2)) for entry in section)


def _read_simulate(config: RunConfig):
    """Integrate one start state of a configured model and report every spin population.

    Without ``modes`` the model is the cascade over ``spin.positions_m`` with the
    channels of ``cascade.direction``, started as ``spin.initial`` names; with ``modes``
    it is the spin-pair/mode model of ``build_full_model``, started in |up, down, vacuum>.
    Up is m = +s and down m = -s, the rule of :func:`~chiralspin.core.spin_state`.
    """
    sites = config.spin_sites()
    if "modes" in config.data:
        modes = _config_modes(config)
        model = build_full_model(sites, modes)
        up = (0,)
        default_scale = abs(modes[0].detuning)
        parameters = {"modes": [{"momentum_sign": m.momentum_sign, "pam": m.pam,
                                 "detuning_hz": m.detuning / TWO_PI, "g_hz": m.g / TWO_PI,
                                 "fock_cutoff": m.fock_cutoff} for m in modes]}
        extra_watch = [("total_excitation", total_excitation(model.space))]
    else:
        spec = config.cascade_spec()
        direction = config.value("cascade", "direction", "forward")
        if direction not in _CHANNELS:
            raise DomainError(f"unknown cascade.direction {direction!r}")
        forward, backward = _CHANNELS[direction]
        for key, rate, kept in (("gamma_hz", spec.gamma, forward),
                                ("gamma_prime_hz", spec.gamma_prime, backward)):
            if rate and not kept and key in config.data.get("cascade", {}):
                raise DomainError(f"cascade.direction {direction!r} drops the channel of "
                                  f"cascade.{key}; cascade.{key} must be 0")
        spec = replace(spec, gamma=spec.gamma if forward else 0.0,
                       gamma_prime=spec.gamma_prime if backward else 0.0)  # the channels that run
        model = build_cascade_model(spec)
        initial = config.value("spin", "initial", "head_excited")
        named = {"head_excited": (0,), "tail_excited": (len(sites) - 1,), "all_ground": ()}
        if isinstance(initial, list):
            if not all(token in ("up", "down") for token in initial):
                raise DomainError(f"spin.initial entries must be 'up' or 'down', got {initial}")
            if len(initial) != len(sites):
                raise DomainError("spin.initial length must match the number of positions")
            up = [i for i, token in enumerate(initial) if token == "up"]
        elif isinstance(initial, str) and initial in named:
            up = named[initial]
        else:
            raise DomainError(f"unknown spin.initial {initial!r}")
        default_scale = max(spec.gamma, spec.gamma_prime)
        if default_scale <= 0:
            raise DomainError("simulate needs a positive channel rate")
        parameters = {"direction": direction, "gamma_rad_s": spec.gamma,
                      "gamma_prime_rad_s": spec.gamma_prime, "k_z_rad_m": spec.k_z,
                      "initial": initial}
        extra_watch = []
    cfg = config.integrator_config(default_scale)
    parameters.update(positions_m=[site.position_z for site in sites],
                      integrator={"dt": cfg.dt, "t_final": cfg.t_final,
                                  "rate_scale_rad_s": cfg.rate_scale})
    rho0 = DensityMatrix.from_pure(model.space, spin_state(model.space, up))
    populations = [(f"pop_{site.label}", op)
                   for site, op in zip(sites, site_number_operators(model.space, sites))]

    def simulate() -> ExperimentReport:
        traj = evolve(model, rho0, cfg, populations + extra_watch)
        metrics = {}
        for label, _ in populations:
            series = np.real(traj.observables[label])
            metrics[f"peak_{label}"] = float(np.max(series))
            metrics[f"final_{label}"] = float(series[-1])
        report = ExperimentReport("simulate", parameters, metrics, {},
                                  trajectories={"simulation": traj})
        return report.validate()

    return simulate


def _couplings(material, geom, kind, delta_hz, drive_u, n) -> ExperimentReport:
    budget = coupling_table(material, geom, kind, delta_hz, drive_u=drive_u, n=n)
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


def _read_cascade_chain(config: RunConfig):
    spec = config.cascade_spec()
    if spec.gamma_prime != 0:
        raise DomainError("cascade_chain runs the forward channel only; cascade.gamma_prime_hz must be 0")
    return partial(cascade_chain, config.parameter("n_sites", len(spec.sites)), spec)


# Every experiment: the kinds of its ``experiment.parameters``, and its reader. A reader
# takes what the experiment needs from the config accessors and returns the call that runs
# it; ``_execute`` rejects every supplied key the reader left unread before that call.
_EXPERIMENTS = {
    "simulate": ({}, _read_simulate),
    "couplings": ({"delta_hz": "number", "drive_u": "number", "n": "count"}, lambda config: partial(
        _couplings, config.material(), config.geometry(), config.value("spin", "kind", "electron"),
        config.parameter("delta_hz", 1e4), config.parameter("drive_u"), config.parameter("n", 1))),
    "transfer_asymmetry": ({}, lambda config: partial(transfer_asymmetry, config.cascade_spec())),
    "reciprocity_sweep": ({"ratios": "numbers"}, lambda config: partial(
        reciprocity_sweep, config.cascade_spec(), config.parameter("ratios", (0.0, 0.25, 0.5, 1.0)))),
    "cascade_chain": ({"n_sites": "count"}, _read_cascade_chain),
    "elimination_validation": (
        {"g_hz": "number", "delta_over_g": "numbers", "cutoff": "count"}, lambda config: partial(
            elimination_validation, TWO_PI * config.parameter("g_hz", 1.0),
            config.parameter("delta_over_g", (25.0, 50.0, 100.0)), config.parameter("cutoff", 2))),
}


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


_CSV_PIECE_BYTES = 192 << 10  # g17.join row-buffer bytes of the CSV rows encoded and written per call


def _write_trajectory_csv(path: Path, traj, grid=None, keep_grid=False):
    """Time plus the real and imaginary part of each observable, one row per sample.

    Every value is written as format(x, ".17g"), encoded by :mod:`.g17` a
    piece of rows at a time and written as one buffer. A piece holds as many
    rows as fit _CSV_PIECE_BYTES of :func:`.g17.join`'s row buffer, so the
    memory a call takes does not grow with its rows. A column after the
    first that is +0.0 throughout, such as the imaginary part of a Hermitian
    observable, is never encoded: its literal "0" is part of the separator
    after the column before it. With ``keep_grid`` this returns the time
    column's records, which a call for a trajectory on an equal time grid
    takes as ``grid`` instead of encoding its own. Returns the SHA-256 hex
    digest of the written bytes, hashed as they are written, and the grid to
    pass on.
    """
    times = np.asarray(traj.times, dtype=float)
    header = ["t[1/rate_scale]"]
    columns = [times]
    for label, values in traj.observables.items():
        header.append(f"Re<{label}>[dimensionless]")
        header.append(f"Im<{label}>[dimensionless]")
        values = np.asarray(values)
        columns += [values.real, values.imag]
    kept = [0] + [i for i in range(1, len(columns))
                  if np.any(columns[i]) or np.any(np.signbit(columns[i]))]
    separators = [(",0" * (end - i - 1) + ("," if end < len(columns) else "\n")).encode()
                  for i, end in zip(kept, kept[1:] + [len(columns)])]
    reuse = grid is not None and np.array_equal(grid[0], times)
    fresh = kept[1:] if reuse else kept
    if keep_grid and not reuse:
        grid = (times, np.empty((4, len(times)), dtype=np.uint64))

    def records(piece: slice) -> list:
        """The records of every kept column on the rows ``piece``."""
        rows = len(times[piece])
        encoded = []
        if fresh:
            words = g17.encode(np.concatenate([columns[i][piece] for i in fresh]))
            encoded = [words[:, j:j + rows] for j in range(0, words.shape[1], rows)]
        if reuse:
            encoded.insert(0, grid[1][:, piece])
        elif keep_grid:
            grid[1][:, piece] = encoded[0]
        return encoded

    step = max(1, _CSV_PIECE_BYTES // g17.row_bytes(separators))
    digest = hashlib.sha256()
    with path.open("wb") as out:
        def write(data: bytes):
            out.write(data)
            digest.update(data)

        write((",".join(header) + "\n").encode("utf-8"))
        for first in range(0, len(times), step):
            write(g17.join(records(slice(first, first + step)), separators))
    return digest.hexdigest(), grid if keep_grid else None


def emit_report(report: ExperimentReport, directory, formats=("json", "csv")) -> list[Path]:
    """Write report.json, one CSV per trajectory, and a MANIFEST of content hashes.

    Outputs contain no timestamps or environment data, so re-running an
    identical config reproduces byte-identical files. Each file is hashed from the
    bytes written to it, never read back. A CSV is written in pieces of
    _CSV_PIECE_BYTES of row buffer. A time grid that the next trajectory shares
    is kept as its records and encoded once.
    """
    outdir = Path(directory)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    digests: dict[str, str] = {}

    refs: list[str] = []
    if "csv" in formats:
        grid = None  # the encoded time column, kept while the next trajectory has the same one
        trajectories = list(report.trajectories.items())
        for (label, traj), after in zip(trajectories, trajectories[1:] + [None]):
            name = _csv_label(label) + ".csv"
            keep_grid = after is not None and np.array_equal(after[1].times, traj.times)
            digests[name], grid = _write_trajectory_csv(outdir / name, traj, grid, keep_grid)
            refs.append(name)
            written.append(outdir / name)

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
        data = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")
        (outdir / "report.json").write_bytes(data)
        digests["report.json"] = hashlib.sha256(data).hexdigest()
        written.append(outdir / "report.json")

    manifest_lines = [f"sha256:{digests[name]}  {name}" for name in sorted(digests)]
    (outdir / "MANIFEST").write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    written.append(outdir / "MANIFEST")
    return written


# -- entry points ------------------------------------------------------------


def _execute(load_config, output_dir=None, *, write=True, show=None) -> int:
    """Load a config, run its experiment and write its outputs; returns the exit code.

    The config stage loads the config, runs the experiment's reader and
    rejects every key the reader did not use, so nothing evolves or is
    written for a config that is rejected. This is the one place errors
    become exit codes: 2 for config and domain errors (an unreadable config
    file included), 3 for integration, fit and convergence failures, 4 for
    any other I/O failure. ``show`` is called with the report before
    anything is written; ``write=False`` skips the output files.
    """
    stage = "config"
    try:
        config = load_config()
        experiment = _EXPERIMENTS[config.experiment_name][1](config)
        config.check_read()
        stage = "run"
        report = experiment()
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
    """Execute one configured run, from the defaults without ``config_path``; returns the exit code."""
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


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="chiralspin",
        description="Directional phonon-mediated spin-spin coupling: budgets, simulations, experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_coup = sub.add_parser("couplings", help="four-mode coupling budget for a material/resonator")
    # a flag left out is left out of the config too, so the config accessors' defaults apply
    p_coup.add_argument("--material")
    p_coup.add_argument("--l", type=float, help="beam length along the chiral axis, m")
    p_coup.add_argument("--w", type=float, help="beam width, m")
    p_coup.add_argument("--h", type=float, help="beam height, m")
    p_coup.add_argument("--delta", type=float, help="detuning from the co-rotating branch, Hz")
    p_coup.add_argument("--spin", choices=("electron", "nuclear"))
    p_coup.add_argument("--drive-u", type=float, help="driven strain amplitude (replaces vacuum)")
    p_coup.add_argument("--n", type=int, help="standing-mode index")
    p_coup.add_argument("--output", default=None, help="emit report files into this directory")

    p_sim = sub.add_parser("simulate", help="integrate a configured model and emit trajectories")
    p_sim.add_argument("config", help="JSON run configuration")
    p_sim.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config value (dotted path)")
    p_sim.add_argument("--output", default=None, help="override the output directory")
    p_sim.set_defaults(name="simulate")

    p_exp = sub.add_parser("experiment", help="run a named experiment from a config")
    p_exp.add_argument("name", choices=tuple(_EXPERIMENTS))
    p_exp.add_argument("--config", default=None, help="JSON run configuration (optional)")
    p_exp.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE")
    p_exp.add_argument("--output", default=None)

    sub.add_parser("validate", help="run the built-in invariant suite")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    if args.command == "couplings":
        def given(**flags) -> dict:
            return {key: value for key, value in flags.items() if value is not None}

        config_dict = {
            "schema_version": SCHEMA_VERSION,
            **given(material=args.material, geometry=given(l_m=args.l, w_m=args.w, h_m=args.h) or None,
                    spin=given(kind=args.spin) or None),
            "experiment": {"name": "couplings",
                           "parameters": given(delta_hz=args.delta, drive_u=args.drive_u, n=args.n)},
        }
        return _execute(lambda: RunConfig.from_dict(config_dict), args.output,
                        write=bool(args.output),
                        show=lambda report: print(_budget_table_text(report.parameters["budget"])))

    if args.command in ("simulate", "experiment"):
        return run(args.config, args.overrides, experiment_name=args.name, output_dir=args.output)

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
