"""Span tracing at chiralspin's layer boundaries, installed from outside the program.

The layers are the package modules. :func:`install` replaces each layer's
public functions with a timing wrapper under the names their callers look up
(``chiralspin.experiments.evolve``, ``chiralspin.cli.emit_report``, ...), so
only calls that cross a module boundary become spans; calls inside a module
stay untouched. Spans live in memory as lists
``[name, layer, start, end, parent, invocation, child_time, extra]`` and are
reduced to per-layer figures once a pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from pathlib import Path

LAYERS = ("cli", "experiments", "dynamics", "models", "core", "materials", "validation")
EVOLVE = ("dynamics.evolve", "dynamics.evolve_nonhermitian")
ROOT = "cli.main"

NAME, LAYER, START, END, PARENT, INVOCATION, CHILD_TIME, EXTRA = range(8)


def _probe_evolve(args, result) -> dict:
    diag = result.diagnostics
    return {"dim": args[0].space.dim, "steps": int(diag["n_steps"]),
            "samples": len(result.times), "states": len(result.states or ())}


def _probe_emit(args, result) -> dict:
    wrote_csv = any(path.suffix == ".csv" for path in result)
    rows = sum(len(traj.times) for traj in args[0].trajectories.values()) if wrote_csv else 0
    return {"bytes": sum(Path(path).stat().st_size for path in result), "csv_rows": rows}


_PROBES = {name: _probe_evolve for name in EVOLVE}
_PROBES["cli.emit_report"] = _probe_emit

# Entry points that callers look up on their own module, not on an importer.
_OWN_MODULE = {"validation": ("run_invariant_suite",), "cli": ("emit_report",)}


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.invocation = None
        self._local = threading.local()

    def wrap(self, fn, name: str, layer: str):
        spans, local, clock = self.spans, self._local, time.perf_counter
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = [name, layer, clock(), 0.0, parent, self.invocation, 0.0, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if parent is not None:
                    parent[CHILD_TIME] += span[END] - span[START]
            if probe is not None:
                span[EXTRA] = probe(args, result)
            return result

        return traced


def install(tracer: Tracer):
    """Wrap every layer boundary; returns a function that undoes the patching."""
    modules = {layer: importlib.import_module(f"chiralspin.{layer}") for layer in LAYERS}
    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for layer, module in modules.items():
        for fname in module.__all__:
            fn = module.__dict__[fname]
            if not inspect.isfunction(fn) or f"{layer}.{fname}" == ROOT:
                continue
            traced = tracer.wrap(fn, f"{layer}.{fname}", layer)
            for caller in modules.values():
                if caller is not module and caller.__dict__.get(fname) is fn:
                    patch(caller, fname, traced)
            if fname in _OWN_MODULE.get(layer, ()):
                patch(module, fname, traced)

    run_config = modules["cli"].RunConfig
    for attr in ("load", "from_dict", "with_overrides"):
        raw = run_config.__dict__[attr]
        if isinstance(raw, classmethod):
            patch(run_config, attr, classmethod(tracer.wrap(raw.__func__, "cli.config", "cli")))
        else:
            patch(run_config, attr, tracer.wrap(raw, "cli.config", "cli"))

    def restore():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return restore


def _outermost(spans, match):
    """Spans matching ``match`` with no matching ancestor (no double counting)."""
    found = []
    for span in spans:
        if not match(span):
            continue
        parent = span[PARENT]
        while parent is not None and not match(parent):
            parent = parent[PARENT]
        if parent is None:
            found.append(span)
    return found


def _total(spans) -> float:
    return sum(span[END] - span[START] for span in spans)


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer figures of one traced pass that took ``wall_s`` seconds."""
    def by_name(*names):
        return _outermost(spans, lambda s: s[NAME] in names)

    def by_layer(layer):
        return _outermost(spans, lambda s: s[LAYER] == layer)

    evolves = by_name(*EVOLVE)
    extras = [s[EXTRA] for s in evolves]
    emits = [s[EXTRA] for s in by_name("cli.emit_report")]
    steps = sum(e["steps"] for e in extras)
    evolve_s = _total(evolves)
    models = by_layer("models")
    partial = by_name("core.partial_trace")
    metrics = {
        "dynamics.evolve_s": evolve_s,
        "dynamics.us_per_step": 1e6 * evolve_s / steps if steps else 0.0,
        "dynamics.steps": steps,
        "dynamics.calls": len(evolves),
        "dynamics.samples": sum(e["samples"] for e in extras),
        "dynamics.states": sum(e["states"] for e in extras),
        "dynamics.dim_max": max((e["dim"] for e in extras), default=0),
        "models.build_s": _total(models),
        "models.build_calls": len(models),
        "core.partial_trace_s": _total(partial),
        "core.partial_trace_calls": len(partial),
        "cli.config_s": _total(by_name("cli.config")),
        "cli.emit_s": _total(by_name("cli.emit_report")),
        "cli.emit_bytes": sum(e["bytes"] for e in emits),
        "cli.csv_rows": sum(e["csv_rows"] for e in emits),
        "materials.budget_s": _total(by_layer("materials")),
        "validation.suite_s": _total(by_name("validation.run_invariant_suite")),
    }
    self_s = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        self_s[span[LAYER]] += span[END] - span[START] - span[CHILD_TIME]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
    metrics["trace.total_s"] = wall_s
    metrics["trace.unattributed_s"] = wall_s - _total(s for s in spans if s[PARENT] is None)
    metrics["trace.spans"] = len(spans)
    return metrics
