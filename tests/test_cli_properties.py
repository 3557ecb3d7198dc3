"""Property test: the CLI's exit-code contract over generated ``--set`` overrides.

Every run exits 0, 2, 3 or 4, writes only ``LEVEL key=value`` lines to stderr,
raises nothing and warns nothing (a command-line run prints a warning to stderr).
Numeric values are ordinary magnitudes, extremes or malformed values. The extremes
are exact values, 1e+-300, 1e200 and integers up to 2^70, so that no combination
asks for a run of many millions of steps that is valid and merely slow.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chiralspin.cli import main

# derandomized and without an example database, so a run is repeatable and writes no files
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)
LINE = re.compile(r'(INFO|WARN|ERROR)( \w+=("[^"]*"|\S+))+')

ordinary = st.sampled_from([0, 1, 2, -1]) | st.floats(0.25, 4) | st.floats(-4, -0.25)
extreme = st.sampled_from([1e-300, -1e-300, 1e300, -1e300, 1e200, 2 ** 62 + 1, 2 ** 63, 2 ** 64,
                           2 ** 70, -2 ** 70])
malformed = st.sampled_from(["x", None, True, [], {"a": 1}])
number = ordinary | extreme | malformed
count = st.integers(-2, 4) | st.integers(2 ** 62, 2 ** 70) | extreme | malformed
SPIN = {"spin.s": st.sampled_from([0, 0.5, 1, -0.5, 0.3]) | extreme | malformed,
        "spin.positions_m": st.lists(ordinary | extreme, max_size=3) | malformed}
CASCADE = {"cascade.gamma_hz": number, "cascade.gamma_prime_hz": number, "cascade.k_z_d": number}
# an inline material's constants are mostly of the built-in tables' magnitudes, so that one
# extreme among them reaches the budget arithmetic rather than the schema check
constant = st.sampled_from([2650.0, 4.2e3, 5e3, 1e10, 1e6]) | number
MATERIAL = st.sampled_from(["alpha-SiO2", "quartz", "alpha-TeO2", "x"]) | malformed | st.fixed_dictionaries(
    {"density_kg_m3": constant, "v_plus_m_s": constant, "v_minus_m_s": constant, "xi_S_hz": constant,
     "xi_I_hz": constant})
KEYS = {
    "simulate": {
        **SPIN, **CASCADE,
        "spin.initial": st.lists(st.sampled_from(["up", "down", "x"]), max_size=3)
        | st.sampled_from(["head_excited", "x", 1]),
        "cascade.direction": st.sampled_from(["forward", "backward", "bidirectional", "chain", "x"]),
        "integrator.t_final": number, "integrator.dt": number, "integrator.tolerance": number,
        "integrator.sample_stride": count, "integrator.rate_scale_hz": number},
    "transfer_asymmetry": {**SPIN, **CASCADE, "cascade.k_z_rad_m": number},
    "elimination_validation": {
        "experiment.parameters.g_hz": number,
        # ratios below 10 are refused, so the entries are sampled from both sides of that bound
        "experiment.parameters.delta_over_g": st.lists(
            st.sampled_from([10, 25, 0.5, -1, 1e-300, 1e200, 1e300, 2 ** 63, -2 ** 70]), max_size=3)
        | malformed,
        "experiment.parameters.cutoff": count},
    "couplings": {
        "material": MATERIAL, "geometry.l_m": number, "geometry.w_m": number, "geometry.h_m": number,
        "spin.kind": st.sampled_from(["electron", "nuclear", "x"]) | malformed,
        "experiment.parameters.delta_hz": number, "experiment.parameters.drive_u": number,
        "experiment.parameters.n": count},
    "decoherence_budget": {
        "experiment.parameters.gamma0_hz": number, "experiment.parameters.xi_hz": number,
        "experiment.parameters.delta_hz": number,
        "experiment.parameters.drive_u": st.lists(ordinary | extreme, max_size=3) | malformed},
}


def overrides(name):
    """Up to four distinct keys of experiment ``name``, each with a value of its strategy."""
    keys = KEYS[name]
    pair = st.sampled_from(sorted(keys)).flatmap(lambda key: st.tuples(st.just(key), keys[key]))
    return st.lists(pair, max_size=4, unique_by=lambda kv: kv[0])


@pytest.mark.parametrize("name", sorted(KEYS))
def test_exit_code_contract(name):
    @SETTINGS
    @given(overrides(name))
    def check(sets):
        argv = ["experiment", name]
        for key, value in sets:
            argv += ["--set", f"{key}={json.dumps(value)}"]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--output", f"{out}/run"])
            report = Path(out, "run", "report.json")
            reported = report.read_text() if report.exists() else ""
        assert code in (0, 2, 3, 4), err.getvalue()
        assert not caught, [str(w.message) for w in caught]
        lines = err.getvalue().splitlines()
        assert lines and all(LINE.fullmatch(line) for line in lines), lines
        # a number that left the floats is refused, never reported as "nan"
        assert '"nan"' not in reported

    check()
