"""Property tests: the encoder and the CSV writer against a writer that formats one value at a time."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chiralspin.cli as cli_module
from chiralspin import Trajectory, g17

# derandomized and without an example database, so a run is repeatable and writes no files
SETTINGS = settings(derandomize=True, database=None, deadline=None)
separators = st.text(alphabet=",;0\t\n ab", min_size=1, max_size=12).map(str.encode)


def per_value(columns, seps) -> bytes:
    """Row by row, each value as format(x, ".17g") followed by its column's separator."""
    return b"".join(format(float(x), ".17g").encode() + sep
                    for row in zip(*columns) for x, sep in zip(row, seps))


@st.composite
def tables(draw):
    """1-6 columns of equal length over every float (subnormals, +-0, +-inf and nan too)."""
    rows = draw(st.integers(1, 40))
    width = draw(st.integers(1, 6))
    columns = draw(st.lists(st.lists(st.floats(), min_size=rows, max_size=rows),
                            min_size=width, max_size=width))
    return columns, draw(st.lists(separators, min_size=width, max_size=width))


@SETTINGS
@given(tables())
def test_join_of_encoded_columns_matches_per_value_format(table):
    columns, seps = table
    assert g17.join([g17.encode(np.array(c)) for c in columns], seps).tobytes() == per_value(columns, seps)


@SETTINGS
@given(tables())
def test_one_encode_sliced_into_columns_matches_per_value_format(table):
    # the CSV writer encodes all its columns in one call and slices the records
    columns, seps = table
    rows = len(columns[0])
    records = g17.encode(np.concatenate([np.array(c) for c in columns]))
    sliced = [records[:, j:j + rows] for j in range(0, records.shape[1], rows)]
    assert g17.join(sliced, seps).tobytes() == per_value(columns, seps)


STEP = cli_module._CSV_PIECE_BYTES // g17.row_bytes([b","] * 3 + [b",0\n"])  # rows per piece below


@pytest.mark.parametrize("rows", [1, STEP - 1, STEP, STEP + 1])
@settings(SETTINGS, max_examples=10)
@given(pool=st.lists(st.floats(), min_size=1, max_size=64), seed=st.integers(0, 2 ** 32 - 1))
def test_trajectory_csv_pieces_match_per_value_format(tmp_path_factory, rows, pool, seed):
    # columns t, Re<a>, Im<a>, Re<b> are written, Im<b> is +0.0 throughout and joins a separator
    rng = np.random.default_rng(seed)
    draw = lambda: rng.choice(np.array(pool), rows)  # noqa: E731
    a, b = np.empty(rows, dtype=complex), np.zeros(rows, dtype=complex)
    a.real, a.imag, b.real = draw(), draw(), draw()
    a.real[0] = a.imag[0] = b.real[0] = 1.0
    traj = Trajectory(draw(), {"a": a, "b": b}, None, rate_scale=1.0)
    join, pieces = g17.join, []
    path = tmp_path_factory.mktemp("csv") / "values.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(g17, "join", lambda records, seps: pieces.append(seps) or join(records, seps))
        cli_module._write_trajectory_csv(path, traj)

    names = [f"{part}<{label}>[dimensionless]" for label in "ab" for part in ("Re", "Im")]
    header = ",".join(["t[1/rate_scale]"] + names).encode() + b"\n"
    columns = [traj.times, a.real, a.imag, b.real, b.imag]
    assert path.read_bytes() == header + per_value(columns, [b","] * 4 + [b"\n"])
    assert pieces == [[b",", b",", b",", b",0\n"]] * math.ceil(rows / STEP)
