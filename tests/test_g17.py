import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chiralspin
from chiralspin import g17


def encoded(values, separator=b"\n") -> bytes:
    return g17.join([g17.encode(values)], [separator]).tobytes()


def assert_exact(values):
    """The encoder writes exactly format(x, ".17g") for every value."""
    values = np.asarray(values, dtype=float)
    for first in range(0, values.size, 1 << 16):
        block = values[first:first + (1 << 16)]
        want = "".join([format(x, ".17g") + "\n" for x in block.tolist()]).encode()
        got = encoded(block)
        if got != want:
            wrong = [(float(x), g, w) for x, g, w in zip(block, got.split(b"\n"), want.split(b"\n"))
                     if g != w]
            pytest.fail(f"{len(wrong)} values differ from format(x, '.17g'), first {wrong[:5]}")


def layout(x: float) -> tuple[int, int, bool, bool]:
    """Exponent, significant digits, scientific notation and sign of format(x, ".17g")."""
    text = format(x, ".17g")
    mantissa = text.partition("e")[0]
    count = len(mantissa.lstrip("-").replace(".", "").strip("0"))
    return int(format(x, ".16e").split("e")[1]), count, "e" in text, text.startswith("-")


def spelled(k: int, count: int):
    """The first n * 10**(k - count + 1), n of ``count`` digits, whose text has exponent k and
    ``count`` significant digits; None if none of the first 20000 n does."""
    for n in range(10 ** (count - 1), 10 ** count)[:20000]:
        x = float(f"{n}e{k - count + 1}")
        if layout(x)[:2] == (k, count):
            return x
    return None


class TestExactText:
    def test_every_fixed_layout(self):
        # exponent -4...16 x 1...17 significant digits x sign
        values = [sign * spelled(k, count) for k in range(-4, 17) for count in range(1, 18)
                  for sign in (1.0, -1.0)]
        assert len({layout(x) for x in values}) == 21 * 17 * 2
        assert not any(layout(x)[2] for x in values)
        assert_exact(values)

    def test_scientific_layouts(self):
        # every digit count with 2- and 3-digit exponents of both signs, and more exponents
        exponents = (17, 42, 99, 100, 101, 280, 281, 300, 308,
                     -5, -42, -99, -100, -101, -280, -281, -300, -307)
        values = [sign * x for k in exponents for count in range(1, 18)
                  for x in [spelled(k, count)] if x is not None for sign in (1.0, -1.0)]
        covered = {(k < 0, abs(k) >= 100, count, negative)
                   for k, count, scientific, negative in map(layout, values) if scientific}
        assert len(covered) == 2 * 2 * 17 * 2
        assert_exact(values)

    def test_zeros_nonfinite_and_subnormal(self):
        tiny = 5e-324
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, tiny, -tiny,
                  2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308]
        values += [m * tiny for m in (2, 3, 7, 10, 12345, 2 ** 40 + 1, 2 ** 52 - 1)]
        assert_exact(values + [-x for x in values])

    def test_powers_of_ten_and_their_neighbours(self):
        values = []
        for k in range(-300, 301):
            power = float(f"1e{k}")
            values += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)]
        assert_exact(values + [-x for x in values])

    def test_exact_halfway_values(self):
        # 18 significant digits ending in 5: round half to even decides the 17th digit
        values = [2.0 ** -25, 3 * 2.0 ** -25]
        for k in range(-5, 15):
            q = 17 - k
            base = -(-10 ** max(k, 0) * 2 ** q // 10 ** max(-k, 0)) | 1
            values += [(base + 2 * j) / 2 ** q for j in range(40)]
        assert format(2.0 ** -25, ".17g") == "2.9802322387695312e-08"
        assert_exact(values + [-x for x in values])

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20240611).integers(0, 2 ** 64, 1_000_000, dtype=np.uint64)
        assert_exact(bits.view(np.float64))


class TestJoin:
    def test_columns_interleave_with_their_separators(self):
        first = np.array([0.5, -1e-300, 3.0])
        second = np.array([1 / 3, math.nan, -0.0])
        text = g17.join([g17.encode(first), g17.encode(second)], [b",", b",0,0\n"]).tobytes()
        assert text == b"0.5,0.33333333333333331,0,0\n-1e-300,nan,0,0\n3,-0,0,0\n"

    def test_slices_of_fields(self):
        values = np.array([1.25, 2.5, 1e22, 7e-5])
        records = g17.encode(values)
        rows = g17.join([records[:, 2:], records[:, :2]], [b";", b"\n"])
        assert rows.tobytes() == b"1e+22;1.25\n6.9999999999999994e-05;2.5\n"


def test_import_builds_no_tables():
    # the tables are built on first use, and nothing pulls in fractions (and with it decimal)
    code = ("import sys, chiralspin.cli, chiralspin.g17 as g; "
            "assert g._tables.cache_info().currsize == 0 and 'fractions' not in sys.modules")
    src = Path(chiralspin.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(src)})
