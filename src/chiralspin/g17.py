"""Exact, vectorised format(x, ".17g") for float64 arrays, for the trajectory CSVs.

:func:`encode` turns a block of values into records, and :func:`join` writes
records row by row, each followed by its column's separator, into one uint8
buffer. The bytes are those of format(x, ".17g") for every value.

The 17 significant digits are D = round(|x| * 10**(16 - k)) with
k = floor(log10 |x|). 10**(16 - k) is held as two doubles hi + lo; |x| * hi
is its rounded double plus the exact remainder from Dekker's product
(Dekker, Numer. Math. 18, 224, 1971), and |x| * lo is added to that
remainder. The error on D, which is about 1e17, stays below 1e-14, so D is
exact unless the fractional part of the product lies within 1e-6 of 1/2.
Such a value, one outside [1e-280, 1e280], a non-finite one, and one whose
product falls outside [1e16, 1e17) (k was off by one) are formatted by
format() itself. Zero is "0" or "-0".

A record is four uint64 words of text, NUL in every byte the text does not
use: the sign (byte 0), the prefix "0." to "0.000" of k = -1...-4 (1-5),
d0 (6), the point of k = 0 and of scientific notation (7), d1...d16 up to
the last significant digit (8-23) and the exponent "e+dd" to "e-ddd"
(24-28). Fixed notation with k = 1...16 keeps the digits up to dk; when
more follow, its point comes after dk and moves them one byte up. A
format() text fills its record from byte 0. No text and no separator holds
a NUL, so :func:`join` drops every NUL byte of its row buffer in one pass.
Tables are built on first use, not at import.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["encode", "join", "row_bytes"]

_POWERS = range(-265, 298)  # every 16 - k for 1e-280 <= |x| <= 1e280
_SPLIT = 134217729.0  # 2**27 + 1, which splits a double into two 26-bit halves (Veltkamp)
_WORDS = 4  # uint64 words per record; the longest text is "-2.2250738585072014e-308"


def _word(text: bytes, at: int = 0) -> int:
    """The integer whose little-endian bytes from ``at`` on are ``text``."""
    return int.from_bytes(text, "little") << 8 * at


@cache
def _tables():
    """The lookup tables of :func:`encode`.

    ``hi + lo`` is 10**p for every p in ``_POWERS`` and ``hi_top + hi_low``
    is ``hi`` split in halves; ``quads`` holds the ASCII digits of every
    4-digit number in a uint64; ``counts[j - 1, c]`` the significant digits
    of D when chunk j (1-4) of D has value c and is its last nonzero one.
    At k + 281: ``head``, word 0 but for sign and d0; ``tail``, word 3;
    ``whole``, the digits after d0 that fixed notation always keeps.
    ``keep[:, j]`` masks words 0-2 to j digits after d0 and the point;
    ``point[:, j]`` puts a point after the first j of them.
    """
    hi, lo = [], []
    for p in _POWERS:
        exact = 10 ** abs(p)
        if p >= 0:
            hi.append(float(exact))
            lo.append(float(exact - int(hi[-1])))
        else:
            hi.append(1 / exact)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * exact) / (den * exact))
    hi = np.array(hi)
    hi_top = _SPLIT * hi
    hi_top -= hi_top - hi

    four = np.arange(10000, dtype=np.int16)
    ascii4 = np.stack([four // 1000, four // 100 % 10, four // 10 % 10, four % 10], axis=1)
    quads = (ascii4 + ord("0")).astype(np.uint8).view(np.uint32).reshape(-1).astype(np.uint64)
    last = np.select([ascii4[:, 3] > 0, ascii4[:, 2] > 0, ascii4[:, 1] > 0], [4, 3, 2], 1).astype(np.int8)
    counts = np.where(four > 0, last + np.arange(1, 17, 4, dtype=np.int8)[:, None], np.int8(0))

    head, tail, whole = [], [], []
    for k in range(16 - _POWERS[-1], 17 - _POWERS[0]):
        scientific = not -4 <= k <= 16
        head.append(_word(b"0." + b"0" * (-1 - k), 1) if -4 <= k < 0 else _word(b".", 7) * (k == 0 or scientific))
        tail.append(_word(f"e{k:+03d}".encode()) * scientific)
        whole.append(k if 0 < k <= 16 else 0)
    ones = (1 << 64) - 1
    spans = [(1 << 8 * j) - 1 for j in range(17)]
    keep = [[ones ^ _word(b".", 7) * (j == 0), span & ones, span >> 64] for j, span in enumerate(spans)]
    point = [[_word(b".", j) & ones, _word(b".", j) >> 64] for j in range(16)]
    return (hi, hi_top, hi - hi_top, np.array(lo), quads, counts,
            *(np.array(t, dtype=np.uint64) for t in (head, tail)), np.array(whole, dtype=np.int8),
            *(np.array(t, dtype=np.uint64).T.copy() for t in (keep, point)))


def _digits(a: np.ndarray):
    """k = floor(log10 a), D = round(a * 10**(16 - k)), and where D is exact, for 1e-280 <= a <= 1e280."""
    hi, hi_top, hi_low, lo = _tables()[:4]
    k = np.floor(np.log10(a)).astype(np.intp)
    p = 16 - _POWERS[0] - k  # the row of 10**(16 - k)
    top = _SPLIT * a
    top -= top - a
    low = a - top
    h = hi.take(p)
    product = a * h
    # Dekker's exact remainder of a * hi: low*h_low - (((product - top*h_top) - low*h_top) - top*h_low)
    hi_top.take(p, out=h)
    error = product - top * h
    error -= low * h
    hi_low.take(p, out=h)
    error -= top * h
    np.subtract(low * h, error, out=error)
    del top, low
    lo.take(p, out=h)
    h *= a
    error += h
    whole = np.rint(error, out=h)
    digits = product.astype(np.int64)
    digits += whole.astype(np.int64)
    exact = (product - 1e16) + error >= 0
    exact &= digits < 10 ** 17
    error -= whole
    exact &= np.abs(np.abs(error) - 0.5) >= 1e-6
    return k, digits, exact


def encode(values: np.ndarray) -> np.ndarray:
    """The records of a 1-D array of floats: uint64 words, shape (4, n), one column per value."""
    *_, quads, counts, head, tail, whole, keep, point = _tables()
    values = np.asarray(values, dtype=np.float64)
    a = np.abs(values)
    direct = (a >= 1e-280) & (a <= 1e280)
    a[~direct] = 1.0
    k, digits, exact = _digits(a)
    del a
    direct &= exact
    digits[~direct] = 0  # zero is "0" with k = 0; other values are overwritten below

    records = np.empty((_WORDS, values.size), dtype=np.uint64)
    lead = records[0].view(np.int64)  # d0, then word 0
    np.floor_divide(digits, 10 ** 16, out=lead)
    digits -= lead * 10 ** 16
    first = digits // 10 ** 8  # d1-d8; digits keeps d9-d16
    digits -= first * 10 ** 8
    last = np.zeros(values.size, dtype=np.int8)
    chunk = np.empty(values.size, dtype=np.int64)
    scratch = chunk.view(np.uint64)
    for j, (half, word) in enumerate(zip((first, digits), records[1:3])):
        np.floor_divide(half, 10000, out=chunk)  # the half's first 4 digits; half keeps its last 4
        half -= chunk * 10000
        np.maximum(last, np.maximum(counts[2 * j].take(chunk), counts[2 * j + 1].take(half)), out=last)
        quads.take(chunk, out=word, mode="clip")  # mode="clip" fills ``out`` in place, unbuffered
        word |= quads.take(half, out=scratch, mode="clip") << np.uint64(32)
    del first, digits
    k -= 16 - _POWERS[-1]  # the row of k in the per-k tables
    fixed = whole.take(k)
    np.maximum(last - 1, fixed, out=last)  # digits kept after d0

    lead += ord("0")
    records[0] <<= np.uint64(48)
    records[0] |= head.take(k)
    records[0] |= np.signbit(values) * np.uint64(ord("-"))
    for j in range(3):
        records[j] &= keep[j].take(last, out=scratch, mode="clip")
    tail.take(k, out=records[3], mode="clip")

    shift = np.flatnonzero((last > fixed) & (fixed > 0))  # fixed notation with a fraction: point after dk
    if shift.size:
        j = fixed.take(shift)
        below = keep[1:].take(j, axis=1)
        digit = records[1:3, shift]
        moved = digit & ~below
        digit = (digit & below) | point.take(j, axis=1) | (moved << np.uint64(8))
        digit[1] |= moved[0] >> np.uint64(56)
        records[1:3, shift] = digit
        records[3, shift] = moved[1] >> np.uint64(56)

    for i in np.flatnonzero(~direct & (values != 0)):
        given = format(float(values[i]), ".17g").encode()
        records[:, i] = np.frombuffer(given.ljust(8 * _WORDS, b"\0"), dtype=np.uint64)
    return records


def row_bytes(separators) -> int:
    """The bytes :func:`join` buffers per row: each column's record and its separator in whole words."""
    return sum(8 * _WORDS + -(-len(s) // 8) * 8 for s in separators)


def join(records, separators) -> np.ndarray:
    """Rows of text: record i of every column, each followed by its column's separator.

    ``records`` holds one (4, n) array of equal n per column, as
    :func:`encode` returns them or slices of them; ``separators`` one bytes
    object per column.
    """
    width = row_bytes(separators)
    text = bytearray(width * records[0].shape[1])
    rows = np.frombuffer(text, dtype=np.uint64).reshape(-1, width // 8)
    at = 0
    for words, separator in zip(records, separators):
        tail = np.frombuffer(separator.ljust(-(-len(separator) // 8) * 8, b"\0"), dtype=np.uint64)
        rows[:, at:at + _WORDS] = words.T
        rows[:, at + _WORDS:at + _WORDS + tail.size] = tail
        at += _WORDS + tail.size
    del records, words, rows  # a caller's temporary list of records is freed before compaction
    return np.frombuffer(text.translate(None, b"\0"), dtype=np.uint8)
