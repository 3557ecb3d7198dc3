"""Exact, vectorised format(x, ".17g") for float64 arrays, for the trajectory CSVs.

:func:`encode` turns a block of values into fields, the text bytes and
layout of each value, and :func:`join` writes fields row by row, each
followed by its column's separator, into one uint8 buffer. The bytes are
those of format(x, ".17g") for every value.

The 17 significant digits are D = round(|x| * 10**(16 - k)) with
k = floor(log10 |x|). 10**(16 - k) is held as two doubles hi + lo; |x| * hi
is its rounded double plus the exact remainder from Dekker's product
(Dekker, Numer. Math. 18, 224, 1971), and |x| * lo is added to that
remainder. The error on D, which is about 1e17, stays below 1e-14, so D is
exact unless the fractional part of the product lies within 1e-6 of 1/2.
Such a value, one outside [1e-280, 1e280], a non-finite one, and one whose
product falls outside [1e16, 1e17) (k was off by one) are formatted by
format() itself. Zero is "0" or "-0". A value's text is gathered from its
text bytes by the byte positions of its layout: fixed or scientific
notation with its exponent, the number of significant digits and the sign,
or a format() text of a given length. Tables are built on first use, not at
import.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["encode", "join"]

_POWERS = range(-265, 298)  # every 16 - k for 1e-280 <= |x| <= 1e280
_SPLIT = 134217729.0  # 2**27 + 1, which splits a double into two 26-bit halves (Veltkamp)
_ZERO = 850  # the layouts of "0" and "-0"; format() text of length m is layout 851 + m
# A value's text bytes (0-23: 17 digits at 3-19, the digits of |k| at 21-23, or
# a format() text from 0) are followed in its source row by _CONST and the separator.
_TEXT = 24  # the longest text is "-2.2250738585072014e-308"
_CONST = b"-.0e+"


@cache
def _tables():
    """The lookup tables of :func:`encode`.

    ``hi + lo`` is 10**p for every p in ``_POWERS`` and ``hi_top + hi_low``
    is ``hi`` split in halves; ``chunks`` holds the ASCII digits of every
    4-digit number as one uint32; ``counts`` the significant digits of D when
    chunk j (1-4) of D has value c and is its last nonzero one, at
    (j - 1) * 10000 + c; ``k_layout`` the layout of each k before its digit
    count and sign are added; ``index`` and ``length`` the source byte
    positions of each layout's text.
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
    chunks = (ascii4 + ord("0")).astype(np.uint8).view(np.uint32).reshape(-1)
    last = np.select([ascii4[:, 3] > 0, ascii4[:, 2] > 0, ascii4[:, 1] > 0], [4, 3, 2], 1).astype(np.int8)
    counts = np.where(four > 0, last + np.arange(1, 17, 4, dtype=np.int8)[:, None], np.int8(0))

    def digits(first, stop):
        return list(range(3 + first, 3 + stop))

    # kinds 0-20: fixed notation, k = kind - 4; 21-24: scientific, e+dd, e+ddd, e-dd, e-ddd
    layouts = []
    for kind in range(25):
        for count in range(1, 18):
            for sign in ([], [24]):
                if kind < 4:
                    body = [26, 25] + [26] * (3 - kind) + digits(0, count)
                elif kind < 21:
                    point = kind - 3
                    body = digits(0, point) + ([25] + digits(point, count) if count > point else [])
                else:
                    negative, three = divmod(kind - 21, 2)
                    body = digits(0, 1) + ([25] + digits(1, count) if count > 1 else [])
                    body += [27, 24 if negative else 28] + [21, 22, 23][1 - three:]
                layouts.append(sign + body)
    layouts += [[26], [24, 26]] + [list(range(m)) for m in range(1, _TEXT + 1)]
    length = np.array([len(layout) for layout in layouts], dtype=np.int16)
    index = np.zeros((len(layouts), _TEXT), dtype=np.int16)
    for row, layout in zip(index, layouts):
        row[:len(layout)] = layout
    k = np.arange(16 - _POWERS[-1], 17 - _POWERS[0])
    kind = np.where((k >= -4) & (k <= 16), k + 4, 21 + 2 * (k < 0) + (np.abs(k) >= 100))
    return hi, hi_top, hi - hi_top, np.array(lo), chunks, counts.reshape(-1), 34 * kind - 2, index, length


def _digits(a: np.ndarray):
    """k = floor(log10 a), D = round(a * 10**(16 - k)), and where D is exact, for 1e-280 <= a <= 1e280."""
    hi, hi_top, hi_low, lo = _tables()[:4]
    k = np.floor(np.log10(a)).astype(np.intp)
    p = 16 - _POWERS[0] - k  # the row of 10**(16 - k)
    top = _SPLIT * a
    top -= top - a
    low = a - top
    product = a * hi[p]
    # Dekker's exact remainder of a * hi: low*h_low - (((product - top*h_top) - low*h_top) - top*h_low)
    h = hi_top[p]
    error = product - top * h
    error -= low * h
    h = hi_low[p]
    error -= top * h
    np.subtract(low * h, error, out=error)
    error += a * lo[p]
    whole = np.rint(error)
    digits = product.astype(np.int64) + whole.astype(np.int64)
    exact = (product - 1e16) + error >= 0
    exact &= digits < 10 ** 17
    error -= whole
    exact &= np.abs(np.abs(error) - 0.5) >= 1e-6
    return k, digits, exact


def encode(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fields of a 1-D array of floats: text bytes as uint32 words, shape (6, n), and layouts."""
    *_, chunks, counts, k_layout, _, _ = _tables()
    values = np.asarray(values, dtype=np.float64)
    a = np.abs(values)
    direct = (a >= 1e-280) & (a <= 1e280)
    a[~direct] = 1.0
    k, digits, exact = _digits(a)
    direct &= exact
    digits[~direct] = 10 ** 16

    words = np.empty((6, a.size), dtype=np.int32)  # d0, d1-d4, ..., d13-d16, |k|
    lead = digits // 10 ** 16
    words[0] = lead
    digits -= lead * 10 ** 16
    lead = digits // 10 ** 8
    digits -= lead * 10 ** 8
    words[1] = lead // 10000
    words[2] = lead - 10000 * words[1]
    words[3] = digits // 10000
    words[4] = digits - 10000 * words[3]
    words[5] = np.abs(k)
    text = chunks[words]
    words[1:5] += np.arange(0, 40000, 10000, dtype=np.int32)[:, None]
    count = np.maximum(counts[words[1:5]].max(axis=0), 1)

    sign = np.signbit(values)
    layout = k_layout.take(k - (16 - _POWERS[-1])) + 2 * count + sign
    zero = values == 0
    layout[zero] = _ZERO + sign[zero]
    for i in np.flatnonzero(~direct & ~zero):
        given = format(float(values[i]), ".17g").encode()
        text[:, i] = np.frombuffer(given.ljust(_TEXT), dtype=np.uint32)
        layout[i] = _ZERO + 1 + len(given)
    return text, layout


@cache
def _gather(width: int) -> tuple[np.ndarray, int]:
    """Source byte positions of each layout's text and a separator of up to ``width`` bytes.

    Also returns the source row length: the text bytes, ``_CONST`` and the
    separator, padded to whole uint32 words.
    """
    *_, index, length = _tables()
    tail = _TEXT + len(_CONST)
    row = -(-(tail + width) // 4) * 4
    past = np.arange(_TEXT + width, dtype=np.int16) - length[:, None]  # >= 0: the separator's bytes
    gather = np.minimum(past + tail, row - 1)
    gather[:, :_TEXT] = np.where(past[:, :_TEXT] < 0, index, gather[:, :_TEXT])
    return gather, row


def join(fields, separators) -> np.ndarray:
    """Rows of text: field i of every column, each followed by its column's separator.

    ``fields`` holds one (text, layout) pair of equal length per column, as
    :func:`encode` returns them or slices of them; ``separators`` one bytes
    object per column.
    """
    length = _tables()[-1]
    gather, row = _gather(max(map(len, separators)))
    rows = len(fields[0][1])
    source = np.empty((len(fields), rows, row), dtype=np.uint8)  # column by column
    text = source.view(np.uint32)[:, :, :_TEXT // 4]
    layout = np.empty((len(fields), rows), dtype=np.int16)
    for column, ((words, codes), separator) in enumerate(zip(fields, separators)):
        text[column] = words.T
        layout[column] = codes
        source[column, :, _TEXT:_TEXT + len(_CONST) + len(separator)] = np.frombuffer(
            _CONST + separator, dtype=np.uint8)
    position = np.arange(gather.shape[1])
    spelled = np.empty((rows, len(fields), len(position)), dtype=np.uint8)
    starts = np.arange(0, rows * row, row)[:, None]
    for column, codes in enumerate(layout):
        positions = np.add(gather.take(codes, axis=0), starts, dtype=np.intp)
        source[column].take(positions, out=spelled[:, column], mode="clip")
    sizes = np.array([len(separator) for separator in separators])
    return spelled[position < (length.take(layout.T) + sizes)[:, :, None]]
