"""Exact ``.17g`` text for float64 columns, formatted a column at a time.

:func:`format_g17` gives one NUL-padded ASCII row per value; with the NULs
dropped, a row is exactly the bytes of ``format(v, ".17g")``.
:func:`cells` turns such rows into a column's CSV cells, :func:`column_cells`
gives a whole column's cells, those of a column that mirrors itself bit for
bit from its upper half, and :func:`csv_rows` joins columns of cells into
CSV lines.

Digits come from certify-or-fall-back generation, as in Grisu (Loitsch,
"Printing floating-point numbers quickly and accurately with integers",
PLDI 2010).  With E = floor(log10 |v|), P = |v| 10^(16-E) is formed as
p + q: p + e is Dekker's exact product of |v| with hi, the double nearest
10^(16-E) (Dekker, Numer. Math. 18, 224, 1971), and q = e + |v| lo adds
lo, the double nearest 10^(16-E) - hi.  The error of p + q is below
2^-104 P < 2^-47, so N = round(P) is the 17-digit significand whenever the
fraction of p + q lies more than ``_TIE_MARGIN`` = 2^-30 from 1/2,
10^16 <= floor(p + q) and N < 10^17 (E was right).  Every other value is
formatted by Python: exact decimal ties, a misestimated E, +-0, subnormals,
|v| outside [1e-270, 1e270], inf and nan.

A formatted value is ``WIDTH`` bytes in fixed slots, NUL where unused: the
sign, the "0.000" prefix of fixed notation below 1, the digits before the
decimal point, the point, the digits after it, the "e-123" suffix of
scientific notation and the CSV separator.  The 17 digits are written to
both digit slots and a mask table keeps the right ones, so no byte moves
within a row.  Python's text keeps the sign slot, "-" or NUL, and its
unsigned text follows.  Values are formatted in blocks of ``BLOCK_ROWS``
rows, so temporaries do not grow with the column.  Tables are built on
first use.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

# Byte slots of a formatted value, which is six little-endian uint64 words.
WIDTH = 48
_WORDS = WIDTH // 8
# Byte 0 holds the sign, "-" or NUL.
_PREFIX, _LEAD, _POINT, _FRAC, _SUFFIX, _SEPARATOR = 1, 7, 24, 25, 41, 46
_MINUS = ord("-")
_DIGITS = 17

# Working memory of a block, and an upper estimate of it per row.
_BLOCK_BYTES = 1 << 20
_ROW_BYTES = 512
BLOCK_ROWS = _BLOCK_BYTES // _ROW_BYTES

# Table range of E.  Certified |v| lie in [10^(_E_MIN + 1), 10^_E_MAX],
# where 10^(16-E) and its second double lo stay normal.
_E_MIN, _E_MAX = -271, 270
_TIE_MARGIN = 2.0 ** -30
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles


def _fallback(value: float) -> bytes:
    return format(value, ".17g").encode("ascii")


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    head = c - (c - a)
    return head, a - head


def _words(rows: np.ndarray) -> np.ndarray:
    """(n, WIDTH) uint8 rows as (n, _WORDS) uint64."""
    return np.ascontiguousarray(rows).view("<u8")


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """(head, tail, hi, lo) of 10^(16-E) in row E - _E_MIN: hi the nearest
    double, lo the double nearest the rest, head + tail Veltkamp's split of
    hi.  Exact rationals come from Python ints, whose true division rounds
    correctly."""
    his, los = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den
        h_num, h_den = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(his)
    return (*_split(hi), hi, np.array(los))


@functools.cache
def _layout() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frame of each E (row E - _E_MIN), which holds its prefix and
    suffix; the point class of each E, the count of digits before the point
    or 0 for fixed notation below 1, whose point is in the prefix; and the
    digit masks, row 18 * class + kept for ``kept`` significant digits.
    ``.17g`` is fixed notation for -4 <= E < 17, else scientific; digits
    before the point are never dropped; below 10 only the leading digit
    takes a slot before the point."""
    exps = range(_E_MIN, _E_MAX + 1)
    frame = np.zeros((len(exps), WIDTH), np.uint8)
    point = np.empty(len(exps), np.int64)
    for i, e in enumerate(exps):
        if -4 <= e < 0:
            text = b"0." + b"0" * (-e - 1)
            frame[i, _PREFIX:_PREFIX + len(text)] = list(text)
            point[i] = 0
        elif 0 <= e < _DIGITS:
            point[i] = e + 1
        else:
            text = f"e{e:+03d}".encode("ascii")
            frame[i, _SUFFIX:_SUFFIX + len(text)] = list(text)
            point[i] = 1

    masks = np.zeros((_DIGITS + 1, _DIGITS + 1, WIDTH), np.uint8)
    digit = np.arange(_DIGITS)
    for cls in range(_DIGITS + 1):
        for kept in range(1, _DIGITS + 1):
            mask = masks[cls, kept]
            first = max(cls, 1)
            after = (digit >= first) & (digit < kept)
            mask[_LEAD:_LEAD + _DIGITS][digit < first] = 0xFF
            mask[_FRAC - 1:_FRAC - 1 + _DIGITS][after] = 0xFF
            mask[_POINT] = 0xFF if cls and after.any() else 0
    return _words(frame), point, _words(masks.reshape(-1, WIDTH))


@functools.cache
def _quads() -> tuple[np.ndarray, np.ndarray]:
    """ASCII digits of 0000..9999 as one little-endian uint64 each (high
    half zero), and, for the group g of digits 1 + 4g .. 4 + 4g, the count
    of digits up to its last nonzero one (0 for 0000)."""
    n = np.arange(10_000, dtype=np.uint16)
    digits = np.empty((n.size, 4), np.uint8)
    last = np.zeros(n.size, np.int8)
    for position, scale in enumerate((1000, 100, 10, 1)):
        digits[:, position] = n // scale % 10
        last[digits[:, position] != 0] = position + 1
    shown = np.array([np.where(last, 1 + 4 * g + last, 0) for g in range(4)],
                     np.int8)
    text = (digits + ord("0")).view("<u4").ravel().astype("<u8")
    return text, shown


def format_g17(values: np.ndarray) -> np.ndarray:
    """``(n, WIDTH)`` uint8 rows of NUL-padded ASCII: row i without its NULs
    is ``format(values[i], ".17g")``."""
    values = np.asarray(values, dtype=np.float64).ravel()
    out = np.empty((values.size, _WORDS), "<u8")
    for start in range(0, values.size, BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        _format_block(values[block], out[block])
    return out.view(np.uint8)


def _format_block(values: np.ndarray, out: np.ndarray) -> None:
    mag = np.abs(values)
    ok = (mag >= 10.0 ** (_E_MIN + 1)) & (mag <= 10.0 ** _E_MAX)
    mag = np.where(ok, mag, 1.0)
    row = np.floor(np.log10(mag)).astype(np.int64) - _E_MIN

    # p + q = mag * 10^(16 - E); p is an integer once p >= 1e16 > 2^53.
    head, tail, hi, lo = (t.take(row) for t in _powers())
    m_head, m_tail = _split(mag)
    p = mag * hi
    q = (((m_head * head - p) + m_head * tail + m_tail * head)
         + m_tail * tail) + mag * lo
    whole_q = np.floor(q)
    frac = q - whole_q
    ok &= (p >= 1e16) & (np.abs(frac - 0.5) > _TIE_MARGIN)
    floor_p = np.where(ok, p, 1e16).astype(np.int64) + whole_q.astype(np.int64)
    n = floor_p + (frac > 0.5)
    ok &= (floor_p >= 10 ** 16) & (n < 10 ** 17)
    n[~ok] = 10 ** 16

    # The leading digit, then four 4-digit groups from the table.
    lead = n // 10 ** 16
    rest = n - lead * 10 ** 16
    upper = rest // 10 ** 8
    lower = rest - upper * 10 ** 8
    g1, g3 = upper // 10 ** 4, lower // 10 ** 4
    groups = (g1, upper - g1 * 10 ** 4, g3, lower - g3 * 10 ** 4)
    text, shown = _quads()
    t1, t2, t3, t4 = (text.take(g) for g in groups)
    kept = np.maximum.reduce([table.take(g)
                              for table, g in zip(shown, groups)], initial=1)

    # Every digit in both digit slots; the mask keeps the shown ones.
    high, low = t1 | (t2 << 32), t3 | (t4 << 32)
    out[:, 0] = (lead.astype("<u8") + ord("0")) << 56
    out[:, 1], out[:, 2] = high, low
    out[:, 3] = ord(".") | (high << 8)
    out[:, 4] = (high >> 56) | (low << 8)
    out[:, 5] = low >> 56
    frame, point, masks = _layout()
    out &= masks.take((_DIGITS + 1) * point.take(row) + kept, axis=0)
    out |= frame.take(row, axis=0)
    out[:, 0] |= np.signbit(values).astype("<u8") * ord("-")

    bad = np.flatnonzero(~ok)
    if bad.size:
        out[bad] = _words(_python_rows(values[bad]))


def _python_rows(values: np.ndarray) -> np.ndarray:
    """``(n, WIDTH)`` uint8 rows of Python's ``.17g`` text of ``values``,
    laid out as a certified row is: byte 0 is the sign slot, "-" or NUL,
    and the unsigned text follows it, NUL-padded."""
    scalar = [text if text[:1] == b"-" else b"\0" + text
              for text in map(_fallback, values.tolist())]
    return np.array(scalar, dtype=f"S{WIDTH}").view(np.uint8) \
        .reshape(values.size, WIDTH)


def cells(rows: np.ndarray, end: str) -> np.ndarray:
    """A column's CSV cells from its :func:`format_g17` rows, which this
    fills in place: each row's little-endian uint64 words with ``end`` (","
    before another column, "\\n" after the last) in the separator slot.
    Words 1 and 2 hold digits before the point after the first, which no
    value below 10 has; a column without any drops them, and its rows then
    need less NUL stripping."""
    rows[:, _SEPARATOR] = ord(end)
    words = _words(rows)
    return words if words[:, 1:3].any() else words[:, [0, 3, 4, 5]]


def _mirror_flip(values: np.ndarray) -> int | None:
    """0 when ``values`` (two or more) mirror themselves bit for bit,
    v[i] == v[n-1-i] for every i < n // 2, 2^63 when they do with the sign
    bit flipped (v[i] == -v[n-1-i]) and no such v[i] is NaN, whose text,
    "nan" whatever its sign, has no sign to flip; else None."""
    bits = values.view(np.uint64)
    flip = int(bits[0] ^ bits[-1])
    if flip not in (0, 1 << 63):
        return None
    half = bits.size // 2
    mirror = bits[::-1][:half]
    if flip:
        mirror = mirror ^ np.uint64(flip)
    if not np.array_equal(bits[:half], mirror):
        return None
    return None if flip and np.isnan(values[:half]).any() else flip


def column_cells(values: np.ndarray, end: str) -> Iterator[np.ndarray]:
    """The :func:`cells` of ``values`` (1-D), one array per block of
    ``BLOCK_ROWS`` rows.

    ``.17g`` text depends only on a value's bits, so a column that mirrors
    itself bit for bit, v[i] = v[n-1-i] (even) or v[i] = -v[n-1-i] with
    the sign bit flipped (odd) for every i < n // 2, is formatted from its
    upper half v[n // 2:]: row i < n // 2 reuses the cell of row n - 1 - i,
    its sign slot, byte 0, switched between NUL and "-" in an odd column.
    Every row, Python's included, has that slot, and an odd column holds
    no NaN (see :func:`_mirror_flip`).  The upper half's cells, 32 B a
    value (48 B when one of them needs words 1 and 2), are held while the
    column's blocks are built.  Any other column is formatted block by
    block, each block dropping its unused words by itself."""
    values = np.asarray(values, dtype=np.float64)
    n, half = values.size, values.size // 2
    flip = _mirror_flip(values) if half else None
    if flip is None:
        for start in range(0, n, BLOCK_ROWS):
            yield cells(format_g17(values[start:start + BLOCK_ROWS]), end)
        return

    upper = cells(format_g17(values[half:]), end)
    lower = upper[::-1][:half]  # a view: row i < half is lower[i]
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        mirrored = lower[start:stop]
        block = np.concatenate((mirrored, upper[max(start - half, 0):
                                                max(stop - half, 0)]))
        if flip:
            block[:len(mirrored), 0] ^= _MINUS
        yield block


def csv_rows(*columns: np.ndarray) -> bytes:
    """CSV lines from columns of :func:`cells` of equal length: each row's
    cells side by side, without their NULs."""
    return np.concatenate(columns, axis=1).tobytes().translate(None, b"\0")
