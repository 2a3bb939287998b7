"""CSV and JSON interchange formats.

Formats:

* permutation CSV: header ``i,pi`` then n rows of 1-based integers;
* multi-draw CSV: header ``draw,i,pi``;
* lottery CSV: header ``day_of_year,draw_order``, both columns
  permutations of 1..366;
* grid CSV: first line k, then k comma-separated rows;
* JSON reports: flat objects with all floats printed to 10 significant
  digits so reruns diff cleanly.

The CSV writers format in numpy, a block of rows at a time, and give the
bytes that Python's own formatting gives: ``str`` of each integer, and
``'%.10g'`` of each grid value.
"""
from __future__ import annotations

import csv
import functools
import json
import re
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import IO, ContextManager, Union

import numpy as np

from .perm import Permutation

__all__ = [
    "load_permutation_csv",
    "save_draws_csv",
    "LotteryData",
    "load_lottery_csv",
    "write_grid_csv",
    "format_json_report",
    "LOTTERY_SIZE",
]

PathLike = Union[str, Path]
LOTTERY_SIZE = 366


# One field of a data line: an optionally signed decimal integer, with
# spaces or tabs around it.  A line of spaces, tabs and commas alone is blank.
_FIELD = r"[ \t]*[+-]?[0-9]+[ \t]*"
_BLANK = r"[ \t,]*"


@functools.cache
def _body_pattern(width: int) -> re.Pattern:
    """Every line after the header blank or ``width`` comma-separated fields."""
    line = rf"(?:{_FIELD}(?:,{_FIELD}){{{width - 1}}}|{_BLANK})"
    return re.compile(rf"(?:{line}\n)*{line}")


def _row_error(path: PathLike, body: str, width: int) -> ValueError:
    """The error of the first line after the header that is not a valid row."""
    for lineno, line in enumerate(body.split("\n"), start=2):
        if re.fullmatch(_BLANK, line):
            continue
        row = line.split(",")
        if not all(re.fullmatch(_FIELD, c) for c in row):
            return ValueError(f"{path}:{lineno}: non-integer field in {row!r}")
        if len(row) != width:
            return ValueError(f"{path}:{lineno}: expected {width} fields")
        if not all(-2**63 <= int(c) < 2**63 for c in row):
            return ValueError(f"{path}:{lineno}: integer beyond int64 in {row!r}")
    raise AssertionError(f"{path}: no invalid row found")


def _read_rows(path: PathLike, expected_header: list[str]) -> np.ndarray:
    """The rows after the header as an int64 array of shape (rows, fields).

    The file is read in universal-newline mode, so CRLF lines are read
    as LF lines.  Blank lines are skipped.  The body is checked by one
    regular expression and converted by one ``np.array`` call; the lines
    are walked one by one only to word an error.
    """
    with open(path) as fh:
        text = fh.read()
    if not text:
        raise ValueError(f"{path}: empty file")
    first, _, body = text.partition("\n")
    header = next(csv.reader([first]))
    if [h.strip() for h in header] != expected_header:
        raise ValueError(
            f"{path}: expected header {','.join(expected_header)!r}, got {header!r}"
        )
    width = len(expected_header)
    if _body_pattern(width).fullmatch(body):
        try:
            values = np.array(body.replace(",", " ").split(), dtype=np.int64)
            return values.reshape(-1, width)
        except OverflowError:
            pass
    raise _row_error(path, body, width)


def load_permutation_csv(path: PathLike) -> Permutation:
    """Read an ``i,pi`` file; validates that both columns are bijections."""
    rows = _read_rows(path, ["i", "pi"])
    n = len(rows)
    idx, img = rows.T
    # the index column sorts to 1..n exactly when it is a bijection of 1..n
    order = idx.argsort()
    if not np.array_equal(idx[order], np.arange(1, n + 1)):
        raise ValueError(f"{path}: index column is not a bijection of 1..{n}")
    return Permutation(img[order])


def save_draws_csv(draws: np.ndarray, path_or_stream) -> None:
    """Write an (m, n) integer array, as ``sample`` returns it, in the ``draw,i,pi``
    format, row d - 1 as draw d; ValueError unless it is 2-D with every value in 1..n."""
    draws = np.asarray(draws)
    if draws.ndim != 2 or draws.size and not 1 <= draws.min() <= draws.max() <= draws.shape[1]:
        raise ValueError("draws must form a 2-D array whose values lie in 1..n, n the row length")
    digits = _digits(draws.shape[1])
    with _writing(path_or_stream) as fh:
        fh.write("draw,i,pi\n")
        for d, row in enumerate(draws, start=1):
            _write_int_rows(fh, f"{d},", row, digits)


def _digits(top: int) -> np.ndarray:
    """The ASCII digits of 0..top, one row each, right-aligned at the width
    of top; the positions left of a number's first digit are NUL."""
    width = len(str(top))
    table = np.zeros((top + 1, width), dtype=np.uint8)
    for col in range(width):
        unit = 10 ** (width - 1 - col)
        # down the column the digit runs "0".."9" over and over, unit rows each
        cycle = np.repeat(np.arange(ord("0"), ord("9") + 1, dtype=np.uint8), unit)
        table[unit:, col] = np.resize(cycle, top + 1)[unit:]
    table[0, -1] = ord("0")
    return table


def _write_int_rows(fh: IO, prefix: str, values: np.ndarray, digits: np.ndarray) -> None:
    """Write the rows ``f"{prefix}{i},{v}\\n"`` for i = 1, 2, ... and each v of values.

    Both numbers are read from ``digits`` (see ``_digits``; its top is at
    least len(values) and every v) into fixed-width slots of one uint8 row
    each, and the NUL bytes of the empty slot positions are left out.  The
    rows go out in blocks of about ``_BLOCK_VALUES`` bytes, so the buffers
    stay small whatever the draw's n.
    """
    head = np.frombuffer(prefix.encode("ascii"), dtype=np.uint8)
    p = head.size
    w = digits.shape[1]
    row_bytes = p + 2 * w + 2
    step = max(1, _BLOCK_VALUES // row_bytes)
    for start in range(0, values.size, step):
        block = values[start:start + step]
        rows = np.empty((block.size, row_bytes), dtype=np.uint8)
        rows[:, :p] = head
        rows[:, p:p + w] = digits[start + 1:start + block.size + 1]
        rows[:, p + w] = ord(",")
        rows[:, p + w + 1:-1] = digits[block]
        rows[:, -1] = ord("\n")
        fh.write(rows[rows != 0].tobytes().decode("ascii"))


@dataclass(frozen=True, eq=False)
class LotteryData:
    """Draw order by day of year; day and order jointly define pi."""

    day_of_year: np.ndarray
    draw_order: np.ndarray

    def pi(self) -> Permutation:
        """pi(i) = the day of year drawn i-th."""
        values = np.empty(LOTTERY_SIZE, dtype=np.int64)
        values[self.draw_order - 1] = self.day_of_year
        return Permutation(values)

    def tau(self) -> Permutation:
        """The reflected sequence 367 - pi, biased toward the identity."""
        return Permutation(LOTTERY_SIZE + 1 - self.pi().values)


def load_lottery_csv(path: PathLike) -> LotteryData:
    """Read a ``day_of_year,draw_order`` file of exactly 366 rows."""
    rows = _read_rows(path, ["day_of_year", "draw_order"])
    if len(rows) != LOTTERY_SIZE:
        raise ValueError(f"{path}: expected {LOTTERY_SIZE} rows, got {len(rows)}")
    days, order = rows.T
    # Permutation() validates bijectivity of each column
    Permutation(days)
    Permutation(order)
    return LotteryData(days, order)


def _writing(path_or_stream) -> ContextManager[IO]:
    """A caller's stream, left open on exit, or a path opened and closed."""
    if hasattr(path_or_stream, "write"):
        return nullcontext(path_or_stream)
    return open(path_or_stream, "w", newline="")


def _fmt(x: float) -> str:
    return f"{x:.10g}"


# Grid values are formatted in blocks of about this many, and integer rows in
# blocks of about this many bytes, each written as soon as it is made, so
# memory stays flat in the grid size and the draw size.
_BLOCK_VALUES = 1 << 15
# Exact powers of ten: 10**22 is the largest that a double holds exactly.
_POW10 = np.array([float(10**j) for j in range(23)])
_IPOW10 = np.array([10**j for j in range(14)], dtype=np.int64)
# Twice the rounding error of one product s < 1e10 (|error| <= 2**-53 * s).
_HALF_TOL = 2.0**-52 * 1e10
# suffixes[2 * (E + _EXP_BIAS) + row_end] ends a value with exponent E;
# code 0 (E = -_EXP_BIAS, below every double) is fixed notation.
_EXP_BIAS = 330


def _words(chars: np.ndarray, dtype) -> np.ndarray:
    """Rows of ASCII codes (0 for no character) as one word per row."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(dtype).ravel()


def _packed(strings: list, dtype) -> np.ndarray:
    width = np.dtype(dtype).itemsize
    raw = b"".join(s.encode("ascii").ljust(width, b"\0") for s in strings)
    return np.frombuffer(raw, dtype=dtype)


@functools.cache
def _ascii_tables():
    """Lookup tables of ASCII words; a NUL byte stands for no character.

    ``groups[g]``, ``groups[10000 + g]`` and ``groups[20000 + g]`` hold the
    4-digit group g with all its digits, with leading zeros dropped (0
    keeps "0") and with trailing zeros dropped (0 gives nothing).
    ``heads[g + 100 * negative]`` is the sign and the top integer group
    g < 100 (0 gives nothing), ``points[d]`` is "." and the first fraction
    digit d, and ``suffixes`` (uint64) the exponent mark and separator.
    """
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    nonzero = digits != 0
    lead = np.logical_or.accumulate(nonzero, axis=1)
    lead[:, 3] = True
    trail = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    ascii_digits = digits + ord("0")
    groups = np.concatenate([_words(ascii_digits, np.uint32),
                             _words(ascii_digits * lead, np.uint32),
                             _words(ascii_digits * trail, np.uint32)])
    heads = _packed([sign + (str(g) if g else "") for sign in ("", "-")
                     for g in range(100)], np.uint32)
    points = _packed([f".{d}" for d in range(10)], np.uint32)
    suffixes = _packed([("" if code == 0 else f"e{code - _EXP_BIAS:+03d}") + sep
                        for code in range(2 * _EXP_BIAS) for sep in ",\n"], np.uint64)
    return groups, heads, points, suffixes


def _scale(a: np.ndarray, p: np.ndarray):
    """a * 10**p by steps of exact powers of ten, and a bound on the roundings.

    Each step errs by at most 2**-53 relative: a product that stays
    subnormal is exact, and the quotients (p < 0) stay above 1e9.
    """
    up = p >= 0
    ap = np.abs(p)
    q = ap // 22
    s = a.copy()
    for j in range(int(q.max(initial=0))):
        more = q > j
        np.multiply(s, 1e22, out=s, where=more & up)
        np.divide(s, 1e22, out=s, where=more & ~up)
    step = _POW10[ap - 22 * q]
    np.multiply(s, step, out=s, where=up)
    np.divide(s, step, out=s, where=~up)
    return s, q + 1


def _near_half(s: np.ndarray, roundings: np.ndarray) -> np.ndarray:
    """Where rounding error in s may have moved it across a half-integer."""
    frac = s - np.floor(s)
    frac -= 0.5
    return np.abs(frac, out=frac) <= roundings * _HALF_TOL


def _format_values(x: np.ndarray, row_end: np.ndarray) -> str:
    """``'%.10g' % v`` for each float64 v of x, each followed by "," or, where
    row_end is set, by a newline.

    For finite nonzero v with decimal exponent e, the 10-digit mantissa is
    m = rint(|v| * 10**(9 - e)).  The product is rounded at most once per
    power-of-ten step, so m is the correctly rounded mantissa unless the
    product lies within that error of a half-integer; those values, and
    inf and nan, are formatted one by one instead.  The digits of m are
    read four at a time from tables into fixed-width slots, and the NUL
    bytes of empty slot positions are removed at the end.
    """
    groups, heads, points, suffixes = _ascii_tables()
    n = x.size
    a = np.abs(x)
    finite = np.isfinite(a)
    zero = a == 0
    a[~finite | zero] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    s, roundings = _scale(a, 9 - e)
    m = np.rint(s)
    one_by_one = ~finite | _near_half(s, roundings)
    # log10 may put e one off next to a power of ten; so may rounding up to 1e10
    off = np.flatnonzero((m >= 1e10) | (m < 1e9))
    if off.size:
        e[off] += np.where(m[off] >= 1e10, 1, -1)
        s_off, roundings_off = _scale(a[off], 9 - e[off])
        m[off] = np.rint(s_off)
        one_by_one[off] |= _near_half(s_off, roundings_off)
    m[zero] = 0
    e[zero] = 0
    fixed = (e >= -4) & (e < 10)
    # the value is ip.fp: an integer part below 1e10 and 13 fraction digits
    shift = np.where(fixed, 9 - e, 9)
    ip = np.floor(m / _POW10[shift])
    m -= ip * _POW10[shift]
    fp = m.astype(np.int64) * _IPOW10[13 - shift]
    ip = ip.astype(np.int64)

    out = np.empty((n, 10), dtype=np.uint32)
    top = ip // 100_000_000
    out[:, 0] = heads[top + 100 * np.signbit(x)]
    low = ip - top * 100_000_000
    mid = low // 10_000
    low -= mid * 10_000
    out[:, 1] = groups[mid + 10_000 * (ip < 100_000_000)] * (ip >= 10_000)
    out[:, 2] = groups[low + 10_000 * (ip < 10_000)]
    first = fp // 10**12
    out[:, 3] = points[first] * (fp != 0)
    fp -= first * 10**12
    out[:, 7] = 0
    for col, unit in ((4, 10**8), (5, 10**4), (6, 1)):
        g = fp // unit
        fp -= g * unit
        # full digits while a nonzero digit follows, else trailing zeros dropped
        out[:, col] = groups[g + 20_000 * (fp == 0)]
    suffix = out.view(np.uint64)[:, 4]
    suffix[:] = suffixes[2 * np.where(fixed, 0, e + _EXP_BIAS) + row_end]

    raw = out.view(np.uint8)
    for i in np.flatnonzero(one_by_one).tolist():
        text = ("%.10g" % x[i]).encode("ascii")
        raw[i, :32] = 0
        raw[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        suffix[i] = suffixes[int(row_end[i])]
    return out.tobytes().translate(None, b"\0").decode("ascii")


def write_grid_csv(values: np.ndarray, path_or_stream) -> None:
    """Emit a square grid: first line k, then k comma-separated rows.

    Every value is written as ``'%.10g' % v`` writes it, byte for byte.
    """
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("grid must be square")
    arr = arr.astype(np.float64, copy=False)
    k = arr.shape[0]
    rows = max(1, _BLOCK_VALUES // max(k, 1))
    row_end = np.tile(np.arange(k) == k - 1, rows)
    with _writing(path_or_stream) as fh:
        fh.write(f"{k}\n")
        for start in range(0, k, rows):
            block = arr[start:start + rows].ravel()
            fh.write(_format_values(block, row_end[:block.size]))


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(_fmt(float(obj)))
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    return obj


def format_json_report(report: dict) -> str:
    """Serialize a report with floats at 10 significant digits."""
    return json.dumps(_round_floats(report), indent=2, sort_keys=False)
