"""CSV and JSON interchange formats.

Formats:

* permutation CSV: header ``i,pi`` then n rows of 1-based integers;
* multi-draw CSV: header ``draw,i,pi``;
* lottery CSV: header ``day_of_year,draw_order``, both columns
  permutations of 1..366;
* grid CSV: first line k, then k comma-separated rows;
* JSON reports: flat objects with all floats printed to 10 significant
  digits so reruns diff cleanly.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np

from .perm import Permutation

__all__ = [
    "load_permutation_csv",
    "save_permutation_csv",
    "save_draws_csv",
    "LotteryData",
    "load_lottery_csv",
    "write_grid_csv",
    "format_json_report",
    "LOTTERY_SIZE",
]

PathLike = Union[str, Path]
LOTTERY_SIZE = 366


def _read_rows(path: PathLike, expected_header: list[str]) -> list[list[int]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [h.strip() for h in header] != expected_header:
            raise ValueError(
                f"{path}: expected header {','.join(expected_header)!r}, got {header!r}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                rows.append([int(c) for c in row])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer field in {row!r}") from None
            if len(rows[-1]) != len(expected_header):
                raise ValueError(f"{path}:{lineno}: expected {len(expected_header)} fields")
    return rows


def load_permutation_csv(path: PathLike) -> Permutation:
    """Read an ``i,pi`` file; validates that both columns are bijections."""
    rows = _read_rows(path, ["i", "pi"])
    n = len(rows)
    idx = np.array([r[0] for r in rows])
    img = np.array([r[1] for r in rows])
    values = np.empty(n, dtype=np.int64)
    seen = np.zeros(n + 1, dtype=bool)
    for i, v in zip(idx, img):
        if not 1 <= i <= n or seen[i]:
            raise ValueError(f"{path}: index column is not a bijection of 1..{n}")
        seen[i] = True
        values[i - 1] = v
    return Permutation(values)


def save_permutation_csv(pi: Permutation, path_or_stream) -> None:
    close, fh = _open_for_write(path_or_stream)
    try:
        fh.write("i,pi\n")
        fh.write("".join([f"{i},{v}\n"
                          for i, v in enumerate(pi.values.tolist(), start=1)]))
    finally:
        if close:
            fh.close()


def save_draws_csv(draws: Sequence[Permutation], path_or_stream) -> None:
    """Write draws in the compact ``draw,i,pi`` multi-draw format."""
    close, fh = _open_for_write(path_or_stream)
    try:
        fh.write("draw,i,pi\n")
        for d, pi in enumerate(draws, start=1):
            fh.write("".join([f"{d},{i},{v}\n"
                              for i, v in enumerate(pi.values.tolist(), start=1)]))
    finally:
        if close:
            fh.close()


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
    days = np.array([r[0] for r in rows], dtype=np.int64)
    order = np.array([r[1] for r in rows], dtype=np.int64)
    # Permutation() validates bijectivity of each column
    Permutation(days)
    Permutation(order)
    return LotteryData(days, order)


def _open_for_write(path_or_stream) -> tuple[bool, IO]:
    if hasattr(path_or_stream, "write"):
        return False, path_or_stream
    return True, open(path_or_stream, "w", newline="")


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def write_grid_csv(values: np.ndarray, path_or_stream) -> None:
    """Emit a square grid: first line k, then k comma-separated rows."""
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("grid must be square")
    close, fh = _open_for_write(path_or_stream)
    try:
        fh.write(f"{arr.shape[0]}\n")
        # %-formatting renders floats as _fmt does, in one call per row
        line = ",".join(["%.10g"] * arr.shape[1]) + "\n"
        for row in arr:
            fh.write(line % tuple(row.tolist()))
    finally:
        if close:
            fh.close()


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
