"""Pass/fail verification records and deterministic CSV emission.

All numeric output uses 12 significant digits, '.' as the decimal separator,
and LF line endings, so byte-identical reruns are a meaningful check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

SIGNIFICANT_DIGITS = 12
FLOAT_FORMAT = f".{SIGNIFICANT_DIGITS}g"
_format_float = f"{{:{FLOAT_FORMAT}}}".format

VERIFICATION_HEADER = ("check", "k", "j", "observed", "bound", "slack", "pass")
MATRIX_HEADER = ("i", "j", "value")


def format_number(value) -> str:
    """Deterministic text for one CSV cell."""
    # Fast path for the exact builtin types that fill most cells.
    if type(value) is float:
        return "" if math.isnan(value) else f"{value:{FLOAT_FORMAT}}"
    if type(value) is int:
        return str(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if math.isnan(x):
        return ""
    return f"{x:{FLOAT_FORMAT}}"


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_number(v) for v in row])


def write_matrix_csv(path, entries: np.ndarray) -> None:
    """Write a finite matrix's nonzero entries as ``write_csv`` would, 1-based and
    row-major; one write per matrix row keeps memory O(N) beside the matrix.

    Each value is formatted once per pair of adjacent rows: a row takes the
    text of any value the previous row held from a lookup kept at one row's
    size (a Toeplitz resolvent repeats every value; it then keeps the lookup
    of the row it was built from).  Lookups end at the first row that repeats
    none of its predecessor's values, as in a dense random matrix; every later
    value is formatted where it stands.
    """
    labels = [f"{j}," for j in range(1, entries.shape[1] + 1)]
    known: dict | None = {}  # value -> text, covering the previous row's values
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(MATRIX_HEADER) + "\n")
        for i, row in enumerate(entries, start=1):
            cols = np.flatnonzero(row)
            n = cols.size
            if not n:
                continue
            values = row[cols].tolist()
            if known is None:
                texts = list(map(_format_float, values))
            else:
                try:
                    texts = list(map(known.__getitem__, values))
                except KeyError:
                    found = list(map(known.get, values))
                    texts = [t or _format_float(x) for t, x in zip(found, values)]
                    repeats = found.count(None) < n
                    known = dict(zip(values, texts)) if repeats or not known else None
            lo, hi = int(cols[0]), int(cols[-1]) + 1
            # One join of "i," label text, "\ni," label text, ..., "\n".
            parts = [f"\n{i},"] * (3 * n + 1)
            parts[0], parts[-1] = f"{i},", "\n"
            parts[1::3] = labels[lo:hi] if hi - lo == n else list(map(labels.__getitem__, cols.tolist()))
            parts[2::3] = texts
            fh.write("".join(parts))


@dataclass(frozen=True)
class CheckRow:
    """One verified inequality: observed <= bound, slack = bound - observed."""

    check: str
    k: int | None
    j: int | None
    observed: float
    bound: float
    slack: float
    passed: bool

    def as_csv_row(self) -> tuple:
        return (self.check, self.k, self.j, self.observed, self.bound, self.slack, self.passed)


def make_check(check: str, observed: float, bound: float, k: int | None = None,
               j: int | None = None, tolerance: float = 0.0) -> CheckRow:
    observed = float(observed)
    bound = float(bound)
    return CheckRow(
        check=check,
        k=k,
        j=j,
        observed=observed,
        bound=bound,
        slack=bound - observed,
        passed=observed <= bound + tolerance,
    )


@dataclass(frozen=True, eq=False)
class VerificationReport:
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def worst_slack(self) -> float:
        return min((row.slack for row in self.rows), default=math.inf)

    def failures(self) -> tuple[CheckRow, ...]:
        return tuple(row for row in self.rows if not row.passed)

    def to_csv(self, path) -> None:
        write_csv(path, VERIFICATION_HEADER, (row.as_csv_row() for row in self.rows))


def merge_reports(reports: Iterable[VerificationReport]) -> VerificationReport:
    rows: list[CheckRow] = []
    for report in reports:
        rows.extend(report.rows)
    return VerificationReport(tuple(rows))
