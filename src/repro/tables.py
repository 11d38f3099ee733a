"""Result containers and text rendering for experiments.

Every experiment module — each paper figure in :mod:`repro.experiments` and
each serving study in :mod:`repro.serve.experiment` — produces an
:class:`ExperimentTable`: a list of rows (dicts) plus metadata.  The table
renders itself as aligned text (what the benchmark harness prints) and as CSV
(for post-processing / plotting outside this repository — no plotting library
is required to reproduce the numbers).  The module sits outside
:mod:`repro.experiments` so the serving stack can use it without importing
the paper harness.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

__all__ = ["ExperimentTable", "geometric_mean", "normalize_to_best"]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the GeoMean column of Figures 6, 7, 12, 14, 15)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def normalize_to_best(values: dict[str, float]) -> dict[str, float]:
    """Normalise a {label: throughput} mapping so the best entry equals 1.0.

    This is how the paper presents Figures 6, 7, 14 and 15 ("throughput is
    normalized to the best one for each model").  Entries that failed (zero or
    non-finite throughput, e.g. an out-of-memory run) normalise to 0.
    """
    finite = [v for v in values.values() if v > 0 and math.isfinite(v)]
    best = max(finite, default=0.0)
    if best == 0.0:
        return {k: 0.0 for k in values}
    return {
        k: (v / best if v > 0 and math.isfinite(v) else 0.0) for k, v in values.items()
    }


@dataclass
class ExperimentTable:
    """Rows reproducing one table or figure of the paper."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def column(self, name: str) -> list[Any]:
        return [row.get(name) for row in self.rows]

    def row_by(self, key_column: str, key: Any) -> dict[str, Any]:
        for row in self.rows:
            if row.get(key_column) == key:
                return row
        raise KeyError(f"no row with {key_column}={key!r}")

    # ---------------------------------------------------------------- rendering
    @staticmethod
    def _format_value(value: Any) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            if value == 0:
                return "0"
            if not math.isfinite(value):
                return "OOM" if value == float("inf") else str(value)
            magnitude = abs(value)
            if magnitude >= 1e5 or magnitude < 1e-3:
                return f"{value:.2e}"
            return f"{value:.3f}"
        if isinstance(value, int) and abs(value) >= 1_000_000_000:
            return f"{value:.2e}"
        return str(value)

    def to_text(self) -> str:
        """Render as an aligned, monospaced table."""
        header = [self.title, "=" * len(self.title)]
        widths = {col: len(col) for col in self.columns}
        formatted_rows = []
        for row in self.rows:
            formatted = {col: self._format_value(row.get(col, "")) for col in self.columns}
            formatted_rows.append(formatted)
            for col in self.columns:
                widths[col] = max(widths[col], len(formatted[col]))
        header.append("  ".join(col.ljust(widths[col]) for col in self.columns))
        header.append("  ".join("-" * widths[col] for col in self.columns))
        for formatted in formatted_rows:
            header.append("  ".join(formatted[col].ljust(widths[col]) for col in self.columns))
        if self.notes:
            header.append("")
            header.append(f"note: {self.notes}")
        return "\n".join(header)

    def to_csv(self, path: str | Path | None = None) -> str:
        """Render as CSV; optionally also write to ``path``."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=self.columns, extrasaction="ignore")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({col: row.get(col, "") for col in self.columns})
        text = buffer.getvalue()
        if path is not None:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(text)
        return text

    def summary(self, columns: Sequence[str] | None = None) -> dict[str, float]:
        """Geometric mean of the requested numeric columns across rows."""
        columns = list(columns) if columns is not None else self.columns
        result = {}
        for col in columns:
            values = [row[col] for row in self.rows if isinstance(row.get(col), (int, float))]
            if values:
                result[col] = geometric_mean(values)
        return result
