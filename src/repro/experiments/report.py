"""Uniform text reporting for experiment series."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class Series:
    """One figure's data: an x axis and named y columns.

    ``format_table()`` renders the same rows the paper's figure plots, as
    aligned text — the reproduction artifact ``repro figures`` prints and
    ``tests/golden/tables/`` pins.
    """

    title: str
    x_label: str
    x_values: List[float]
    columns: Dict[str, List[float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_column(self, name: str, values: Sequence[float]) -> None:
        values = list(values)
        if len(values) != len(self.x_values):
            raise ValueError(
                f"column {name!r} has {len(values)} values for "
                f"{len(self.x_values)} x points"
            )
        self.columns[name] = values

    def column(self, name: str) -> List[float]:
        return self.columns[name]

    def format_table(self, precision: int = 1) -> str:
        """Aligned text table: one row per x value, one column per scheme."""
        headers = [self.x_label] + list(self.columns)
        rows: List[List[str]] = []
        for i, x in enumerate(self.x_values):
            row = [_format_number(x, precision)]
            row.extend(
                _format_number(self.columns[name][i], precision)
                for name in self.columns
            )
            rows.append(row)
        widths = [
            max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
            for c in range(len(headers))
        ]
        lines = [self.title]
        lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _format_number(value: float, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.{precision}f}"


def reduction_percent(baseline: float, value: float) -> float:
    """Percentage reduction of ``value`` relative to ``baseline``."""
    if baseline == 0:
        return 0.0
    return (baseline - value) / baseline * 100.0
