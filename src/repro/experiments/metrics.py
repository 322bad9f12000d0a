"""Result containers and formatting for the experiment harness.

Every figure run (:func:`repro.experiments.scenarios.run_figure`) returns a
:class:`FigureResult`: a set of named series (one per curve in the paper's
figure) plus enough metadata to print a readable table.  The harness prints
these rows; :mod:`repro.experiments.reporting` checks them against the
paper's claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Series", "FigureResult", "format_table"]


@dataclass
class Series:
    """One curve of a figure: a label and a list of (x, y) points."""

    label: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((x, y))

    def xs(self) -> List[float]:
        return [x for x, _ in self.points]

    def ys(self) -> List[float]:
        return [y for _, y in self.points]

    def mean_y(self) -> float:
        ys = self.ys()
        return sum(ys) / len(ys) if ys else 0.0

    def y_at(self, x: float) -> Optional[float]:
        for point_x, point_y in self.points:
            if point_x == x:
                return point_y
        return None


@dataclass
class FigureResult:
    """The reproduction of one figure of the paper."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: Dict[str, Series] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)

    def series_for(self, label: str) -> Series:
        if label not in self.series:
            self.series[label] = Series(label)
        return self.series[label]

    def add_point(self, label: str, x: float, y: float) -> None:
        self.series_for(label).add(x, y)

    # ------------------------------------------------------------------ #
    # text rendering
    # ------------------------------------------------------------------ #
    def to_rows(self) -> List[List[str]]:
        """Tabulate the figure: one row per x value, one column per series."""
        xs: List[float] = []
        for series in self.series.values():
            for x in series.xs():
                if x not in xs:
                    xs.append(x)
        xs.sort()
        header = [self.x_label] + [series.label for series in self.series.values()]
        rows = [header]
        for x in xs:
            row = [_format_number(x)]
            for series in self.series.values():
                value = series.y_at(x)
                row.append("-" if value is None else _format_number(value))
            rows.append(row)
        return rows

    def render(self) -> str:
        lines = [f"{self.figure_id}: {self.title}", f"  ({self.y_label} vs {self.x_label})"]
        lines.append(format_table(self.to_rows()))
        if self.notes:
            for key, value in self.notes.items():
                lines.append(f"  note: {key} = {value}")
        return "\n".join(lines)

    def summary(self) -> Dict[str, float]:
        """Mean y per series — a compact value for benchmark assertions."""
        return {label: series.mean_y() for label, series in self.series.items()}


def _format_number(value: float) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e9:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[Sequence[str]]) -> str:
    """Render rows as a fixed-width text table."""
    if not rows:
        return ""
    widths = [0] * max(len(row) for row in rows)
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))
    lines = []
    for row_index, row in enumerate(rows):
        cells = [str(cell).rjust(widths[index]) for index, cell in enumerate(row)]
        lines.append("  " + " | ".join(cells))
        if row_index == 0:
            lines.append("  " + "-+-".join("-" * width for width in widths))
    return "\n".join(lines)
