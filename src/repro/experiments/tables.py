"""ASCII tables and series ("figures") for the benchmark harness output."""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Sequence


def _render_cell(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def format_table(rows: Sequence[Sequence[Any]], headers: Sequence[str], title: str = "") -> str:
    """Render a fixed-width ASCII table (the benchmarks' "paper table" output)."""
    rendered = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[float]],
    x_values: Sequence[Any],
    x_label: str = "x",
    title: str = "",
) -> str:
    """Render one or more named series over common x values (a textual "figure").

    Output is a table with one row per x value and one column per series,
    which is how every benchmark prints a figure.
    """
    headers = [x_label] + list(series)
    rows = []
    for index, x in enumerate(x_values):
        row: List[Any] = [x]
        for name in series:
            values = series[name]
            row.append(values[index] if index < len(values) else float("nan"))
        rows.append(row)
    return format_table(rows, headers, title=title)
