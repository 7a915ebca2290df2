"""Plain-text table rendering for experiment and benchmark reports.

The paper's evaluation is a set of tables and figures; the benchmark
harness prints each as an aligned ASCII table so the "rows/series the
paper reports" are regenerated verbatim in textual form.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence


def _fmt(value: Any, ndigits: int) -> str:
    if isinstance(value, float):
        return f"{value:.{ndigits}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str | None = None,
    ndigits: int = 3,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table."""
    str_rows: List[List[str]] = [[_fmt(v, ndigits) for v in row] for row in rows]
    for i, row in enumerate(str_rows):
        if len(row) != len(headers):
            raise ValueError(
                f"row {i} has {len(row)} cells, expected {len(headers)}"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

    sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    out: List[str] = []
    if title:
        out.append(title)
    out.append(sep)
    out.append(line(list(headers)))
    out.append(sep)
    for row in str_rows:
        out.append(line(row))
    out.append(sep)
    return "\n".join(out)

