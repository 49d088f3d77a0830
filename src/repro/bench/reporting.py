"""Table rendering for benchmark output: aligned text and markdown.

The CLI and the perf scripts print rows through :func:`format_table`;
the claims registry renders EXPERIMENTS.md's claim-vs-measured table
through :func:`to_markdown`. Both format cells with :func:`format_cell`.
"""

from __future__ import annotations

from typing import Any


def format_table(rows: list[dict[str, Any]], title: str | None = None) -> str:
    """Render dict rows as an aligned text table (column order from the
    first row)."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    rendered = [
        [format_cell(row.get(column, "")) for column in columns]
        for row in rows
    ]
    widths = [
        max(len(column), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for line in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines)


def print_table(rows: list[dict[str, Any]], title: str | None = None) -> None:
    print()
    print(format_table(rows, title))


def to_markdown(rows: list[dict[str, Any]]) -> str:
    """Render rows as a GitHub-flavoured markdown table."""
    if not rows:
        return ""
    columns = list(rows[0].keys())
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append(
            "| "
            + " | ".join(format_cell(row.get(c, "")) for c in columns)
            + " |"
        )
    return "\n".join(lines)


def format_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
