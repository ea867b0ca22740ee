"""Paper-style text reporting for the benchmark harness.

Each figure/table bench prints the same rows or series the paper reports,
side by side with the paper's quoted values where the paper gives them, so
``pytest benchmarks/ --benchmark-only`` output doubles as the
EXPERIMENTS.md evidence.
"""

from __future__ import annotations

from typing import Dict, Sequence

__all__ = ["render_table", "render_series", "fmt_si"]


def fmt_si(value: float, unit: str = "") -> str:
    """Human format: 1234567 -> '1.23M'."""
    for thresh, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if abs(value) >= thresh:
            return f"{value / thresh:.2f}{suffix}{unit}"
    return f"{value:.2f}{unit}"


def render_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence]) -> str:
    """Fixed-width table with a title rule."""
    cells = [[str(h) for h in headers]] + [
        [f"{c:.4g}" if isinstance(c, float) else str(c) for c in row]
        for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = [title, "=" * max(len(title), sum(widths) + 2 * len(widths))]
    for j, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if j == 0:
            lines.append("-" * (sum(widths) + 2 * len(widths)))
    return "\n".join(lines)


def render_series(title: str, x_label: str, xs: Sequence,
                  series: Dict[str, Sequence[float]],
                  y_format=fmt_si) -> str:
    """One row per x value, one column per series — a figure as text."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        row = [x] + [
            y_format(series[name][i]) if i < len(series[name]) else "-"
            for name in series
        ]
        rows.append(row)
    return render_table(title, headers, rows)
