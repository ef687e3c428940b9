"""Textual reports: the tables and stacked breakdowns the paper plots.

These helpers render exactly the series the paper's figures show —
self-relative speedup curves (Figures 1 and 2) and stacked per-phase
execution-time bars (Figures 3 and 4) — as fixed-width text tables, which
is what the benchmark harness prints next to the paper's reference values.
"""

from __future__ import annotations

from repro.sim.metrics import self_relative_speedups

__all__ = [
    "format_speedup_table",
    "format_breakdown_table",
    "format_comparison_rows",
    "series_to_csv",
]


def format_speedup_table(
    series: dict[str, dict[int, float]],
    title: str = "self-relative speedup",
) -> str:
    """Render thread→time maps per data set as a speedup table.

    ``series`` maps a label (e.g. ``"NSF abstracts"``) to its
    thread-count → elapsed-seconds measurements.
    """
    labels = list(series)
    threads = sorted({t for times in series.values() for t in times})
    speedups = {label: self_relative_speedups(series[label]) for label in labels}

    header = f"{'threads':>8} | " + " | ".join(f"{label:>16}" for label in labels)
    rule = "-" * len(header)
    lines = [title, rule, header, rule]
    for t in threads:
        cells = []
        for label in labels:
            value = speedups[label].get(t)
            cells.append(f"{value:16.2f}" if value is not None else " " * 16)
        lines.append(f"{t:>8} | " + " | ".join(cells))
    return "\n".join(lines)


def format_breakdown_table(
    breakdowns: dict[str, dict[str, float]],
    phases: list[str],
    title: str = "execution time breakdown (s)",
) -> str:
    """Render stacked-bar data: one column per configuration, one row per phase.

    ``breakdowns`` maps a configuration label (e.g. ``"discrete/16T"``) to
    its phase → seconds map; ``phases`` fixes the row order (the paper's
    stacking order).
    """
    labels = list(breakdowns)
    width = max(12, max((len(label) for label in labels), default=12) + 1)
    header = f"{'phase':>14} | " + " | ".join(f"{label:>{width}}" for label in labels)
    rule = "-" * len(header)
    lines = [title, rule, header, rule]
    for phase in phases:
        cells = [
            f"{breakdowns[label].get(phase, 0.0):>{width}.2f}" for label in labels
        ]
        lines.append(f"{phase:>14} | " + " | ".join(cells))
    totals = [
        f"{sum(breakdowns[label].values()):>{width}.2f}" for label in labels
    ]
    lines.append(rule)
    lines.append(f"{'total':>14} | " + " | ".join(totals))
    return "\n".join(lines)


def series_to_csv(series: dict[str, dict[int, float]]) -> str:
    """Render thread→value series as CSV (plot-ready: threads,label,...).

    One row per thread count, one column per labelled series; missing
    points render empty. Benchmarks write these next to their text
    reports so the figures can be re-plotted with any tool.
    """
    labels = list(series)
    threads = sorted({t for values in series.values() for t in values})
    lines = ["threads," + ",".join(labels)]
    for t in threads:
        cells = []
        for label in labels:
            value = series[label].get(t)
            cells.append("" if value is None else f"{value:.6g}")
        lines.append(f"{t}," + ",".join(cells))
    return "\n".join(lines)


def format_comparison_rows(
    rows: list[tuple[str, str, str]],
    title: str = "paper vs measured",
) -> str:
    """Render (quantity, paper value, measured value) comparison rows."""
    quantity_width = max((len(row[0]) for row in rows), default=8) + 1
    header = f"{'quantity':<{quantity_width}} | {'paper':>16} | {'measured':>16}"
    rule = "-" * len(header)
    lines = [title, rule, header, rule]
    for quantity, paper, measured in rows:
        lines.append(
            f"{quantity:<{quantity_width}} | {paper:>16} | {measured:>16}"
        )
    return "\n".join(lines)
