"""Row containers and text rendering for experiment outputs.

Every experiment driver returns a list of :class:`Row`; the benches print
them with :func:`format_table`, which is also what EXPERIMENTS.md quotes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Row", "format_table"]


@dataclass
class Row:
    """One measured row of an experiment.

    Attributes
    ----------
    experiment:
        Experiment id (e.g. ``"E2"``; ``python -m repro.experiments
        --list`` names them all).
    algorithm:
        Which algorithm/baseline produced the row.
    params:
        The swept parameters (``{"z": 64, ...}``).
    metrics:
        Measured quantities (storage, sizes, ratios).
    """

    experiment: str
    algorithm: str
    params: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)


def _fmt(v) -> str:
    if isinstance(v, float):
        if v != v:  # nan
            return "nan"
        if abs(v) >= 1000 or (abs(v) < 0.01 and v != 0):
            return f"{v:.3g}"
        return f"{v:.3f}".rstrip("0").rstrip(".")
    return str(v)


def format_table(rows: "list[Row]", title: str = "") -> str:
    """Render rows as an aligned text table (one line per row)."""
    if not rows:
        return f"== {title} ==\n(no rows)\n"
    param_keys: list[str] = []
    metric_keys: list[str] = []
    for r in rows:
        for k in r.params:
            if k not in param_keys:
                param_keys.append(k)
        for k in r.metrics:
            if k not in metric_keys:
                metric_keys.append(k)
    headers = ["exp", "algorithm"] + param_keys + metric_keys
    table = [headers]
    for r in rows:
        table.append(
            [r.experiment, r.algorithm]
            + [_fmt(r.params.get(k, "")) for k in param_keys]
            + [_fmt(r.metrics.get(k, "")) for k in metric_keys]
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(f"== {title} ==")
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
