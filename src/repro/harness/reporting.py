"""Result tables with paper-versus-measured rows.

Every benchmark prints a :class:`Table`; EXPERIMENTS.md is assembled from
the same rows, so the console output and the document never diverge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the aggregation the paper's GEOMEAN bars use)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Row:
    """One line of a result table."""

    label: str
    measured: float
    paper: Optional[float] = None
    unit: str = ""
    note: str = ""

    def formatted(self, width: int) -> str:
        paper = f"{self.paper:10.3f}" if self.paper is not None else (
            " " * 10)
        note = f"  {self.note}" if self.note else ""
        return (f"  {self.label:<{width}} {self.measured:10.3f} "
                f"{paper} {self.unit}{note}")


@dataclass
class Table:
    """A titled collection of rows, printable and diffable.

    ``metadata`` carries run telemetry (wall-clock, simulated accesses
    per second, cache hits, worker count) so future perf work has an
    archived baseline to regress against; it is included in
    :meth:`to_dict` and therefore in every ``results/*.json`` artifact.
    """

    title: str
    rows: List[Row] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def add(self, label: str, measured: float,
            paper: Optional[float] = None, unit: str = "",
            note: str = "") -> None:
        self.rows.append(Row(label, measured, paper, unit, note))

    def render(self) -> str:
        width = max([len(r.label) for r in self.rows] + [8])
        header = (f"{self.title}\n  {'':<{width}} {'measured':>10} "
                  f"{'paper':>10}")
        body = "\n".join(row.formatted(width) for row in self.rows)
        return f"{header}\n{body}"

    def show(self) -> None:
        print()
        print(self.render())

    def to_dict(self) -> dict:
        """Machine-readable form (archived as JSON next to the text)."""
        return {
            "title": self.title,
            "rows": [
                {"label": row.label, "measured": row.measured,
                 "paper": row.paper, "unit": row.unit, "note": row.note}
                for row in self.rows
            ],
            "metadata": dict(self.metadata),
        }


def traffic_breakdown(stats, top: int = 12) -> str:
    """Per-message-type interconnect traffic table for one run."""
    from repro.common.messages import MESSAGE_BYTES
    rows = []
    for kind, count in stats.messages.items():
        rows.append((MESSAGE_BYTES[kind] * count, count, kind.name))
    rows.sort(reverse=True)
    total = max(stats.traffic_bytes, 1)
    lines = [f"  {'message':<20} {'count':>10} {'bytes':>12} {'share':>7}"]
    for nbytes, count, name in rows[:top]:
        lines.append(f"  {name:<20} {count:>10,} {nbytes:>12,} "
                     f"{nbytes / total:>6.1%}")
    return "\n".join(lines)


def ascii_bars(values, labels, width: int = 46, lo: float = None,
               hi: float = None) -> str:
    """Render values as a horizontal ASCII bar chart (terminal reports).

    The bar range defaults to [min, max] padded slightly so small
    speedup differences remain visible.
    """
    values = list(values)
    labels = list(labels)
    if not values:
        return "(no data)"
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    if hi <= lo:
        hi = lo + 1e-9
    span = hi - lo
    lo -= 0.05 * span
    hi += 0.05 * span
    label_width = max(len(str(label)) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        filled = int(round((value - lo) / (hi - lo) * width))
        bar = "#" * max(filled, 1)
        lines.append(f"  {str(label):<{label_width}} |{bar:<{width}}| "
                     f"{value:.3f}")
    return "\n".join(lines)
