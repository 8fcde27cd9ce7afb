"""Report rendering: figure tables with ASCII bars, full markdown report.

`python -m repro figures` uses :func:`write_report` to produce a single
document with every regenerated figure/table; the bar renderer gives the
normalized figures the visual shape of the paper's plots in plain text.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, TextIO

from ..common.tables import render_table
from .figures import ALL_FIGURES, FigureData
from .hardware_model import table07_rows
from .runner import SuiteResults

_BAR_WIDTH = 40


def render_bars(
    labels: Sequence[str],
    values: Sequence[float],
    title: str = "",
    reference: float = 1.0,
) -> str:
    """An ASCII bar chart with a reference line at ``reference``."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    peak = max(list(values) + [reference]) or 1.0
    scale = _BAR_WIDTH / peak
    ref_col = int(reference * scale)
    lines: List[str] = []
    if title:
        lines.append(title)
    width = max((len(l) for l in labels), default=0)
    for label, value in zip(labels, values):
        filled = int(value * scale)
        bar = ""
        for i in range(_BAR_WIDTH + 1):
            if i == ref_col and i > filled:
                bar += "|"
            elif i < filled:
                bar += "#"
            elif i == filled:
                bar += "#" if value > 0 else " "
            else:
                bar += " "
        lines.append(f"{label.ljust(width)}  {bar.rstrip()}  {value:.2f}")
    return "\n".join(lines)


def figure_with_bars(data: FigureData, value_column: int = 3) -> str:
    """Render one figure's table followed by a bar view of its ratios.

    A failed pair's ratio is ``nan``: the table shows it as ``n/a`` and
    the bar view leaves the row out.
    """
    title, headers, rows = data
    out = [render_table(headers, rows, title)]
    bar_rows = [r for r in rows
                if r[0] != "GEOMEAN" and isinstance(r[value_column], float)
                and math.isfinite(r[value_column])]
    if bar_rows:
        labels = [str(r[0]) for r in bar_rows]
        values = [float(r[value_column]) for r in bar_rows]
        out.append("")
        out.append(render_bars(labels, values,
                               title=f"({headers[value_column]}, ref = 1.0)"))
    return "\n".join(out)


_BAR_COLUMNS = {"fig05": 3, "fig06": 3, "fig07": 3, "fig08": 3,
                "fig09": 3, "fig11": 3, "fig12": 3}


def write_report(results: SuiteResults, stream: TextIO,
                 keys: Optional[Sequence[str]] = None) -> None:
    """Write every figure/table (plus Table 7) to ``stream``."""
    chosen = list(keys) if keys else list(ALL_FIGURES)
    print(f"# Lost in Abstraction — regenerated evaluation "
          f"(scale={results.scale})", file=stream)
    print(file=stream)
    for key in chosen:
        data = ALL_FIGURES[key](results)
        if key in _BAR_COLUMNS:
            print(figure_with_bars(data, _BAR_COLUMNS[key]), file=stream)
        else:
            title, headers, rows = data
            print(render_table(headers, rows, title), file=stream)
        print(file=stream)
    title, headers, rows = table07_rows(results)
    print(render_table(headers, rows, title), file=stream)
    print(file=stream)
    verified = "all verified" if results.all_verified() else "VERIFICATION FAILURES"
    print(f"functional checks: {verified}", file=stream)
