"""Deterministic report serialization: CSV, JSON, and SVG heatmaps.

Floats are rendered with repr (shortest round-trip form), so a report is a
pure function of the result values: identical estimates give identical
bytes, which is what the thread-count determinism contract is checked
against.  The SVG writer draws a plain rect grid with a two-color linear
ramp; no plotting library is involved.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np

from .estimator import FieldResult


def format_value(v) -> str:
    """Canonical scalar rendering: repr for floats, str for ints/bools."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def csv_table(header: list[str], rows, *, comments: dict[str, Any] | None = None) -> str:
    """Render a CSV string: optional '# key=value' comment lines, then the
    header row, then one line per row.  Keys are emitted sorted."""
    lines = []
    if comments:
        for key in sorted(comments):
            lines.append(f"# {key}={format_value(comments[key])}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def field_table(result: FieldResult) -> tuple[list[str], list[list]]:
    """Field estimates as a header x1..xN,mean,stderr,n,truncated and its rows."""
    n_dim = result.points.shape[1]
    header = [f"x{i + 1}" for i in range(n_dim)] + ["mean", "stderr", "n", "truncated"]
    rows = [[*result.points[j], result.means[j], result.stderrs[j],
             int(result.counts[j]), int(result.truncated[j])]
            for j in range(result.points.shape[0])]
    return header, rows


def field_csv(result: FieldResult, *, comments: dict[str, Any] | None = None) -> str:
    """Field estimates as CSV with columns x1..xN,mean,stderr,n,truncated."""
    return csv_table(*field_table(result), comments=comments)


def trace_csv(trace) -> str:
    """One trajectory as CSV with columns step,x1..xN."""
    pts = np.asarray(trace, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("a trace is a (steps, n) array of positions")
    header = ["step"] + [f"x{i + 1}" for i in range(pts.shape[1])]
    rows = [[t] + list(pts[t]) for t in range(pts.shape[0])]
    return csv_table(header, rows)


def to_jsonable(obj):
    """Recursively convert results (dataclasses, numpy values) to JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for f in dataclasses.fields(obj):
            out[f.name] = to_jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f) or math.isinf(f):
            return repr(f)
        return f
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def json_report(payload: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(to_jsonable(payload), indent=2, sort_keys=True) + "\n"


# Heatmap cell edge in pixels, and the RGB ends of the value ramp.
CELL_SIZE = 24
_LOW_RGB = (0x1D, 0x3A, 0x6E)
_HIGH_RGB = (0xF3, 0xC5, 0x48)
_MISSING_COLOR = "#c8c8c8"


def svg_heatmap(values) -> str:
    """Render a (rows, cols) value grid as an SVG rect grid.

    Cell colors are the affine map of the values onto the low->high color
    ramp; NaN cells are gray.  Row 0 is drawn at the bottom so the picture
    reads like plot axes, not matrix indices.
    """
    grid = np.asarray(values, dtype=np.float64)
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError("values must be a nonempty 2-D array")
    rows, cols = grid.shape
    finite = np.isfinite(grid)
    if np.any(finite):
        vmin = float(grid[finite].min())
        vmax = float(grid[finite].max())
    else:
        vmin = vmax = 0.0
    span = vmax - vmin

    def ramp(v: float) -> str:
        t = 0.5 if span == 0.0 else (v - vmin) / span
        rgb = tuple(round(a + t * (b - a)) for a, b in zip(_LOW_RGB, _HIGH_RGB))
        return "#{:02x}{:02x}{:02x}".format(*rgb)

    width = cols * CELL_SIZE
    height = rows * CELL_SIZE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for i in range(rows):
        y = (rows - 1 - i) * CELL_SIZE
        for j in range(cols):
            v = grid[i, j]
            fill = ramp(float(v)) if np.isfinite(v) else _MISSING_COLOR
            parts.append(
                f'<rect x="{j * CELL_SIZE}" y="{y}" width="{CELL_SIZE}" '
                f'height="{CELL_SIZE}" fill="{fill}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
