import json

import numpy as np
import pytest

from ballwalk import (
    Ball,
    Constant,
    Estimate,
    WalkConfig,
    csv_table,
    estimate_field,
    field_csv,
    format_value,
    json_report,
    svg_heatmap,
    to_jsonable,
    trace_csv,
)
from ballwalk.reporting import CELL_SIZE


def test_format_value():
    assert format_value(0.1) == repr(0.1)
    assert format_value(1.0) == "1.0"
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(42) == "42"
    assert format_value("x") == "x"
    assert format_value(np.float64(0.5)) == "0.5"


def test_csv_table_layout():
    out = csv_table(["a", "b"], [[1, 2.5], [3, False]], comments={"z": 1, "a": 0.5})
    lines = out.splitlines()
    # comment lines are sorted by key, then header, then data
    assert lines[0] == "# a=0.5"
    assert lines[1] == "# z=1"
    assert lines[2] == "a,b"
    assert lines[3] == "1,2.5"
    assert lines[4] == "3,false"
    assert out.endswith("\n")


def test_csv_table_no_comments():
    out = csv_table(["x"], [[1]])
    assert out == "x\n1\n"


def test_field_csv_columns():
    disk = Ball((0.0, 0.0), 1.0)
    field = estimate_field(disk, Constant(2.0), [(0.0, 0.0), (3.0, 0.0)], WalkConfig(0.2), 1, 10)
    out = field_csv(field)
    lines = out.splitlines()
    assert lines[0] == "x1,x2,mean,stderr,n,truncated"
    assert lines[1].startswith("0.0,0.0,2.0,0.0,10,0")
    # skipped exterior point serializes its NaN row
    assert "nan" in lines[2]


def test_trace_csv():
    trace = np.array([[0.0, 0.5], [0.1, 0.6]])
    out = trace_csv(trace)
    assert out == "step,x1,x2\n0,0.0,0.5\n1,0.1,0.6\n"


def test_to_jsonable_handles_the_awkward_types():
    est = Estimate(1.5, 0.25, 100)
    d = to_jsonable(est)
    assert d == {"mean": 1.5, "stderr": 0.25, "n": 100, "truncated_count": 0}
    assert to_jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]
    assert to_jsonable(np.float64(3.5)) == 3.5
    assert to_jsonable(np.int64(3)) == 3
    assert to_jsonable(float("nan")) == "nan"
    assert to_jsonable(float("inf")) == "inf"
    assert to_jsonable({"k": (1, 2)}) == {"k": [1, 2]}


def test_json_report_is_stable_and_parseable():
    payload = {"b": 1, "a": {"nested": np.array([1.0])}, "c": float("nan")}
    text = json_report(payload)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert list(parsed) == ["a", "b", "c"]
    assert parsed["c"] == "nan"
    assert json_report(payload) == text


def test_svg_heatmap_grid():
    values = np.array([[0.0, 1.0], [0.5, np.nan]])
    svg = svg_heatmap(values)
    assert svg.startswith("<svg")
    assert f'width="{2 * CELL_SIZE}" height="{2 * CELL_SIZE}"' in svg
    assert svg.count("<rect") == 4
    assert "#c8c8c8" in svg  # NaN cell uses the missing color
    assert "#1d3a6e" in svg and "#f3c548" in svg  # extremes hit both ends


def test_svg_heatmap_row_zero_at_bottom():
    values = np.array([[0.0], [1.0]])
    svg = svg_heatmap(values)
    rects = [chunk for chunk in svg.split("<rect")[1:]]
    # row 0 (value 0, low color) must carry the larger y coordinate
    low = next(r for r in rects if "#1d3a6e" in r)
    high = next(r for r in rects if "#f3c548" in r)
    y_of = lambda r: float(r.split('y="')[1].split('"')[0])
    assert y_of(low) > y_of(high)
    assert y_of(low) == CELL_SIZE and y_of(high) == 0.0


def test_svg_heatmap_constant_uses_midpoint():
    svg = svg_heatmap(np.array([[2.0, 2.0]]))
    assert svg.count("<rect") == 2
    # a flat field renders as the 50% blend, not the low end
    assert "#1d3a6e" not in svg and "#f3c548" not in svg
