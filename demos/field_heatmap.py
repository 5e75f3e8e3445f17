"""Solve on a grid of interior points and render an SVG heatmap.

Writes field.csv and field.svg next to this script. The boundary data is
the trace of x1 * x2 (harmonic), so the rendered field is the saddle
itself, sampled by walks.
"""
import os

import numpy as np

import ballwalk as bw

here = os.path.dirname(os.path.abspath(__file__))
square = bw.Box((0.0, 0.0), (1.0, 1.0))
data = bw.HarmonicQuadratic([[0.0, 0.5], [0.5, 0.0]])

k = 9
centers = (np.arange(k) + 0.5) / k
points = [(float(a), float(b)) for a in centers for b in centers]

field = bw.estimate_field(square, data, points, bw.WalkConfig(0.1), 7, 2000, threads=4)

csv_path = os.path.join(here, "field.csv")
with open(csv_path, "w") as fh:
    fh.write(bw.field_csv(field, comments={"grid": f"{k}x{k}", "walks": 2000}))

cells = field.means.reshape(k, k).T  # rows indexed by x2 so the SVG reads like a plot
svg_path = os.path.join(here, "field.svg")
with open(svg_path, "w") as fh:
    fh.write(bw.svg_heatmap(cells))

worst = float(np.nanmax(np.abs(field.means - np.array([a * b for a, b in points]))))
print(f"wrote {csv_path}")
print(f"wrote {svg_path}")
print(f"largest deviation from the exact saddle: {worst:.4f}")
print(f"typical stderr: {float(np.nanmedian(field.stderrs)):.4f}")
