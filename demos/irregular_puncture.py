"""A boundary point the walk refuses to see: the punctured disk.

Remove the center point from the unit disk. It is formally part of the
boundary, but walks started right next to it drift away and exit at the
outer circle: boundary data at the puncture has no influence on the
estimate. The witness table tabulates F(x) = |x - y0| estimates for starts
marching toward the puncture; they stay near 1 even as the start distance
drops to 1e-3, while F(y0) = 0.

Absolute float positions cannot resolve distances below ~1e-16 of the
coordinate scale, so near the outer circle the walk is absorbed by
rounding no matter how small the stop tolerance. Near the puncture the
coordinates themselves shrink, so a 1e-80 tolerance is meaningful there.
Optional stopping of the log|x| martingale then predicts
P(absorbed at puncture from distance d) = log(1/d) / log(1/tol).
"""
import math

import ballwalk as bw

punct = bw.PuncturedBall((0.0, 0.0), 1.0)
tol = 1e-80

table = bw.irregularity_witness(punct, (0.0, 0.0), [bw.WalkConfig(0.1, stop_tolerance=tol)],
                                [1e-2, 1e-3], 2000, 314)
print("start dist   estimate of |exit|        predicted P(puncture)")
for row in table.rows:
    predicted = math.log(1.0 / row.start_distance) / math.log(1.0 / tol)
    print(f"  {row.start_distance:<9}  {row.mean:.4f} +- {row.stderr:.4f}"
          f"       {predicted:.4f}")
print("\nF at the puncture is 0; the estimates ignore it entirely.")

print("\nthe same probe at a regular point, for contrast (unit disk, y0=(1,0)):")
disk = bw.Ball((0.0, 0.0), 1.0)
control = bw.irregularity_witness(disk, (1.0, 0.0), [bw.WalkConfig(0.1)], [1e-2, 1e-3],
                                  2000, 314)
for row in control.rows:
    print(f"  {row.start_distance:<9}  {row.mean:.4f} +- {row.stderr:.4f}")
print("estimates follow the data toward F(y0) = 0: the point is regular.")
