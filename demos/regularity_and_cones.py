"""Boundary regularity: probe it empirically, then bound it geometrically.

A boundary point is walk-regular when walks started nearby exit nearby,
with probability near one. For a point supporting an exterior cone the
escape probability is bounded by theta0, a closed-form function of the
dimension and the cone's shape ratio R = sin(angle) / (1 - sin(angle)).
"""
import ballwalk as bw

ball = bw.Ball((0.0, 0.0, 0.0), 1.0)
y0 = (1.0, 0.0, 0.0)

report = bw.estimate_regularity(ball, y0, 0.3, 0.02, bw.WalkConfig(0.05), 4, 2000, 5)
print(f"probes within {report.delta_hat} of {y0}, exits counted inside B(y0, {report.delta}):")
for probe in report.probes:
    print(f"  start {tuple(round(float(v), 4) for v in probe.x0)}"
          f"  stay-near probability {probe.probability:.4f} +- {probe.stderr:.4f}")
print(f"min probability: {report.min_probability:.4f}  (regular point: close to 1)")

print("\ncone bound theta0 by dimension and shape ratio:")
print("  R      N=2      N=3      N=5")
for big_r in (0.5, 1.0, 2.0, 8.0):
    row = "  ".join(f"{bw.cone_bound_theta0(n, big_r):.5f}" for n in (2, 3, 5))
    print(f"  {big_r:<5} {row}")

# every boundary point of a ball supports a wide exterior cone
big_r = bw.cone_ratio(1.4)
bound = bw.cone_bound_theta0(3, big_r)
delta = 0.5
delta_hat = delta / (4.0 + 2.0 * big_r)
x0 = (1.0 - 0.8 * delta_hat, 0.0, 0.0)
p, se = bw.estimate_escape_probability(ball, y0, delta, x0, bw.WalkConfig(0.01), 4000, 314)
print(f"\nescape past {delta} before hitting the boundary, started {delta_hat:.4f} from y0:")
print(f"  empirical {p:.4f} +- {se:.4f}  vs cone bound {bound:.4f}  (R={big_r:.1f})")
