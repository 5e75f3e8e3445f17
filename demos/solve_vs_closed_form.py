"""Estimate a harmonic function from its boundary trace and compare with
the closed form.

u(x) = x1^2 - x2^2 is harmonic, so its value anywhere in the unit disk is
recovered by averaging the boundary data over walk exits. The estimate
carries a confidence interval; the truth should land inside it roughly
19 runs out of 20.
"""
import ballwalk as bw

disk = bw.Ball((0.0, 0.0), 1.0)
data = bw.HarmonicQuadratic([[1.0, 0.0], [0.0, -1.0]])

for x0 in [(0.3, 0.4), (0.0, 0.0), (-0.5, 0.2)]:
    truth = x0[0] ** 2 - x0[1] ** 2
    est = bw.estimate_value(disk, data, x0, bw.WalkConfig(0.1), 42, 50_000, threads=4)
    lo, hi = est.ci95
    inside = "yes" if lo <= truth <= hi else "NO"
    print(f"x0={x0}: estimate {est.mean:+.5f} +- {est.stderr:.5f}"
          f"  truth {truth:+.5f}  in CI: {inside}")

print()
print("Shrinking epsilon does not move the answer, only the walk length:")
for eps in (0.3, 0.1, 0.05):
    est = bw.estimate_value(disk, data, (0.3, 0.4), bw.WalkConfig(eps), 42, 20_000,
                            threads=4)
    print(f"  eps={eps:<5} estimate {est.mean:+.5f} +- {est.stderr:.5f}")
