"""Self-diagnostics: the two identities every harmonic estimate rests on.

1. Mean value property: u(x) equals the average of u over walk exits from
   any surrounding ball. The residual between a direct estimate at x and
   an average of estimates at sampled interior points should be pure noise.
2. Averaging identity: for smooth u, the average of u over a radius-eps
   ball is u(x) + eps^2/(2(N+2)) * laplacian(u)(x) + O(eps^4). Subtracting
   both terms leaves a residual that shrinks like eps^2 for quartics and
   vanishes identically for linear u.
"""
import ballwalk as bw

disk = bw.Ball((0.0, 0.0), 1.0)
data = bw.HarmonicQuadratic([[1.0, 0.0], [0.0, -1.0]])

res, se = bw.mean_value_residual(disk, data, (0.2, 0.1), bw.WalkConfig(0.15),
                                 32, 2000, 3, threads=4)
print(f"mean value residual: {res:+.5f} +- {se:.5f}  (|z| = {abs(res / se):.2f})")

lin = bw.Linear((1.0, 2.0), 0.3)
res, se = bw.averaging_residual(lin, 0.0, (0.1, 0.2), 0.2, 100_000, 5)
print(f"averaging, linear u: {res:+.2e} +- {se:.1e}  (cancels to rounding)")

sq = bw.SquaredNorm()
x = (0.3, -0.1)
res, se = bw.averaging_residual(sq, sq.laplacian(x), x, 0.2, 100_000, 5)
print(f"averaging, |x|^2:    {res:+.2e} +- {se:.1e}")

quartic = bw.FirstCoordinateQuartic()
print("averaging, x1^4 at the origin (residual / eps^2 shrinks like eps^2):")
for eps in (0.2, 0.1, 0.05):
    res, _ = bw.averaging_residual(quartic, 0.0, (0.0, 0.0), eps, 100_000, 11)
    print(f"  eps={eps:<5} residual/eps^2 = {res / eps**2:.6f}")
