"""Calibration: are the standard errors honest across seeds?

Each acceptance gate checks one seed. Here one estimate is made per seed,
over many seeds, for u(x) = x1^2 - x2^2 on the unit disk at (0.3, 0.4) with
eps 0.1, by ball walks and by sphere walks. If every estimate is unbiased
and its standard error is right, the z-scores (mean - truth) / stderr are
close to N(0, 1): about 95% of the 95% intervals cover the truth, and a
Kolmogorov-Smirnov test against N(0, 1) finds nothing. Two adjacent field
points use disjoint streams, so their estimates are uncorrelated across
seeds.

Exits non-zero when a coverage leaves its binomial 4-sigma band, a KS
p-value is below 1e-3, or the correlation is more than 4 of its standard
errors (1 / sqrt(seeds)) from 0.
"""
import math
import sys

import numpy as np
from scipy import stats

import ballwalk as bw

SEEDS = range(100)
N_WALKS = 1024
X0, X1 = (0.3, 0.4), (0.35, 0.4)

disk = bw.Ball((0.0, 0.0), 1.0)
data = bw.HarmonicQuadratic([[1.0, 0.0], [0.0, -1.0]])
truth = X0[0] ** 2 - X0[1] ** 2
band = 4.0 * math.sqrt(0.95 * 0.05 / len(SEEDS))
failed = False

for kind in (bw.BALL, bw.SPHERE):
    cfg = bw.WalkConfig(0.1, kind=kind)
    z = np.array([(est.mean - truth) / est.stderr
                  for est in (bw.estimate_value(disk, data, X0, cfg, s, N_WALKS)
                              for s in SEEDS)])
    coverage = np.mean(np.abs(z) <= 1.959964)
    p = stats.kstest(z, "norm").pvalue
    ok = abs(coverage - 0.95) <= band and p >= 1e-3
    failed |= not ok
    print(f"{kind:6} walks, {len(SEEDS)} seeds x {N_WALKS}: 95% CI coverage {coverage:.1%}"
          f" (band {0.95 - band:.1%}..{min(1.0, 0.95 + band):.1%}),"
          f" KS p = {p:.3f}, z mean {z.mean():+.3f} sd {z.std(ddof=1):.3f}"
          f"  {'ok' if ok else 'FAIL'}")

cfg = bw.WalkConfig(0.1)
means = np.array([bw.estimate_field(disk, data, [X0, X1], cfg, s, N_WALKS // 4).means
                  for s in SEEDS])
r = np.corrcoef(means[:, 0], means[:, 1])[0, 1]
ok = abs(r) * math.sqrt(len(SEEDS)) <= 4.0
failed |= not ok
print(f"field points {X0} and {X1}: correlation across seeds {r:+.3f}"
      f" (4-sigma bound {4.0 / math.sqrt(len(SEEDS)):.3f})  {'ok' if ok else 'FAIL'}")

sys.exit(1 if failed else 0)
