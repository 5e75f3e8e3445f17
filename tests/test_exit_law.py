"""The exit law is the harmonic measure: whole exit distributions on the unit
ball in 1, 2 and 3 dimensions against their closed forms.

Started at x0 with r = |x0|, a walk's exit y follows the harmonic measure of
x0 up to the stop tolerance, for any isotropic step law, so these tests check
the isotropy of step directions, the stop rule and the projection.  With
t = <y, x0 / r>:
- 1-D, on (-1, 1): P(exit at +1) = (1 + x0) / 2, checked by a binomial
  4-sigma band;
- 2-D: the exit angle theta from x0's direction, in (-pi, pi], has CDF
  1/2 + atan((1 + r) / (1 - r) * tan(theta / 2)) / pi;
- 3-D: t has CDF (1 - r**2) / (2r) * ((1 - 2rt + r**2)**(-1/2) - 1 / (1 + r)).
KS p-values must be at least 1e-3; seeds are fixed once, and a failure is a
finding, not a reason to re-seed.  The stop tolerance (2e-4 here) moves a
CDF by about 1e-4, far below the KS resolution at these sizes.
"""
import numpy as np
import pytest
import scipy.stats

from ballwalk import BALL, SPHERE, Ball, WalkConfig, exit_sample

N_WALKS = 20_000
SEED = 17


def _exits(x0, kind):
    x0 = np.asarray(x0, dtype=np.float64)
    domain = Ball((0.0,) * x0.shape[0], 1.0)
    batch = exit_sample(domain, x0, WalkConfig(0.1, kind=kind), SEED, N_WALKS)
    assert not batch.truncated.any()
    return batch.exit_points


@pytest.mark.parametrize("kind", [BALL, SPHERE])
def test_1d_exit_side_is_harmonic(kind):
    x0 = 0.3
    p = (1.0 + x0) / 2.0
    hits = np.count_nonzero(_exits([x0], kind)[:, 0] > 0.0)
    assert abs(hits / N_WALKS - p) <= 4.0 * np.sqrt(p * (1.0 - p) / N_WALKS)


@pytest.mark.parametrize("kind", [BALL, SPHERE])
def test_2d_exit_angle_is_harmonic(kind):
    r, phi = 0.5, 1.0
    e = np.array([np.cos(phi), np.sin(phi)])
    y = _exits(r * e, kind)
    theta = np.arctan2(e[0] * y[:, 1] - e[1] * y[:, 0], y @ e)
    ratio = (1.0 + r) / (1.0 - r)

    def cdf(a):
        return 0.5 + np.arctan(ratio * np.tan(a / 2.0)) / np.pi

    assert scipy.stats.kstest(theta, cdf).pvalue >= 1e-3


@pytest.mark.parametrize("kind", [BALL, SPHERE])
def test_3d_exit_height_is_harmonic(kind):
    r = 0.6
    e = np.array([1.0, 2.0, 2.0]) / 3.0
    y = _exits(r * e, kind)
    t = np.clip((y @ e) / np.linalg.norm(y, axis=1), -1.0, 1.0)

    def cdf(s):
        return (1.0 - r * r) / (2.0 * r) * ((1.0 - 2.0 * r * s + r * r) ** -0.5 - 1.0 / (1.0 + r))

    assert scipy.stats.kstest(t, cdf).pvalue >= 1e-3
