"""The exit law is the harmonic measure: whole exit distributions on the unit
ball in 1, 2, 3, 5 and 16 dimensions against their closed forms, and exit
sides of an annulus in 2, 3 and 5 dimensions.

Started at x0 with r = |x0|, a walk's exit y follows the harmonic measure of
x0 up to the stop tolerance, for any isotropic step law, so these tests check
the isotropy of step directions, the stop rule and the projection.  With
t = <y, x0 / r>:
- 1-D, on (-1, 1): P(exit at +1) = (1 + x0) / 2, checked by a binomial
  4-sigma band;
- 2-D: the exit angle theta from x0's direction, in (-pi, pi], has CDF
  1/2 + atan((1 + r) / (1 - r) * tan(theta / 2)) / pi;
- 3-D: t has CDF (1 - r**2) / (2r) * ((1 - 2rt + r**2)**(-1/2) - 1 / (1 + r));
- n >= 4: t has density proportional to
  (1 - t**2)**((n - 3) / 2) * (1 - 2rt + r**2)**(-n / 2), whose CDF is
  integrated with scipy.integrate.quad;
- annulus r1 < |x| < r2: P(exit at the outer sphere) is
  (r1**(2 - n) - |x|**(2 - n)) / (r1**(2 - n) - r2**(2 - n)), or
  log(|x| / r1) / log(r2 / r1) in 2-D, checked by a binomial 4-sigma band.
KS p-values must be at least 1e-3; seeds are fixed once, and a failure is a
finding, not a reason to re-seed.  The stop tolerance (2e-4 here) moves a
CDF by about 1e-4, far below the KS resolution at these sizes.  A 16-D walk
costs about ten times a 5-D one, most of it in the many short steps near the
boundary, so 16-D runs fewer walks.
"""
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from ballwalk import BALL, SPHERE, Annulus, Ball, WalkConfig, exit_sample

N_WALKS = 20_000
SEED = 17


def _exits(x0, kind, n_walks=N_WALKS, domain=None):
    x0 = np.asarray(x0, dtype=np.float64)
    if domain is None:
        domain = Ball((0.0,) * x0.shape[0], 1.0)
    batch = exit_sample(domain, x0, WalkConfig(0.1, kind=kind), SEED, n_walks)
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


def _height_cdf(n, r):
    """CDF of t for n >= 4: quad integrates the density over each interval of
    a 2000-interval grid on [-1, 1], the sums are normalised by quad's
    integral over [-1, 1], and the CDF is read off the grid linearly."""
    def density(t):
        return (1.0 - t * t) ** ((n - 3) / 2.0) * (1.0 - 2.0 * r * t + r * r) ** (-n / 2.0)

    grid = np.linspace(-1.0, 1.0, 2001)
    mass = np.cumsum([0.0] + [scipy.integrate.quad(density, a, b)[0]
                              for a, b in zip(grid[:-1], grid[1:])])
    mass /= scipy.integrate.quad(density, -1.0, 1.0)[0]
    return lambda s: np.interp(s, grid, mass)


def _direction(n):
    e = np.arange(1.0, n + 1.0)
    return e / np.linalg.norm(e)


@pytest.mark.parametrize("n, n_walks", [(5, 10_000), (16, 2_000)])
@pytest.mark.parametrize("kind", [BALL, SPHERE])
def test_high_dimensional_exit_height_is_harmonic(n, n_walks, kind):
    r = 0.5
    e = _direction(n)
    y = _exits(r * e, kind, n_walks)
    t = np.clip((y @ e) / np.linalg.norm(y, axis=1), -1.0, 1.0)
    assert scipy.stats.kstest(t, _height_cdf(n, r)).pvalue >= 1e-3


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("kind", [BALL, SPHERE])
def test_annulus_exit_side_is_harmonic(n, kind):
    r1, r2, rx, n_walks = 0.5, 1.0, 0.7, 5_000
    if n == 2:
        p = math.log(rx / r1) / math.log(r2 / r1)
    else:
        p = (r1 ** (2 - n) - rx ** (2 - n)) / (r1 ** (2 - n) - r2 ** (2 - n))
    annulus = Annulus((0.0,) * n, r1, r2)
    y = _exits(rx * _direction(n), kind, n_walks, annulus)
    outer = np.count_nonzero(np.linalg.norm(y, axis=1) > (r1 + r2) / 2.0)
    assert abs(outer / n_walks - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n_walks)
