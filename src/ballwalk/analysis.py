"""Statistical diagnostics for the walk estimators.

Each routine turns one structural property of the solver into a measurable
statistic with an uncertainty: interior mean-value consistency, the local
averaging expansion, exit-measure geometry, boundary regularity probes,
escape probabilities against the exterior-cone bound, and the martingale
property of a single step.

Every diagnostic that runs walks goes through exit_sample or
estimate_field, so walks fan out over threads in one place and walk k of a
batch uses stream stream_base + k.  Regularity and escape are fields of
indicator data; the exit-measure and escape walks stop at a ring.  Walk
streams occupy low indices (documented per routine); auxiliary sampling
(probe locations, averaging centers, single-step draws) lives in the block
starting at AUX_STREAM_BASE so it can never collide with walk streams.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from numpy.typing import NDArray

from .estimator import AUX_STREAM_BASE, estimate_field, exit_sample
from .geometry import MAX_DIM, Domain, as_point, _count
from .oracle import BoundaryData, DistanceTo, radial_profile
from .stochastic import RngStream, sample_unit_ball
from .walk import WalkConfig, _check_config, _check_epsilon

_Array = NDArray[np.float64]

_PROBE_TRIAL_CAP = 10_000


def _domain_point(domain: Domain, x) -> _Array:
    p = as_point(x)
    if p.shape[0] != domain.dim:
        raise ValueError(
            f"point dimension {p.shape[0]} does not match domain dimension {domain.dim}")
    return p


@dataclasses.dataclass(frozen=True)
class OvershootStats:
    mean: float
    max: float


@dataclasses.dataclass(frozen=True)
class ExitMeasureStats:
    """Geometry of stopped-walk endpoints around the start point.

    Every sampled stop point lies in the half-open annulus of radii
    [r, r + epsilon) around x0; directions are the unit vectors of
    (stop_point - x0).
    """

    n: int
    mean_direction: _Array
    direction_covariance: _Array
    radial_overshoot: OvershootStats


@dataclasses.dataclass(frozen=True)
class RegularityProbe:
    x0: _Array
    probability: float
    stderr: float
    n: int


@dataclasses.dataclass(frozen=True)
class RegularityReport:
    """Per-probe estimates of P(exit within delta of y0).

    A finite probe set can only be consistent with walk-regularity, never
    certify it: the definition quantifies over every start point and every
    small step size.
    """

    y0: _Array
    delta: float
    delta_hat: float
    epsilon: float
    probes: tuple[RegularityProbe, ...]

    @property
    def min_probability(self) -> float:
        return min(p.probability for p in self.probes)


@dataclasses.dataclass(frozen=True)
class WitnessRow:
    epsilon: float
    start_distance: float
    x0: _Array
    mean: float
    stderr: float
    n: int
    truncated_count: int


@dataclasses.dataclass(frozen=True)
class IrregularityTable:
    """Estimates of the walk solution for F(x) = |x - y0| near y0.

    At a walk-regular boundary point the estimates approach F(y0) = 0 as the
    start point does; a persistent gap witnesses irregularity.
    """

    y0: _Array
    rows: tuple[WitnessRow, ...]


def mean_value_residual(
    domain: Domain,
    data: BoundaryData,
    x,
    config: WalkConfig,
    n_outer: int,
    n_inner: int,
    master_seed: int,
    *,
    threads: int = 1,
) -> tuple[float, float]:
    """Estimate u(x) minus the average of u over a concentric step ball.

    The interior mean-value identity makes the difference zero in
    expectation.  x and the sampled centers are the rows of one
    estimate_field call: the center estimate uses walk streams [0, n_inner);
    the estimate at the j-th sampled center uses [(j+1)*n_inner,
    (j+2)*n_inner); center locations come from the auxiliary stream block.
    The outer average uses a running (Welford) mean, so constant data gives
    residual 0.0 with no rounding noise: every stage then computes the
    identical float.
    """
    _check_config(config)
    x = _domain_point(domain, x)
    n_outer = _count(n_outer, "n_outer", 2)
    n_inner = _count(n_inner, "n_inner", 2)
    radius = min(config.epsilon, domain.distance_to_boundary(x))
    aux = RngStream(master_seed, AUX_STREAM_BASE)
    offsets = sample_unit_ball(aux, domain.dim, n_outer)
    field = estimate_field(domain, data, np.vstack([x, x + radius * offsets]), config,
                           master_seed, n_inner, threads=threads)
    if field.skipped:
        raise ValueError("walks must start inside the open domain")
    means = field.means.tolist()
    mean = 0.0
    m2 = 0.0
    for j, value in enumerate(means[1:]):
        delta = value - mean
        mean += delta / (j + 1)
        m2 += delta * (value - mean)
    outer_stderr = math.sqrt(m2 / (n_outer - 1) / n_outer)
    residual = means[0] - mean
    stderr = math.hypot(float(field.stderrs[0]), outer_stderr)
    return residual, stderr


def averaging_residual(
    u,
    laplacian_at_x: float,
    x,
    epsilon: float,
    n_samples: int,
    master_seed: int,
) -> tuple[float, float]:
    """Ball average of u minus its second-order expansion at the center.

    The average of u over the epsilon-ball equals
    u(x) + epsilon^2 / (2 (N + 2)) * laplacian(u)(x) up to o(epsilon^2).
    Sampling is antithetic (each draw w is paired with -w), so odd Taylor
    terms cancel within each pair and linear u gives a residual at rounding
    level with stderr ~ 0.  epsilon must lie in (0, 1), as for every walk.
    """
    x = as_point(x)
    n_dim = x.shape[0]
    epsilon = _check_epsilon(float(epsilon))
    n_samples = _count(n_samples, "n_samples", 2)
    aux = RngStream(master_seed, AUX_STREAM_BASE)
    w = sample_unit_ball(aux, n_dim, n_samples)
    plus = np.asarray(u.eval(x + epsilon * w), dtype=np.float64)
    minus = np.asarray(u.eval(x - epsilon * w), dtype=np.float64)
    pair = 0.5 * (plus + minus)
    correction = epsilon**2 / (2.0 * (n_dim + 2)) * float(laplacian_at_x)
    residual = float(pair.mean()) - float(u.eval(x)) - correction
    stderr = float(pair.std(ddof=1)) / math.sqrt(n_samples)
    return residual, stderr


def exit_measure_stats(
    domain: Domain,
    x0,
    r: float,
    epsilon: float,
    n: int,
    master_seed: int,
) -> ExitMeasureStats:
    """Sample n stopped walks and summarize where they leave the r-ball.

    Walk k uses stream k and stops on its first departure from B(x0, r).
    The concentric ball of radius 2r must stay inside the domain (certified
    through the distance oracle, which never overestimates), so no walk can
    reach the boundary first; the stop tolerance is set to epsilon / 2, so
    the diameter default never refuses a large domain.  epsilon must lie in
    (0, 1), as for every walk, and a walk that hits the step cap raises.
    """
    x0 = _domain_point(domain, x0)
    n = _count(n, "n", 2)
    r = float(r)
    if not 0.0 < epsilon < r:
        raise ValueError(f"need 0 < epsilon < r, got epsilon={epsilon}, r={r}")
    if domain.distance_to_boundary(x0) < 2.0 * r:
        raise ValueError("the ball of radius 2r around x0 must stay inside the domain")
    config = WalkConfig(epsilon, stop_tolerance=0.5 * epsilon)
    batch = exit_sample(domain, x0, config, master_seed, n, ring=(x0, r))
    truncated = int(batch.truncated.sum())
    if truncated:
        raise RuntimeError(
            f"{truncated} stopped walks exhausted the step cap {config.max_steps}")
    disp = batch.exit_points - x0
    dist = np.linalg.norm(disp, axis=1)
    overshoot = dist - r
    if np.any(overshoot < 0.0) or np.any(overshoot >= epsilon):
        raise RuntimeError("stop point outside the half-open annulus [r, r + epsilon)")
    dirs = disp / dist[:, None]
    mean_direction = dirs.mean(axis=0)
    centered = dirs - mean_direction
    cov = centered.T @ centered / (n - 1)
    for a in (mean_direction, cov):
        a.setflags(write=False)
    return ExitMeasureStats(
        n=n,
        mean_direction=mean_direction,
        direction_covariance=cov,
        radial_overshoot=OvershootStats(mean=float(overshoot.mean()),
                                        max=float(overshoot.max())),
    )


def _boundary_scale(domain: Domain) -> float:
    return max(1.0, domain.diameter())


class _Indicator(BoundaryData):
    """1 where |x - center| <= radius (with ``outside``, >= radius), else 0."""

    def __init__(self, center: _Array, radius: float, outside: bool = False):
        self.distance, self.radius, self.outside = DistanceTo(center), radius, outside

    def eval(self, points) -> _Array:
        d = self.distance.eval(points)
        return np.where(d >= self.radius if self.outside else d <= self.radius, 1.0, 0.0)


def _hit_fraction(field, j: int) -> tuple[float, float, int]:
    """Point j's hit fraction p in a field of _Indicator data, its binomial
    standard error sqrt(p (1 - p) / n) and its n untruncated walks.  p is
    rebuilt from the hit count: the chunk fold can leave a mean an ulp off."""
    n = int(field.counts[j])
    p = round(float(field.means[j]) * n) / n
    return p, math.sqrt(p * (1.0 - p) / n), n


def estimate_regularity(
    domain: Domain,
    y0,
    delta: float,
    delta_hat: float,
    config: WalkConfig,
    probe_count: int,
    n_walks: int,
    master_seed: int,
    *,
    threads: int = 1,
) -> RegularityReport:
    """Probe P(exit lands within delta of y0) from starts near y0.

    Probe locations are rejection-sampled from the ball of radius delta_hat
    around y0 intersected with the domain (candidates come from the auxiliary
    stream block; it is an error when none of 10^4 candidates is interior).
    The probes are the points of one estimate_field call, so probe i runs
    walks on streams [i * n_walks, (i + 1) * n_walks).
    Membership uses the closed ball |exit - y0| <= delta, so delta at least
    diam(D) gives probability 1 without simulation.
    """
    _check_config(config)
    y0 = _domain_point(domain, y0)
    delta = float(delta)
    delta_hat = float(delta_hat)
    if not 0.0 < delta_hat < delta:
        raise ValueError(f"need 0 < delta_hat < delta, got {delta_hat}, {delta}")
    probe_count = _count(probe_count, "probe_count")
    n_walks = _count(n_walks, "n_walks", 2)
    threads = _count(threads, "threads")
    scale = _boundary_scale(domain)
    if abs(domain.signed_distance(y0)) > 1e-9 * scale:
        raise ValueError("y0 must lie on the domain boundary")

    aux = RngStream(master_seed, AUX_STREAM_BASE)
    candidates = y0 + delta_hat * sample_unit_ball(aux, domain.dim, _PROBE_TRIAL_CAP)
    inside = domain.contains(candidates)
    found = np.flatnonzero(inside)
    if found.size == 0:
        raise ValueError(
            f"no interior probe found in {_PROBE_TRIAL_CAP} candidates within "
            f"delta_hat={delta_hat} of y0")
    starts = candidates[found[:probe_count]]
    starts.setflags(write=False)
    if delta >= domain.diameter():
        probes = tuple(RegularityProbe(x0, 1.0, 0.0, 0) for x0 in starts)
    else:
        field = estimate_field(domain, _Indicator(y0, delta), starts, config,
                               master_seed, n_walks, threads=threads)
        probes = tuple(RegularityProbe(x0, *_hit_fraction(field, i))
                       for i, x0 in enumerate(starts))
    return RegularityReport(y0=y0, delta=delta, delta_hat=delta_hat,
                            epsilon=float(config.epsilon), probes=probes)


def estimate_escape_probability(
    domain: Domain,
    y0,
    delta: float,
    x0,
    config: WalkConfig,
    n_walks: int,
    master_seed: int,
    *,
    threads: int = 1,
) -> tuple[float, float]:
    """Fraction of walks from x0 whose excursion from y0 ever reaches delta.

    The excursion is sup over the path of |x_t - y0| including the start, so
    |x0 - y0| >= delta returns (1.0, 0.0) exactly and delta >= |x0 - y0| +
    diam(D) returns (0.0, 0.0) exactly, both without simulation but after
    x0 and the walk and thread counts are checked like any other call's.
    Escape is a ring stop at (y0, delta): a walk escapes when its first
    position at distance delta or more from y0 comes no later than its
    boundary stop, so an escaped walk is never truncated.  Walk k uses
    stream k.  Under a shared seed the result is monotone nonincreasing in
    delta samplewise: the paths are identical and only the threshold moves.
    """
    _check_config(config)
    y0 = _domain_point(domain, y0)
    x0 = _domain_point(domain, x0)
    delta = float(delta)
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    n_walks = _count(n_walks, "n_walks", 2)
    threads = _count(threads, "threads")
    if not domain.contains(x0):
        raise ValueError("x0 must lie inside the open domain")
    # The row-wise norm of the ring stop's test at iteration 0, bit for bit.
    start_distance = float(np.linalg.norm((x0 - y0)[None, :], axis=1)[0])
    if start_distance >= delta:
        return 1.0, 0.0
    if delta >= start_distance + domain.diameter():
        return 0.0, 0.0
    field = estimate_field(domain, _Indicator(y0, delta, outside=True), x0[None, :], config,
                           master_seed, n_walks, ring=(y0, delta), threads=threads)
    return _hit_fraction(field, 0)[:2]


def cone_ratio(half_angle: float) -> float:
    """Shape ratio R = sin(half_angle) / (1 - sin(half_angle)) of an exterior cone.

    R is the radius of the largest ball inscribed in the cone at unit
    distance from the tip, the quantity cone_bound_theta0 needs.  A
    half-angle whose sine rounds to 1 has no finite R and is refused.
    """
    half_angle = float(half_angle)
    if not (math.isfinite(half_angle) and 0.0 < half_angle < math.pi / 2.0):
        raise ValueError(f"half_angle must lie strictly between 0 and pi/2, got {half_angle}")
    s = math.sin(half_angle)
    if s == 1.0:
        raise ValueError(f"half_angle {half_angle} is too close to pi/2 for a finite R")
    return s / (1.0 - s)


def cone_bound_theta0(n_dim: int, big_r: float) -> float:
    """Escape-probability bound from an exterior cone with shape ratio R.

    Built from the decreasing harmonic radial profile v:
    theta0 = (v(R) - v(2 + R)) / (v(R) - v(3 + R)), in (0, 1) in exact arithmetic.
    An R for which the float64 quotient is not strictly inside (0, 1) is
    refused.
    """
    n_dim = _count(n_dim, "n_dim", 1, MAX_DIM)
    big_r = float(big_r)
    if not (math.isfinite(big_r) and big_r > 0.0):
        raise ValueError(f"R must be positive and finite, got {big_r}")
    with np.errstate(all="ignore"):
        v = radial_profile(np.array([big_r, 2.0 + big_r, 3.0 + big_r]), n_dim)
        theta0 = float((v[0] - v[1]) / (v[0] - v[2]))
    if not 0.0 < theta0 < 1.0:
        raise ValueError(f"R = {big_r} is too extreme for a bound in (0, 1) in {n_dim} dimensions")
    return theta0


def martingale_check(
    domain: Domain,
    x0,
    epsilon: float,
    n: int,
    master_seed: int,
) -> float:
    """Max over coordinates of |mean one-step position - x0| in stderr units.

    One ball-walk step has conditional mean equal to the current position,
    so the statistic is approximately the max of N half-normal draws.
    epsilon must lie in (0, 1), as for every walk.
    """
    x0 = _domain_point(domain, x0)
    n = _count(n, "n", 2)
    radius = min(_check_epsilon(float(epsilon)), domain.distance_to_boundary(x0))
    aux = RngStream(master_seed, AUX_STREAM_BASE)
    w = sample_unit_ball(aux, domain.dim, n)
    stepped = x0 + radius * w
    dev = np.abs(stepped.mean(axis=0) - x0)
    stderr = stepped.std(axis=0, ddof=1) / math.sqrt(n)
    return float((dev / stderr).max())


def _approach_direction(domain: Domain, y0: _Array, distances) -> _Array:
    """A unit direction u with y0 + d*u interior for every requested d."""
    n = y0.shape[0]
    candidates = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        candidates.append(e)
        candidates.append(-e)
    norm0 = float(np.linalg.norm(y0))
    if norm0 > 0.0:
        candidates.append(-y0 / norm0)
    for u in candidates:
        pts = y0 + np.asarray(distances)[:, None] * u
        if bool(np.all(domain.contains(pts))):
            return u
    raise ValueError("no axis or inward radial direction reaches the interior "
                     "at every requested start distance")


def irregularity_witness(
    domain: Domain,
    y0,
    configs,
    start_distances,
    n_walks: int,
    master_seed: int,
    *,
    threads: int = 1,
) -> IrregularityTable:
    """Tabulate estimates for F(x) = |x - y0| at starts approaching y0.

    Start points march toward y0 along a fixed interior direction (axis
    directions are tried first, then the inward radial one).  Each walk
    config gives one row per start distance, configs in order, and the rows
    carry its epsilon.  Row k runs walks on streams
    [k * n_walks, (k + 1) * n_walks).
    """
    try:
        configs = list(configs)
    except TypeError:
        raise TypeError(f"configs must be a list of WalkConfig, got {configs!r}") from None
    configs = [_check_config(config) for config in configs]
    y0 = _domain_point(domain, y0)
    n_walks = _count(n_walks, "n_walks", 2)
    dist_list = [float(d) for d in np.atleast_1d(np.asarray(start_distances, dtype=np.float64))]
    if not configs or not dist_list:
        raise ValueError("need at least one walk config and one start distance")
    if not all(0.0 < d < math.inf for d in dist_list):
        raise ValueError("start distances must be positive and finite")
    direction = _approach_direction(domain, y0, dist_list)
    data = DistanceTo(y0)
    starts = y0 + np.asarray(dist_list)[:, None] * direction
    rows = []
    for i, config in enumerate(configs):
        field = estimate_field(domain, data, starts, config, master_seed, n_walks,
                               stream_base=i * len(dist_list) * n_walks, threads=threads)
        for j, d in enumerate(dist_list):
            est = field.estimate_at(j)
            rows.append(WitnessRow(epsilon=float(config.epsilon), start_distance=d,
                                   x0=field.points[j], mean=est.mean, stderr=est.stderr,
                                   n=est.n, truncated_count=est.truncated_count))
    return IrregularityTable(y0=y0, rows=tuple(rows))
