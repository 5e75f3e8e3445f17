"""Diagnostics: averaging checks, exit-measure statistics, regularity probes.

Statistical assertions use a 4-standard-error budget throughout; anything
tighter is a property that holds exactly by construction (shared streams,
antithetic pairing, trivial-case short circuits).
"""
import functools
import math
import re

import numpy as np
import pytest

from ballwalk import analysis
from ballwalk import (
    AUX_STREAM_BASE,
    Ball,
    Constant,
    Coordinate,
    DistanceTo,
    FirstCoordinateQuartic,
    HarmonicQuadratic,
    PuncturedBall,
    RngStream,
    SquaredNorm,
    WalkConfig,
    averaging_residual,
    cone_bound_theta0,
    cone_ratio,
    estimate_escape_probability,
    estimate_regularity,
    estimate_value,
    exit_measure_stats,
    irregularity_witness,
    martingale_check,
    mean_value_residual,
    run_walks,
    sample_unit_ball,
    trace_walk,
)
from ballwalk.estimator import _CHUNK, exit_sample

DISK = Ball((0.0, 0.0), 1.0)
BALL3 = Ball((0.0, 0.0, 0.0), 1.0)


# ---------------------------------------------------------------------------
# mean value property


def test_mean_value_residual_constant_is_exactly_zero():
    res, se = mean_value_residual(
        DISK, Constant(2.5), (0.2, 0.1), WalkConfig(0.2), 8, 50, 3
    )
    assert res == 0.0
    assert se == 0.0


def test_mean_value_residual_harmonic_within_noise():
    data = HarmonicQuadratic([[1.0, 0.0], [0.0, -1.0]])
    res, se = mean_value_residual(DISK, data, (0.2, 0.1), WalkConfig(0.15), 16, 400, 3)
    assert se > 0.0
    assert abs(res) < 4.0 * se


def test_mean_value_residual_needs_centers():
    with pytest.raises(ValueError):
        mean_value_residual(DISK, Constant(0.0), (0.0, 0.0), WalkConfig(0.2), 1, 50, 0)


def _mean_value_residual_point_by_point(domain, data, x, config, n_outer, n_inner, seed,
                                        threads):
    """One estimate_value call per point: x on streams [0, n), center j on
    [(j+1)*n, (j+2)*n), folded with a running mean."""
    center = estimate_value(domain, data, x, config, seed, n_inner, threads=threads)
    radius = min(config.epsilon, domain.distance_to_boundary(x))
    offsets = sample_unit_ball(RngStream(seed, AUX_STREAM_BASE), domain.dim, n_outer)
    mean = m2 = 0.0
    for j in range(n_outer):
        est = estimate_value(domain, data, np.asarray(x) + radius * offsets[j], config,
                             seed, n_inner, stream_base=(j + 1) * n_inner, threads=threads)
        delta = est.mean - mean
        mean += delta / (j + 1)
        m2 += delta * (est.mean - mean)
    outer_stderr = math.sqrt(m2 / (n_outer - 1) / n_outer)
    return center.mean - mean, math.hypot(center.stderr, outer_stderr)


@pytest.mark.parametrize("threads", [1, 2])
def test_mean_value_residual_equals_point_by_point(threads):
    args = (DISK, Coordinate(1), (0.3, 0.1), WalkConfig(0.15), 6, 300, 4)
    got = mean_value_residual(*args, threads=threads)
    assert got == _mean_value_residual_point_by_point(*args, threads)
    assert all(type(v) is float for v in got)


# ---------------------------------------------------------------------------
# averaging principle


def test_averaging_linear_cancels():
    from ballwalk import Linear

    lin = Linear((1.0, 2.0), 0.3)
    res, se = averaging_residual(lin, 0.0, (0.1, 0.2), 0.2, 10_000, 5)
    # antithetic pairs cancel odd terms to rounding level
    assert abs(res) < 1e-13
    assert se < 1e-15


def test_averaging_squared_norm():
    u = SquaredNorm()
    x = (0.3, -0.1)
    for eps in (0.2, 0.1):
        res, se = averaging_residual(u, u.laplacian(x), x, eps, 20_000, 5)
        assert abs(res) < 4.0 * se
    # dropping the correction leaves the eps^2 term: the check must fail
    res, se = averaging_residual(u, 0.0, x, 0.2, 20_000, 5)
    assert abs(res) > 4.0 * se


_BAD_EPSILONS = [math.inf, math.nan, 1e200, 0.0, 1.0, 5.0]


@pytest.mark.parametrize("eps", _BAD_EPSILONS)
def test_averaging_refuses_an_epsilon_outside_the_unit_interval(eps):
    u = SquaredNorm()
    with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\), got "):
        averaging_residual(u, u.laplacian((0.3, -0.1)), (0.3, -0.1), eps, 100, 5)


def test_averaging_quartic_ratio_decreases():
    u = FirstCoordinateQuartic()
    x = (0.0, 0.0)
    ratios = []
    for eps in (0.2, 0.1, 0.05):
        res, _ = averaging_residual(u, u.laplacian(x), x, eps, 30_000, 11)
        ratios.append(res / eps**2)
    assert ratios[0] > ratios[1] > ratios[2] > 0.0


# ---------------------------------------------------------------------------
# exit measure


def test_exit_measure_statistics():
    n = 20_000
    stats = exit_measure_stats(BALL3, (0.0, 0.0, 0.0), 0.3, 0.03, n, 11)
    assert stats.n == n
    assert stats.radial_overshoot.mean >= 0.0
    assert stats.radial_overshoot.max < 0.03  # never overshoots by epsilon
    # exit direction is mean-zero with covariance I/3 on the sphere
    assert np.all(np.abs(stats.mean_direction) < 4.0 / math.sqrt(3 * n))
    diag = np.diag(stats.direction_covariance)
    tol = 4.0 * math.sqrt(4.0 / 45.0 / n)
    assert np.all(np.abs(diag - 1.0 / 3.0) < tol)
    assert np.allclose(stats.direction_covariance, stats.direction_covariance.T)
    # The stop tolerance is epsilon / 2, not 1e-4 * diameter (0.2 here, above
    # epsilon), and no walk comes near either boundary: the same stops.
    big = exit_measure_stats(Ball((0.0, 0.0, 0.0), 1e3), (0.0, 0.0, 0.0), 0.3, 0.03, n, 11)
    assert big.n == stats.n and big.radial_overshoot == stats.radial_overshoot
    assert big.mean_direction.tobytes() == stats.mean_direction.tobytes()
    assert big.direction_covariance.tobytes() == stats.direction_covariance.tobytes()


def test_exit_measure_validation(monkeypatch):
    with pytest.raises(ValueError, match="0 < epsilon < r"):
        exit_measure_stats(BALL3, (0.0, 0.0, 0.0), 0.3, 0.3, 100, 0)
    # the ball of radius 2r around x0 must stay inside the domain
    for domain, x0, eps in [(BALL3, (0.9, 0.0, 0.0), 0.03), (DISK, (0.6, 0.0), 0.05)]:
        with pytest.raises(ValueError, match="radius 2r"):
            exit_measure_stats(domain, x0, 0.3, eps, 100, 0)
    # epsilon >= 1 is refused as for every walk, even where r and the room allow it
    with pytest.raises(ValueError, match="epsilon must lie in"):
        exit_measure_stats(Ball((0.0, 0.0, 0.0), 10.0), (0.0, 0.0, 0.0), 3.0, 1.0, 100, 0)
    # a walk that hits the step cap raises instead of being left out
    monkeypatch.setattr(analysis, "WalkConfig", functools.partial(WalkConfig, max_steps=2))
    with pytest.raises(RuntimeError, match="step cap 2"):
        exit_measure_stats(DISK, (0.0, 0.0), 0.3, 0.05, 4, 0)


# ---------------------------------------------------------------------------
# regularity probes


def test_regular_point_on_the_ball():
    report = estimate_regularity(DISK, (1.0, 0.0), 0.3, 0.02, WalkConfig(0.05), 2, 800, 5)
    assert report.min_probability >= 0.95
    assert len(report.probes) == 2
    for probe in report.probes:
        assert np.linalg.norm(probe.x0 - np.array([1.0, 0.0])) <= 0.02
        assert DISK.contains(probe.x0)
        assert probe.n == 800
        assert 0.0 <= probe.probability <= 1.0


def test_puncture_is_irregular():
    domain = PuncturedBall((0.0, 0.0), 1.0)
    report = estimate_regularity(
        domain, (0.0, 0.0), 0.5, 1e-3, WalkConfig(0.1, stop_tolerance=1e-80), 1, 200, 5
    )
    # walks from next to the puncture overwhelmingly exit at the far circle
    assert report.min_probability <= 0.12


@pytest.mark.parametrize("n", [_CHUNK // 2 + 100, 20_000])
@pytest.mark.parametrize("kind", ["ball", "sphere"])
@pytest.mark.parametrize("threads", [1, 2])
def test_probabilities_are_hit_counts_over_walks(n, kind, threads):
    # Regularity probes and the escape estimate are fields of indicator data,
    # whose chunk fold can leave a mean an ulp from hits / n; each p must be
    # hits / n of the same walks run by exit_sample, bit for bit.  Probes of
    # _CHUNK // 2 + 100 walks share packed spans; at 20 000 walks a probe (3
    # chunks) a naive fold read 0.9803499999999999 for 0.98035 here, and at 2
    # threads the probes run two to a kernel call.
    cfg, y0, delta = WalkConfig(0.1, kind=kind), np.array([1.0, 0.0]), 0.3

    def want(x0, i, ring=None):
        batch = exit_sample(DISK, x0, cfg, 7, n, stream_base=i * n, ring=ring)
        ok = ~batch.truncated
        d = np.linalg.norm(batch.exit_points[ok] - y0, axis=1)
        hits = int(np.sum(d >= delta if ring else d <= delta))
        p = hits / int(ok.sum())
        return p, math.sqrt(p * (1.0 - p) / int(ok.sum())), int(ok.sum())

    report = estimate_regularity(DISK, y0, delta, 0.05, cfg, 3, n, 7, threads=threads)
    for i, probe in enumerate(report.probes):
        assert (probe.probability, probe.stderr, probe.n) == want(probe.x0, i)
    x0 = (0.9, 0.05)
    got = estimate_escape_probability(DISK, y0, delta, x0, cfg, n, 7, threads=threads)
    assert got == want(x0, 0, ring=(y0, delta))[:2]


def test_regularity_trivial_when_delta_covers_the_domain():
    report = estimate_regularity(DISK, (1.0, 0.0), 2.5, 0.02, WalkConfig(0.05), 2, 10, 0)
    for probe in report.probes:
        assert probe.probability == 1.0
        assert probe.stderr == 0.0
        assert probe.n == 0


def test_regularity_requires_boundary_point():
    with pytest.raises(ValueError):
        estimate_regularity(DISK, (0.5, 0.0), 0.3, 0.02, WalkConfig(0.05), 2, 10, 0)


# ---------------------------------------------------------------------------
# escape probabilities and the cone bound


def test_escape_trivial_cases():
    assert estimate_escape_probability(
        DISK, (1.0, 0.0), 0.05, (0.9, 0.0), WalkConfig(0.02), 10, 0
    ) == (1.0, 0.0)
    assert estimate_escape_probability(
        DISK, (1.0, 0.0), 5.0, (0.9, 0.0), WalkConfig(0.02), 10, 0
    ) == (0.0, 0.0)
    # The shortcut and the ring stop measure the start alike: delta equal to
    # the start distance escapes without a step, and one ulp more runs walks
    # that all start inside the ring.
    y0, x0 = np.array([1.0, 0.0]), np.array([0.93, 0.01])
    d = float(np.linalg.norm((x0 - y0)[None, :], axis=1)[0])
    assert estimate_escape_probability(DISK, y0, d, x0, WalkConfig(0.02), 200, 4) == (1.0, 0.0)
    p, _ = estimate_escape_probability(DISK, y0, np.nextafter(d, 1.0), x0, WalkConfig(0.02),
                                       200, 4)
    assert 0.0 < p < 1.0


@pytest.mark.parametrize("n_walks", [-3, 0, 2.5])
def test_closed_form_shortcuts_validate_walks(n_walks):
    # The walk and thread counts are refused before any shortcut answers
    # without walks; each bad walk count is a bad thread count too.
    with pytest.raises(ValueError, match="n_walks"):
        estimate_regularity(DISK, (1.0, 0.0), 5.0, 0.02, WalkConfig(0.1), 2, n_walks, 0)
    with pytest.raises(ValueError, match="n_walks"):
        estimate_escape_probability(DISK, (1.0, 0.0), 0.05, (0.9, 0.0), WalkConfig(0.02),
                                    n_walks, 0)
    with pytest.raises(ValueError, match="n_walks"):
        estimate_escape_probability(DISK, (1.0, 0.0), 5.0, (0.9, 0.0), WalkConfig(0.02),
                                    n_walks, 0)
    threads = n_walks
    with pytest.raises(ValueError, match="threads"):
        estimate_regularity(DISK, (1.0, 0.0), 5.0, 0.02, WalkConfig(0.1), 2, 10, 0,
                            threads=threads)
    with pytest.raises(ValueError, match="threads"):
        estimate_escape_probability(DISK, (1.0, 0.0), 0.05, (0.9, 0.0), WalkConfig(0.02), 10, 0,
                                    threads=threads)
    with pytest.raises(ValueError, match="threads"):
        estimate_escape_probability(DISK, (1.0, 0.0), 5.0, (0.9, 0.0), WalkConfig(0.02), 10, 0,
                                    threads=threads)


def test_escape_monotone_in_delta():
    ps = []
    for delta in (0.3, 0.5, 0.7):
        p, se = estimate_escape_probability(
            DISK, (1.0, 0.0), delta, (0.97, 0.0), WalkConfig(0.02), 500, 9
        )
        assert 0.0 <= p <= 1.0 and se >= 0.0
        ps.append(p)
    # shared streams: larger delta can only lose escapes, samplewise
    assert ps[0] >= ps[1] >= ps[2]


def test_escape_needs_interior_start():
    # Checked before either closed-form shortcut: from (3, 0), delta 0.5 is
    # already reached and delta 10 is out of reach.
    for delta, x0 in ((0.5, (1.01, 0.0)), (0.5, (3.0, 0.0)), (10.0, (3.0, 0.0))):
        with pytest.raises(ValueError, match="inside"):
            estimate_escape_probability(DISK, (1.0, 0.0), delta, x0, WalkConfig(0.02), 10, 0)


@pytest.mark.parametrize("n_walks, threads", [(2.7, 1), (0, 1), (10, 0), (10, -3), (10, 1.5)])
def test_escape_validates_walks_and_threads(n_walks, threads):
    with pytest.raises(ValueError):
        estimate_escape_probability(DISK, (1.0, 0.0), 0.3, (0.97, 0.0), WalkConfig(0.02),
                                    n_walks, 0,
                                    threads=threads)


@pytest.mark.parametrize("threads", [1, 2])
def test_escape_equals_one_run_walks_batch(threads):
    # A walk escapes when its ring stop at (y0, delta) ends it off the
    # boundary, which is when the max over its whole unringed path of
    # |x - y0| reaches delta (checked on the first walks); more walks than
    # one chunk, so threads=2 splits them.
    n, y0, delta = _CHUNK + 500, np.array([1.0, 0.0]), 0.3
    got = estimate_escape_probability(DISK, y0, delta, (0.9, 0.0), WalkConfig(0.2), n, 9,
                                      threads=threads)
    batch = run_walks(DISK, (0.9, 0.0), WalkConfig(0.2), 9, range(n), ring=(y0, delta))
    ok = ~batch.truncated
    escaped = np.linalg.norm(batch.exit_points - y0, axis=1) >= delta
    for k in range(40):
        path = trace_walk(DISK, (0.9, 0.0), WalkConfig(0.2), 9, k)[0]
        assert escaped[k] == (np.linalg.norm(path - y0, axis=1).max() >= delta)
    assert 0 < escaped[:40].sum() < 40
    p = float(escaped[ok].mean())
    assert 0.0 < p < 1.0
    assert got == (p, math.sqrt(p * (1.0 - p) / int(ok.sum())))


def test_cone_ratio():
    assert cone_ratio(0.5) == math.sin(0.5) / (1.0 - math.sin(0.5))
    # R keeps the bits it had before cone_ratio took the half-angle directly
    for half_angle, bits in [(0.5, "0x1.d787628afb149p-1"), (1.4, "0x1.0ee8b36b67f9fp+6"),
                             (1.57, "0x1.80ff37882ee90p+21")]:
        assert cone_ratio(half_angle).hex() == bits
    for bad in (math.pi / 2.0, math.nan, 0.0, -0.5, math.inf):
        with pytest.raises(ValueError, match="strictly between 0 and pi/2"):
            cone_ratio(bad)
    # sin rounds to 1 this close to pi/2, so R = s / (1 - s) has no float value
    with pytest.raises(ValueError, match="too close to pi/2 for a finite R"):
        cone_ratio(math.pi / 2.0 - 1e-9)


def test_cone_bound_pinned_values():
    assert cone_bound_theta0(3, 1.0) == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert cone_bound_theta0(2, 1.0) == pytest.approx(
        math.log(3.0) / math.log(4.0), abs=1e-12
    )
    assert cone_bound_theta0(1, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_cone_bound_shape():
    grid = [0.5, 1.0, 2.0, 4.0, 8.0]
    for n_dim in (2, 3, 5):
        vals = [cone_bound_theta0(n_dim, r) for r in grid]
        assert all(0.0 < v < 1.0 for v in vals)
        # wider cones (larger R) pull the bound down
        assert all(a > b for a, b in zip(vals, vals[1:]))
    flat = [cone_bound_theta0(1, r) for r in grid]
    assert all(v == pytest.approx(2.0 / 3.0, abs=1e-12) for v in flat)


def test_cone_bound_validation():
    with pytest.raises(ValueError):
        cone_bound_theta0(0, 1.0)
    with pytest.raises(ValueError):
        cone_bound_theta0(2, 0.0)
    with pytest.raises(ValueError):
        cone_bound_theta0(2, -1.0)


# ---------------------------------------------------------------------------
# martingale statistic and the irregularity table


def test_martingale_check_small_and_deterministic():
    a = martingale_check(DISK, (0.5, 0.0), 0.3, 200_000, 7)
    b = martingale_check(DISK, (0.5, 0.0), 0.3, 200_000, 7)
    assert a == b
    assert a < 4.0


@pytest.mark.parametrize("eps", _BAD_EPSILONS)
def test_martingale_check_and_walk_config_refuse_an_epsilon_outside_the_unit_interval(eps):
    # a wide ball, so the boundary distance cannot cap the step instead
    with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\), got "):
        martingale_check(Ball((0.0, 0.0), 10.0), (0.0, 0.0), eps, 200, 1)
    with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\), got "):
        WalkConfig(eps)


def test_irregularity_witness_structure():
    table = irregularity_witness(DISK, (1.0, 0.0), [WalkConfig(0.1), WalkConfig(0.05)],
                                 [0.05, 0.01], 200, 3)
    assert len(table.rows) == 4
    assert [r.epsilon for r in table.rows] == [0.1, 0.1, 0.05, 0.05]
    assert [r.start_distance for r in table.rows] == [0.05, 0.01, 0.05, 0.01]
    for row in table.rows:
        # approach marches inward along -e1 from the boundary point
        np.testing.assert_allclose(
            row.x0, [1.0 - row.start_distance, 0.0], rtol=0, atol=1e-15
        )
        assert row.n == 200
        assert row.stderr > 0.0
    # at a regular point the distance data stays near F(y0) = 0
    assert table.rows[3].mean < 0.25
    again = irregularity_witness(DISK, (1.0, 0.0), [WalkConfig(0.1), WalkConfig(0.05)],
                                 [0.05, 0.01], 200, 3)
    assert [r.mean for r in again.rows] == [r.mean for r in table.rows]


@pytest.mark.parametrize("threads", [1, 2])
def test_irregularity_witness_equals_point_by_point(threads):
    # row k (epsilon i, distance j) runs on streams [k*n, (k+1)*n), k = i*len(distances) + j
    y0, distances, n = np.array([1.0, 0.0]), [0.05, 0.01], 300
    configs = [WalkConfig(0.1), WalkConfig(0.05)]
    table = irregularity_witness(DISK, y0, configs, distances, n, 3, threads=threads)
    k = 0
    for config in configs:
        for d in distances:
            x0 = y0 + d * np.array([-1.0, 0.0])
            est = estimate_value(DISK, DistanceTo(y0), x0, config, 3, n,
                                 stream_base=k * n, threads=threads)
            row = table.rows[k]
            assert np.array_equal(row.x0, x0)
            assert (row.mean, row.stderr, row.n, row.truncated_count) == (
                est.mean, est.stderr, est.n, est.truncated_count)
            assert type(row.mean) is float and type(row.n) is int
            k += 1


def test_irregularity_witness_validation():
    with pytest.raises(ValueError, match="at least one walk config"):
        irregularity_witness(DISK, (1.0, 0.0), [], [0.01], 100, 0)
    with pytest.raises(ValueError):
        irregularity_witness(DISK, (1.0, 0.0), [WalkConfig(0.1)], [-0.01], 100, 0)
    punctured = PuncturedBall((0.0, 0.0), 1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^start distances must be positive and finite$"):
            irregularity_witness(punctured, (0.0, 0.0), [WalkConfig(0.1)], [0.05, bad], 10, 0)


def test_cone_bound_refuses_a_dimension_above_the_cap():
    with pytest.raises(ValueError, match=r"^n_dim must be an integer in 1\.\.16, got 2000"):
        cone_bound_theta0(2000, 1.0)
    assert 0.0 < cone_bound_theta0(16, 1.0) < 1.0


def test_cone_bound_refuses_r_without_a_finite_bound():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big_r in (math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^R must be positive and finite"):
                cone_bound_theta0(3, big_r)
        # bounds that are not finite, and bounds that round to 0 or 1
        for n_dim, big_r in [(2, 1e300), (3, 1e300), (2, 2e18), (3, 2e18), (5, 1e-300),
                             (2, 1e15), (16, 1e-6)]:
            with pytest.raises(ValueError, match=rf"^R = {re.escape(str(big_r))} is too"):
                cone_bound_theta0(n_dim, big_r)


def test_cone_bound_finite_values_are_unchanged():
    pinned = {(1, 1e6): "0x1.5555555555555p-1", (2, 1e-3): "0x1.e6152586dbca2p-1",
              (2, 1e8): "0x1.555554023fc65p-1", (3, 67.7): "0x1.5a3b02d0dd59ap-1",
              (5, 0.5): "0x1.fd639c04ef326p-1", (16, 1e3): "0x1.57e1f29d5b959p-1",
              (3, 1e12): "0x1.55526466a42a0p-1"}
    for (n_dim, big_r), bits in pinned.items():
        assert cone_bound_theta0(n_dim, big_r).hex() == bits
