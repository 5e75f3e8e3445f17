"""Counter-based stream tests: determinism, indexing contract, distributions."""
import itertools

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ballwalk import (
    RngStream,
    draws_per_ball,
    draws_per_sphere,
    sample_unit_ball,
    sample_unit_sphere,
)
from ballwalk import stochastic
from ballwalk.stochastic import _unit_ball_from_base, _unit_sphere_from_base

seeds = st.integers(min_value=0, max_value=2**63 - 1)
dims = st.integers(min_value=1, max_value=16)


@given(seeds, st.integers(0, 2**32), st.integers(1, 64))
def test_uniforms_deterministic(seed, idx, count):
    a = RngStream(seed, idx).uniforms(count)
    b = RngStream(seed, idx).uniforms(count)
    assert a.dtype == np.float64
    assert a.shape == (count,)
    assert np.array_equal(a, b)


@given(seeds, st.integers(0, 2**32))
def test_uniforms_in_unit_interval(seed, idx):
    u = RngStream(seed, idx).uniforms(256)
    assert np.all(u >= 0.0)
    assert np.all(u < 1.0)


def test_distinct_streams_differ():
    base = RngStream(42, 0).uniforms(32)
    for idx in (1, 2, 1000, 2**40):
        assert not np.array_equal(base, RngStream(42, idx).uniforms(32))
    assert not np.array_equal(base, RngStream(43, 0).uniforms(32))


@given(seeds, st.integers(0, 2**20), st.integers(0, 50))
def test_advanced_continues_the_sequence(seed, idx, skip):
    whole = RngStream(seed, idx).uniforms(skip + 40)
    tail = RngStream(seed, idx).advanced(skip).uniforms(40)
    assert np.array_equal(whole[skip:], tail)


def test_offset_equals_advanced():
    assert np.array_equal(
        RngStream(7, 3, offset=11).uniforms(16),
        RngStream(7, 3).advanced(11).uniforms(16),
    )


def test_draw_counts():
    # 1-D: a sign.  Even n: n/2 angles and n/2 - 1 spacing draws.  Odd n:
    # n - 2 draws for the height's median, then the (n - 1)-sphere.  The
    # ball adds one radius draw in 2-D and n (their maximum) otherwise.
    assert [draws_per_sphere(n) for n in (1, 2, 3, 4, 5)] == [1, 1, 2, 3, 6]
    assert [draws_per_ball(n) for n in (1, 2, 3, 4, 5)] == [2, 2, 5, 7, 11]


@given(seeds, dims)
@settings(max_examples=50)
def test_samplers_are_pure(seed, n_dim):
    stream = RngStream(seed, 5)
    a = sample_unit_ball(stream, n_dim, count=4)
    b = sample_unit_ball(stream, n_dim, count=4)
    assert np.array_equal(a, b)
    c = sample_unit_sphere(stream, n_dim, count=4)
    d = sample_unit_sphere(stream, n_dim, count=4)
    assert np.array_equal(c, d)


@given(seeds, dims)
@settings(max_examples=50)
def test_sample_norms(seed, n_dim):
    stream = RngStream(seed, 1)
    ball = sample_unit_ball(stream, n_dim, count=64)
    assert ball.shape == (64, n_dim)
    assert np.all(np.linalg.norm(ball, axis=1) <= 1.0)
    sphere = sample_unit_sphere(stream, n_dim, count=64)
    assert np.allclose(np.linalg.norm(sphere, axis=1), 1.0, rtol=0, atol=1e-12)


def test_single_sample_shape():
    w = sample_unit_ball(RngStream(0, 0), 3)
    assert w.shape == (3,)
    v = sample_unit_sphere(RngStream(0, 0), 3)
    assert v.shape == (3,)


@given(seeds, dims, st.integers(0, 9))
@settings(max_examples=50)
def test_batch_row_matches_advanced_single(seed, n_dim, row):
    # row j of a batch consumes draws [j*D, (j+1)*D): batching never reorders
    stream = RngStream(seed, 2)
    batch = sample_unit_ball(stream, n_dim, count=10)
    single = sample_unit_ball(stream.advanced(row * draws_per_ball(n_dim)), n_dim)
    assert np.array_equal(batch[row], single)
    batch_s = sample_unit_sphere(stream, n_dim, count=10)
    single_s = sample_unit_sphere(
        stream.advanced(row * draws_per_sphere(n_dim)), n_dim
    )
    assert np.array_equal(batch_s[row], single_s)


def _ks_statistic(sample):
    x = np.sort(sample)
    n = x.size
    grid = np.arange(1, n + 1) / n
    return max(np.max(grid - x), np.max(x - (grid - 1.0 / n)))


def test_uniforms_ks():
    n = 100_000
    u = RngStream(2024, 17).uniforms(n)
    # 0.999 asymptotic Kolmogorov quantile
    assert _ks_statistic(u) < 1.9495 / np.sqrt(n)


def test_ball_radius_ks():
    # |w|^N is uniform on [0, 1) for a uniform ball sample.  2-D and 3-D keep
    # their 0.999 Kolmogorov quantile; the other dimensions, one family of
    # fourteen gates, use the 0.9999 quantile.
    n = 50_000
    for n_dim in range(1, 17):
        w = sample_unit_ball(RngStream(11, 0), n_dim, count=n)
        r_pow = np.linalg.norm(w, axis=1) ** n_dim
        quantile = 1.9495 if n_dim in (2, 3) else 2.2253
        assert _ks_statistic(r_pow) < quantile / np.sqrt(n), n_dim


@pytest.mark.parametrize("n_dim", range(2, 17))
def test_sphere_marginal_ks(n_dim):
    # A coordinate x of a uniform point on the (n - 1)-sphere has
    # x**2 ~ Beta(1/2, (n - 1)/2); the first and the last coordinate come
    # from different parts of the construction.  0.9999 Kolmogorov quantile.
    n = 50_000
    v = sample_unit_sphere(RngStream(14, n_dim), n_dim, count=n)
    for col in (0, n_dim - 1):
        cdf = scipy.stats.beta.cdf(v[:, col] ** 2, 0.5, (n_dim - 1) / 2.0)
        assert _ks_statistic(cdf) < 2.2253 / np.sqrt(n), col


def test_1d_sign_balance():
    # a 1-D direction is +1 or -1 with probability 1/2 each, for the sphere
    # and for the ball's sign; the count of +1 is gated at 4 standard errors
    n = 50_000
    v = sample_unit_sphere(RngStream(15, 0), 1, count=n)[:, 0]
    w = sample_unit_ball(RngStream(15, 1), 1, count=n)[:, 0]
    assert np.all(np.abs(v) == 1.0)
    for signs in (v > 0.0, w > 0.0):
        assert abs(int(signs.sum()) - n / 2) < 4 * np.sqrt(n / 4)


def test_2d_angle_ks():
    # the polar angle of a uniform 2-D ball or sphere sample is uniform
    n = 50_000
    for sample in (sample_unit_ball, sample_unit_sphere):
        w = sample(RngStream(12, 0), 2, count=n)
        turn = np.arctan2(w[:, 1], w[:, 0]) / (2.0 * np.pi) + 0.5
        assert _ks_statistic(turn) < 1.9495 / np.sqrt(n)


def test_3d_height_ks():
    # Archimedes: the height of a uniform point on the 2-sphere is uniform on
    # [-1, 1], and so is that of a uniform ball sample's direction
    n = 50_000
    v = sample_unit_sphere(RngStream(13, 0), 3, count=n)
    assert _ks_statistic((v[:, 2] + 1.0) / 2.0) < 1.9495 / np.sqrt(n)
    w = sample_unit_ball(RngStream(13, 1), 3, count=n)
    z = w[:, 2] / np.linalg.norm(w, axis=1)
    assert _ks_statistic((z + 1.0) / 2.0) < 1.9495 / np.sqrt(n)


def test_sphere_mean_near_zero():
    n = 100_000
    for n_dim in (2, 3, 5):
        v = sample_unit_sphere(RngStream(5, 0), n_dim, count=n)
        stderr = np.sqrt(1.0 / (n_dim * n))
        assert np.all(np.abs(v.mean(axis=0)) < 4 * stderr)


def test_dimension_validation():
    with pytest.raises(ValueError):
        sample_unit_ball(RngStream(0, 0), 0)
    with pytest.raises(ValueError):
        sample_unit_sphere(RngStream(0, 0), 17)


def _splitmix_uniforms(base, first, count):
    """Uniforms of draws first + j, j < count, as columns (m, count), from
    SplitMix64 written out here: the 53 top bits of
    mix(base + (first + j + 1) * golden), times 2**-53."""
    golden = np.uint64(0x9E3779B97F4A7C15)
    d = first[:, None] + np.arange(1, count + 1, dtype=np.uint64)[None, :]
    z = base[:, None] + d * golden
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _mix64_int(z):
    """The SplitMix64 finalizer on Python ints."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


@pytest.mark.parametrize("seed, idx, offset, count", [
    (0, 0, 0, 5),
    (42, 7, 11, 40),
    (3, 2**60, 2**64 - 3, 9),              # draws wrap past 2**64
    (2**63 + 1, 2**60 + 12345, 2**63, 3),
    (-1, 2**64 - 1, 2**64 - 1, 2),
])
def test_uniforms_match_the_written_out_reference(seed, idx, offset, count):
    # The stream base mix64(mix64(seed ^ salt) + idx * golden), written out
    # on Python ints mod 2**64, and its draws from _splitmix_uniforms.
    golden = 0x9E3779B97F4A7C15
    base = _mix64_int((_mix64_int((seed % 2**64) ^ 0xA3EC647659359ACD) + idx * golden) % 2**64)
    want = _splitmix_uniforms(np.array([base], dtype=np.uint64),
                              np.array([offset], dtype=np.uint64), count)[0]
    assert np.array_equal(RngStream(seed, idx, offset).uniforms(count), want)


def _closed_form_sphere(base, first, n_dim):
    """2-D: (cos 2 pi u0, sin 2 pi u0).  3-D: z = 2 u0 - 1 and
    (s cos 2 pi u1, s sin 2 pi u1, z) with s = sqrt((1 - z)(1 + z))."""
    u = _splitmix_uniforms(base, first, n_dim - 1)
    a = 2.0 * np.pi * u[:, -1]
    if n_dim == 2:
        return np.column_stack([np.cos(a), np.sin(a)])
    z = 2.0 * u[:, 0] - 1.0
    s = np.sqrt((1.0 - z) * (1.0 + z))
    return np.column_stack([s * np.cos(a), s * np.sin(a), z])


def _closed_form_ball(base, first, n_dim):
    """The direction times sqrt(u1) in 2-D, or times max(u2, u3, u4) in 3-D."""
    u = _splitmix_uniforms(base, first, 2 if n_dim == 2 else 5)
    r = np.sqrt(u[:, 1]) if n_dim == 2 else u[:, 2:].max(axis=1)
    return _closed_form_sphere(base, first, n_dim) * r[:, None]


def _sphere_draws(n_dim):
    return 1 if n_dim == 1 else n_dim - 1 if n_dim % 2 == 0 else 2 * n_dim - 4


def _order_statistic_sphere(base, first, n_dim):
    """Row-major reference for every dimension.  1-D: the sign of u0 - 1/2.
    Even n = 2k: planes (r_i cos 2 pi u_i, r_i sin 2 pi u_i), i < k, with
    r_i**2 the spacings of the next k - 1 uniforms sorted.  Odd n = 2k + 1:
    z = 2B - 1 with B the k-th smallest of 2k - 1 uniforms, the 2k-sphere of
    the next draws times s = sqrt((1 - z)(1 + z)), and z last.  A column is
    cos(a_i) * (r_i * s), where an absent r_i or s is 1.0, an exact factor."""
    m = base.shape[0]
    if n_dim == 1:
        return np.copysign(1.0, _splitmix_uniforms(base, first, 1) - 0.5)
    k = n_dim // 2
    u = _splitmix_uniforms(base, first, _sphere_draws(n_dim))
    s = np.ones(m)
    if n_dim % 2:
        z = 2.0 * np.sort(u[:, :2 * k - 1], axis=1)[:, k - 1] - 1.0
        s = np.sqrt((1.0 - z) * (1.0 + z))
        u = u[:, 2 * k - 1:]
    edges = np.column_stack([np.zeros(m), np.sort(u[:, k:], axis=1), np.ones(m)])
    f = np.sqrt(np.diff(edges, axis=1)) * s[:, None]
    a = 2.0 * np.pi * u[:, :k]
    x = np.empty((m, n_dim))
    x[:, 0:2 * k:2] = np.cos(a) * f
    x[:, 1:2 * k:2] = np.sin(a) * f
    if n_dim % 2:
        x[:, -1] = z
    return x


def _order_statistic_ball(base, first, n_dim):
    """The direction times sqrt(u) in 2-D, or times the largest of n
    uniforms otherwise, read after the direction's draws."""
    per = _sphere_draws(n_dim)
    u = _splitmix_uniforms(base, first, per + (1 if n_dim == 2 else n_dim))
    r = np.sqrt(u[:, per]) if n_dim == 2 else u[:, per:].max(axis=1)
    return _order_statistic_sphere(base, first, n_dim) * r[:, None]


@pytest.mark.parametrize("n_dim", range(1, 17))
def test_samplers_match_the_row_major_formulas(n_dim):
    rng = np.random.default_rng(n_dim)
    m = 5000
    base = rng.integers(0, 2**64, m, dtype=np.uint64, endpoint=False)
    first = np.concatenate([
        np.zeros(10, dtype=np.uint64),
        rng.integers(0, 2**20, m // 2, dtype=np.uint64),
        rng.integers(0, 2**64, m - m // 2 - 10, dtype=np.uint64, endpoint=False),
    ])
    sphere = _unit_sphere_from_base(base, first, n_dim)
    ball = _unit_ball_from_base(base, first, n_dim)
    assert sphere.shape == ball.shape == (m, n_dim)
    assert np.array_equal(sphere, _order_statistic_sphere(base, first, n_dim))
    assert np.array_equal(ball, _order_statistic_ball(base, first, n_dim))
    if n_dim in (2, 3):
        assert np.array_equal(sphere, _closed_form_sphere(base, first, n_dim))
        assert np.array_equal(ball, _closed_form_ball(base, first, n_dim))


def _unxorshift(y, shift):
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _unmix64(z):
    """Inverse of the SplitMix64 finalizer on Python ints."""
    z = _unxorshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    z = _unxorshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return _unxorshift(z, 30)


def _base_with_top_first_draw(first):
    """A stream base whose draw ``first`` is 2**64 - 1, the top uniform
    1 - 2**-53, which zeroed the first pair of a Box-Muller sampler."""
    counter = _unmix64(2**64 - 1)
    return (counter - (first + 1) * 0x9E3779B97F4A7C15) % 2**64


@pytest.mark.parametrize("n_dim", range(1, 17))
def test_zero_direction_is_redrawn(n_dim):
    # No dimension's sampler can give a zero direction, so none redraws: the
    # crafted rows, among ordinary ones, give unit directions read at their
    # own draws, as the row-major reference does.
    first = np.array([0, 7, 123456789], dtype=np.uint64)
    crafted = np.array([_base_with_top_first_draw(int(f)) for f in first], dtype=np.uint64)
    assert np.all(_splitmix_uniforms(crafted, first, 1)[:, 0] == 1.0 - 2.0 ** -53)
    base = np.concatenate([crafted, np.arange(1, 6, dtype=np.uint64) * np.uint64(977)])
    first = np.concatenate([first, np.arange(5, dtype=np.uint64) * np.uint64(3)])
    sphere = _unit_sphere_from_base(base, first, n_dim)
    ball = _unit_ball_from_base(base, first, n_dim)
    assert np.array_equal(sphere, _order_statistic_sphere(base, first, n_dim))
    assert np.array_equal(ball, _order_statistic_ball(base, first, n_dim))
    np.testing.assert_allclose(np.linalg.norm(sphere, axis=1), 1.0, rtol=0, atol=1e-15)


def test_2d_crafted_base_needs_no_redraw():
    # The base whose first draw is the top uniform gives the 2-D sampler an
    # angle just short of 2 pi: a unit vector read at its own draws.
    first = np.array([0, 7, 123456789], dtype=np.uint64)
    base = np.array([_base_with_top_first_draw(int(f)) for f in first], dtype=np.uint64)
    assert np.all(_splitmix_uniforms(base, first, 1)[:, 0] == 1.0 - 2.0 ** -53)
    sphere = _unit_sphere_from_base(base, first, 2)
    assert np.array_equal(sphere, _closed_form_sphere(base, first, 2))
    assert np.array_equal(_unit_ball_from_base(base, first, 2), _closed_form_ball(base, first, 2))
    np.testing.assert_allclose(np.linalg.norm(sphere, axis=1), 1.0, rtol=1e-15)
    assert sphere[:, 0].min() > 0.99


def test_extreme_uniform_rows_give_finite_unit_rows(monkeypatch):
    # Every draw at the bottom or the top of [0, 1): no dimension's sampler
    # can give a zero, non-finite or non-unit direction, so none redraws.
    base = first = np.zeros(3, dtype=np.uint64)
    for value, n_dim in itertools.product([0.0, 1.0 - 2.0 ** -53], range(1, 17)):
        monkeypatch.setattr(stochastic, "_uniform_rows",
                            lambda base, first, count: np.full((count, base.shape[0]), value))
        sphere = _unit_sphere_from_base(base, first, n_dim)
        ball = _unit_ball_from_base(base, first, n_dim)
        assert np.all(np.isfinite(sphere)) and np.all(np.isfinite(ball)), n_dim
        np.testing.assert_allclose(np.linalg.norm(sphere, axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.all(np.linalg.norm(ball, axis=1) <= 1.0), n_dim


@pytest.mark.parametrize("bad", [True, np.True_, 2.5, np.float64(3.9), float("nan"), float("inf")])
def test_seeds_stream_indices_and_offsets_must_be_integers(bad):
    from ballwalk import Ball, Constant, WalkConfig, estimate_value, run_walks

    with pytest.raises(ValueError, match=r"^master_seed must be an integer, got"):
        RngStream(bad, 0).uniforms(2)
    with pytest.raises(ValueError, match=r"^stream index must be an integer, got"):
        RngStream(0, bad).uniforms(2)
    with pytest.raises(ValueError, match=r"^offset must be an integer, got"):
        RngStream(0, 0, offset=bad).uniforms(2)
    with pytest.raises(ValueError, match=r"^offset must be an integer, got"):
        sample_unit_ball(RngStream(0, 0, offset=bad), 2, 3)
    disk, cfg = Ball((0.0, 0.0), 1.0), WalkConfig(0.3)
    with pytest.raises(ValueError, match=r"^stream index must be an integer, got"):
        run_walks(disk, (0.2, 0.1), cfg, 1, [bad])
    with pytest.raises(ValueError, match=r"^master_seed must be an integer, got"):
        estimate_value(disk, Constant(1.0), (0.2, 0.1), cfg, bad, 4)


def test_integral_seeds_equal_their_int_and_wrap_mod_2_64():
    ref = RngStream(3, 5, offset=7).uniforms(4)
    for seed, idx, off in [(3.0, 5, 7), (np.int64(3), 5.0, 7.0), (3 + 2**64, 5 - 2**64, 7 + 2**65),
                           (np.float64(3.0), np.uint64(5), np.int32(7))]:
        assert np.array_equal(RngStream(seed, idx, offset=off).uniforms(4), ref)
    assert np.array_equal(RngStream(-1, 0).uniforms(3), RngStream(2**64 - 1, 0).uniforms(3))
    assert not np.array_equal(RngStream(2, 0).uniforms(3), RngStream(3, 0).uniforms(3))
