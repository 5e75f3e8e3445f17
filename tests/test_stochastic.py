"""Counter-based stream tests: determinism, indexing contract, distributions."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballwalk import (
    RngStream,
    draws_per_ball,
    draws_per_sphere,
    sample_unit_ball,
    sample_unit_sphere,
)
from ballwalk.stochastic import (
    _REDRAW_STRIDE,
    _draw_values,
    _to_unit,
    _unit_ball_from_base,
    _unit_sphere_from_base,
)

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
    # 2-D: an angle, plus a radius draw for the ball.  3-D: a height and an
    # angle, plus three radius draws for the ball.  Other dimensions: one
    # Gaussian pair per two dims, plus one radius draw for the ball.
    assert [draws_per_sphere(n) for n in (1, 2, 3, 4, 5)] == [2, 1, 2, 4, 6]
    assert [draws_per_ball(n) for n in (1, 2, 3, 4, 5)] == [3, 2, 5, 5, 7]


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
    # |w|^N is uniform on [0, 1) for a uniform ball sample
    n = 50_000
    for n_dim in (2, 3):
        w = sample_unit_ball(RngStream(11, 0), n_dim, count=n)
        r_pow = np.linalg.norm(w, axis=1) ** n_dim
        assert _ks_statistic(r_pow) < 1.9495 / np.sqrt(n)


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


def _reference_directions(base, first, n_dim):
    """Unit directions built row-major, one (m, 2 * pairs) block per draw."""
    pairs = (n_dim + 1) // 2

    def block(b, f):
        d = f[:, None] + np.arange(2 * pairs, dtype=np.uint64)[None, :]
        z = _draw_values(b[:, None], d)
        u1 = _to_unit(z[:, 0::2], open_low=True)
        u2 = _to_unit(z[:, 1::2])
        r = np.sqrt(-2.0 * np.log(u1))
        ang = (2.0 * np.pi) * u2
        g = np.empty((b.shape[0], 2 * pairs))
        g[:, 0::2] = r * np.cos(ang)
        g[:, 1::2] = r * np.sin(ang)
        return g[:, :n_dim]

    g = block(base, first)
    norm = np.sqrt(np.einsum("ij,ij->i", g, g))
    bad = norm == 0.0
    attempt = np.uint64(0)
    while np.any(bad):
        attempt = attempt + np.uint64(1)
        g[bad] = block(base[bad], first[bad] + attempt * _REDRAW_STRIDE)
        norm[bad] = np.sqrt(np.einsum("ij,ij->i", g[bad], g[bad]))
        bad = norm == 0.0
    return g / norm[:, None]


def _reference_ball(base, first, n_dim):
    w = _reference_directions(base, first, n_dim)
    zr = _draw_values(base, first + np.uint64(draws_per_sphere(n_dim)))
    return w * (_to_unit(zr) ** (1.0 / n_dim))[:, None]


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


def _base_with_unit_first_draw(first):
    """A stream base whose draw ``first`` is 2**64 - 1, so u1 = 1.0 and the
    first Box-Muller pair has radius 0."""
    counter = _unmix64(2**64 - 1)
    return (counter - (first + 1) * 0x9E3779B97F4A7C15) % 2**64


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
    if n_dim in (2, 3):
        assert np.array_equal(sphere, _closed_form_sphere(base, first, n_dim))
        assert np.array_equal(ball, _closed_form_ball(base, first, n_dim))
    else:
        assert np.array_equal(sphere, _reference_directions(base, first, n_dim))
        assert np.array_equal(ball, _reference_ball(base, first, n_dim))


@pytest.mark.parametrize("n_dim", [1])
def test_zero_direction_is_redrawn(n_dim):
    first = np.array([0, 7, 123456789], dtype=np.uint64)
    crafted = np.array([_base_with_unit_first_draw(int(f)) for f in first], dtype=np.uint64)
    assert np.all(_to_unit(_draw_values(crafted, first), open_low=True) == 1.0)
    # crafted rows among ordinary ones
    base = np.concatenate([crafted, np.arange(1, 6, dtype=np.uint64) * np.uint64(977)])
    first = np.concatenate([first, np.arange(5, dtype=np.uint64) * np.uint64(3)])
    sphere = _unit_sphere_from_base(base, first, n_dim)
    ball = _unit_ball_from_base(base, first, n_dim)
    assert np.array_equal(sphere, _reference_directions(base, first, n_dim))
    assert np.array_equal(ball, _reference_ball(base, first, n_dim))
    np.testing.assert_allclose(np.linalg.norm(sphere, axis=1), 1.0, rtol=1e-15)
    # the redraw reads the draws at first + _REDRAW_STRIDE
    redrawn = _unit_sphere_from_base(base[:3], first[:3] + _REDRAW_STRIDE, n_dim)
    assert np.array_equal(sphere[:3], redrawn)


def test_2d_crafted_base_needs_no_redraw():
    # The base that zeroes a Box-Muller radius gives the 2-D sampler its top
    # uniform, an angle just short of 2 pi: a unit vector read at its own
    # draws, not at first + _REDRAW_STRIDE.
    first = np.array([0, 7, 123456789], dtype=np.uint64)
    base = np.array([_base_with_unit_first_draw(int(f)) for f in first], dtype=np.uint64)
    assert np.all(_to_unit(_draw_values(base, first)) == 1.0 - 2.0 ** -53)
    sphere = _unit_sphere_from_base(base, first, 2)
    assert np.array_equal(sphere, _closed_form_sphere(base, first, 2))
    np.testing.assert_allclose(np.linalg.norm(sphere, axis=1), 1.0, rtol=1e-15)
    assert sphere[:, 0].min() > 0.99
    redrawn = _unit_sphere_from_base(base, first + _REDRAW_STRIDE, 2)
    assert not np.any(np.all(sphere == redrawn, axis=1))


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
