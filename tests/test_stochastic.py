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
    # one Gaussian pair per two dims, plus one radius draw for the ball
    assert [draws_per_sphere(n) for n in (1, 2, 3, 4, 5)] == [2, 2, 4, 4, 6]
    assert [draws_per_ball(n) for n in (1, 2, 3, 4, 5)] == [3, 3, 5, 5, 7]


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
