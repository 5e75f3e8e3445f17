"""Counter-based random streams and uniform ball/sphere samplers.

Every scalar draw is a pure function of ``(master_seed, stream_index,
draw_index)``: a golden-ratio counter fed through a 64-bit finalizer
(SplitMix64 with the Stafford mix13 constants).  Because draws are
addressable, any subset of walks can be generated in bulk, in any execution
order, and reproduce bit-identical results on any number of workers.

In 2 and 3 dimensions the samplers are closed forms built only from
counter uniforms and ``+ - * sqrt cos sin maximum``.  A 2-D direction is
``(cos 2 pi u, sin 2 pi u)`` (1 draw) and a 2-D ball sample scales it by
``sqrt(u')`` (2 draws).  A 3-D direction takes Archimedes' height
``z = 2u - 1`` and ``(s cos 2 pi u', s sin 2 pi u', z)`` with
``s = sqrt((1 - z)(1 + z))`` (2 draws), and a 3-D ball sample scales it by
the largest of three uniforms, which has the law of ``U**(1/3)`` (5 draws).
These operations round the same way at every CPU dispatch level of a numpy
build, so 2-D and 3-D samples are bitwise identical across them.

In 1 and 4 to 16 dimensions, Gaussians use Box-Muller on two counter
uniforms (deterministic, fixed draw budget per sample), directions are
normalized Gaussian vectors, and ball radii apply the inverse CDF
``U**(1/n)``.  numpy's ``log`` and ``power`` round differently at different
dispatch levels, so these samples are bitwise identical on one machine only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .geometry import MAX_DIM, _count

_Array = NDArray[np.float64]
_U64 = NDArray[np.uint64]

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SEED_SALT = np.uint64(0xA3EC647659359ACD)
# Draw-index offset used when a Gaussian direction degenerates to the zero
# vector (probability ~2**-53 per Box-Muller pair); keeps redraws pure.
_REDRAW_STRIDE = np.uint64(0x632BE59BD9B4E019)
_INV_2_53 = 2.0 ** -53
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _as_u64(values, name: str) -> _U64:
    """Coerce integers (any size, any sign, or integral floats) to uint64 arrays,
    reducing mod 2**64; booleans, fractions, NaN and infinities raise ValueError."""
    a = np.asarray(values)
    if a.dtype == np.uint64:
        out = a
    elif a.dtype.kind in "iu":
        out = a.astype(np.uint64)
    else:
        flat = [_count(v, name, None) & _MASK64 for v in a.ravel().tolist()]
        out = np.asarray(flat, dtype=np.uint64).reshape(a.shape)
    return np.atleast_1d(out)


def _mix64_inplace(z: _U64) -> _U64:
    """The SplitMix64 finalizer applied to ``z`` in place; returns ``z``."""
    tmp = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, np.uint64(31), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    return z


def _mix64(z: _U64) -> _U64:
    return _mix64_inplace(np.array(z, dtype=np.uint64))


def _stream_base(master_seed: int, stream_indices) -> _U64:
    """Per-stream 64-bit state root; a pure hash of (master_seed, stream_index)."""
    seed = _as_u64(master_seed, "master_seed")
    idx = _as_u64(stream_indices, "stream index")
    return _mix64(_mix64(seed ^ _SEED_SALT) + idx * _GOLDEN)


def _draw_values(base: _U64, draw_indices: _U64) -> _U64:
    """Raw 64-bit value of draw j on each stream: mix64(base + (j+1)*golden)."""
    return _mix64(base + (draw_indices + np.uint64(1)) * _GOLDEN)


def _to_unit(z: _U64, open_low: bool = False) -> _Array:
    """Top 53 bits to a double in [0, 1), or (0, 1] when open_low (safe for log)."""
    u = (z >> np.uint64(11)).astype(np.float64)
    if open_low:
        u = u + 1.0
    return u * _INV_2_53


def draws_per_sphere(n_dim: int) -> int:
    """Scalar draws consumed by one unit-sphere sample in n_dim dimensions."""
    if n_dim in (2, 3):
        return n_dim - 1
    return 2 * ((n_dim + 1) // 2)


def draws_per_ball(n_dim: int) -> int:
    """Scalar draws consumed by one unit-ball sample (sphere draws + radius
    draws: one, or three in 3-D)."""
    return draws_per_sphere(n_dim) + (3 if n_dim == 3 else 1)


def _uniform_rows(base: _U64, first_draw: _U64, count: int, pairs: int) -> _Array:
    """Uniforms of draws first_draw + j, j < count, as rows (count, m).

    Row j is _to_unit(_draw_values(base, first_draw + j)), open below for the
    Box-Muller rows 0, 2, ..., 2 * pairs - 2 (safe for log).  The counters
    base + (first_draw + 1 + j) * golden are built by one broadcast add and
    mixed in place.
    """
    z = np.empty((count, base.shape[0]), dtype=np.uint64)
    row0 = (first_draw + np.uint64(1)) * _GOLDEN
    row0 += base
    np.add(row0[None, :], (np.arange(count, dtype=np.uint64) * _GOLDEN)[:, None], out=z)
    _mix64_inplace(z)
    np.right_shift(z, np.uint64(11), out=z)
    u = z.astype(np.float64)
    u[0:2 * pairs:2] += 1.0
    u *= _INV_2_53
    return u


def _gaussian_block(u: _Array, n_dim: int) -> _Array:
    """Standard Gaussian rows (m, n_dim) via Box-Muller on uniform rows ``u``.

    Pair i takes rows 2i and 2i + 1 of ``u``, which are consumed, and fills
    columns 2i and 2i + 1 (the sine of an odd dimension's last pair is not
    needed).
    """
    pairs = (n_dim + 1) // 2
    half = n_dim // 2
    r = u[0:2 * pairs:2]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    ang = u[1:2 * pairs:2]
    ang *= 2.0 * np.pi
    g = np.empty((u.shape[1], n_dim))
    np.multiply(r, np.cos(ang), out=g[:, 0::2].T)
    np.multiply(r[:half], np.sin(ang[:half], out=ang[:half]), out=g[:, 1::2].T)
    return g


def _unit_directions(base: _U64, first_draw: _U64, n_dim: int, u: _Array) -> _Array:
    """Normalized Gaussian rows from uniform rows ``u``; zero vectors are
    redrawn at first_draw + attempt * _REDRAW_STRIDE."""
    pairs = (n_dim + 1) // 2
    g = _gaussian_block(u, n_dim)
    norm = np.sqrt(np.einsum("ij,ij->i", g, g))
    bad = norm == 0.0
    attempt = np.uint64(0)
    while np.any(bad):
        attempt = attempt + np.uint64(1)
        first = first_draw[bad] + attempt * _REDRAW_STRIDE
        g[bad] = _gaussian_block(_uniform_rows(base[bad], first, 2 * pairs, pairs), n_dim)
        norm[bad] = np.sqrt(np.einsum("ij,ij->i", g[bad], g[bad]))
        bad = norm == 0.0
    g /= norm[:, None]
    return g


def _polar_directions(u: _Array, n_dim: int, radius: _Array | None = None) -> _Array:
    """Unit rows (m, n_dim) for n_dim 2 or 3 from uniform rows ``u``, which
    are consumed, each times its ``radius`` when one is given.

    2-D: (cos a, sin a) with a = 2 pi u[0].  3-D: (s cos a, s sin a, z)
    with z = 2 u[0] - 1, s = sqrt((1 - z)(1 + z)) and a = 2 pi u[1]; a
    uniform height on [-1, 1) gives a uniform point on the sphere
    (Archimedes).  Neither form can give the zero vector.  The radius is
    applied column by column: broadcasting a (m, 1) factor over (m, n) rows
    is several times slower.
    """
    ang = u[n_dim - 2]
    ang *= 2.0 * np.pi
    cols = [np.cos(ang)]
    cols.append(np.sin(ang, out=ang))
    if n_dim == 3:
        z = u[0]
        z *= 2.0
        z -= 1.0
        s = np.subtract(1.0, z)
        s *= z + 1.0
        np.sqrt(s, out=s)
        for col in cols:
            col *= s
        cols.append(z)
    g = np.empty((u.shape[1], n_dim))
    for j, col in enumerate(cols):
        if radius is None:
            g[:, j] = col
        else:
            np.multiply(col, radius, out=g[:, j])
    return g


def _unit_sphere_from_base(base: _U64, first_draw: _U64, n_dim: int) -> _Array:
    if n_dim in (2, 3):
        u = _uniform_rows(base, first_draw, draws_per_sphere(n_dim), 0)
        return _polar_directions(u, n_dim)
    pairs = (n_dim + 1) // 2
    u = _uniform_rows(base, first_draw, 2 * pairs, pairs)
    return _unit_directions(base, first_draw, n_dim, u)


def _unit_ball_from_base(base: _U64, first_draw: _U64, n_dim: int) -> _Array:
    if n_dim in (2, 3):
        # The radius is sqrt(u) in 2-D and, in 3-D, the largest of three
        # uniforms, whose law P(r <= x) = x**3 is that of U**(1/3).
        u = _uniform_rows(base, first_draw, draws_per_ball(n_dim), 0)
        radius = np.sqrt(u[1]) if n_dim == 2 else u[2:].max(axis=0)
        return _polar_directions(u, n_dim, radius)
    pairs = (n_dim + 1) // 2
    u = _uniform_rows(base, first_draw, 2 * pairs + 1, pairs)
    radius = u[2 * pairs] ** (1.0 / n_dim)
    w = _unit_directions(base, first_draw, n_dim, u)
    w *= radius[:, None]
    return w


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: (master_seed, stream_index) plus a draw offset.

    Streams are values, not stateful generators: sampling functions are pure,
    so calling them twice with the same stream returns the same sample.  Use
    :meth:`advanced` to move past consumed draws explicitly.
    """

    master_seed: int
    stream_index: int
    offset: int = 0

    def uniforms(self, count: int) -> _Array:
        """The next ``count`` uniform [0, 1) draws, starting at this offset."""
        count = _count(count, "count", 0)
        base = _stream_base(self.master_seed, self.stream_index)
        d = _as_u64(self.offset, "offset") + np.arange(count, dtype=np.uint64)
        return _to_unit(_draw_values(np.broadcast_to(base, d.shape), d))

    def advanced(self, count: int) -> "RngStream":
        """A copy of this stream with the draw offset moved forward by count."""
        return replace(self, offset=self.offset + _count(count, "count", 0))


def _sample(stream: RngStream, n_dim: int, count: int | None, per: int, sampler) -> _Array:
    """``count`` samples (or one) of ``sampler``, each taking ``per`` draws,
    read from ``stream`` at its offset."""
    m = 1 if count is None else _count(count, "count", 0)
    base = np.broadcast_to(_stream_base(stream.master_seed, stream.stream_index), (m,))
    first = _as_u64(stream.offset, "offset") + np.arange(m, dtype=np.uint64) * np.uint64(per)
    pts = sampler(base, first, n_dim)
    return pts[0] if count is None else pts


def sample_unit_ball(stream: RngStream, n_dim: int, count: int | None = None) -> _Array:
    """Uniform sample(s) from the open unit ball in n_dim dimensions.

    Returns a single point of shape ``(n_dim,)``, or ``(count, n_dim)`` when
    ``count`` is given.  Pure: does not advance the stream.
    """
    n_dim = _count(n_dim, "dimension", 1, MAX_DIM)
    return _sample(stream, n_dim, count, draws_per_ball(n_dim), _unit_ball_from_base)


def sample_unit_sphere(stream: RngStream, n_dim: int, count: int | None = None) -> _Array:
    """Uniform sample(s) from the unit sphere in n_dim dimensions.

    Same shape and purity conventions as :func:`sample_unit_ball`.
    """
    n_dim = _count(n_dim, "dimension", 1, MAX_DIM)
    return _sample(stream, n_dim, count, draws_per_sphere(n_dim), _unit_sphere_from_base)
