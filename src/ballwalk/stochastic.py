"""Counter-based random streams and uniform ball/sphere samplers.

Every scalar draw is a pure function of ``(master_seed, stream_index,
draw_index)``: a golden-ratio counter fed through a 64-bit finalizer
(SplitMix64 with the Stafford mix13 constants).  Because draws are
addressable, any subset of walks can be generated in bulk, in any execution
order, and reproduce bit-identical results on any number of workers.

Gaussians use Box-Muller on two counter uniforms (deterministic, fixed draw
budget per sample), directions are normalized Gaussian vectors, and ball
radii apply the inverse CDF ``U**(1/n)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

_Array = NDArray[np.float64]
_U64 = NDArray[np.uint64]

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SEED_SALT = np.uint64(0xA3EC647659359ACD)
# Draw-index offset used when a Gaussian direction degenerates to the zero
# vector (probability ~2**-53 per Box-Muller pair); keeps redraws pure.
_REDRAW_STRIDE = np.uint64(0x632BE59BD9B4E019)
_INV_2_53 = 2.0 ** -53


def _check_dim(n_dim: int) -> None:
    if not isinstance(n_dim, (int, np.integer)) or not 1 <= int(n_dim) <= 16:
        raise ValueError(f"dimension must be an integer in 1..16, got {n_dim!r}")


def _as_u64(values) -> _U64:
    """Coerce integers (any size, any sign) to uint64 arrays, reducing mod 2**64."""
    a = np.asarray(values)
    if a.dtype == np.uint64:
        out = a
    elif a.dtype.kind in "iu":
        out = a.astype(np.uint64)
    else:
        flat = [int(v) & _MASK64 for v in np.ravel(a)]
        out = np.asarray(flat, dtype=np.uint64).reshape(a.shape)
    return np.atleast_1d(out)


def _mix64(z: _U64) -> _U64:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _stream_base(master_seed: int, stream_indices) -> _U64:
    """Per-stream 64-bit state root; a pure hash of (master_seed, stream_index)."""
    seed = _as_u64(master_seed)
    idx = _as_u64(stream_indices)
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
    return 2 * ((n_dim + 1) // 2)


def draws_per_ball(n_dim: int) -> int:
    """Scalar draws consumed by one unit-ball sample (sphere draws + radius)."""
    return draws_per_sphere(n_dim) + 1


def _gaussian_block(base: _U64, first_draw: _U64, n_dim: int) -> _Array:
    """Standard Gaussian rows of shape (len(base), n_dim) via Box-Muller."""
    pairs = (n_dim + 1) // 2
    d = first_draw[:, None] + np.arange(2 * pairs, dtype=np.uint64)[None, :]
    z = _draw_values(base[:, None], d)
    u1 = _to_unit(z[:, 0::2], open_low=True)
    u2 = _to_unit(z[:, 1::2])
    r = np.sqrt(-2.0 * np.log(u1))
    ang = (2.0 * np.pi) * u2
    g = np.empty((base.shape[0], 2 * pairs))
    g[:, 0::2] = r * np.cos(ang)
    g[:, 1::2] = r * np.sin(ang)
    return g[:, :n_dim]


def _unit_sphere_from_base(base: _U64, first_draw: _U64, n_dim: int) -> _Array:
    g = _gaussian_block(base, first_draw, n_dim)
    norm = np.sqrt(np.einsum("ij,ij->i", g, g))
    bad = norm == 0.0
    attempt = np.uint64(0)
    while np.any(bad):
        attempt = attempt + np.uint64(1)
        g[bad] = _gaussian_block(base[bad], first_draw[bad] + attempt * _REDRAW_STRIDE, n_dim)
        norm[bad] = np.sqrt(np.einsum("ij,ij->i", g[bad], g[bad]))
        bad = norm == 0.0
    return g / norm[:, None]


def _unit_ball_from_base(base: _U64, first_draw: _U64, n_dim: int) -> _Array:
    w = _unit_sphere_from_base(base, first_draw, n_dim)
    zr = _draw_values(base, first_draw + np.uint64(draws_per_sphere(n_dim)))
    radius = _to_unit(zr) ** (1.0 / n_dim)
    return w * radius[:, None]


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
        if count < 0:
            raise ValueError("count must be nonnegative")
        base = _stream_base(self.master_seed, self.stream_index)
        d = _as_u64(self.offset) + np.arange(count, dtype=np.uint64)
        return _to_unit(_draw_values(np.broadcast_to(base, d.shape), d))

    def advanced(self, count: int) -> "RngStream":
        """A copy of this stream with the draw offset moved forward by count."""
        return replace(self, offset=self.offset + count)


def sample_unit_ball(stream: RngStream, n_dim: int, count: int | None = None) -> _Array:
    """Uniform sample(s) from the open unit ball in n_dim dimensions.

    Returns a single point of shape ``(n_dim,)``, or ``(count, n_dim)`` when
    ``count`` is given.  Pure: does not advance the stream.
    """
    _check_dim(n_dim)
    m = 1 if count is None else int(count)
    base = np.broadcast_to(_stream_base(stream.master_seed, stream.stream_index), (m,))
    per = draws_per_ball(n_dim)
    first = _as_u64(stream.offset) + np.arange(m, dtype=np.uint64) * np.uint64(per)
    pts = _unit_ball_from_base(base, first, n_dim)
    return pts[0] if count is None else pts


def sample_unit_sphere(stream: RngStream, n_dim: int, count: int | None = None) -> _Array:
    """Uniform sample(s) from the unit sphere in n_dim dimensions.

    Same shape and purity conventions as :func:`sample_unit_ball`.
    """
    _check_dim(n_dim)
    m = 1 if count is None else int(count)
    base = np.broadcast_to(_stream_base(stream.master_seed, stream.stream_index), (m,))
    per = draws_per_sphere(n_dim)
    first = _as_u64(stream.offset) + np.arange(m, dtype=np.uint64) * np.uint64(per)
    pts = _unit_sphere_from_base(base, first, n_dim)
    return pts[0] if count is None else pts
