"""Counter-based random streams and uniform ball/sphere samplers.

Every scalar draw is a pure function of ``(master_seed, stream_index,
draw_index)``: a golden-ratio counter fed through a 64-bit finalizer
(SplitMix64 with the Stafford mix13 constants).  Because draws are
addressable, any subset of walks can be generated in bulk, in any execution
order, and reproduce bit-identical results on any number of workers.

Every sampler, in every dimension n <= 16, is one closed form built only
from counter uniforms and ``+ - * sqrt cos sin min max copysign`` (Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. V).  A 1-D direction is
the sign of ``u - 1/2`` (1 draw).  An even-dimensional direction is ``n/2``
planes ``(r cos 2 pi u, r sin 2 pi u)`` whose squared radii are the
spacings of ``n/2 - 1`` sorted uniforms (n - 1 draws); in 2-D that is
``(cos 2 pi u, sin 2 pi u)``.  An odd-dimensional direction puts last the
height ``z = 2B - 1``, with ``B`` the median of ``n - 2`` uniforms, and
scales the (n - 1)-dimensional direction of the next draws by
``sqrt((1 - z)(1 + z))`` (2n - 4 draws); in 3-D that is Archimedes'
uniform height.  A ball sample scales the direction by ``sqrt(u)`` in 2-D
(2 draws) and otherwise by the largest of n uniforms, whose law is that of
``U**(1/n)`` (n more draws).  These operations round the same way at every
CPU dispatch level of a numpy build, so samples are bitwise identical
across them.
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


def _mix64(z: _U64) -> _U64:
    """The SplitMix64 finalizer applied to ``z`` in place; returns ``z``."""
    tmp = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, np.uint64(31), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    return z


def _stream_base(master_seed: int, stream_indices) -> _U64:
    """Per-stream 64-bit state root; a pure hash of (master_seed, stream_index)."""
    seed = _as_u64(master_seed, "master_seed")
    idx = _as_u64(stream_indices, "stream index")
    # Each _mix64 argument is a fresh temporary, so mixing in place writes
    # to no caller's array.
    return _mix64(_mix64(seed ^ _SEED_SALT) + idx * _GOLDEN)


def draws_per_sphere(n_dim: int) -> int:
    """Scalar draws consumed by one unit-sphere sample in n_dim dimensions:
    1 in 1-D, n - 1 for even n and 2n - 4 for odd n >= 3."""
    if n_dim == 1:
        return 1
    return n_dim - 1 if n_dim % 2 == 0 else 2 * n_dim - 4


def draws_per_ball(n_dim: int) -> int:
    """Scalar draws consumed by one unit-ball sample (sphere draws + radius
    draws: one in 2-D, n otherwise)."""
    return draws_per_sphere(n_dim) + (1 if n_dim == 2 else n_dim)


def _uniform_rows(base: _U64, first_draw: _U64, count: int) -> _Array:
    """Uniforms of draws first_draw + j, j < count, as rows (count, m).

    This is the one map from a draw's address to its value.  Draw d of the
    stream with root ``base`` is the top 53 bits of
    mix64(base + (d + 1) * golden), all arithmetic mod 2**64, times 2**-53,
    a double in [0, 1).  The counters of all rows are built by one broadcast
    add and mixed in place.
    """
    z = np.empty((count, base.shape[0]), dtype=np.uint64)
    row0 = (first_draw + np.uint64(1)) * _GOLDEN
    row0 += base
    np.add(row0[None, :], (np.arange(count, dtype=np.uint64) * _GOLDEN)[:, None], out=z)
    _mix64(z)
    np.right_shift(z, np.uint64(11), out=z)
    u = z.astype(np.float64)
    u *= _INV_2_53
    return u


def _sorted_rows(u: _Array) -> list[_Array]:
    """The rows of ``u`` (consumed) sorted column by column, smallest first.

    A bubble network of exact np.minimum/np.maximum compare-exchanges: on a
    few rows it is several times faster than np.sort(axis=0).
    """
    rows = list(u)
    spare = np.empty_like(u[0]) if len(rows) > 1 else None
    for top in range(len(rows) - 1, 0, -1):
        for i in range(top):
            np.minimum(rows[i], rows[i + 1], out=spare)
            np.maximum(rows[i], rows[i + 1], out=rows[i + 1])
            rows[i], spare = spare, rows[i]
    return rows


def _directions(u: _Array, n_dim: int, radius: _Array | None = None) -> _Array:
    """Unit rows (m, n_dim) from the draws_per_sphere(n_dim) uniform rows
    ``u``, which are consumed, each times its ``radius`` when one is given.

    1-D: the sign of u[0] - 1/2.  Even n = 2k: k planes
    (r_i cos a_i, r_i sin a_i) with a_i = 2 pi u[i]; the r_i**2 are the
    spacings of the k - 1 sorted rows that follow, which are Dirichlet(1, ...,
    1) like the squared plane radii of a uniform point on the sphere.  Odd
    n = 2k + 1: z = 2B - 1, where B is the k-th smallest of the first
    2k - 1 rows, so B ~ Beta(k, k), the law of (1 + z) / 2 on the sphere;
    the 2k-sphere of the next rows, scaled by s = sqrt((1 - z)(1 + z)),
    gives the other coordinates, and z comes last.  A column is
    (cos a_i * f_i) * radius with the plane factor f_i = r_i * s, absent
    factors left out: 2-D is (cos 2 pi u, sin 2 pi u) and 3-D is
    Archimedes' (s cos 2 pi u', s sin 2 pi u', z) with z = 2u - 1.  No form
    can give the zero vector.  The radius is applied column by column:
    broadcasting a (m, 1) factor over (m, n) rows is several times slower.
    """
    k = n_dim // 2
    odd = n_dim % 2 == 1
    planes = u[2 * k - 1:] if odd and k else u
    cols = []
    for ang in planes[:k]:
        ang *= 2.0 * np.pi
        cols += [np.cos(ang), np.sin(ang, out=ang)]
    factors: list[_Array | None] = [None] * k
    if odd and k == 0:
        z = u[0]
        z -= 0.5
        np.copysign(1.0, z, out=z)
    elif odd:
        z = _sorted_rows(u[:2 * k - 1])[k - 1]
        z *= 2.0
        z -= 1.0
        s = np.subtract(1.0, z)
        s *= z + 1.0
        np.sqrt(s, out=s)
        factors = [s] * k
    if k > 1:
        cuts = _sorted_rows(planes[k:])
        r = cuts + [np.subtract(1.0, cuts[-1])]
        for i in range(k - 2, 0, -1):
            r[i] -= r[i - 1]
        for ri in r:
            np.sqrt(ri, out=ri)
            if odd:
                ri *= s
        factors = r
    for i, f in enumerate(factors):
        if f is not None:
            cols[2 * i] *= f
            cols[2 * i + 1] *= f
    if odd:
        cols.append(z)
    # The output is allocated after the columns: allocated first, it doubled
    # the minor page faults of a 3-D field run and cost it about 9%.
    g = np.empty((u.shape[1], n_dim))
    for j, col in enumerate(cols):
        if radius is None:
            g[:, j] = col
        else:
            np.multiply(col, radius, out=g[:, j])
    return g


def _unit_sphere_from_base(base: _U64, first_draw: _U64, n_dim: int) -> _Array:
    return _directions(_uniform_rows(base, first_draw, draws_per_sphere(n_dim)), n_dim)


def _unit_ball_from_base(base: _U64, first_draw: _U64, n_dim: int) -> _Array:
    # The radius is sqrt(u) in 2-D and otherwise the largest of n uniforms,
    # whose law P(r <= x) = x**n is that of U**(1/n).
    per = draws_per_sphere(n_dim)
    u = _uniform_rows(base, first_draw, draws_per_ball(n_dim))
    radius = np.sqrt(u[per]) if n_dim == 2 else u[per:].max(axis=0)
    return _directions(u[:per], n_dim, radius)


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
        return _uniform_rows(base, _as_u64(self.offset, "offset"), count)[:, 0]

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
