"""Ball-walk and sphere-walk processes over domain oracles.

One ball-walk step from x moves by min(epsilon, dist(x)) * w with w uniform
in the unit ball; the sphere walk moves by min(epsilon, dist(x) / 2) * w with
w uniform on the unit sphere.  A walk terminates when the boundary distance
drops below the stop tolerance and reports the nearest-boundary projection
as its exit point; a step cap marks the outcome truncated instead of raising.
A batch may also stop each walk at its first position at distance at least r
from a center point c (the ring stop: the exit-measure diagnostic rings the
start, the escape estimator rings a boundary point); it then reports every
walk's final position unprojected.

The batch runner advances many walks in lockstep with vectorized numpy ops,
from P starts, each shared by m / P consecutive walks.  A walk consumes draws
addressed by (master_seed, stream_index, step), its steps counted from its
own start: at most _LANES walks are live, and while walks are pending, a
lane whose walk exits takes the next walk in place.  While only a few walks
are still running, their draws are prefetched several steps at a time in one
sampler call, at the same addresses.  Exits are projected after the loop,
from every walk's final position, _LANES rows per call; each shape's
projection is row-wise, so this gives the same exits as projecting walks as
they stop.  Outcomes are therefore independent of batch composition, lane
count and block size, for every shape: running a walk alone, in a chunk, or
under any thread count is bitwise identical on one machine and numpy build
and at every CPU dispatch level of that build.

Speculative steps.  A step from x has radius exactly epsilon wherever
dist(x) >= reach, the reach being epsilon for ball walks and 2 * epsilon for
sphere walks (min(epsilon, d) == epsilon, and min(epsilon, d / 2) ==
epsilon, exactly then); such a step cannot stop the walk, since the stop
tolerance is below epsilon.  Once no walk is pending and the batch is
narrower than _PREFETCH_ROWS, every lane takes its ordinary step s, and each
lane at distance at least 3 * reach then takes depth = _PREFETCH_ROWS // live
- 1 more steps of radius epsilon at once: np.add.accumulate over
[x, epsilon * w_{s+1}, ..., epsilon * w_{s+depth}] along the step axis
performs exactly the additions of single steps, and one _sd call gives the
distance of every point reached.  The lane keeps the longest prefix of these
steps whose starting points all lie at distance at least reach (with a ring
stop, also inside the ring) and that stays within its step cap.  Each
shape's _sd is row-independent, so the kept prefix is the walk's own path
and speculation changes no bit; steps past the prefix are discarded.

trace_walk runs one walk step by step with the public samplers, without
lanes, blocks or speculative steps: it is the reference that run_walks is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .geometry import Domain, _count, _prep
from .stochastic import (
    RngStream,
    _as_u64,
    _stream_base,
    _unit_ball_from_base,
    _unit_sphere_from_base,
    draws_per_ball,
    draws_per_sphere,
    sample_unit_ball,
    sample_unit_sphere,
)

_Array = NDArray[np.float64]

BALL = "ball"
SPHERE = "sphere"
# Default stop tolerance, as a fraction of the domain diameter.
STOP_TOLERANCE_FACTOR = 1e-4

# While fewer walks than _PREFETCH_ROWS are live, each sampler call draws
# about _PREFETCH_ROWS samples: _PREFETCH_ROWS // live steps ahead for every
# live walk, or one step for every walk and _PREFETCH_ROWS // live - 1
# speculative steps for each far one, so at most _PREFETCH_ROWS rows.
_PREFETCH_ROWS = 1024
# At most this many walks of a run_walks call are live at once; while walks
# are pending, a lane whose walk exits takes the next one.
_LANES = 8192


def _check_epsilon(epsilon: float) -> float:
    """The step scale, refused outside (0, 1) as for every walk."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return epsilon


@dataclass(frozen=True)
class WalkConfig:
    """Walk parameters: step scale, termination tolerance, cap, and kind.

    ``stop_tolerance`` defaults to 1e-4 times the domain diameter, resolved
    when a walk runs; it stays configurable because near an irregular
    boundary point the interplay of the tolerance and the geometry is itself
    the object of study.
    """

    epsilon: float
    stop_tolerance: float | None = None
    max_steps: int = 10_000_000
    kind: str = BALL

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if self.stop_tolerance is not None and not 0.0 < self.stop_tolerance < self.epsilon:
            raise ValueError(
                f"stop_tolerance must lie in (0, epsilon), got {self.stop_tolerance}")
        object.__setattr__(self, "max_steps", _count(self.max_steps, "max_steps"))
        if self.kind not in (BALL, SPHERE):
            raise ValueError(f"kind must be '{BALL}' or '{SPHERE}', got {self.kind!r}")

    def resolved_stop(self, domain: Domain) -> float:
        """The stop tolerance for this domain, applying the diameter default."""
        tol = self.stop_tolerance
        if tol is None:
            tol = STOP_TOLERANCE_FACTOR * domain.diameter()
        if not 0.0 < tol < self.epsilon:
            raise ValueError(
                f"resolved stop_tolerance {tol} must lie in (0, epsilon={self.epsilon})")
        return tol


def _check_config(config) -> WalkConfig:
    """``config`` itself, refused unless it is a WalkConfig."""
    if not isinstance(config, WalkConfig):
        raise TypeError(f"config must be a WalkConfig, got {config!r}")
    return config


@dataclass(frozen=True)
class WalkBatch:
    """Columnar outcomes of a batch of walks (one row per stream index)."""

    exit_points: _Array
    steps: NDArray[np.int64]
    truncated: NDArray[np.bool_]


class _StepDraws:
    """Per-step unit-ball or unit-sphere draws for the walks in a batch's lanes.

    Step s of a walk reads the sample whose first draw is s * per on the
    walk's stream, whatever the batch; the caller passes each lane's step
    count.  While the live batch is narrower than _PREFETCH_ROWS, one
    sampler call fills a block of the next several steps of every lane,
    handed out one step at a time, since every lane steps once between
    draws; rows of walks that leave are dropped from the block, and
    admitting a walk drops the whole block.  Block depth therefore changes
    how many calls are made, never a sample, and a block may reach past a
    walk's step cap: those rows are drawn but never read.  An iteration with
    speculative steps draws its own rows, at the same addresses, and drops
    the block too.
    """

    def __init__(self, n_dim: int, sphere: bool, master_seed: int, stream_indices,
                 lanes: int):
        self._n_dim = n_dim
        self._sampler = _unit_sphere_from_base if sphere else _unit_ball_from_base
        self._per = draws_per_sphere(n_dim) if sphere else draws_per_ball(n_dim)
        self._all_bases = _stream_base(master_seed, stream_indices)
        self._bases = self._all_bases[:lanes].copy()
        self._block: _Array | None = None   # (live, k, n): the next k steps
        self._read = 0                      # the block's next step

    def drop(self, keep: NDArray[np.bool_]) -> None:
        """Forget the lanes whose ``keep`` flag is False."""
        self._bases = self._bases[keep]
        if self._block is not None:
            self._block = self._block.compress(keep, axis=0)

    def admit(self, lanes: NDArray[np.intp], walks: NDArray[np.intp]) -> None:
        """Give ``lanes`` to ``walks``."""
        self._bases[lanes] = self._all_bases[walks]
        self._block = None

    def _draw(self, bases: NDArray[np.uint64], steps: NDArray[np.int64]) -> _Array:
        # A step count times per is nonnegative, so its int64 bits are its
        # uint64 draw address.
        return self._sampler(bases, (steps * self._per).view(np.uint64), self._n_dim)

    def take(self, taken: NDArray[np.int64]) -> _Array:
        """The samples of step taken[i] of each lane's walk, shape (live, n)."""
        block = self._block
        if block is None:
            live = taken.shape[0]
            depth = max(1, _PREFETCH_ROWS // live)
            bases = self._bases if depth == 1 else np.repeat(self._bases, depth)
            steps = taken if depth == 1 else (taken[:, None] + np.arange(depth)).ravel()
            block = self._draw(bases, steps).reshape(live, depth, self._n_dim)
            self._read = 0
        j = self._read
        self._read += 1
        # Steps are taken in order, so a block is released once its last
        # step is read and drop() never gathers rows that will not be read.
        self._block = block if self._read < block.shape[1] else None
        return block[:, j]

    def speculate(self, taken: NDArray[np.int64], far: NDArray[np.intp],
                  depth: int) -> tuple[_Array, _Array]:
        """The samples of step taken[i] of each lane's walk, shape (live, n),
        and of its steps taken[i] + 1 .. taken[i] + depth for the lanes
        ``far``, shape (far, depth, n), from one sampler call."""
        live = taken.shape[0]
        ahead = taken[far, None] + np.arange(1, depth + 1)
        w = self._draw(np.concatenate([self._bases, np.repeat(self._bases[far], depth)]),
                       np.concatenate([taken, ahead.ravel()]))
        self._block = None
        return w[:live], w[live:].reshape(far.size, depth, self._n_dim)


def _ring(ring: tuple, n: int) -> tuple[_Array, float]:
    """The checked (center (1, n), radius) of a ring stop."""
    center, one = _prep(ring[0], n)
    if not one:
        raise ValueError("the ring center must be one point")
    radius = float(ring[1])
    if not radius > 0.0:
        raise ValueError(f"the ring radius must be positive, got {ring[1]!r}")
    return center, radius


def run_walks(
    domain: Domain,
    x0,
    config: WalkConfig,
    master_seed: int,
    stream_indices,
    *,
    ring: tuple | None = None,
) -> WalkBatch:
    """Advance one walk per stream index until exit or cap; see WalkBatch.

    ``x0`` is one start (n,), or P starts (P, n) for a divisor P of the walk
    count m: walk i, in stream-index order, starts at row i // (m // P).  With
    ``ring=(center, r)`` a walk also stops at the top of the first iteration
    in which its position lies at distance at least r from the one point
    ``center`` (so a walk that starts there takes no step), and every walk's
    final position is returned unprojected.  trace_walk gives one walk's path.

    At most _LANES walks are live at once.  While walks are pending, a lane
    whose walk exits takes the next walk, in stream-index order; the lane
    counts that walk's steps from 0, so no outcome depends on when it joined.
    """
    _check_config(config)
    idx = _as_u64(stream_indices, "stream index")
    m = idx.shape[0]
    n = domain.dim
    starts = _prep(x0, n)[0]
    if not len(starts) or m % len(starts):
        raise ValueError(f"got {len(starts)} start points for {m} walks")
    group = m // len(starts)     # walks per start
    if not np.all(domain.contains(starts)):
        raise ValueError("walks must start inside the open domain")
    tol = config.resolved_stop(domain)
    eps = config.epsilon
    max_steps = config.max_steps
    sphere = config.kind == SPHERE
    # A step has radius exactly eps from any point at distance >= reach.
    reach = 2.0 * eps if sphere else eps
    lanes = min(_LANES, m)
    draws = _StepDraws(n, sphere, master_seed, idx, lanes)

    # Lane state is kept compact (one row per lane, in ``alive`` order) and
    # written to the outputs only when walks leave the batch.  Rows are
    # gathered with compress and take: boolean and fancy row indexing of an
    # (m, n) array is several times slower and copies the same values.
    cur = starts.take(np.arange(lanes) // group, axis=0)
    taken = np.zeros(lanes, dtype=np.int64)     # the steps of each lane's walk
    if ring is not None:
        center, ring_radius = _ring(ring, n)
    final = np.empty((m, n))
    steps = np.empty(m, dtype=np.int64)
    truncated = np.zeros(m, dtype=bool)

    alive = np.arange(lanes)    # the walk in each lane
    pending = lanes             # the next walk to admit
    longest = 0                 # bounds every live walk's taken, for the cap checks
    while alive.size:
        dist = -domain._sd(cur)
        np.maximum(dist, 0.0, out=dist)
        done = dist < tol
        if ring is not None:
            done |= np.linalg.norm(cur - center, axis=1) >= ring_radius
        if longest >= max_steps:
            capped = ~done & (taken >= max_steps)
            truncated[alive[capped]] = True
            done |= capped
        refill = None
        if np.any(done):
            rows = alive[done]
            final[rows] = cur.compress(done, axis=0)
            steps[rows] = taken[done]
            compact = True
            if pending < m:
                # These lanes step once more with their exited walks, unread,
                # and take new walks after the step; the rest are dropped.
                refill = np.flatnonzero(done)[:m - pending]
                done[refill] = False
                compact = refill.size < rows.size
            if compact:
                keep = ~done
                alive = alive[keep]
                if alive.size == 0:
                    break
                cur = cur.compress(keep, axis=0)
                dist = dist[keep]
                taken = taken[keep]
                draws.drop(keep)
        radius = np.minimum(eps, 0.5 * dist) if sphere else np.minimum(eps, dist)
        depth = _PREFETCH_ROWS // alive.size - 1
        if pending < m or depth < 1 or dist.max() < 3.0 * reach:
            # w holds the block until the next draw: released at once, its
            # pages went back to the system and were faulted in again, which
            # doubled the minor faults of a field_void call and cost it 3-4%.
            w = draws.take(taken)
            cur += radius[:, None] * w
        else:
            far = np.flatnonzero(dist >= 3.0 * reach)
            w, ws = draws.speculate(taken, far, depth)
            cur += radius[:, None] * w
            # Row j of a far lane's path is its position after j speculative
            # steps, so rows 0 .. depth - 1 are where those steps start.
            path = np.empty((far.size, depth + 1, n))
            path[:, 0] = cur[far]
            np.multiply(eps, ws, out=path[:, 1:])
            np.add.accumulate(path, axis=1, out=path)
            pts = path[:, :-1].reshape(-1, n)
            ok = np.zeros((far.size, depth + 1), dtype=bool)
            ok[:, :-1] = (-domain._sd(pts) >= reach).reshape(far.size, depth)
            if ring is not None:
                ok[:, :-1] &= (np.linalg.norm(pts - center, axis=1)
                               < ring_radius).reshape(far.size, depth)
            kept = ok.argmin(axis=1)     # the first step that may not be taken
            if longest + depth >= max_steps:
                np.minimum(kept, max_steps - 1 - taken[far], out=kept)
            cur[far] = path[np.arange(far.size), kept]
            taken[far] += kept
            longest += int(kept.max())
        taken += 1
        longest += 1
        if refill is not None:
            walks = np.arange(pending, pending + refill.size)
            pending += refill.size
            alive[refill] = walks
            taken[refill] = 0
            cur[refill] = starts.take(walks // group, axis=0)
            draws.admit(refill, walks)

    # Exits are projected after the loop, one call per _LANES rows, in place;
    # _project works row by row, so how many walks share a call never changes
    # an exit.
    if ring is None:
        for lo in range(0, m, _LANES):
            final[lo:lo + _LANES] = domain._project(final[lo:lo + _LANES])
    return WalkBatch(final, steps, truncated)


def trace_walk(
    domain: Domain,
    x0,
    config: WalkConfig,
    master_seed: int,
    stream: int,
    *,
    ring: tuple | None = None,
) -> tuple[_Array, _Array, int, bool]:
    """Run one walk from the point ``x0`` on stream ``stream``, one step at a
    time; returns (path, exit_point, steps, truncated).

    Step s moves by min(eps, dist) (min(eps, dist / 2) for a sphere walk)
    times the unit sample whose first draw is s * per on the stream, read
    with sample_unit_ball or sample_unit_sphere.  ``path`` holds the
    steps + 1 positions from x0 on; ``exit_point`` is the projection of the
    last one or, with ``ring``, the last one itself.  run_walks gives this
    walk the same path in any batch, so this is its reference.
    """
    _check_config(config)
    n = domain.dim
    x, one = _prep(x0, n)
    if not one:
        raise ValueError("trace_walk takes one start point")
    if not domain.contains(x)[0]:
        raise ValueError("walks must start inside the open domain")
    tol = config.resolved_stop(domain)
    sphere = config.kind == SPHERE
    sample, per = ((sample_unit_sphere, draws_per_sphere(n)) if sphere
                   else (sample_unit_ball, draws_per_ball(n)))
    if ring is not None:
        center, ring_radius = _ring(ring, n)
    path = [x]
    while True:
        s = len(path) - 1
        dist = np.maximum(-domain._sd(x), 0.0)
        stopped = dist[0] < tol or (
            ring is not None and np.linalg.norm(x - center, axis=1)[0] >= ring_radius)
        if stopped or s >= config.max_steps:
            break
        radius = np.minimum(config.epsilon, 0.5 * dist if sphere else dist)
        x = x + radius[:, None] * sample(RngStream(master_seed, stream, s * per), n, 1)
        path.append(x)
    last = path[-1]
    exit_point = last if ring is not None else domain._project(last)
    return np.concatenate(path), exit_point[0], s, not stopped
