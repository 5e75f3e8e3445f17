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
from one shared start or from one start per walk.  Each walk consumes draws
addressed by (master_seed, stream_index, step), its steps counted from its
own start: at most _LANES walks are live, and while walks are pending, a
lane whose walk exits takes the next walk in place.  While only a few walks
are still running, their draws are prefetched several steps at a time in one
sampler call, at the same addresses.  Exits are projected after the loop,
from every walk's final position, _LANES rows per call; each shape's
projection is row-wise, so this gives the same exits as projecting walks as
they stop.  Outcomes are therefore independent of batch composition, lane
count and block size, for every shape: running a walk alone, in a chunk, or
under any thread count is bitwise identical on one machine and numpy build.

Safe leaps.  Every shape's signed distance is 1-Lipschitz (a max of exact
distances, of unit-normal plane margins, or the box distance), and so is
|x - c|.  A walk at distance d from the boundary therefore takes its next
k steps at radius exactly epsilon, and none of them can stop it, while
d >= (k + 1) * epsilon for ball walks and (k + 2) * epsilon for sphere
walks; the extra epsilon absorbs rounding, which is of the order of one ulp
of the coordinates per step.  A ring stop bounds k the same way, by
r - |x - c|.  Once no walk is pending, an iteration in which every
live walk has that room for k >= 2 steps, and none reaches its cap within
them, advances every lane k steps (or to the end of its prefetch block) at
once: np.add.accumulate over [x, epsilon * w_t, ..., epsilon * w_{t+k-1}]
along the step axis performs exactly the additions of k single steps
x += min(epsilon, dist) * w, so a leap changes no bit.  A walk's room
grows by at most epsilon per step, so a test that finds room for fewer than
2 steps is not repeated before it could find 2; skipping a test only forgoes
a leap.

trace_walk runs one walk step by step with the public samplers, without
lanes, blocks or leaps: it is the reference that run_walks is tested against.
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
# live walk.
_PREFETCH_ROWS = 1024
# At most this many walks of a run_walks call are live at once; while walks
# are pending, a lane whose walk exits takes the next one.
_LANES = 8192


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
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
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


@dataclass(frozen=True)
class WalkBatch:
    """Columnar outcomes of a batch of walks (one row per stream index)."""

    exit_points: _Array
    steps: NDArray[np.int64]
    truncated: NDArray[np.bool_]


class _StepDraws:
    """Per-step unit-ball or unit-sphere draws for the walks in a batch's lanes.

    Step s of a walk reads the sample whose first draw is s * per on the
    walk's stream, whatever the batch.  A lane stores the offset -a * per
    (mod 2**64) for a walk admitted at iteration a, so iteration t reads
    lane offset + t * per for every lane alike.  While the live batch is
    narrower than _PREFETCH_ROWS, one sampler call fills a block of several
    iterations for every lane, handed out one iteration at a time or, for a
    leap, several; rows of walks that leave are dropped from the block, and
    admitting a walk drops the whole block.  Block depth therefore changes
    how many calls are made, never a sample.
    """

    def __init__(self, n_dim: int, sphere: bool, master_seed: int, stream_indices,
                 max_steps: int, lanes: int):
        self._n_dim = n_dim
        self._sampler = _unit_sphere_from_base if sphere else _unit_ball_from_base
        self._per = np.uint64(draws_per_sphere(n_dim) if sphere else draws_per_ball(n_dim))
        self._all_bases = _stream_base(master_seed, stream_indices)
        self._bases = self._all_bases[:lanes].copy()
        self._offsets = np.zeros(lanes, dtype=np.uint64)
        self._max_steps = max_steps
        self._horizon = max_steps   # no lane steps at or past this iteration
        self._block: _Array | None = None   # (live, k, n): iterations block_t .. block_t + k - 1
        self._block_t = 0

    def drop(self, keep: NDArray[np.bool_]) -> None:
        """Forget the lanes whose ``keep`` flag is False."""
        self._bases = self._bases[keep]
        self._offsets = self._offsets[keep]
        if self._block is not None:
            self._block = self._block[keep]

    def admit(self, lanes: NDArray[np.intp], walks: NDArray[np.intp], t: int) -> None:
        """Give ``lanes`` to ``walks``, whose step 0 is iteration t."""
        self._bases[lanes] = self._all_bases[walks]
        self._offsets[lanes] = (-t * int(self._per)) % 2**64
        self._horizon = t + self._max_steps
        self._block = None

    def take(self, t: int, k: int = 1) -> _Array:
        """The samples of iterations t .. t + k' - 1 for the lanes, shape
        (live, k', n), where k' is k or, if the block ends first, less."""
        block = self._block
        if block is None:
            live = self._bases.shape[0]
            depth = max(1, min(_PREFETCH_ROWS // live, self._horizon - t))
            first = self._offsets[:, None] + np.arange(t, t + depth, dtype=np.uint64) * self._per
            w = self._sampler(np.repeat(self._bases, depth), first.ravel(), self._n_dim)
            block = w.reshape(live, depth, self._n_dim)
            self._block_t = t
        j = t - self._block_t
        end = min(j + k, block.shape[1])
        # Iterations are taken in order, so a block is released once its last
        # step is read and drop() never gathers rows that will not be read.
        self._block = block if end < block.shape[1] else None
        return block[:, j:end]


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

    ``x0`` is one start (n,) shared by every walk, or one start per walk
    (m, n) in stream-index order.  With ``ring=(center, r)`` a walk also
    stops at the top of the first iteration in which its position lies at
    distance at least r from the one point ``center`` (so a walk that starts
    there takes no step), and every walk's final position is returned
    unprojected in exit_points.  trace_walk gives one walk's whole path.

    At most _LANES walks are live at once.  While walks are pending, a lane
    whose walk exits takes the next walk, in stream-index order; its step s
    is iteration (admission + s), so no outcome depends on when it joined.
    """
    idx = _as_u64(stream_indices, "stream index")
    m = idx.shape[0]
    n = domain.dim
    starts, shared = _prep(x0, n)
    if not shared and starts.shape[0] != m:
        raise ValueError(f"got {starts.shape[0]} start points for {m} walks")
    if not np.all(domain.contains(starts)):
        raise ValueError("walks must start inside the open domain")
    tol = config.resolved_stop(domain)
    eps = config.epsilon
    max_steps = config.max_steps
    sphere = config.kind == SPHERE
    # Steps of room a leap keeps in hand: one for rounding, and one more for
    # a sphere walk, whose radius is min(eps, dist / 2).
    margin = 2 if sphere else 1
    lanes = min(_LANES, m)
    draws = _StepDraws(n, sphere, master_seed, idx, max_steps, lanes)

    # Lane state is kept compact (one row per lane, in ``alive`` order) and
    # written to the outputs only when walks leave the batch.
    cur = np.broadcast_to(starts, (m, n))[:lanes].copy()
    if ring is not None:
        center, ring_radius = _ring(ring, n)
    final = np.empty((m, n))
    # A live walk's entry holds the iteration of its step 0; it becomes the
    # walk's step count when the walk leaves.
    steps = np.zeros(m, dtype=np.int64)
    truncated = np.zeros(m, dtype=bool)

    alive = np.arange(lanes)    # the walk in each lane
    pending = lanes             # the next walk to admit
    skip = 0                    # iterations before the next leap test
    t = 0
    while alive.size:
        dist = -domain._sd(cur)
        np.maximum(dist, 0.0, out=dist)
        done = dist < tol
        if ring is not None:
            done |= np.linalg.norm(cur - center, axis=1) >= ring_radius
        if t >= max_steps:
            capped = ~done & (t - steps[alive] >= max_steps)
            truncated[alive[capped]] = True
            done |= capped
        refill = None
        if np.any(done):
            rows = alive[done]
            final[rows] = cur[done]
            steps[rows] = t - steps[rows]
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
                cur = cur[keep]
                dist = dist[keep]
                draws.drop(keep)
        radius = np.minimum(eps, 0.5 * dist) if sphere else np.minimum(eps, dist)
        k = 1
        if pending == m:
            if skip:
                skip -= 1
            else:
                room = dist.min()
                if ring is not None:
                    room = min(room, ring_radius - np.linalg.norm(cur - center, axis=1).max())
                k = int(room // eps) - margin
                if k < 2:
                    skip, k = 1 - k, 1
                else:
                    k = min(k, int(steps[alive].min()) + max_steps - t)
        w = draws.take(t, k)
        if w.shape[1] == 1:
            cur += radius[:, None] * w[:, 0]
        else:
            # A leap: radius is eps on every lane for all of its steps.
            path = np.empty((alive.size, w.shape[1] + 1, n))
            path[:, 0] = cur
            np.multiply(eps, w, out=path[:, 1:])
            np.add.accumulate(path, axis=1, out=path)
            cur = path[:, -1].copy()
        t += w.shape[1]
        if refill is not None:
            walks = np.arange(pending, pending + refill.size)
            pending += refill.size
            alive[refill] = walks
            steps[walks] = t
            cur[refill] = starts[0] if shared else starts[walks]
            draws.admit(refill, walks, t)

    # Exits are projected after the loop, one call per _LANES rows, in place;
    # _project works row by row, so how many walks share a call never changes
    # an exit.
    if ring is None:
        for lo in range(0, m, lanes):
            final[lo:lo + lanes] = domain._project(final[lo:lo + lanes])
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
