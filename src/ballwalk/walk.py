"""Ball-walk and sphere-walk processes over domain oracles.

One ball-walk step from x moves by min(epsilon, dist(x)) * w with w uniform
in the unit ball; the sphere walk moves by min(epsilon, dist(x) / 2) * w with
w uniform on the unit sphere.  A walk terminates when the boundary distance
drops below the stop tolerance and reports the nearest-boundary projection
as its exit point; a step cap marks the outcome truncated instead of raising.

The batch runner advances many walks in lockstep with vectorized numpy ops,
from one shared start or from one start per walk.  Each walk consumes draws
addressed by (master_seed, stream_index, step).  While only a few walks are
still running, their draws are prefetched several steps at a time in one
sampler call, at the same addresses.  Exits are projected once per batch,
after the loop, from every walk's final position; each shape's projection
is row-wise, so this gives the same exits as projecting walks as they stop.
Outcomes are therefore independent of batch composition and block size, for
every shape: running a walk alone, in a chunk, or under any thread count is
bitwise identical on one machine and numpy build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .geometry import Domain, _prep
from .stochastic import (
    _as_u64,
    _stream_base,
    _unit_ball_from_base,
    _unit_sphere_from_base,
    draws_per_ball,
    draws_per_sphere,
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
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be positive, got {self.max_steps}")
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
    max_excursion: _Array


class _StepDraws:
    """Per-step unit-ball or unit-sphere draws for the live walks of a batch.

    Step t of a walk reads the sample whose first draw is offset + t * per on
    the walk's stream, whatever the batch.  While the live batch is narrower
    than _PREFETCH_ROWS, one sampler call fills a block of k steps for every
    live walk; rows of walks that leave are dropped from the block.  Block
    depth therefore changes how many calls are made, never a sample.
    """

    def __init__(self, n_dim: int, sphere: bool, master_seed: int, stream_indices,
                 draw_offsets, max_steps: int):
        m = stream_indices.shape[0]
        self._n_dim = n_dim
        self._sampler = _unit_sphere_from_base if sphere else _unit_ball_from_base
        self._per = np.uint64(draws_per_sphere(n_dim) if sphere else draws_per_ball(n_dim))
        self._bases = _stream_base(master_seed, stream_indices)
        self._offsets = np.broadcast_to(_as_u64(draw_offsets), (m,))
        self._max_steps = max_steps
        self._block: _Array | None = None   # (live, k, n): steps block_t .. block_t + k - 1
        self._block_t = 0

    def drop(self, keep: NDArray[np.bool_]) -> None:
        """Forget the walks whose ``keep`` flag is False."""
        self._bases = self._bases[keep]
        self._offsets = self._offsets[keep]
        if self._block is not None:
            self._block = self._block[keep]

    def take(self, t: int) -> _Array:
        """The step-t samples of the live walks, shape (live, n)."""
        block = self._block
        if block is None:
            live = self._bases.shape[0]
            k = max(1, min(_PREFETCH_ROWS // live, self._max_steps - t))
            first = self._offsets[:, None] + np.arange(t, t + k, dtype=np.uint64) * self._per
            w = self._sampler(np.repeat(self._bases, k), first.ravel(), self._n_dim)
            block = w.reshape(live, k, self._n_dim)
            self._block_t = t
        j = t - self._block_t
        # Steps are taken in order, so a block is released once its last step
        # is read and drop() never gathers rows that will not be read.
        self._block = block if j + 1 < block.shape[1] else None
        return block[:, j]


def run_walks(
    domain: Domain,
    x0,
    config: WalkConfig,
    master_seed: int,
    stream_indices,
    *,
    draw_offsets=0,
    excursion_center=None,
    record_trace: bool = False,
) -> WalkBatch | tuple[WalkBatch, list[_Array]]:
    """Advance one walk per stream index until exit or cap; see WalkBatch.

    ``x0`` is one start (n,) shared by every walk, or one start per walk
    (m, n) in stream-index order.  max_excursion is measured from each walk's
    own start unless ``excursion_center`` names another reference point (the
    escape-probability estimator measures spread around a boundary point).
    With ``record_trace`` the full position history is returned as one
    (steps+1, n) array per walk; use small batches.
    """
    idx = _as_u64(stream_indices)
    m = idx.shape[0]
    n = domain.dim
    starts, shared = _prep(x0, n)
    if not shared and starts.shape[0] != m:
        raise ValueError(f"got {starts.shape[0]} start points for {m} walks")
    if not np.all(domain.contains(starts)):
        raise ValueError("walks must start inside the open domain")
    tol = config.resolved_stop(domain)
    eps = config.epsilon
    sphere = config.kind == SPHERE
    draws = _StepDraws(n, sphere, master_seed, idx, draw_offsets, config.max_steps)

    # Live state is kept compact (one row per live walk, in ``alive`` order)
    # and written to the outputs only when walks leave the batch.
    cur = np.broadcast_to(starts, (m, n)).copy()
    if excursion_center is not None:
        ref = _prep(excursion_center, n)[0][0]
    else:
        ref = starts[0] if shared else starts
    # A shared start's excursion uses the same 1-D norm as the distance
    # callers compare it with (estimate_escape_probability's start_distance).
    if shared:
        exc = np.full(m, float(np.linalg.norm(starts[0] - ref)))
    else:
        exc = np.linalg.norm(starts - ref, axis=1)
    final = np.empty((m, n))
    steps = np.zeros(m, dtype=np.int64)
    truncated = np.zeros(m, dtype=bool)
    excursion = np.empty(m)
    traces: list[list[_Array]] = [[row.copy()] for row in cur] if record_trace else []

    alive = np.arange(m)
    t = 0
    while alive.size:
        dist = -domain._sd(cur)
        np.maximum(dist, 0.0, out=dist)
        done = dist < tol
        if np.any(done):
            rows = alive[done]
            final[rows] = cur[done]
            steps[rows] = t
            excursion[rows] = exc[done]
            keep = ~done
            alive = alive[keep]
            if alive.size == 0:
                break
            cur = cur[keep]
            dist = dist[keep]
            exc = exc[keep]
            if ref.ndim == 2:
                ref = ref[keep]
            draws.drop(keep)
        if t >= config.max_steps:
            truncated[alive] = True
            final[alive] = cur
            steps[alive] = t
            excursion[alive] = exc
            break
        radius = np.minimum(eps, 0.5 * dist) if sphere else np.minimum(eps, dist)
        cur = cur + radius[:, None] * draws.take(t)
        np.maximum(exc, np.linalg.norm(cur - ref, axis=1), out=exc)
        if record_trace:
            for k, row in enumerate(alive):
                traces[row].append(cur[k].copy())
        t += 1

    # Exits are projected in one call; _project works row by row, so how many
    # walks share the call never changes an exit.
    batch = WalkBatch(domain._project(final), steps, truncated, excursion)
    if record_trace:
        return batch, [np.asarray(tr) for tr in traces]
    return batch


def run_stopped_walks(
    domain: Domain,
    x0,
    epsilon: float,
    r: float,
    master_seed: int,
    stream_indices,
    *,
    draw_offsets=0,
    max_steps: int = 10_000_000,
) -> tuple[_Array, NDArray[np.int64]]:
    """Ball walks from x0 stopped on first departure from the ball of radius r.

    Requires the concentric ball of radius 2r around x0 to stay inside the
    domain (certified through the distance oracle, which never
    overestimates).  ``draw_offsets`` shifts each walk's draws along its
    stream, as in run_walks.  Returns stop points and stop steps; raises if
    any walk exhausts the step cap.
    """
    x0p, _ = _prep(x0, domain.dim)
    x0v = x0p[0]
    r = float(r)
    if r <= 0.0:
        raise ValueError(f"r must be positive, got {r}")
    if not domain.contains(x0v):
        raise ValueError("x0 must lie inside the open domain")
    if domain.distance_to_boundary(x0v) < 2.0 * r:
        raise ValueError("the ball of radius 2r around x0 must stay inside the domain")
    idx = _as_u64(stream_indices)
    m = idx.shape[0]
    n = domain.dim
    draws = _StepDraws(n, False, master_seed, idx, draw_offsets, max_steps)

    cur = np.broadcast_to(x0v, (m, n)).copy()
    stop_points = np.empty((m, n))
    stop_steps = np.zeros(m, dtype=np.int64)
    alive = np.arange(m)
    t = 0
    while alive.size:
        if t >= max_steps:
            raise RuntimeError(f"{alive.size} stopped walks exhausted the step cap {max_steps}")
        dist = -domain._sd(cur)
        np.maximum(dist, 0.0, out=dist)
        cur = cur + np.minimum(epsilon, dist)[:, None] * draws.take(t)
        t += 1
        out = np.linalg.norm(cur - x0v, axis=1) >= r
        if np.any(out):
            rows = alive[out]
            stop_points[rows] = cur[out]
            stop_steps[rows] = t
            keep = ~out
            alive = alive[keep]
            cur = cur[keep]
            draws.drop(keep)
    return stop_points, stop_steps
