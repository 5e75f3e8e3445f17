"""Monte Carlo estimators for the Dirichlet problem from simulated exits.

The solution value at an interior point is the expectation of the boundary
data at the walk's exit location; the data are ``oracle.BoundaryData``
objects, of which this module calls only ``eval``.  Estimates come with
standard errors, and every sampling routine is bitwise deterministic for a
given seed no matter how the work is split across threads: walk k always
consumes stream ``stream_base + k``, chunk statistics are pure functions of
the chunk index, and chunks are merged in index order.  A kernel call runs a
span.  A field's points run whole, ceil(points / threads) to a call of at
most _SPAN_CHUNKS chunks, and the calls fan out over threads; fewer, longer
calls pay the kernel's tail of near-empty iterations fewer times.  A point
alone in its call, and an exit_sample batch, is cut into one chunk-aligned
span per thread instead.  Points of at most half a packed span fill packed
spans that run one after another, as two at once would cost about 10% more
peak memory.  This is the one module that fans walks out over threads; the
diagnostics run their walks through exit_sample or estimate_field.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math

import numpy as np
from numpy.typing import NDArray

from .geometry import Domain, _count, _prep
from .oracle import BoundaryData
from .walk import WalkBatch, WalkConfig, _check_config, run_walks

_Array = NDArray[np.float64]

# Walk streams lie below this index; auxiliary sampling (probe locations,
# averaging centers, single-step draws) uses the streams from here up.
AUX_STREAM_BASE = 2**60

# Walks per statistics chunk.  Statistics are accumulated per chunk and folded
# in chunk order, so results do not depend on the thread count.
_CHUNK = 8192
# Most chunks in one kernel call, a cap on the per-walk arrays of one call.
# Below it a point's span is ceil(chunks / threads) chunks, so the kernel's
# tail (a few long walks stepping a near-empty batch) is paid once per thread.
# run_walks keeps at most walk._LANES walks live and refills a lane as soon as
# its walk exits.
_SPAN_CHUNKS = 8
# Chunks per packed span: points of at most half of it run whole, as many to
# a kernel call as fit, and packed spans run in order.  A call gets each
# point once, but two calls at once hold two kernels' step arrays: on the
# 56-point 3-D field of 1000 walks a point, fanning the spans out over 2
# threads raised peak RSS by about 10%, from 40.1-40.3 to 43.9-44.3 MB.
_PACK_CHUNKS = 2

# Refuse estimates where more than this fraction of walks hit the step cap:
# the truncation bias is no longer negligible against the standard error.
MAX_TRUNCATED_FRACTION = 1e-3


@dataclasses.dataclass(frozen=True)
class Estimate:
    """A sample mean with its uncertainty.

    ``n`` counts the walks that actually exited; ``truncated_count`` walks
    hit the step cap and are excluded from the average.
    """

    mean: float
    stderr: float
    n: int
    truncated_count: int = 0

    @property
    def ci95(self) -> tuple[float, float]:
        half = 1.96 * self.stderr
        return (self.mean - half, self.mean + half)


@dataclasses.dataclass(frozen=True)
class FieldResult:
    """Estimates on a grid of interior points.

    Rows of ``points`` outside the domain are skipped (NaN statistics); their
    indices are listed in ``skipped``.
    """

    points: _Array
    means: _Array
    stderrs: _Array
    counts: NDArray[np.int64]
    truncated: NDArray[np.int64]
    skipped: tuple[int, ...]
    n_walks: int

    def estimate_at(self, j: int) -> Estimate | None:
        if j in self.skipped:
            return None
        return Estimate(float(self.means[j]), float(self.stderrs[j]),
                        int(self.counts[j]), int(self.truncated[j]))


def _check_streams(stream_base: int, n: int) -> int:
    """Check that walk streams stream_base + [0, n) lie in
    [0, AUX_STREAM_BASE) and return stream_base as an int.

    stream_base is an integer by the count rule.  Walk streams are never
    negative and never reach the auxiliary block, which also keeps them
    inside int64.  Entry points check their whole range with this before any
    walk runs.
    """
    first = _count(stream_base, "stream_base", None)
    if first < 0 or first + n > AUX_STREAM_BASE:
        raise ValueError(f"stream_base = {first} puts walk streams [{first}, {first + n}) "
                         "outside [0, AUX_STREAM_BASE = 2**60)")
    return first


def _spans(n: int, threads: int, least: int = 1) -> list[tuple[int, int]]:
    """Walks [0, n) cut into spans of ceil(chunks / threads) chunks, but at
    least ``least`` and at most _SPAN_CHUNKS; the last span may be shorter."""
    chunks = -(-n // _CHUNK)
    size = min(max(-(-chunks // threads), least), _SPAN_CHUNKS) * _CHUNK
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _map_chunks(worker, tasks: list[tuple], threads: int) -> list:
    """Run worker(*task) for every task on up to ``threads`` threads,
    returning the results in task order."""
    if threads <= 1 or len(tasks) <= 1:
        return [worker(*task) for task in tasks]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda task: worker(*task), tasks))


def _merge_moments(stats: list[tuple[int, float, float]]) -> tuple[int, float, float]:
    """Fold (count, mean, M2) chunk statistics in list order."""
    n_acc, mean_acc, m2_acc = 0, 0.0, 0.0
    for n_b, mean_b, m2_b in stats:
        if n_b == 0:
            continue
        if n_acc == 0:
            n_acc, mean_acc, m2_acc = n_b, mean_b, m2_b
            continue
        n = n_acc + n_b
        delta = mean_b - mean_acc
        mean_acc = mean_acc + delta * (n_b / n)
        m2_acc = m2_acc + m2_b + delta * delta * (n_acc * (n_b / n))
        n_acc = n
    return n_acc, mean_acc, m2_acc


def _chunk_moments(values: _Array) -> tuple[int, float, float]:
    """Two-pass (count, mean, M2) for one chunk of exit values."""
    n = values.shape[0]
    if n == 0:
        return 0, 0.0, 0.0
    mean = float(values.mean())
    d = values - mean
    return n, mean, float(d @ d)


def _require_sane_truncation(truncated_count: int, n_walks: int) -> None:
    if truncated_count > MAX_TRUNCATED_FRACTION * n_walks:
        raise RuntimeError(
            f"{truncated_count} of {n_walks} walks hit the step cap "
            f"(> {MAX_TRUNCATED_FRACTION:.1%}); raise max_steps or epsilon")


def exit_sample(
    domain: Domain,
    x0,
    config: WalkConfig,
    master_seed: int,
    n_walks: int,
    *,
    stream_base: int = 0,
    ring: tuple | None = None,
    threads: int = 1,
) -> WalkBatch:
    """Simulate n_walks exits from the one start x0 (n,); walk k uses stream
    stream_base + k.  ``ring=(center, r)`` is passed to run_walks, which then
    stops each walk at distance r from center and leaves it unprojected.
    """
    _check_config(config)
    n_walks = _count(n_walks, "n_walks")
    threads = _count(threads, "threads")
    stream_base = _check_streams(stream_base, n_walks)
    x, one = _prep(x0, domain.dim)
    if not one:
        raise ValueError(f"got {x.shape[0]} start points for {n_walks} walks")

    def worker(lo: int, hi: int) -> WalkBatch:
        return run_walks(domain, x, config, master_seed,
                         np.arange(stream_base + lo, stream_base + hi, dtype=np.uint64),
                         ring=ring)

    parts = _map_chunks(worker, _spans(n_walks, threads), threads)
    return WalkBatch(
        exit_points=np.concatenate([p.exit_points for p in parts], axis=0),
        steps=np.concatenate([p.steps for p in parts]),
        truncated=np.concatenate([p.truncated for p in parts]),
    )


def estimate_value(
    domain: Domain,
    data: BoundaryData,
    x0,
    config: WalkConfig,
    master_seed: int,
    n_walks: int,
    *,
    stream_base: int = 0,
    threads: int = 1,
) -> Estimate:
    """Estimate the solution at x0 as the mean of F over simulated exits:
    the one-point case of estimate_field."""
    _check_config(config)
    x, one = _prep(x0, domain.dim)
    if not one:
        raise ValueError(f"got {x.shape[0]} start points for {n_walks} walks")
    est = estimate_field(domain, data, x, config, master_seed, n_walks,
                         stream_base=stream_base, threads=threads).estimate_at(0)
    if est is None:     # the field skipped its point
        raise ValueError("walks must start inside the open domain")
    return est


def estimate_field(
    domain: Domain,
    data: BoundaryData,
    points,
    config: WalkConfig,
    master_seed: int,
    n_walks: int,
    *,
    stream_base: int = 0,
    ring: tuple | None = None,
    threads: int = 1,
) -> FieldResult:
    """Estimate the solution at many points; point j owns walk streams
    stream_base + [j * n_walks, (j + 1) * n_walks), so adding or skipping
    points never shifts another point's randomness.  With ``ring=(center,
    r)`` each walk also stops at distance r from center, as in run_walks,
    and F is taken at its unprojected stop.  The first point that earns the
    truncation refusal raises it."""
    _check_config(config)
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must be a (m, n) array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    n_walks = _count(n_walks, "n_walks", 2)
    threads = _count(threads, "threads")
    m = pts.shape[0]
    stream_base = _check_streams(stream_base, m * n_walks)
    inside = domain.contains(pts)
    rows = np.flatnonzero(inside)

    def run(sel: slice, lo: int, hi: int) -> list:
        # Chunk (moments, truncated count) of walks [lo, hi) of the points
        # rows[sel], from one kernel call; lo is a chunk boundary.
        x, w = pts[rows[sel]], hi - lo
        idx = (stream_base + n_walks * rows[sel, None] + np.arange(lo, hi)).ravel()
        batch = run_walks(domain, x, config, master_seed, idx.astype(np.uint64), ring=ring)
        parts = []
        for e, t in zip(batch.exit_points.reshape(len(x), w, -1),
                        batch.truncated.reshape(len(x), w)):
            for a in range(0, w, _CHUNK):
                cut = t[a:a + _CHUNK]
                values = np.asarray(data.eval(e[a:a + _CHUNK][~cut]), dtype=np.float64)
                parts.append((_chunk_moments(values), int(cut.sum())))
        return parts

    # Whole points share a call, which keeps parts point-major, and a point
    # alone is cut into spans no finer than a packed span if others keep the
    # threads busy (8 points of 16 384 walks at 2 threads: 1.47-2.15 s in two
    # calls, 2.18-2.50 s in one call a point, 6 alternating runs, 2 CPUs).
    small = n_walks <= _PACK_CHUNKS * _CHUNK // 2
    fan, cap = (1, _PACK_CHUNKS) if small else (threads, _SPAN_CHUNKS)
    per = max(1, min(-(-rows.size // fan), cap * _CHUNK // n_walks))
    least = _PACK_CHUNKS if rows.size > 1 else 1
    spans = _spans(n_walks, threads, least) if per == 1 else [(0, n_walks)]
    tasks = [(slice(r, r + per), lo, hi) for r in range(0, rows.size, per) for lo, hi in spans]
    parts = [part for s in _map_chunks(run, tasks, fan) for part in s]
    chunks = -(-n_walks // _CHUNK)     # per point, consecutive in parts
    means, stderrs = np.full((2, m), np.nan)
    counts, truncated = np.zeros((2, m), dtype=np.int64)
    for j, a in zip(rows, range(0, len(parts), chunks)):
        stats, cuts = zip(*parts[a:a + chunks])
        _require_sane_truncation(sum(cuts), n_walks)
        n_used, means[j], m2 = _merge_moments(stats)     # the refusal leaves n_used >= 2
        stderrs[j] = math.sqrt(m2 / (n_used - 1) / n_used)
        counts[j], truncated[j] = n_used, sum(cuts)
    out_pts = pts.copy()
    for a in (out_pts, means, stderrs, counts, truncated):
        a.setflags(write=False)
    return FieldResult(points=out_pts, means=means, stderrs=stderrs, counts=counts,
                       truncated=truncated, skipped=tuple(np.flatnonzero(~inside).tolist()),
                       n_walks=n_walks)

