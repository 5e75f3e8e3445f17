"""Monte Carlo estimators for the Dirichlet problem from simulated exits.

The solution value at an interior point is the expectation of the boundary
data at the walk's exit location.  Estimates come with standard errors, and
every sampling routine is bitwise deterministic for a given seed no matter
how the work is split across threads: walk k always consumes stream
``stream_base + k``, chunk statistics are pure functions of the chunk index,
and chunks are merged in index order.  A kernel call runs a span: two chunks
of one point, fanned out over threads, or as many whole points of at most
half a span as fit, run in order (two such spans at once cost 18% more peak
memory).  This is the one module that fans walks out over threads; the
diagnostics run their walks through exit_sample or estimate_field.
"""

from __future__ import annotations

import abc
import concurrent.futures
import dataclasses
import math

import numpy as np
from numpy.typing import NDArray

from .geometry import Domain, as_point, _count, _parse_call, _prep, _TokenCursor
from .oracle import _ORACLE_READERS, HarmonicOracle, _oracle_from
from .walk import WalkBatch, WalkConfig, run_walks

_Array = NDArray[np.float64]

# Walk streams lie below this index; auxiliary sampling (probe locations,
# averaging centers, single-step draws) uses the streams from here up.
AUX_STREAM_BASE = 2**60

# Walks per statistics chunk.  Statistics are accumulated per chunk and folded
# in chunk order, so results do not depend on the thread count.
_CHUNK = 8192
# Chunks per kernel call, one call per thread task.  run_walks keeps at most
# walk._LANES walks live and refills a lane as soon as its walk exits.
_SPAN_CHUNKS = 2

# Refuse estimates where more than this fraction of walks hit the step cap:
# the truncation bias is no longer negligible against the standard error.
MAX_TRUNCATED_FRACTION = 1e-3


class BoundaryData(abc.ABC):
    """Boundary values F, evaluated on batches of exit points."""

    @abc.abstractmethod
    def eval(self, points) -> float | _Array:
        """F at a point (n,) or batch (m, n)."""


class Constant(BoundaryData):
    def __init__(self, value: float):
        self.value = float(value)
        if not math.isfinite(self.value):
            raise ValueError(f"constant boundary value must be finite, got {value!r}")

    def __repr__(self) -> str:
        return f"Constant({self.value})"

    def eval(self, points) -> float | _Array:
        a = np.asarray(points, dtype=np.float64)
        if a.ndim == 1:
            return self.value
        return np.full(a.shape[0], self.value)


class Coordinate(BoundaryData):
    """F(x) = x_k with 1-based index k."""

    def __init__(self, index: int):
        self.index = _count(index, "coordinate index")

    def __repr__(self) -> str:
        return f"Coordinate({self.index})"

    def eval(self, points) -> float | _Array:
        a = np.asarray(points, dtype=np.float64)
        k = self.index - 1
        if k >= a.shape[-1]:
            raise ValueError(f"coordinate {self.index} out of range for dimension {a.shape[-1]}")
        return float(a[k]) if a.ndim == 1 else a[:, k].copy()


class DistanceTo(BoundaryData):
    """F(x) = |x - p|."""

    def __init__(self, point):
        self.point = as_point(point)

    def __repr__(self) -> str:
        return f"DistanceTo({self.point.tolist()})"

    def eval(self, points) -> float | _Array:
        pts, single = _prep(points, self.point.shape[0])
        d = np.linalg.norm(pts - self.point, axis=1)
        return float(d[0]) if single else d


class HarmonicTrace(BoundaryData):
    """Boundary restriction of a known harmonic function.

    With this data the estimator has a closed-form target: the harmonic
    function's own value at the start point.
    """

    def __init__(self, oracle: HarmonicOracle):
        if not isinstance(oracle, HarmonicOracle):
            raise TypeError("HarmonicTrace wraps a HarmonicOracle")
        self.oracle = oracle

    def __repr__(self) -> str:
        return f"HarmonicTrace({self.oracle!r})"

    def eval(self, points) -> float | _Array:
        return self.oracle.eval(points)


class Tabulated(BoundaryData):
    """Finite boundary samples, extended continuously via tietze_extend.

    Exit points almost never coincide with a sample point, so evaluation off
    the sample set uses the Hausdorff extension formula (see tietze_extend)
    rather than nearest-neighbor snapping.
    """

    def __init__(self, points, values):
        self.points, self.values = _anchors(points, values)

    def __repr__(self) -> str:
        return f"Tabulated({self.points.shape[0]} samples, dim={self.points.shape[1]})"

    def eval(self, points) -> float | _Array:
        return tietze_extend(self.points, self.values, points)


def _data_from(name: str, args) -> BoundaryData:
    """The boundary data called name, from its numeric groups or, for
    tabulated, its path; any other name is an oracle, wrapped as its trace."""
    if name in ("constant", "coordinate"):
        if len(args) != 1 or len(args[0]) != 1:
            raise ValueError(f"{name} expects one number")
        return (Constant if name == "constant" else Coordinate)(args[0][0])
    if name == "distance_to":
        if len(args) != 1:
            raise ValueError("distance_to expects distance_to(p1,...,pn)")
        return DistanceTo(args[0])
    if name == "tabulated":
        if not args:
            raise ValueError("tabulated(...) needs a CSV path of x1,...,xn,value rows")
        rows = np.loadtxt(args, delimiter=",", ndmin=2)
        if rows.shape[1] < 2:
            raise ValueError("tabulated CSV rows must be x1,...,xn,value")
        return Tabulated(rows[:, :-1], rows[:, -1])
    return HarmonicTrace(_oracle_from(name, args))


def parse_boundary_data(text: str) -> BoundaryData:
    """Parse boundary data: constant(c), coordinate(k), distance_to(p...),
    tabulated(file.csv), or any oracle expression (wrapped as its trace)."""
    return _parse_call(text, _data_from, {**_ORACLE_READERS, "tabulated": _TokenCursor.path})


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


def _stream_range(stream_base: int, lo: int, hi: int) -> NDArray[np.uint64]:
    """Walk streams stream_base + [lo, hi) of one kernel call, as uint64;
    raises ValueError as _check_streams does."""
    first = _check_streams(stream_base + lo, hi - lo)
    return np.arange(first, first + (hi - lo), dtype=np.uint64)


def _spans(n: int) -> list[tuple[int, int]]:
    """Walks [0, n) cut into spans of _SPAN_CHUNKS chunks."""
    return [(lo, min(lo + _SPAN_CHUNKS * _CHUNK, n)) for lo in range(0, n, _SPAN_CHUNKS * _CHUNK)]


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
    """Simulate n_walks exits; walk k uses stream stream_base + k.

    ``x0`` is one start (n,) shared by every walk or one start per walk
    (n_walks, n); ``ring=(center, r)`` is passed to run_walks, which then
    stops each walk at distance r from center and leaves it unprojected.
    """
    n_walks = _count(n_walks, "n_walks")
    threads = _count(threads, "threads")
    stream_base = _check_streams(stream_base, n_walks)
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim == 2 and x0.shape[0] != n_walks:
        raise ValueError(f"got {x0.shape[0]} start points for {n_walks} walks")

    def worker(lo: int, hi: int) -> WalkBatch:
        starts = x0[lo:hi] if x0.ndim == 2 else x0
        return run_walks(domain, starts, config, master_seed,
                         _stream_range(stream_base, lo, hi), ring=ring)

    parts = _map_chunks(worker, _spans(n_walks), threads)
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
    n_walks = _count(n_walks, "n_walks", 2)
    x, one = _prep(x0, domain.dim)
    if not one:
        raise ValueError(f"got {x.shape[0]} start points for {n_walks} walks")
    if not domain.contains(x)[0]:
        raise ValueError("walks must start inside the open domain")
    return estimate_field(domain, data, x, config, master_seed, n_walks,
                          stream_base=stream_base, threads=threads).estimate_at(0)


def estimate_field(
    domain: Domain,
    data: BoundaryData,
    points,
    config: WalkConfig,
    master_seed: int,
    n_walks: int,
    *,
    stream_base: int = 0,
    threads: int = 1,
) -> FieldResult:
    """Estimate the solution at many points; point j owns walk streams
    stream_base + [j * n_walks, (j + 1) * n_walks), so adding or skipping
    points never shifts another point's randomness.  The first point that
    earns the truncation refusal raises it."""
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
        batch = run_walks(domain, x[0] if len(x) == 1 else np.repeat(x, w, axis=0),
                          config, master_seed, idx.astype(np.uint64))
        parts = []
        for e, t in zip(batch.exit_points.reshape(len(x), w, -1),
                        batch.truncated.reshape(len(x), w)):
            for a in range(0, w, _CHUNK):
                cut = t[a:a + _CHUNK]
                values = np.asarray(data.eval(e[a:a + _CHUNK][~cut]), dtype=np.float64)
                parts.append((_chunk_moments(values), int(cut.sum())))
        return parts

    per = max(1, _SPAN_CHUNKS * _CHUNK // n_walks)     # whole points a span holds
    tasks = [(slice(r, r + per), lo, hi) for r in range(0, rows.size, per)
             for lo, hi in _spans(n_walks)]
    parts = [part for s in _map_chunks(run, tasks, threads if per == 1 else 1) for part in s]
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


def tietze_extend(anchor_points, anchor_values, x) -> float | _Array:
    """Extend values on a finite anchor set continuously to all other points.

    Off the anchor set the extension is
        min over anchors y of  F(y) + |x - y| / dist(x, A) - 1,
    which reproduces F on A in the limit and is continuous everywhere.  On an
    anchor the anchor's own value is returned.  The "- 1" is kept inside the
    minimum, matching the classical (Hausdorff) formula verbatim even though
    the constant factors out; variants of the formula move it outside.
    """
    pts, vals = _anchors(anchor_points, anchor_values)
    q, single = _prep(x, pts.shape[1])
    # (len(q), m) pairwise distances
    d = np.linalg.norm(q[:, None, :] - pts[None, :, :], axis=2)
    dist_a = d.min(axis=1)
    on_anchor = dist_a == 0.0
    out = np.empty(q.shape[0])
    off = ~on_anchor
    out[off] = (vals[None, :] + d[off] / dist_a[off, None] - 1.0).min(axis=1)
    out[on_anchor] = vals[d[on_anchor].argmin(axis=1)]
    return float(out[0]) if single else out


def _anchors(points, values) -> tuple[_Array, _Array]:
    """Anchor points (m, n) and their m values as read-only float64 copies,
    all finite."""
    pts = np.array(points, dtype=np.float64)
    vals = np.array(values, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("anchor points must be a (m, n) array")
    if vals.shape != (pts.shape[0],):
        raise ValueError("need one value per anchor point")
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))):
        raise ValueError("anchors must be finite")
    pts.setflags(write=False)
    vals.setflags(write=False)
    return pts, vals
