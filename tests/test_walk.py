"""Walk engine invariants: exits land on the boundary, batching never
changes results, step sizes respect the distance cap."""
import inspect
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ballwalk
from ballwalk import walk
from ballwalk import (
    BALL,
    SPHERE,
    STOP_TOLERANCE_FACTOR,
    Annulus,
    Ball,
    Box,
    Difference,
    HalfspaceIntersection,
    PuncturedBall,
    RngStream,
    WalkConfig,
    draws_per_ball,
    draws_per_sphere,
    exit_measure_stats,
    run_walks,
    sample_unit_ball,
    sample_unit_sphere,
    trace_walk,
)

DISK = Ball((0.0, 0.0), 1.0)
BALLS = {2: DISK, 3: Ball((0.0, 0.0, 0.0), 1.0)}


def _polygon(k):
    # k faces with normals at irrational angles, so margins round inexactly
    angles = 0.3 + 2.0 * np.pi * np.arange(k) / k
    return HalfspaceIntersection([((np.cos(a), np.sin(a)), 1.0) for a in angles])


def _octahedron():
    signs = [(a, b, c) for a in (1.0, -1.0) for b in (1.0, -1.0) for c in (1.0, -1.0)]
    return HalfspaceIntersection([((a, 0.5 * b, 0.25 * c), 1.0) for a, b, c in signs])


# Every walk domain, in 2-D and 3-D, keyed by (shape name, dim).
SHAPES = {
    ("ball", 2): DISK,
    ("ball", 3): BALLS[3],
    ("box", 2): Box((-1.0, -0.5), (0.5, 1.0)),
    ("box", 3): Box((-1.0, -0.5, -0.2), (0.5, 1.0, 0.8)),
    ("annulus", 2): Annulus((0.1, 0.0), 0.4, 1.0),
    ("annulus", 3): Annulus((0.1, 0.0, 0.0), 0.4, 1.0),
    ("punctured_ball", 2): PuncturedBall((0.0, 0.1), 1.0),
    ("punctured_ball", 3): PuncturedBall((0.0, 0.1, 0.0), 1.0),
    ("difference", 2): Difference(Box((0.0, 0.0), (1.0, 1.0)), Ball((0.5, 0.5), 0.3)),
    ("difference", 3): Difference(Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
                                  Ball((0.5, 0.5, 0.5), 0.3)),
    ("halfspaces", 2): _polygon(5),
    ("halfspaces", 3): _octahedron(),
}


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(0.0)
    with pytest.raises(ValueError):
        WalkConfig(1.0)
    with pytest.raises(ValueError, match="epsilon"):
        WalkConfig(1.5)
    with pytest.raises(ValueError):
        WalkConfig(0.1, stop_tolerance=-1.0)
    with pytest.raises(ValueError, match="max_steps"):
        WalkConfig(0.1, max_steps=0)
    with pytest.raises(ValueError):
        WalkConfig(0.1, kind="hop")


def test_only_walk_config_takes_the_stop_tolerance_and_step_cap():
    # Every public call that runs walks takes a WalkConfig, so no second
    # copy of these parameters or their defaults can come back.
    for name in ballwalk.__all__:
        obj = getattr(ballwalk, name)
        if name != "WalkConfig" and callable(obj):
            params = inspect.signature(obj).parameters
            assert not {"stop_tolerance", "max_steps"} & set(params), name


def test_resolved_stop_default_scales_with_diameter():
    assert WalkConfig(0.1).resolved_stop(DISK) == pytest.approx(
        STOP_TOLERANCE_FACTOR * 2.0, abs=0
    )
    assert WalkConfig(0.1).resolved_stop(Ball((0.0, 0.0), 3.0)) == pytest.approx(
        STOP_TOLERANCE_FACTOR * 6.0, abs=0
    )
    assert WalkConfig(0.1, stop_tolerance=1e-7).resolved_stop(DISK) == 1e-7


@given(st.integers(0, 2**40), st.floats(0.02, 0.5))
@settings(max_examples=25, deadline=None)
def test_exit_lands_on_boundary(seed, eps):
    cfg = WalkConfig(eps)
    batch = run_walks(DISK, (0.2, 0.1), cfg, seed, range(8))
    assert not np.any(DISK.contains(batch.exit_points))
    assert np.all(np.abs(DISK.signed_distance(batch.exit_points)) <= 1e-9)
    assert np.all(batch.steps >= 1)
    assert not np.any(batch.truncated)


def test_batch_matches_single_walks():
    cfg = WalkConfig(0.15)
    idx = [4, 0, 31]
    batch = run_walks(DISK, (0.3, -0.2), cfg, 99, idx)
    for row, k in enumerate(idx):
        single = run_walks(DISK, (0.3, -0.2), cfg, 99, [k])
        assert np.array_equal(batch.exit_points[row], single.exit_points[0])
        assert batch.steps[row] == single.steps[0]


def test_trace_is_the_walk():
    cfg = WalkConfig(0.2)
    tr, exit_point, steps, truncated = trace_walk(DISK, (0.3, 0.0), cfg, 1, 0)
    batch = run_walks(DISK, (0.3, 0.0), cfg, 1, [0])
    assert np.array_equal(tr[0], [0.3, 0.0])
    assert tr.shape == (steps + 1, 2) and not truncated
    assert steps == batch.steps[0] and np.array_equal(exit_point, batch.exit_points[0])
    # every intermediate point is interior, steps bounded by epsilon and dist
    assert np.all(DISK.contains(tr))
    hops = np.linalg.norm(np.diff(tr, axis=0), axis=1)
    dists = DISK.distance_to_boundary(tr[:-1])
    assert np.all(hops <= np.minimum(cfg.epsilon, dists) + 1e-15)
    # exit point is the projection of the final interior position
    stop = cfg.resolved_stop(DISK)
    assert np.linalg.norm(exit_point - tr[-1]) <= stop + 1e-12
    for bad in ([[0.3, 0.0], [0.0, 0.0]], (1.0, 0.0)):
        with pytest.raises(ValueError):
            trace_walk(DISK, bad, cfg, 1, 0)


def test_sphere_walk_steps_are_half_distance():
    cfg = WalkConfig(0.5, kind=SPHERE)
    tr = trace_walk(DISK, (0.0, 0.0), cfg, 7, 2)[0]
    hops = np.linalg.norm(np.diff(tr, axis=0), axis=1)
    expected = np.minimum(cfg.epsilon, DISK.distance_to_boundary(tr[:-1]) / 2.0)
    np.testing.assert_allclose(hops, expected, rtol=1e-12)


def test_ball_and_sphere_kinds_differ():
    a = run_walks(DISK, (0.0, 0.0), WalkConfig(0.2, kind=BALL), 5, [0])
    b = run_walks(DISK, (0.0, 0.0), WalkConfig(0.2, kind=SPHERE), 5, [0])
    assert not np.array_equal(a.exit_points, b.exit_points)


def test_truncation_flags():
    cfg = WalkConfig(0.2, max_steps=3)
    batch = run_walks(DISK, (0.0, 0.0), cfg, 1, range(6))
    assert np.all(batch.truncated)
    assert np.all(batch.steps == 3)
    # truncated walks still land their report point on the boundary
    assert not np.any(DISK.contains(batch.exit_points))
    single = run_walks(DISK, (0.0, 0.0), cfg, 1, [0])
    assert single.truncated[0] and single.steps[0] == 3


def test_interior_start_required():
    with pytest.raises(ValueError):
        run_walks(DISK, (2.0, 0.0), WalkConfig(0.2), 0, [0])
    with pytest.raises(ValueError):
        run_walks(DISK, (1.0, 0.0), WalkConfig(0.2), 0, [0])


def test_stopped_walks_ring():
    # A ring stop ends each walk on its first step out of B(x0, r).  Its
    # final position is returned unprojected, in [r, r + eps) from x0.
    x0 = (0.0, 0.0)
    r, eps = 0.3, 0.05
    batch = run_walks(DISK, x0, WalkConfig(eps), 17, range(64), ring=(x0, r))
    d = np.linalg.norm(batch.exit_points, axis=1)
    assert np.all(d >= r)
    assert np.all(d < r + eps)
    assert np.all(batch.steps >= 1) and not np.any(batch.truncated)
    single = run_walks(DISK, x0, WalkConfig(eps), 17, [3], ring=(x0, r))
    assert np.array_equal(single.exit_points[0], batch.exit_points[3])
    assert single.steps[0] == batch.steps[3]


def test_per_walk_starts_with_a_ring_split_across_calls():
    # One start per walk, with a ring around another point: cut into two
    # calls, each with its own walks' starts, the walks are unchanged.
    starts = np.column_stack([np.linspace(-0.5, 0.5, 300), np.zeros(300)])
    cfg, ring = WalkConfig(0.2), ((1.0, 0.0), 1.2)
    whole = run_walks(DISK, starts, cfg, 9, range(40, 340), ring=ring)
    parts = [run_walks(DISK, starts[lo:hi], cfg, 9, range(40 + lo, 40 + hi), ring=ring)
             for lo, hi in ((0, 128), (128, 300))]
    assert np.array_equal(whole.exit_points, np.concatenate([p.exit_points for p in parts]))
    assert np.array_equal(whole.steps, np.concatenate([p.steps for p in parts]))
    assert np.any(whole.steps > 1)


def test_stopped_walks_need_room():
    # distance to the boundary must be at least 2r so the ring is interior
    with pytest.raises(ValueError, match="radius 2r"):
        exit_measure_stats(DISK, (0.6, 0.0), 0.3, 0.05, 4, 0)
    # a ring-stopped walk that hits the cap is marked truncated, not stopped
    batch = run_walks(DISK, (0.0, 0.0), WalkConfig(0.05, max_steps=2), 0, range(4),
                      ring=((0.0, 0.0), 0.3))
    assert np.all(batch.truncated) and np.all(batch.steps == 2)
    assert np.all(np.linalg.norm(batch.exit_points, axis=1) < 0.3)


def test_ring_centered_off_the_start_cuts_the_unringed_path():
    # A ring around another point ends each walk at the first position of
    # its unringed path at distance >= r from the center, or at the
    # boundary stop if that comes first; either way the position is
    # returned unprojected, and the walk's steps up to it are unchanged.
    x0, center, r = (0.3, 0.0), np.array([0.5, 0.0]), 0.6
    cfg = WalkConfig(0.1)
    ringed = run_walks(DISK, x0, cfg, 23, range(40), ring=(center, r))
    outside = 0
    for k in range(40):
        tr = trace_walk(DISK, x0, cfg, 23, k)[0]
        far = np.flatnonzero(np.linalg.norm(tr - center, axis=1) >= r)
        stop = int(far[0]) if far.size else tr.shape[0] - 1
        outside += bool(far.size)
        assert ringed.steps[k] == stop and not ringed.truncated[k]
        assert np.array_equal(trace_walk(DISK, x0, cfg, 23, k, ring=(center, r))[0],
                              tr[:stop + 1])
        assert np.array_equal(ringed.exit_points[k], tr[stop])
    # the ring pokes out of the disk, so some walks meet it and some the boundary
    assert 0 < outside < 40
    # a start at distance exactly r is on the ring already and takes no step
    on_ring = float(np.linalg.norm(np.subtract(x0, center)[None, :], axis=1)[0])
    batch = run_walks(DISK, x0, cfg, 23, range(3), ring=(center, on_ring))
    assert np.all(batch.steps == 0) and np.all(batch.exit_points == x0)
    for bad in [(center, float("nan")), (center, 0.0), ([center, center], r)]:
        with pytest.raises(ValueError, match="ring"):
            run_walks(DISK, x0, cfg, 23, range(3), ring=bad)


def test_walks_work_in_a_box():
    box = Box((0.0, 0.0, 0.0), (1.0, 2.0, 1.0))
    batch = run_walks(box, (0.5, 1.0, 0.5), WalkConfig(0.25), 8, range(16))
    assert not np.any(box.contains(batch.exit_points))
    assert np.all(np.abs(box.signed_distance(batch.exit_points)) <= 1e-9)


def _interior_starts(dim, m, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((m, dim))
    return 0.9 * rng.uniform(size=(m, 1)) * u / np.linalg.norm(u, axis=1)[:, None]


def _assert_matches_walks_alone(domain, starts, cfg, seed, idx):
    """Run the batch, then every walk alone, and require identical outcomes."""
    batch = run_walks(domain, starts, cfg, seed, idx)
    for row in range(len(idx)):
        alone = run_walks(domain, starts[row], cfg, seed, [idx[row]])
        assert np.array_equal(batch.exit_points[row], alone.exit_points[0])
        assert batch.steps[row] == alone.steps[0]
        assert batch.truncated[row] == alone.truncated[0]
    return batch


def _starts_inside(domain, m, seed):
    """m interior points of ``domain``, drawn uniformly from its bounding box."""
    rng = np.random.default_rng(seed)
    lo, hi = domain.bounding_box()
    starts = np.empty((0, domain.dim))
    while starts.shape[0] < m:
        pts = rng.uniform(lo, hi, size=(4 * m, domain.dim))
        starts = np.concatenate([starts, pts[domain.contains(pts)]])
    return starts[:m]


# Start layouts of a batch: one start shared by every walk, equal groups of
# g walks from 1 < P < m starts, or one start per walk.
_LAYOUTS = ["shared", 2, 3, 5, "per_walk"]


def _laid_out(domain, m, seed, layout):
    """(m, x0, one start per walk) for a batch of m walks, m rounded up to a
    multiple of the group size g with at least two groups.  The layout
    "center_and_rim", for unit balls, splits the walks between the center
    and a start at distance 0.01 from the boundary."""
    if layout == "center_and_rim":
        x0 = np.zeros((2, domain.dim))
        x0[1, 0] = 0.99
        m += m % 2
        return m, x0, np.repeat(x0, m // 2, axis=0)
    if layout not in ("shared", "per_walk"):
        m = layout * max(2, -(-m // layout))
    starts = _starts_inside(domain, m, seed)
    if layout == "shared":
        return m, starts[0], np.broadcast_to(starts[0], starts.shape)
    if layout == "per_walk":
        return m, starts, starts
    return m, starts[:m // layout], np.repeat(starts[:m // layout], layout, axis=0)


def _every_shape(test):
    """Run ``test`` on every shape in 2-D and 3-D, once with a cap that
    truncates some walks, besides the examples hypothesis draws."""
    for shape, dim in SHAPES:
        test = example(shape, dim, BALL, 24, 7, 10_000_000)(test)
        test = example(shape, dim, SPHERE, 24, 8, 6)(test)
    return test


@given(st.sampled_from(sorted({shape for shape, _ in SHAPES})), st.sampled_from([2, 3]),
       st.sampled_from([BALL, SPHERE]), st.integers(1, 40), st.integers(0, 2**40),
       st.one_of(st.just(10_000_000), st.integers(1, 60)))
@_every_shape
@settings(max_examples=30, deadline=None)
def test_multi_start_batch_matches_walks_run_alone(shape, dim, kind, m, seed, cap):
    domain = SHAPES[shape, dim]
    cfg = WalkConfig(0.2, kind=kind, max_steps=cap)
    idx = np.arange(m) * 3 + seed % 1000
    starts = _starts_inside(domain, m, seed)
    _assert_matches_walks_alone(domain, starts, cfg, seed, idx)


def test_batch_wider_than_prefetch_rows_matches_walks_alone(monkeypatch):
    # Wider than _PREFETCH_ROWS, the kernel draws blocks one step deep; once
    # enough walks have exited the blocks grow to k > 1 steps.
    depths = set()
    sampler = walk._unit_ball_from_base

    def spy(base, first, n_dim):
        depths.add(base.shape[0] // np.unique(base).shape[0])
        return sampler(base, first, n_dim)

    monkeypatch.setattr(walk, "_unit_ball_from_base", spy)
    m = walk._PREFETCH_ROWS + 60
    starts = _interior_starts(2, m, 12)
    _assert_matches_walks_alone(DISK, starts, WalkConfig(0.25), 12, np.arange(m))
    assert 1 in depths and max(depths) > 1


def test_truncation_lands_at_the_cap_inside_a_block():
    m, cap = 10, 7
    assert cap < walk._PREFETCH_ROWS // m       # one block would reach past the cap
    cfg = WalkConfig(0.02, max_steps=cap)
    starts = 0.1 * _interior_starts(3, m, 4)
    batch = _assert_matches_walks_alone(BALLS[3], starts, cfg, 4, np.arange(m))
    assert np.all(batch.truncated)
    assert np.all(batch.steps == cap)


@pytest.mark.parametrize("kind", [BALL, SPHERE])
def test_step_t_reads_the_sample_at_offset_plus_t_draws(kind):
    # Whatever the block depth, step t of walk k moves by the sample whose
    # first draw is t * per on stream k.
    cfg = WalkConfig(0.1, kind=kind)
    idx = [3, 8, 21]
    starts = _interior_starts(2, 3, 6)
    batch = run_walks(DISK, starts, cfg, 6, idx)
    sample = sample_unit_sphere if kind == SPHERE else sample_unit_ball
    per = draws_per_sphere(2) if kind == SPHERE else draws_per_ball(2)
    for k in range(3):
        tr, exit_point, _, _ = trace_walk(DISK, starts[k], cfg, 6, idx[k])
        assert tr.shape[0] == batch.steps[k] + 1
        assert np.array_equal(exit_point, batch.exit_points[k])
        for t in range(batch.steps[k]):
            dist = DISK.distance_to_boundary(tr[t])
            radius = min(cfg.epsilon, 0.5 * dist if kind == SPHERE else dist)
            w = sample(RngStream(6, idx[k], t * per), 2)
            assert np.array_equal(tr[t + 1], tr[t] + radius * w)


@pytest.mark.parametrize("ring", [None, ((0.0, 0.0), 0.5)])
def test_no_stream_indices_give_an_empty_batch(ring):
    batch = run_walks(DISK, (0.0, 0.0), WalkConfig(0.1), 0, [], ring=ring)
    assert batch.exit_points.shape == (0, 2)
    assert batch.steps.shape == (0,) and batch.steps.dtype == np.int64
    assert batch.truncated.shape == (0,) and batch.truncated.dtype == bool


def test_per_walk_starts_are_checked():
    with pytest.raises(ValueError):
        run_walks(DISK, np.zeros((3, 2)), WalkConfig(0.2), 0, range(4))
    with pytest.raises(ValueError):
        run_walks(DISK, [[0.0, 0.0], [1.5, 0.0]], WalkConfig(0.2), 0, range(2))
    # P starts for P equal groups: 2 starts for 4 walks give walks 0-1 the
    # first start and walks 2-3 the second
    grouped = run_walks(DISK, [[0.0, 0.0], [0.5, 0.0]], WalkConfig(0.2), 0, range(4))
    per_walk = run_walks(DISK, [[0.0, 0.0]] * 2 + [[0.5, 0.0]] * 2, WalkConfig(0.2), 0, range(4))
    assert np.array_equal(grouped.exit_points, per_walk.exit_points)
    assert np.array_equal(grouped.steps, per_walk.steps)
    # a count that does not divide the walks is refused as before
    for count, walks in [(4, 6), (0, 6)]:
        with pytest.raises(ValueError, match=f"got {count} start points for {walks} walks"):
            run_walks(DISK, np.zeros((count, 2)), WalkConfig(0.2), 0, range(walks))
    # every group's start is checked
    with pytest.raises(ValueError, match="walks must start inside the open domain"):
        run_walks(DISK, [[0.0, 0.0], [1.5, 0.0]], WalkConfig(0.2), 0, range(6))


@pytest.mark.parametrize("case", ["exits", "stopped_at_start", "capped", "ringed"])
def test_exits_are_projected_in_one_call(monkeypatch, case):
    # One _project call over the final positions of all m walks, whether
    # walks exit over many iterations, all stop at t = 0, or hit the cap;
    # none when a ring stop returns the final positions themselves.  The
    # starts lie within 0.9 of the center, inside the ring of radius 0.95.
    m = 12
    cfg = WalkConfig(0.2, max_steps=4 if case == "capped" else 10_000_000)
    if case == "stopped_at_start":
        angles = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
        radius = 1.0 - 0.5 * cfg.resolved_stop(DISK)
        starts = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        starts = _interior_starts(2, m, 5)
    domain = Ball((0.0, 0.0), 1.0)
    calls = []
    project = domain._project

    def spy(pts):
        calls.append(pts.copy())
        return project(pts)

    monkeypatch.setattr(domain, "_project", spy)
    ring = ((0.0, 0.0), 0.95) if case == "ringed" else None
    batch = run_walks(domain, starts, cfg, 3, range(m), ring=ring)
    lasts = np.array([trace_walk(DISK, starts[k], cfg, 3, k, ring=ring)[0][-1]
                      for k in range(m)])
    if case == "ringed":
        assert calls == []
        assert np.array_equal(batch.exit_points, lasts)
        assert np.all(np.linalg.norm(batch.exit_points, axis=1) >= 0.95)
        assert np.all(batch.steps >= 1)
        return
    assert len(calls) == 1
    assert np.array_equal(calls[0], lasts)
    assert np.array_equal(batch.exit_points, project(calls[0]))
    if case == "capped":
        assert np.all(batch.truncated) and np.all(batch.steps == 4)
    elif case == "stopped_at_start":
        assert not np.any(batch.truncated) and np.all(batch.steps == 0)
    else:
        assert not np.any(batch.truncated) and np.unique(batch.steps).size > 1


@given(st.sampled_from(sorted(SHAPES)), st.sampled_from([BALL, SPHERE]), st.integers(1, 30),
       st.integers(0, 2**40), st.integers(1, 9), st.sampled_from([1, 2, 5, 16, 64]),
       st.sampled_from(_LAYOUTS), st.booleans(),
       st.one_of(st.just(10_000_000), st.integers(1, 40)),
       st.one_of(st.none(), st.floats(0.05, 0.8)))
@example(("ball", 2), BALL, 30, 3, 4, 16, "per_walk", True, 9, None)
@example(("difference", 3), SPHERE, 25, 4, 3, 5, "shared", True, 10_000_000, None)
@example(("box", 2), BALL, 30, 5, 4, 16, "shared", False, 10_000_000, 0.3)
@example(("annulus", 3), SPHERE, 25, 6, 3, 5, "per_walk", True, 12, 0.5)
# groups of 3 in 5 lanes: group 1 is walks 3-5, and walk 5 waits for a refill
@example(("difference", 3), BALL, 12, 8, 5, 16, 3, True, 10_000_000, None)
@example(("box", 2), SPHERE, 20, 9, 3, 5, 5, False, 15, 0.4)
@settings(max_examples=40, deadline=None)
def test_lane_refill_matches_walks_run_alone(key, kind, m, seed, lanes, prefetch,
                                             layout, centered, cap, stop_radius):
    # With fewer lanes than walks, lanes are refilled as walks exit, while
    # block prefetch fills and drops blocks in between; a ring stop may end
    # walks before the boundary does.  A refilled lane takes its walk's
    # group start.
    domain = SHAPES[key]
    cfg = WalkConfig(0.2, kind=kind, max_steps=cap)
    m, x0, starts = _laid_out(domain, m, seed, layout)
    idx = np.arange(m) * 5 + seed % 997
    center = np.mean(domain.bounding_box(), axis=0) if centered else starts[0]
    ring = None if stop_radius is None else (center, stop_radius)
    with mock.patch.object(walk, "_LANES", lanes), \
            mock.patch.object(walk, "_PREFETCH_ROWS", prefetch):
        batch = run_walks(domain, x0, cfg, seed, idx, ring=ring)
    for row in range(m):
        alone = run_walks(domain, starts[row], cfg, seed, [idx[row]], ring=ring)
        assert np.array_equal(batch.exit_points[row], alone.exit_points[0])
        assert batch.steps[row] == alone.steps[0]
        assert batch.truncated[row] == alone.truncated[0]


def test_late_walk_is_truncated_at_its_own_cap(monkeypatch):
    # One lane: walk 0 runs to the cap, then walk 1 takes the lane at
    # iteration cap + 1 and must still get cap steps of its own.
    cap = 7
    admissions = []
    admit = walk._StepDraws.admit

    def spy(self, lanes, walks, t):
        admissions.append((walks.tolist(), t))
        return admit(self, lanes, walks, t)

    monkeypatch.setattr(walk, "_LANES", 1)
    monkeypatch.setattr(walk._StepDraws, "admit", spy)
    cfg = WalkConfig(0.01, max_steps=cap)
    batch = run_walks(DISK, (0.0, 0.0), cfg, 2, [4, 9, 1])
    assert admissions == [([1], cap + 1), ([2], 2 * (cap + 1))]
    assert np.all(batch.truncated)
    assert np.all(batch.steps == cap)
    for row, k in enumerate([4, 9, 1]):
        tr, exit_point, steps, truncated = trace_walk(DISK, (0.0, 0.0), cfg, 2, k)
        assert tr.shape[0] == cap + 1 and steps == cap and truncated
        assert np.array_equal(exit_point, batch.exit_points[row])


@given(st.sampled_from(sorted(SHAPES)), st.sampled_from([BALL, SPHERE]), st.integers(1, 5),
       st.integers(0, 2**40), st.integers(1, 9), st.integers(1, 64), st.sampled_from(_LAYOUTS),
       st.one_of(st.just(10_000_000), st.integers(1, 300)),
       st.one_of(st.none(), st.floats(0.05, 0.8)), st.just(0.02))
@example(("ball", 2), BALL, 1, 1, 1, 64, "shared", 10_000_000, None, 0.02)
@example(("ball", 3), SPHERE, 2, 2, 2, 64, "shared", 10_000_000, 0.6, 0.02)
@example(("box", 3), BALL, 2, 3, 2, 40, "per_walk", 23, None, 0.02)
@example(("annulus", 3), BALL, 3, 0, 2, 64, "per_walk", 30, None, 0.02)   # a refilled lane's cap
@example(("annulus", 2), SPHERE, 2, 4, 1, 64, "per_walk", 10_000_000, None, 0.02)
@example(("punctured_ball", 3), BALL, 2, 5, 3, 64, "shared", 10_000_000, None, 0.02)
@example(("difference", 2), BALL, 3, 6, 2, 50, "per_walk", 150, 0.3, 0.02)
@example(("halfspaces", 2), SPHERE, 2, 7, 2, 64, "shared", 10_000_000, None, 0.02)
# groups of 2 in 3 lanes: walk 3 joins its group's start by a refill
@example(("box", 3), SPHERE, 4, 8, 3, 64, 2, 40, None, 0.02)
@example(("difference", 3), BALL, 5, 9, 2, 20, 3, 10_000_000, 0.5, 0.02)
# a far walk speculates beside a near one, which steps alone once the far
# walk's lane is dropped
@example(("ball", 2), BALL, 2, 10, 2, 64, "center_and_rim", 10_000_000, None, 0.01)
# caps and ring stops inside speculative blocks
@example(("ball", 2), BALL, 4, 11, 4, 64, "center_and_rim", 45, None, 0.02)
@example(("ball", 3), SPHERE, 4, 12, 4, 64, "center_and_rim", 33, None, 0.02)
@example(("ball", 3), BALL, 4, 13, 4, 64, "center_and_rim", 10_000_000, 0.25, 0.02)
@example(("ball", 2), SPHERE, 4, 14, 4, 64, "center_and_rim", 10_000_000, 0.3, 0.02)
@settings(max_examples=25, deadline=None)
def test_run_walks_matches_the_scalar_reference(key, kind, m, seed, lanes, prefetch,
                                                 layout, cap, stop_radius, eps):
    # At eps 0.02 walks deep inside take many speculative steps per
    # iteration, so caps and ring stops fall inside speculative blocks; lanes
    # and blocks vary too.  trace_walk shares no lane, block or speculation
    # code with the kernel.
    domain = SHAPES[key]
    cfg = WalkConfig(eps, kind=kind, max_steps=cap)
    m, x0, starts = _laid_out(domain, m, seed, layout)
    idx = np.arange(m) * 3 + seed % 991
    ring = None if stop_radius is None else (np.mean(domain.bounding_box(), axis=0),
                                             stop_radius)
    with mock.patch.object(walk, "_LANES", lanes), \
            mock.patch.object(walk, "_PREFETCH_ROWS", prefetch):
        batch = run_walks(domain, x0, cfg, seed, idx, ring=ring)
    for row in range(m):
        _, exit_point, steps, truncated = trace_walk(domain, starts[row], cfg, seed,
                                                     int(idx[row]), ring=ring)
        assert np.array_equal(batch.exit_points[row], exit_point)
        assert batch.steps[row] == steps
        assert batch.truncated[row] == truncated


def test_long_walks_speculate(monkeypatch):
    # Regularity-probe shape: walks start next to the boundary at a small
    # eps, and once the short ones have exited, the long ones deep inside
    # take many speculative steps per iteration.  Every iteration draws by
    # take or speculate; depths holds 0 for take.
    depths = []
    take, speculate = walk._StepDraws.take, walk._StepDraws.speculate

    def spy_take(self, t):
        depths.append(0)
        return take(self, t)

    def spy_speculate(self, t, far, depth):
        depths.append(depth)
        return speculate(self, t, far, depth)

    monkeypatch.setattr(walk._StepDraws, "take", spy_take)
    monkeypatch.setattr(walk._StepDraws, "speculate", spy_speculate)
    cfg = WalkConfig(0.01)
    batch = run_walks(DISK, (0.99, 0.0), cfg, 5, range(200))
    assert max(depths) >= 2
    # the batch takes a small fraction of its longest walk's steps in iterations
    assert 10 * len(depths) < batch.steps.max()


# _sd calls of the probe-shaped batch below, by walk kind.
# (_sd calls, total steps) of the probe-shaped batch below, by walk kind.
_PROBE_PINS = {BALL: (786, 270_762), SPHERE: (867, 122_583)}


@pytest.mark.parametrize("kind", [BALL, SPHERE])
def test_probe_batch_iteration_count_is_pinned(kind, monkeypatch):
    # A probe-shaped batch: 400 walks from two starts 0.01 and 0.02 from the
    # boundary at eps 0.01.  Each iteration calls _sd once, and once more if
    # it speculates; the count is fixed by the walks' bits, so a change that
    # loses speculation changes it.  Where another C math library walks other
    # 2-D bits (see the README's numerical contract), the steps differ too and
    # the count is not comparable.
    calls = []
    disk = Ball((0.0, 0.0), 1.0)
    sd = disk._sd

    def spy(x):
        calls.append(x.shape[0])
        return sd(x)

    monkeypatch.setattr(disk, "_sd", spy)
    batch = run_walks(disk, [(0.99, 0.0), (0.0, 0.98)], WalkConfig(0.01, kind=kind), 9,
                      range(400))
    sd_calls, total_steps = _PROBE_PINS[kind]
    if batch.steps.sum() != total_steps:
        pytest.skip("this build walks other bits than the pinning machine")
    assert len(calls) == sd_calls
    assert 10 * len(calls) < batch.steps.max()


# Digests of ball and sphere walk batches in the given dimensions, one line
# each: a 2-D disk; a 3-D box, octahedron and box minus a ball; and balls in
# every other dimension.
_WALK_DIGESTS = """
import hashlib
from ballwalk import Ball, Box, Difference, HalfspaceIntersection, WalkConfig, run_walks

def domains(dim):
    if dim != 3:
        return [Ball((0.0,) * dim, 1.0)]
    signs = [(a, b, c) for a in (1.0, -1.0) for b in (1.0, -1.0) for c in (1.0, -1.0)]
    return [Box((-1.0, -0.5, -0.2), (0.5, 1.0, 0.8)),
            HalfspaceIntersection([((a, 0.5 * b, 0.25 * c), 1.0) for a, b, c in signs]),
            Difference(Box((0.0,) * 3, (1.0,) * 3), Ball((0.5,) * 3, 0.3))]

def digests(dims):
    lines = []
    for dim in dims:
        for domain in domains(dim):
            for kind in ("ball", "sphere"):
                cfg = WalkConfig(0.1, kind=kind)
                batch = run_walks(domain, (0.1,) * dim, cfg, 31, range(1000))
                h = hashlib.sha256(batch.exit_points.tobytes() + batch.steps.tobytes())
                lines.append(f"{dim} {domain!r} {kind} {h.hexdigest()}")
    return lines
"""


def _child_walks_the_same_bits(disabled, dims):
    # The samplers of every dimension use no log or power, whose numpy
    # kernels round differently at each dispatch level, so a child process
    # with the AVX-512 (and AVX2) kernels turned off walks the same bits.
    # Where the CPU lacks a feature, turning it off changes nothing.
    src = os.path.dirname(os.path.dirname(ballwalk.__file__))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = _WALK_DIGESTS + f"\nprint('\\n'.join(digests({dims!r})))\n"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True)
    here = {}
    exec(_WALK_DIGESTS, here)
    assert child.stdout.splitlines() == here["digests"](dims)


_DISABLED = ["AVX512_SPR AVX512_ICL X86_V4", "AVX512_SPR AVX512_ICL X86_V4 X86_V3"]


@pytest.mark.parametrize("disabled", _DISABLED)
def test_2d_and_3d_walks_keep_their_bits_at_lower_cpu_dispatch_levels(disabled):
    _child_walks_the_same_bits(disabled, (2, 3))


@pytest.mark.parametrize("disabled", _DISABLED)
def test_1d_and_4d_to_16d_walks_keep_their_bits_at_lower_cpu_dispatch_levels(disabled):
    _child_walks_the_same_bits(disabled, (1, 4, 5, 16))
