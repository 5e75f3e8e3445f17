"""Walk engine invariants: exits land on the boundary, batching never
changes results, step sizes respect the distance cap."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    with pytest.raises(ValueError):
        WalkConfig(1.5)
    with pytest.raises(ValueError):
        WalkConfig(0.1, stop_tolerance=-1.0)
    with pytest.raises(ValueError):
        WalkConfig(0.1, max_steps=0)
    with pytest.raises(ValueError):
        WalkConfig(0.1, kind="hop")


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


def test_per_walk_starts_are_checked():
    with pytest.raises(ValueError):
        run_walks(DISK, np.zeros((3, 2)), WalkConfig(0.2), 0, range(4))
    with pytest.raises(ValueError):
        run_walks(DISK, [[0.0, 0.0], [1.5, 0.0]], WalkConfig(0.2), 0, range(2))


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
       st.booleans(), st.booleans(),
       st.one_of(st.just(10_000_000), st.integers(1, 40)),
       st.one_of(st.none(), st.floats(0.05, 0.8)))
@example(("ball", 2), BALL, 30, 3, 4, 16, False, True, 9, None)
@example(("difference", 3), SPHERE, 25, 4, 3, 5, True, True, 10_000_000, None)
@example(("box", 2), BALL, 30, 5, 4, 16, True, False, 10_000_000, 0.3)
@example(("annulus", 3), SPHERE, 25, 6, 3, 5, False, True, 12, 0.5)
@settings(max_examples=40, deadline=None)
def test_lane_refill_matches_walks_run_alone(key, kind, m, seed, lanes, prefetch,
                                             shared, centered, cap, stop_radius):
    # With fewer lanes than walks, lanes are refilled as walks exit, while
    # block prefetch fills and drops blocks in between; a ring stop may end
    # walks before the boundary does.
    domain = SHAPES[key]
    cfg = WalkConfig(0.2, kind=kind, max_steps=cap)
    idx = np.arange(m) * 5 + seed % 997
    starts = _starts_inside(domain, m, seed)
    x0 = starts[0] if shared else starts
    center = np.mean(domain.bounding_box(), axis=0) if centered else starts[0]
    ring = None if stop_radius is None else (center, stop_radius)
    with mock.patch.object(walk, "_LANES", lanes), \
            mock.patch.object(walk, "_PREFETCH_ROWS", prefetch):
        batch = run_walks(domain, x0, cfg, seed, idx, ring=ring)
    for row in range(m):
        alone = run_walks(domain, x0 if shared else starts[row:row + 1], cfg, seed,
                          [idx[row]], ring=ring)
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
       st.integers(0, 2**40), st.integers(1, 9), st.integers(1, 64), st.booleans(),
       st.one_of(st.just(10_000_000), st.integers(1, 300)),
       st.one_of(st.none(), st.floats(0.05, 0.8)))
@example(("ball", 2), BALL, 1, 1, 1, 64, True, 10_000_000, None)
@example(("ball", 3), SPHERE, 2, 2, 2, 64, True, 10_000_000, 0.6)
@example(("box", 3), BALL, 2, 3, 2, 40, False, 23, None)
@example(("annulus", 3), BALL, 3, 0, 2, 64, False, 30, None)   # a refilled lane's cap
@example(("annulus", 2), SPHERE, 2, 4, 1, 64, False, 10_000_000, None)
@example(("punctured_ball", 3), BALL, 2, 5, 3, 64, True, 10_000_000, None)
@example(("difference", 2), BALL, 3, 6, 2, 50, False, 150, 0.3)
@example(("halfspaces", 2), SPHERE, 2, 7, 2, 64, True, 10_000_000, None)
@settings(max_examples=25, deadline=None)
def test_run_walks_matches_the_scalar_reference(key, kind, m, seed, lanes, prefetch,
                                                 shared, cap, stop_radius):
    # At eps 0.02 walks deep inside leap many steps per iteration, so caps
    # and ring stops fall inside would-be leaps; lanes and blocks vary too.
    # trace_walk shares no lane, block or leap code with the kernel.
    domain = SHAPES[key]
    cfg = WalkConfig(0.02, kind=kind, max_steps=cap)
    idx = np.arange(m) * 3 + seed % 991
    starts = _starts_inside(domain, m, seed)
    if shared:
        starts[:] = starts[0]
    ring = None if stop_radius is None else (np.mean(domain.bounding_box(), axis=0),
                                             stop_radius)
    with mock.patch.object(walk, "_LANES", lanes), \
            mock.patch.object(walk, "_PREFETCH_ROWS", prefetch):
        batch = run_walks(domain, starts[0] if shared else starts, cfg, seed, idx, ring=ring)
    for row in range(m):
        _, exit_point, steps, truncated = trace_walk(domain, starts[row], cfg, seed,
                                                     int(idx[row]), ring=ring)
        assert np.array_equal(batch.exit_points[row], exit_point)
        assert batch.steps[row] == steps
        assert batch.truncated[row] == truncated


def test_long_walks_leap(monkeypatch):
    # Regularity-probe shape: walks start next to the boundary at a small
    # eps, and once the short ones have exited, the long ones deep inside
    # take many steps per iteration.
    depths = []
    take = walk._StepDraws.take

    def spy(self, t, k=1):
        w = take(self, t, k)
        depths.append(w.shape[1])
        return w

    monkeypatch.setattr(walk._StepDraws, "take", spy)
    cfg = WalkConfig(0.01)
    batch = run_walks(DISK, (0.99, 0.0), cfg, 5, range(200))
    assert max(depths) >= 2
    # the longest walk alone takes more steps than the batch took iterations
    assert len(depths) < batch.steps.max()
