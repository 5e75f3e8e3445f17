"""Estimator invariants.

The two load-bearing properties here are exactness on constants and
bitwise invariance of the reduction under any thread count; everything
else is cross-checks against plain numpy statistics on the same exits.
"""
import hashlib
import math
import pickle
import re
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ballwalk
from ballwalk import analysis, cli, estimator, walk
from ballwalk import (
    Ball,
    Box,
    Constant,
    Coordinate,
    Difference,
    DistanceTo,
    Estimate,
    HalfspaceIntersection,
    HarmonicOracle,
    HarmonicQuadratic,
    Linear,
    PuncturedBall,
    Tabulated,
    WalkConfig,
    estimate_field,
    estimate_value,
    exit_sample,
    parse_boundary_data,
    run_walks,
)

DISK = Ball((0.0, 0.0), 1.0)
CFG = WalkConfig(0.2)


def test_boundary_data_eval():
    pts = np.array([[0.3, 0.4], [1.0, 0.0]])
    np.testing.assert_array_equal(Constant(5.0).eval(pts), [5.0, 5.0])
    np.testing.assert_array_equal(Coordinate(1).eval(pts), [0.3, 1.0])
    np.testing.assert_array_equal(Coordinate(2).eval(pts), [0.4, 0.0])
    np.testing.assert_allclose(DistanceTo((0.0, 0.0)).eval(pts), [0.5, 1.0], rtol=1e-15)
    trace = HarmonicQuadratic([[1.0, 0.0], [0.0, -1.0]])
    np.testing.assert_allclose(trace.eval(pts), [-0.07, 1.0], atol=1e-15)


def test_boundary_data_validation():
    with pytest.raises(ValueError):
        Coordinate(0)  # indices are 1-based
    pts = np.array([[0.1, 0.2]])
    with pytest.raises(ValueError):
        Coordinate(3).eval(pts)


def test_parse_boundary_data():
    assert isinstance(parse_boundary_data("constant(3)"), Constant)
    assert isinstance(parse_boundary_data("coordinate(2)"), Coordinate)
    assert isinstance(parse_boundary_data("distance_to(0,0)"), DistanceTo)
    fallback = parse_boundary_data("quad(1,-1)")
    assert isinstance(fallback, HarmonicOracle)
    assert issubclass(HarmonicOracle, ballwalk.BoundaryData)
    with pytest.raises(ValueError):
        parse_boundary_data("constant()")


def test_estimate_ci95():
    est = Estimate(1.0, 0.1, 400)
    lo, hi = est.ci95
    assert lo == pytest.approx(1.0 - 1.96 * 0.1, abs=1e-12)
    assert hi == pytest.approx(1.0 + 1.96 * 0.1, abs=1e-12)


def test_constant_data_is_exact():
    est = estimate_value(DISK, Constant(3.25), (0.1, -0.2), CFG, 7, 500)
    assert est.mean == 3.25
    assert est.stderr == 0.0
    assert est.n == 500
    assert est.truncated_count == 0


def test_needs_two_walks():
    with pytest.raises(ValueError):
        estimate_value(DISK, Constant(0.0), (0.0, 0.0), CFG, 0, 1)


def test_matches_plain_numpy_on_the_same_exits():
    n = 5000
    batch = exit_sample(DISK, (0.3, 0.1), CFG, 11, n)
    values = Coordinate(1).eval(batch.exit_points)
    est = estimate_value(DISK, Coordinate(1), (0.3, 0.1), CFG, 11, n)
    assert est.mean == pytest.approx(values.mean(), abs=1e-13)
    assert est.stderr == pytest.approx(values.std(ddof=1) / np.sqrt(n), rel=1e-10)
    assert est.n == n


def test_estimator_is_linear_in_the_data():
    args = (DISK, (0.25, -0.1), CFG, 13, 2000)
    coord = estimate_value(args[0], Coordinate(1), *args[1:])
    combo = estimate_value(args[0], Linear((2.0, 0.0), -0.5), *args[1:])
    assert combo.mean == pytest.approx(2.0 * coord.mean - 0.5, abs=1e-12)


def test_thread_count_never_changes_results():
    ref = estimate_value(DISK, Coordinate(2), (0.1, 0.2), CFG, 5, 3000, threads=1)
    for threads in (2, 4, 13):
        alt = estimate_value(DISK, Coordinate(2), (0.1, 0.2), CFG, 5, 3000, threads=threads)
        assert alt.mean == ref.mean
        assert alt.stderr == ref.stderr
        assert alt.n == ref.n


def test_stream_base_moves_the_sample():
    a = estimate_value(DISK, Coordinate(1), (0.0, 0.0), CFG, 5, 200, stream_base=0)
    b = estimate_value(DISK, Coordinate(1), (0.0, 0.0), CFG, 5, 200, stream_base=10**6)
    assert a.mean != b.mean


def test_mean_respects_data_bounds():
    est = estimate_value(DISK, Coordinate(1), (0.0, 0.0), CFG, 3, 500)
    assert -1.0 <= est.mean <= 1.0
    assert est.stderr > 0.0


def test_exit_sample_matches_run_walks_streams():
    from ballwalk import run_walks

    batch = exit_sample(DISK, (0.2, 0.2), CFG, 9, 300, stream_base=40)
    direct = run_walks(DISK, (0.2, 0.2), CFG, 9, range(40, 340))
    np.testing.assert_array_equal(batch.exit_points, direct.exit_points)
    np.testing.assert_array_equal(batch.steps, direct.steps)
    # exit_sample takes one start point: a one-row batch or a start per walk
    # is refused
    for starts in ([(0.2, 0.2)], np.zeros((300, 2))):
        with pytest.raises(ValueError, match=r"^got \d+ start points for 300 walks$"):
            exit_sample(DISK, starts, CFG, 9, 300)


def test_truncation_beyond_budget_raises():
    cfg = WalkConfig(0.05, max_steps=5)
    with pytest.raises(RuntimeError, match="step cap"):
        estimate_value(DISK, Constant(1.0), (0.0, 0.0), cfg, 0, 100)


def test_field_rows_match_estimate_value():
    pts = [(0.0, 0.0), (0.3, 0.2)]
    n = 400
    field = estimate_field(DISK, Coordinate(1), pts, CFG, 21, n)
    for j, x in enumerate(pts):
        direct = estimate_value(DISK, Coordinate(1), x, CFG, 21, n, stream_base=j * n)
        assert field.means[j] == direct.mean
        assert field.stderrs[j] == direct.stderr
        est = field.estimate_at(j)
        assert est is not None and est.mean == direct.mean
    assert field.skipped == ()
    assert field.n_walks == n
    # stream_base shifts every point's streams by the same amount
    shifted = estimate_field(DISK, Coordinate(1), pts, CFG, 21, n, stream_base=10**6)
    for j, x in enumerate(pts):
        direct = estimate_value(DISK, Coordinate(1), x, CFG, 21, n,
                                stream_base=10**6 + j * n)
        assert shifted.means[j] == direct.mean
        assert shifted.stderrs[j] == direct.stderr


def test_field_skips_exterior_points():
    pts = [(0.0, 0.0), (2.0, 0.0), (0.1, 0.1)]
    field = estimate_field(DISK, Constant(1.0), pts, CFG, 3, 50)
    assert field.skipped == (1,)
    assert np.isnan(field.means[1]) and np.isnan(field.stderrs[1])
    assert field.counts[1] == 0
    assert field.estimate_at(1) is None
    assert field.means[0] == 1.0 and field.means[2] == 1.0
    # a one-row batch keeps the (1,) shape, interior or not
    one = estimate_field(DISK, Constant(1.0), [(0.1, 0.1)], CFG, 3, 50)
    assert one.skipped == () and one.means.shape == (1,) and one.means[0] == 1.0
    out = estimate_field(DISK, Constant(1.0), [(2.0, 0.0)], CFG, 3, 50)
    assert out.skipped == (0,) and out.means.shape == (1,) and np.isnan(out.means[0])


def test_field_threads_invariant():
    pts = [(0.0, 0.0), (0.4, -0.3), (-0.2, 0.5)]
    a = estimate_field(DISK, Coordinate(2), pts, CFG, 17, 600, threads=1)
    b = estimate_field(DISK, Coordinate(2), pts, CFG, 17, 600, threads=4)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.stderrs, b.stderrs)


def test_field_needs_two_walks_before_any_point_runs():
    # Exterior points run no walks, so the check cannot wait for one.
    for pts in ([(2.0, 0.0)], [(2.0, 0.0), (0.1, 0.1)]):
        with pytest.raises(ValueError, match="n_walks must be an integer >= 2"):
            estimate_field(DISK, Constant(1.0), pts, CFG, 3, 1)


def test_walk_and_thread_counts_are_not_booleans():
    # True == 1, but a flag is not a count.
    with pytest.raises(ValueError, match="n_walks"):
        exit_sample(DISK, (0.0, 0.0), CFG, 0, True)
    with pytest.raises(ValueError, match="threads"):
        exit_sample(DISK, (0.0, 0.0), CFG, 0, 3, threads=True)
    with pytest.raises(ValueError, match="threads"):
        estimate_value(DISK, Constant(1.0), (0.0, 0.0), CFG, 0, 3, threads=True)


def test_spans_fold_chunks_in_order_at_any_thread_count(monkeypatch):
    # 257 walks are 7 chunks of 40, the last partial, run 25 lanes per kernel
    # call.  Threads 1, 2, 3, 4 and 7 cut them into spans of 7, 4 + 3,
    # 3 + 3 + 1, 2 + 2 + 2 + 1 and 1 x 7 chunks.  The seed is the first from
    # 18 up at which folding per 80-walk span rounds both mean and stderr
    # differently from folding per chunk (27 for the closed-form 2-D sampler),
    # so the fold order is visible in the bits.
    monkeypatch.setattr(estimator, "_CHUNK", 40)
    monkeypatch.setattr(walk, "_LANES", 25)
    n, x0, data = 257, (0.2, -0.1), Coordinate(1)
    threads = (1, 2, 3, 4, 7)
    assert [[hi - lo for lo, hi in estimator._spans(n, t)] for t in threads] == [
        [257], [160, 97], [120, 120, 17], [80, 80, 80, 17], [40] * 6 + [17]]
    estimates = [estimate_value(DISK, data, x0, CFG, 27, n, stream_base=11, threads=t)
                 for t in threads]
    samples = [exit_sample(DISK, x0, CFG, 27, n, stream_base=11, threads=t) for t in threads]
    assert all(est == estimates[0] for est in estimates[1:])
    for batch in samples[1:]:
        for field in ("exit_points", "steps", "truncated"):
            assert getattr(batch, field).tobytes() == getattr(samples[0], field).tobytes()
    # the same walks as one kernel call, with statistics folded per chunk
    whole = run_walks(DISK, x0, CFG, 27, np.arange(11, 11 + n))
    assert whole.exit_points.tobytes() == samples[0].exit_points.tobytes()
    values = data.eval(whole.exit_points)

    def fold(size):
        count, mean, m2 = estimator._merge_moments(
            [estimator._chunk_moments(values[lo:lo + size]) for lo in range(0, n, size)])
        return count, mean, math.sqrt(m2 / (count - 1) / count)

    assert (estimates[0].n, estimates[0].mean, estimates[0].stderr) == fold(40)
    # at this seed, folding per 80-walk span rounds both mean and stderr differently
    assert fold(80)[1] != fold(40)[1] and fold(80)[2] != fold(40)[2]


_AUX = estimator.AUX_STREAM_BASE


@given(st.one_of(st.integers(-2**70, 2**70), st.integers(-70, 70),
                 st.integers(_AUX - 70, _AUX + 70), st.integers(2**63 - 70, 2**63 + 70)),
       st.integers(0, 40), st.integers(1, 40))
@settings(max_examples=300)
def test_stream_range_stays_below_the_aux_block(base, lo, size):
    hi = lo + size
    if 0 <= base + lo and base + hi <= _AUX:
        first = estimator._check_streams(base + lo, size)
        assert type(first) is int and first == base + lo
    else:
        with pytest.raises(ValueError, match="AUX_STREAM_BASE"):
            estimator._check_streams(base + lo, size)


def test_stream_range_edges(monkeypatch):
    assert estimator._check_streams(_AUX - 5, 5) == _AUX - 5     # last stream _AUX - 1
    assert estimator._check_streams(np.int64(-3) + 3, 1) == 0
    for base, lo, hi in [(_AUX - 5, 0, 6), (-1, 0, 2), (2**63 - 1, 0, 1), (2**64, 0, 1)]:
        with pytest.raises(ValueError):
            estimator._check_streams(base + lo, hi - lo)
    assert _AUX == 2**60
    assert ballwalk.AUX_STREAM_BASE == analysis.AUX_STREAM_BASE == _AUX
    # estimators refuse such ranges before running a walk
    with pytest.raises(ValueError, match="AUX_STREAM_BASE"):
        estimate_value(DISK, Coordinate(1), (0.0, 0.0), CFG, 5, 10, stream_base=_AUX - 9)
    with pytest.raises(ValueError, match="AUX_STREAM_BASE"):
        exit_sample(DISK, (0.0, 0.0), CFG, 5, 10, stream_base=-1)
    # the whole range is checked before the first span or point runs
    calls = []
    monkeypatch.setattr(estimator, "run_walks", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="AUX_STREAM_BASE"):
        estimate_value(DISK, Coordinate(1), (0.0, 0.0), CFG, 5, 65536,
                       stream_base=_AUX - 20000, threads=2)
    with pytest.raises(ValueError, match="AUX_STREAM_BASE"):
        exit_sample(DISK, (0.0, 0.0), CFG, 5, 65536, stream_base=_AUX - 20000, threads=2)
    # point 2 of 3 holds streams _AUX - 30 + [40, 60)
    with pytest.raises(ValueError, match="AUX_STREAM_BASE"):
        estimate_field(DISK, Coordinate(1), [(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)], CFG, 5,
                       20, stream_base=_AUX - 30)
    assert calls == []


# ---------------------------------------------------------------------------
# packed spans: estimate_field runs small points whole in shared kernel calls


QUAD = HarmonicQuadratic([[1.0, 0.0], [0.0, -1.0]])


def _sha(obj) -> str:
    return hashlib.sha256(pickle.dumps(obj, protocol=4)).hexdigest()


# Point 2 is exterior.  With 40-walk chunks (80-walk spans), 30-walk points
# are packed two to a span; 70- and 100-walk points keep their own spans,
# cut into chunks of 40 + 30 and 40 + 40 + 20.
_FIELD_POINTS = [(0.0, 0.0), (0.3, 0.2), (2.0, 0.0), (-0.4, 0.1), (0.1, -0.5)]


def _pinned_field(n):
    return lambda threads: estimate_field(DISK, QUAD, _FIELD_POINTS, CFG, 19, n, stream_base=7,
                                          threads=threads)


# The benchmark's field_void domain: box(0,0,0;1,1,1) minus ball(0.5,0.5,0.5;0.3).
VOID = Difference(Box((0.0,) * 3, (1.0,) * 3), Ball((0.5,) * 3, 0.3))
_VOID_POINTS = [(0.1, 0.2, 0.3), (0.5, 0.5, 0.9), (0.9, 0.15, 0.6), (0.5, 0.5, 0.5)]


# Digests of the results, with the chunk size each was run at.  They were
# pinned from the per-point estimator that packing replaced, and re-pinned
# when the closed-form 2-D sampler replaced Box-Muller.  2-D bits are the
# same at every CPU dispatch level of a numpy build, but another build or C
# math library may round cos and sin differently (see the README's
# numerical contract), so they are checked only where a small walk batch
# reproduces its pinned digest too.
_CANARY = "2570b1fe248caf261fde6b2ac4fac898770a8bdaafe2a5fb71f1b492b645a52d"
_PINNED = {
    "field30": ("fe0ff17c4dfbe0166d8b28c98b9a4eab4ad4e6f58bf8a9ce7d74a1549bb4f0a3", 40,
                _pinned_field(30)),
    "field70": ("0862ae2e059c0e26c0909223b7418d9025b684a3af48c10200db59ba3858e01b", 40,
                _pinned_field(70)),
    "field100": ("21ea87dbc8e8d340298de06d1346ab35b0f0a0115eb9040ae571a10a4af379c9", 40,
                 _pinned_field(100)),
    "value": ("3a582af0276d1032156bf6558449aad654ae05eea29ffd827d7af776dd9abf51", 8192,
              lambda threads: estimate_value(DISK, QUAD, (0.3, 0.4), CFG, 23, 100_000,
                                             threads=threads)),
    "mean_value": ("577043b48a15d7d2fad6925d12272a9a840ed9df24c9754454a0153576597ec7", 8192,
                   lambda threads: analysis.mean_value_residual(
                       DISK, QUAD, (0.2, 0.1), WalkConfig(0.15), 16, 400, 3, threads=threads)),
    "witness": ("261a094e28b78bc6fdf987b5b8093bf952cc7d2fba8ddc6344f7080bd5b4f7f7", 8192,
                lambda threads: analysis.irregularity_witness(
                    DISK, (1.0, 0.0), [WalkConfig(0.1), WalkConfig(0.05)], [0.05, 0.01], 200, 3,
                    threads=threads)),
    # three probes of 30 walks, the points of one field of indicator data:
    # with 40-walk chunks, probes 0 and 1 share a packed span, probe 2 has
    # its own; pinned when the probes were one batch with a start per walk
    "regularity": ("81c3760aedf7a4231dad38792813db7313307ee9add597f45ed0df2ad8febb0d", 40,
                   lambda threads: analysis.estimate_regularity(
                       DISK, (1.0, 0.0), 0.5, 0.2, WalkConfig(0.2), 3, 30, 29,
                       threads=threads)),
    "escape": ("90cafa007b19792e313cbfe9d8725f17e0adf3dd17c6b332f7188a7aa24c31d0", 40,
               lambda threads: analysis.estimate_escape_probability(
                   DISK, (1.0, 0.0), 0.3, (0.8, 0.1), WalkConfig(0.2), 150, 31,
                   threads=threads)),
    # walks next to the puncture, whose projection lands on the center itself;
    # pinned before PuncturedBall became the annulus of inner radius 0
    "puncture": ("fef9179962af9c612ded8dda6f1d6a238949eb842254ed933aaa78e0ae48149a", 40,
                 lambda threads: analysis.irregularity_witness(
                     PuncturedBall((0.0, 0.0), 1.0), (0.0, 0.0),
                     [WalkConfig(0.1), WalkConfig(0.05)], [0.05, 0.01], 100, 3,
                     threads=threads)),
    # a field on the benchmark's box minus a ball, the last point in the hole
    "void_field": ("36effec5ac9d75d8c0e90782d4b06c8e58ee429e7c5d8830cb097d83161ca2c6", 40,
                   lambda threads: estimate_field(
                       VOID, HarmonicQuadratic(np.diag([1.0, -0.5, -0.5])), _VOID_POINTS,
                       WalkConfig(0.1), 37, 30, stream_base=11, threads=threads)),
}


# Walk batches on boxes, polytopes and VOID, with their ball and sphere walk
# digests: the non-round walk domains of test_walk.py, an octagon, a 5-D
# cube and VOID.  The thread count plays no part.  Pinned before box
# distances were computed column by column.
_NON_ROUND_WALKS = {
    "box3": (Box((-1.0, -0.5, -0.2), (0.5, 1.0, 0.8)),
             "cf923150576aa617b54c2bfbb7a5af140ed404a1808d060a85564c56e35a0f47",
             "d67df871449edf2ed04736c190e3cbc5d44917601c1e989c9f596209ee7204d2"),
    "octagon": (HalfspaceIntersection([((np.cos(a), np.sin(a)), 1.0)
                                       for a in 0.3 + 2.0 * np.pi * np.arange(8) / 8]),
                "8ae109edef9426fa434fa3fd0723accdb9d36e56be4befd83ac487c6bd24e867",
                "25f5485d37e5ceea3e8472bd85b80c1b4f703163e54ed457d675e1856737a443"),
    "octahedron": (HalfspaceIntersection([((a, 0.5 * b, 0.25 * c), 1.0) for a in (1.0, -1.0)
                                          for b in (1.0, -1.0) for c in (1.0, -1.0)]),
                   "857a8757433455cb60591468abb6467b1c4721cb70e9a54c60fd7e8844ae22d7",
                   "b7d7d2c2d03af7f537d5114a8cfb54d5c8290b8e2a2e66328c2ed1e848d96f2f"),
    "cube5": (HalfspaceIntersection([(row, 1.0) for row in np.vstack([np.eye(5), -np.eye(5)])]),
              "1e89529b6411d6bd0a277a13aea6127dc67c3d021dedf1db57f61c7c9f7986ea",
              "ce086bdcf9dae458cfd286d285bf474277a2150aa987fa7e41a05a313fd19014"),
    "void": (VOID,
             "5c5c29054b26d60984f2e7551b66cea80d1b53068df57eedeea518acb7d206fc",
             "52e8b5e0584e6988f209267642e1c5899e308b6b0c89c45f5efb96d68237e3b6"),
}
_PINNED.update({
    f"walks_{name}_{kind}": (digest, 8192, lambda threads, domain=domain, kind=kind: run_walks(
        domain, (0.1,) * domain.dim, WalkConfig(0.1, kind=kind), 29, range(300)))
    for name, (domain, *digests) in _NON_ROUND_WALKS.items()
    for kind, digest in zip(("ball", "sphere"), digests)
})


@pytest.mark.parametrize("name", list(_PINNED))
def test_outputs_keep_their_pinned_digests_at_any_thread_count(name, monkeypatch):
    canary = run_walks(DISK, (0.3, 0.2), CFG, 19, np.arange(7, 71))
    if _sha(canary) != _CANARY:
        pytest.skip("this numpy build gives other walk bits than the pinning machine")
    digest, chunk, run = _PINNED[name]
    monkeypatch.setattr(estimator, "_CHUNK", chunk)
    for threads in (1, 2, 3):
        assert _sha(run(threads)) == digest, threads


def _spy_kernel(monkeypatch, configs=None):
    """Replace the estimator's kernel by one that records (stream indices,
    start shape, thread) per call and returns every walk at its start, P
    starts (P, n) giving P equal groups of walks; given a list ``configs``,
    it also appends each call's WalkConfig to it."""
    calls = []

    def kernel(domain, x0, config, master_seed, stream_indices, **kwargs):
        if configs is not None:
            configs.append(config)
        idx = np.asarray(stream_indices)
        starts = np.asarray(x0, dtype=np.float64)
        calls.append((idx.tolist(), starts.shape, threading.get_ident()))
        starts = starts.reshape(-1, domain.dim)
        exits = np.repeat(starts, idx.size // len(starts), axis=0)
        return walk.WalkBatch(exits, np.ones(idx.size, dtype=np.int64),
                              np.zeros(idx.size, dtype=bool))

    monkeypatch.setattr(estimator, "run_walks", kernel)
    return calls


@pytest.mark.parametrize("kind", ["ball", "sphere"])
def test_diagnostics_pass_the_callers_walk_config_to_the_kernel(kind, monkeypatch):
    # Each of these runs is one kernel call per config, and every call gets
    # the very WalkConfig object the caller passed in, witness configs in order.
    first = WalkConfig(0.2, kind=kind)
    second = WalkConfig(0.1, stop_tolerance=1e-3, max_steps=500, kind=kind)
    runs = {
        "regularity": ([first], lambda: analysis.estimate_regularity(
            DISK, (1.0, 0.0), 0.3, 0.02, first, 3, 20, 5)),
        "escape": ([first], lambda: analysis.estimate_escape_probability(
            DISK, (1.0, 0.0), 0.3, (0.9, 0.0), first, 20, 5)),
        "witness": ([first, second], lambda: analysis.irregularity_witness(
            DISK, (1.0, 0.0), [first, second], [0.05, 0.01], 20, 5)),
        "mean_value": ([first], lambda: analysis.mean_value_residual(
            DISK, QUAD, (0.2, 0.1), first, 4, 20, 5)),
    }
    for name, (want, run) in runs.items():
        configs = []
        _spy_kernel(monkeypatch, configs)
        run()
        assert list(map(id, configs)) == list(map(id, want)), name


# Every public call that takes a walk config, each given a float where a
# WalkConfig belongs (the witness in the second entry of its list).  The
# escape call is one the closed-form shortcut would answer with (1.0, 0.0),
# and the field's only point is exterior, so it would walk nowhere.
_NOT_A_CONFIG = {
    "run_walks": lambda: run_walks(DISK, (0.0, 0.0), 0.1, 0, range(4)),
    "trace_walk": lambda: walk.trace_walk(DISK, (0.0, 0.0), 0.1, 0, 0),
    "exit_sample": lambda: exit_sample(DISK, (0.0, 0.0), 0.1, 0, 10),
    "estimate_value": lambda: estimate_value(DISK, Coordinate(1), (0.0, 0.0), 0.1, 0, 10),
    "estimate_field": lambda: estimate_field(DISK, Coordinate(1), [(2.0, 0.0)], 0.1, 0, 10),
    "mean_value_residual": lambda: analysis.mean_value_residual(
        DISK, QUAD, (0.2, 0.1), 0.1, 4, 20, 5),
    "estimate_regularity": lambda: analysis.estimate_regularity(
        DISK, (1.0, 0.0), 0.3, 0.02, 0.1, 3, 20, 5),
    "estimate_escape_probability": lambda: analysis.estimate_escape_probability(
        Ball((0, 0), 1), (1, 0), 0.05, (0.9, 0), 0.1, 10, 1),
    "irregularity_witness": lambda: analysis.irregularity_witness(
        DISK, (1.0, 0.0), [WalkConfig(0.05), 0.1], [0.05, 0.01], 20, 5),
    "irregularity_witness_bare_float": lambda: analysis.irregularity_witness(
        DISK, (1.0, 0.0), 0.1, [0.05], 20, 5),
    "irregularity_witness_bare_config": lambda: analysis.irregularity_witness(
        DISK, (1.0, 0.0), WalkConfig(0.1), [0.05], 20, 5),
}
# The witness takes a list of configs, and says so when given one bare.
_REFUSAL = {
    "irregularity_witness_bare_float": "configs must be a list of WalkConfig, got 0.1",
    "irregularity_witness_bare_config":
        "configs must be a list of WalkConfig, got WalkConfig(epsilon=0.1,",
}


@pytest.mark.parametrize("name", list(_NOT_A_CONFIG))
def test_walking_calls_refuse_a_config_that_is_not_a_walk_config(name, monkeypatch):
    calls = _spy_kernel(monkeypatch)
    message = _REFUSAL.get(name, "config must be a WalkConfig, got 0.1")
    with pytest.raises(TypeError, match=re.escape(message)):
        _NOT_A_CONFIG[name]()
    assert calls == []


def test_field_void_grid_packs_its_points_into_four_kernel_calls(monkeypatch):
    domain = ballwalk.parse_domain("diff(box(0,0,0;1,1,1), ball(0.5,0.5,0.5;0.3))")
    pts = cli._grid_points(domain, (4, 4, 4))
    inside = np.flatnonzero(domain.contains(pts))
    assert inside.size == 56
    calls = _spy_kernel(monkeypatch)
    field = estimate_field(domain, Coordinate(1), pts, WalkConfig(0.1), 5, 1000, threads=2)
    # 16 384 // 1000 = 16 points a span, each point's walks from its start
    # and on its own point's streams
    assert [shape for _, shape, _ in calls] == [(16, 3)] * 3 + [(8, 3)]
    assert [idx for idx, _, _ in calls] == [
        [s for j in inside[k:k + 16] for s in range(j * 1000, (j + 1) * 1000)]
        for k in (0, 16, 32, 48)]
    # packed spans run in order on the calling thread, whatever ``threads``
    assert {thread for _, _, thread in calls} == {threading.get_ident()}
    # every exit is its start, so each interior point averages its own x
    np.testing.assert_array_equal(field.means[inside], pts[inside, 0])
    assert field.counts[inside].tolist() == [1000] * 56


def test_one_large_point_runs_one_span_per_thread(monkeypatch):
    # 65 536 walks are 8 chunks: ceil(8 / threads) chunks a span
    main = threading.get_ident()
    for threads, sizes in [(1, [65536]), (2, [32768, 32768]), (3, [24576, 24576, 16384])]:
        calls = _spy_kernel(monkeypatch)
        est = estimate_value(DISK, Coordinate(1), (0.25, 0.0), CFG, 5, 65536, stream_base=3,
                             threads=threads)
        bounds = np.cumsum([0] + sizes).tolist()
        assert sorted(call[:2] for call in calls) == [
            (list(range(3 + lo, 3 + hi)), (1, 2)) for lo, hi in zip(bounds, bounds[1:])]
        assert (est.n, est.mean, est.stderr) == (65536, 0.25, 0.0)
        # one span runs on the calling thread, several on pool threads
        on_main = {thread == main for _, _, thread in calls}
        assert on_main == {threads == 1}, threads
        # exit_sample cuts its walks the same way
        calls.clear()
        exit_sample(DISK, (0.25, 0.0), CFG, 5, 65536, stream_base=3, threads=threads)
        assert sorted(len(idx) for idx, _, _ in calls) == sorted(sizes)
    # 300 000 walks are 37 chunks; a span holds at most _SPAN_CHUNKS of them
    calls = _spy_kernel(monkeypatch)
    estimate_value(DISK, Coordinate(1), (0.25, 0.0), CFG, 5, 300_000, threads=1)
    assert [len(idx) for idx, _, _ in calls] == [65536] * 4 + [37856]


def test_points_of_a_field_are_cut_no_finer_than_a_packed_span(monkeypatch):
    # Three points of two chunks at 2 threads: whole points, ceil(3 / 2) = 2
    # to a call, so one call runs points 0 and 1 and another point 2, where
    # one point alone would run in two one-chunk spans.
    calls = _spy_kernel(monkeypatch)
    pts = [(0.1, 0.0), (-0.3, 0.2), (0.0, 0.4)]
    field = estimate_field(DISK, Coordinate(1), pts, CFG, 5, 16384, threads=2)
    assert sorted(call[:2] for call in calls) == [
        (list(range(0, 32768)), (2, 2)), (list(range(32768, 49152)), (1, 2))]
    # every exit is its start: each point's parts stay its own
    np.testing.assert_allclose(field.means, np.array(pts)[:, 0], rtol=0, atol=1e-15)
    calls.clear()
    estimate_field(DISK, Coordinate(1), pts[:1], CFG, 5, 16384, threads=2)
    assert sorted(len(idx) for idx, _, _ in calls) == [8192, 8192]
    # regularity probes are the points of one field: each call gets one
    # start per probe, not one per walk
    calls.clear()
    analysis.estimate_regularity(DISK, (1.0, 0.0), 0.3, 0.02, CFG, 5, 10_000, 5)
    assert [(len(idx), shape) for idx, shape, _ in calls] == [(50_000, (5, 2))]


@given(st.integers(1, 200_000), st.integers(1, 64), st.integers(1, 3), st.integers(1, 9000))
@settings(max_examples=300, deadline=None)
def test_spans_tile_the_walks_in_chunk_aligned_spans(n, threads, least, chunk):
    with mock.patch.object(estimator, "_CHUNK", chunk):
        spans = estimator._spans(n, threads, least)
    cap = estimator._SPAN_CHUNKS * chunk
    sizes = [hi - lo for lo, hi in spans]
    # in order, end to end, none empty
    assert spans[0][0] == 0 and spans[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    assert all(lo < hi <= lo + cap and lo % chunk == 0 for lo, hi in spans)
    # equal spans but the last, each of at least ``least`` chunks
    assert len(set(sizes[:-1])) <= 1
    assert all(size >= least * chunk for size in sizes[:-1])
    # one span per thread at most, unless the cap binds
    assert len(spans) <= threads or sizes[0] == cap


def test_points_above_half_a_span_fan_out_as_before(monkeypatch):
    # Each interior point runs its own spans [0, 16384) and [16384, 20000)
    # from its one start, as when every point was its own estimate_value.
    calls = _spy_kernel(monkeypatch)
    pts = [(0.1, 0.0), (2.0, 0.0), (-0.3, 0.2)]
    estimate_field(DISK, Coordinate(1), pts, CFG, 5, 20_000, threads=2)
    spans = [(0, 16384), (16384, 20000), (40000, 56384), (56384, 60000)]
    assert sorted(call[:2] for call in calls) == [(list(range(lo, hi)), (1, 2))
                                                  for lo, hi in spans]
    # the spans run on pool threads
    assert threading.get_ident() not in {thread for _, _, thread in calls}


def _value(x0, n=10, cfg=CFG):
    return lambda: estimate_value(DISK, Coordinate(1), x0, cfg, 3, n)


def _field(points, n=10, cfg=CFG):
    return lambda: estimate_field(DISK, Coordinate(1), points, cfg, 3, n)


_CAPPED = WalkConfig(0.05, max_steps=5)
_TRUNCATED = "100 of 100 walks hit the step cap (> 0.1%); raise max_steps or epsilon"
# Each refusal as the per-point estimator gave it: type and whole message.
_REFUSALS = {
    "nan start": (_value((np.nan, 0.0)), ValueError, "coordinates must be finite"),
    "infinite start": (_value((np.inf, 0.0)), ValueError, "coordinates must be finite"),
    "nan point": (_field([(np.nan, 0.0)]), ValueError, "points must be finite"),
    "exterior start": (_value((2.0, 0.0)), ValueError,
                       "walks must start inside the open domain"),
    "boundary start": (_value((1.0, 0.0)), ValueError,
                       "walks must start inside the open domain"),
    "3-D start": (_value((0.1, 0.0, 0.0)), ValueError,
                  "dimension mismatch: domain is 2-dimensional, points have 3 coordinates"),
    "1-D start": (_value((0.1,)), ValueError,
                  "dimension mismatch: domain is 2-dimensional, points have 1 coordinates"),
    "3-D points": (_field([(0.1, 0.0, 0.0)]), ValueError,
                   "dimension mismatch: domain is 2-dimensional, points have 3 coordinates"),
    "two starts": (_value([(0.1, 0.0), (0.2, 0.0)]), ValueError,
                   "got 2 start points for 10 walks"),
    "one-row start": (_value([(0.1, 0.0)]), ValueError, "got 1 start points for 10 walks"),
    "nested start": (_value(np.zeros((1, 1, 2))), ValueError,
                     "expected a point (n,) or a batch (m, n), got shape (1, 1, 2)"),
    "empty points": (_field(np.zeros((0, 2))), ValueError, "points must be a (m, n) array"),
    "1-D points": (_field((0.1, 0.0)), ValueError, "points must be a (m, n) array"),
    "truncated value": (_value((0.0, 0.0), 100, _CAPPED), RuntimeError, _TRUNCATED),
    "truncated field": (_field([(0.0, 0.0), (0.1, 0.0)], 100, _CAPPED), RuntimeError,
                        _TRUNCATED),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_refusals_keep_their_type_and_message(case):
    call, kind, message = _REFUSALS[case]
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()


def test_estimate_value_takes_one_start_point():
    # A per-walk start array of n_walks rows is refused too: the estimate is
    # of one point's value.
    with pytest.raises(ValueError, match=r"^got 10 start points for 10 walks$"):
        _value([(0.1, 0.0)] * 10)()


# ---------------------------------------------------------------------------
# tietze extension


ANCHORS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
VALUES = np.array([2.0, -1.0, 0.5])


def test_tietze_exact_on_anchors():
    for p, v in zip(ANCHORS, VALUES):
        assert Tabulated(ANCHORS, VALUES).eval(p) == v


def test_tietze_vectorized():
    out = Tabulated(ANCHORS, VALUES).eval(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert out.shape == (2,)
    assert out[1] == 2.0


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=200)
def test_tietze_bounds(x, y):
    p = np.array([x, y])
    v = float(Tabulated(ANCHORS, VALUES).eval(p))
    d = np.linalg.norm(ANCHORS - p, axis=1)
    nearest_value = VALUES[np.argmin(d)]
    assert VALUES.min() - 1e-12 <= v <= nearest_value + 1e-12


def test_tabulated_uses_the_extension():
    data = Tabulated(ANCHORS, VALUES)
    pts = np.array([[0.2, -0.4], [0.0, 1.0]])
    # the Hausdorff formula off the anchors, the anchor's own value on one
    d = np.linalg.norm(pts[0] - ANCHORS, axis=1)
    expected = [min(VALUES + d / d.min() - 1.0), VALUES[2]]
    np.testing.assert_array_equal(data.eval(pts), expected)


def test_tabulated_in_estimate():
    # two anchors on the unit circle; the estimate must stay within range
    sq = Box((-1.0, -1.0), (1.0, 1.0))
    data = Tabulated(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 0.0]))
    est = estimate_value(sq, data, (0.0, 0.0), CFG, 2, 300)
    assert 0.0 <= est.mean <= 1.0


def test_tabulated_refuses_bad_anchors():
    for pts, vals, message in [
            (np.zeros(2), [1.0], "anchor points must be a (m, n) array"),
            (np.zeros((2, 2)), [1.0], "need one value per anchor point"),
            (np.array([[0.0, np.inf]]), [1.0], "anchors must be finite"),
            (np.zeros((1, 2)), [np.nan], "anchors must be finite")]:
        with pytest.raises(ValueError) as by_class:
            Tabulated(pts, vals)
        assert str(by_class.value) == message
