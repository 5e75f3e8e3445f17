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
    DistanceTo,
    Estimate,
    HarmonicQuadratic,
    HarmonicTrace,
    Linear,
    Tabulated,
    WalkConfig,
    estimate_field,
    estimate_value,
    exit_sample,
    parse_boundary_data,
    run_walks,
    tietze_extend,
)

DISK = Ball((0.0, 0.0), 1.0)
CFG = WalkConfig(0.2)


def test_boundary_data_eval():
    pts = np.array([[0.3, 0.4], [1.0, 0.0]])
    np.testing.assert_array_equal(Constant(5.0).eval(pts), [5.0, 5.0])
    np.testing.assert_array_equal(Coordinate(1).eval(pts), [0.3, 1.0])
    np.testing.assert_array_equal(Coordinate(2).eval(pts), [0.4, 0.0])
    np.testing.assert_allclose(DistanceTo((0.0, 0.0)).eval(pts), [0.5, 1.0], rtol=1e-15)
    trace = HarmonicTrace(HarmonicQuadratic([[1.0, 0.0], [0.0, -1.0]]))
    np.testing.assert_allclose(trace.eval(pts), [-0.07, 1.0], atol=1e-15)


def test_boundary_data_validation():
    with pytest.raises(ValueError):
        Coordinate(0)  # indices are 1-based
    with pytest.raises(TypeError):
        HarmonicTrace(lambda x: x)
    pts = np.array([[0.1, 0.2]])
    with pytest.raises(ValueError):
        Coordinate(3).eval(pts)


def test_parse_boundary_data():
    assert isinstance(parse_boundary_data("constant(3)"), Constant)
    assert isinstance(parse_boundary_data("coordinate(2)"), Coordinate)
    assert isinstance(parse_boundary_data("distance_to(0,0)"), DistanceTo)
    fallback = parse_boundary_data("quad(1,-1)")
    assert isinstance(fallback, HarmonicTrace)
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
    combo = estimate_value(args[0], HarmonicTrace(Linear((2.0, 0.0), -0.5)), *args[1:])
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
    # one start per walk, with a ring around another point
    starts = np.column_stack([np.linspace(-0.5, 0.5, 300), np.zeros(300)])
    ring = ((1.0, 0.0), 1.2)
    batch = exit_sample(DISK, starts, CFG, 9, 300, stream_base=40, ring=ring, threads=2)
    direct = run_walks(DISK, starts, CFG, 9, range(40, 340), ring=ring)
    np.testing.assert_array_equal(batch.exit_points, direct.exit_points)
    np.testing.assert_array_equal(batch.steps, direct.steps)
    with pytest.raises(ValueError):
        exit_sample(DISK, starts, CFG, 9, 299)


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
    # Spans of two 40-walk chunks, 25 lanes per kernel call; 257 walks leave
    # a partial last span and a partial last chunk.
    monkeypatch.setattr(estimator, "_CHUNK", 40)
    monkeypatch.setattr(walk, "_LANES", 25)
    n, x0, data = 257, (0.2, -0.1), Coordinate(1)
    estimates = [estimate_value(DISK, data, x0, CFG, 18, n, stream_base=11, threads=t)
                 for t in (1, 2, 3)]
    samples = [exit_sample(DISK, x0, CFG, 18, n, stream_base=11, threads=t) for t in (1, 2, 3)]
    assert estimates[0] == estimates[1] == estimates[2]
    for batch in samples[1:]:
        for field in ("exit_points", "steps", "truncated"):
            assert getattr(batch, field).tobytes() == getattr(samples[0], field).tobytes()
    # the same walks as one kernel call, with statistics folded per chunk
    whole = run_walks(DISK, x0, CFG, 18, np.arange(11, 11 + n))
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
        idx = estimator._stream_range(base, lo, hi)
        assert idx.dtype == np.uint64
        assert idx.tolist() == list(range(base + lo, base + hi))
    else:
        with pytest.raises(ValueError, match="AUX_STREAM_BASE"):
            estimator._stream_range(base, lo, hi)


def test_stream_range_edges(monkeypatch):
    assert estimator._stream_range(_AUX - 5, 0, 5)[-1] == _AUX - 1
    assert estimator._stream_range(np.int64(-3), 3, 4).tolist() == [0]
    for base, lo, hi in [(_AUX - 5, 0, 6), (-1, 0, 2), (2**63 - 1, 0, 1), (2**64, 0, 1)]:
        with pytest.raises(ValueError):
            estimator._stream_range(base, lo, hi)
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


QUAD = HarmonicTrace(HarmonicQuadratic([[1.0, 0.0], [0.0, -1.0]]))


def _sha(obj) -> str:
    return hashlib.sha256(pickle.dumps(obj, protocol=4)).hexdigest()


# Point 2 is exterior.  With 40-walk chunks (80-walk spans), 30-walk points
# are packed two to a span; 70- and 100-walk points keep their own spans,
# cut into chunks of 40 + 30 and 40 + 40 + 20.
_FIELD_POINTS = [(0.0, 0.0), (0.3, 0.2), (2.0, 0.0), (-0.4, 0.1), (0.1, -0.5)]


def _pinned_field(n):
    return lambda threads: estimate_field(DISK, QUAD, _FIELD_POINTS, CFG, 19, n, stream_base=7,
                                          threads=threads)


# Digests of the results of the per-point estimator that packing replaced,
# computed before the change, with the chunk size each was run at.  Bits
# depend on the numpy build and its CPU dispatch (see the README's numerical
# contract), so they are checked only where a small walk batch reproduces
# its pinned digest too.
_CANARY = "46e8a0c70573cd15e6f3407e00798fbf7c2e4b449d962df54ecd6c02ad8dca98"
_PINNED = {
    "field30": ("9483a7939a5145830594bb8af3d172989c02521c0b364d5b7812c263c34582bf", 40,
                _pinned_field(30)),
    "field70": ("9cf0577727bc2826a87e3f86ca0ef39728ea182e816fb710dfc55aaae46f7951", 40,
                _pinned_field(70)),
    "field100": ("91f1e76c45ccd2ed29f14ae58a404e7ce3fef0ea6be447422aab9ae46a0b21db", 40,
                 _pinned_field(100)),
    "value": ("0ef9a8d9bbd976271e5a171db7773106e3a72205c58ef6e312ac7a2ab98c1861", 8192,
              lambda threads: estimate_value(DISK, QUAD, (0.3, 0.4), CFG, 23, 100_000,
                                             threads=threads)),
    "mean_value": ("8d15fa00c84bdc3476f1f2bdf9adf9e158ac6277eb4d188bdba5faacb2a8f919", 8192,
                   lambda threads: analysis.mean_value_residual(
                       DISK, QUAD, (0.2, 0.1), WalkConfig(0.15), 16, 400, 3, threads=threads)),
    "witness": ("7484d4c8f42e2de5f28fdd49a4a2a55da6a33e2655448a452c4e55a02cc36d91", 8192,
                lambda threads: analysis.irregularity_witness(
                    DISK, (1.0, 0.0), [0.1, 0.05], [0.05, 0.01], 200, 3, threads=threads)),
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_outputs_keep_their_pinned_digests_at_any_thread_count(name, monkeypatch):
    canary = run_walks(DISK, (0.3, 0.2), CFG, 19, np.arange(7, 71))
    if _sha(canary) != _CANARY:
        pytest.skip("this numpy build or CPU gives other walk bits than the pinning machine")
    digest, chunk, run = _PINNED[name]
    monkeypatch.setattr(estimator, "_CHUNK", chunk)
    for threads in (1, 2, 3):
        assert _sha(run(threads)) == digest, threads


def _spy_kernel(monkeypatch):
    """Replace the estimator's kernel by one that records (stream indices,
    start shape, thread) per call and returns every walk at its start."""
    calls = []

    def kernel(domain, x0, config, master_seed, stream_indices, **kwargs):
        idx = np.asarray(stream_indices)
        starts = np.asarray(x0, dtype=np.float64)
        calls.append((idx.tolist(), starts.shape, threading.get_ident()))
        exits = np.broadcast_to(starts, (idx.size, domain.dim)).copy()
        return walk.WalkBatch(exits, np.ones(idx.size, dtype=np.int64),
                              np.zeros(idx.size, dtype=bool))

    monkeypatch.setattr(estimator, "run_walks", kernel)
    return calls


def test_field_void_grid_packs_its_points_into_four_kernel_calls(monkeypatch):
    domain = ballwalk.parse_domain("diff(box(0,0,0;1,1,1), ball(0.5,0.5,0.5;0.3))")
    pts = cli._grid_points(domain, (4, 4, 4))
    inside = np.flatnonzero(domain.contains(pts))
    assert inside.size == 56
    calls = _spy_kernel(monkeypatch)
    field = estimate_field(domain, Coordinate(1), pts, WalkConfig(0.1), 5, 1000, threads=2)
    # 16 384 // 1000 = 16 points a span, each walk from its own point's start
    # and on its own point's streams
    assert [shape for _, shape, _ in calls] == [(16000, 3)] * 3 + [(8000, 3)]
    assert [idx for idx, _, _ in calls] == [
        [s for j in inside[k:k + 16] for s in range(j * 1000, (j + 1) * 1000)]
        for k in (0, 16, 32, 48)]
    # packed spans run in order on the calling thread, whatever ``threads``
    assert {thread for _, _, thread in calls} == {threading.get_ident()}
    # every exit is its start, so each interior point averages its own x
    np.testing.assert_array_equal(field.means[inside], pts[inside, 0])
    assert field.counts[inside].tolist() == [1000] * 56


def test_one_large_point_keeps_spans_of_two_chunks(monkeypatch):
    calls = _spy_kernel(monkeypatch)
    est = estimate_value(DISK, Coordinate(1), (0.25, 0.0), CFG, 5, 65536, stream_base=3,
                         threads=2)
    assert sorted(call[:2] for call in calls) == [
        (list(range(3 + k * 16384, 3 + (k + 1) * 16384)), (2,)) for k in range(4)]
    assert (est.n, est.mean, est.stderr) == (65536, 0.25, 0.0)


def test_points_above_half_a_span_fan_out_as_before(monkeypatch):
    # Each interior point runs its own spans [0, 16384) and [16384, 20000)
    # from its shared start, as when every point was its own estimate_value.
    calls = _spy_kernel(monkeypatch)
    pts = [(0.1, 0.0), (2.0, 0.0), (-0.3, 0.2)]
    estimate_field(DISK, Coordinate(1), pts, CFG, 5, 20_000, threads=2)
    spans = [(0, 16384), (16384, 20000), (40000, 56384), (56384, 60000)]
    assert sorted(call[:2] for call in calls) == [(list(range(lo, hi)), (2,)) for lo, hi in spans]
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
        assert tietze_extend(ANCHORS, VALUES, p) == v


def test_tietze_vectorized():
    out = tietze_extend(ANCHORS, VALUES, np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert out.shape == (2,)
    assert out[1] == 2.0


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=200)
def test_tietze_bounds(x, y):
    p = np.array([x, y])
    v = float(tietze_extend(ANCHORS, VALUES, p))
    d = np.linalg.norm(ANCHORS - p, axis=1)
    nearest_value = VALUES[np.argmin(d)]
    assert VALUES.min() - 1e-12 <= v <= nearest_value + 1e-12


def test_tabulated_uses_the_extension():
    data = Tabulated(ANCHORS, VALUES)
    pts = np.array([[0.2, -0.4], [0.0, 1.0]])
    expected = tietze_extend(ANCHORS, VALUES, pts)
    np.testing.assert_array_equal(data.eval(pts), expected)


def test_tabulated_in_estimate():
    # two anchors on the unit circle; the estimate must stay within range
    sq = Box((-1.0, -1.0), (1.0, 1.0))
    data = Tabulated(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 0.0]))
    est = estimate_value(sq, data, (0.0, 0.0), CFG, 2, 300)
    assert 0.0 <= est.mean <= 1.0


def test_tabulated_and_tietze_extend_refuse_anchors_alike():
    for pts, vals in [(np.zeros(2), [1.0]), (np.zeros((2, 2)), [1.0]),
                      (np.array([[0.0, np.inf]]), [1.0]), (np.zeros((1, 2)), [np.nan])]:
        with pytest.raises(ValueError) as by_class:
            Tabulated(pts, vals)
        with pytest.raises(ValueError) as by_eval:
            tietze_extend(pts, vals, (0.1, 0.2))
        assert str(by_class.value) == str(by_eval.value)
