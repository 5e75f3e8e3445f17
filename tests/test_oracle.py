"""Closed-form harmonic functions and the disk quadrature.

The finite-difference checks below are the ground truth for "harmonic":
a centered second-difference stencil applied at random interior points
must vanish to O(h^2) for every oracle the package ships.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballwalk import (
    BoundaryData,
    Constant,
    Coordinate,
    DistanceTo,
    FirstCoordinateQuartic,
    FundamentalSolution,
    HarmonicQuadratic,
    Linear,
    PoissonDisk,
    SquaredNorm,
    Tabulated,
    parse_oracle,
    radial_profile,
)
from ballwalk.oracle import MIN_POISSON_NODES, PROBE_FUNCTIONS


def _fd_laplacian(f, x, h=1e-3):
    total = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        total += f(x + e) + f(x - e) - 2.0 * f(x)
    return total / h**2


def test_linear_eval_and_laplacian():
    u = Linear((2.0, -1.0), 0.5)
    assert u.eval((1.0, 1.0)) == pytest.approx(1.5, abs=1e-15)
    pts = np.array([[0.0, 0.0], [1.0, 2.0]])
    np.testing.assert_allclose(u.eval(pts), [0.5, 0.5], atol=1e-15)
    assert u.laplacian((0.3, 0.3)) == 0.0


def test_quadratic_eval():
    u = HarmonicQuadratic([[1.0, 0.0], [0.0, -1.0]])
    assert u.eval((0.3, 0.4)) == pytest.approx(-0.07, abs=1e-16)
    v = HarmonicQuadratic([[0.0, 0.5], [0.5, 0.0]])
    assert v.eval((0.5, 0.5)) == pytest.approx(0.25, abs=1e-16)


def test_quadratic_validation():
    with pytest.raises(ValueError):
        HarmonicQuadratic([[1.0, 0.0], [0.0, 1.0]])  # trace 2, not harmonic
    with pytest.raises(ValueError):
        HarmonicQuadratic([[0.0, 1.0], [0.0, 0.0]])  # not symmetric
    with pytest.raises(ValueError):
        HarmonicQuadratic([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


def test_fundamental_solution():
    u = FundamentalSolution((2.0, 0.0))
    # planar fundamental solution is -log r up to orientation
    assert u.eval((1.0, 0.0)) == pytest.approx(radial_profile(1.0, 2), abs=1e-15)
    with pytest.raises(ValueError):
        u.eval((2.0, 0.0))
    w = FundamentalSolution((0.0, 0.0, 0.0))
    assert w.eval((0.0, 0.5, 0.0)) == pytest.approx(radial_profile(0.5, 3), abs=1e-14)


def test_radial_profile_values():
    assert radial_profile(1.0, 2) == 0.0
    assert radial_profile(np.e, 2) == pytest.approx(-1.0, rel=1e-15)
    assert radial_profile(0.5, 3) == pytest.approx(2.0, rel=1e-15)
    assert radial_profile(0.5, 4) == pytest.approx(4.0, rel=1e-15)
    assert radial_profile(0.5, 1) == -0.5
    np.testing.assert_allclose(radial_profile([1.0, 2.0], 3), [1.0, 0.5], rtol=1e-15)
    with pytest.raises(ValueError):
        radial_profile(0.0, 2)
    with pytest.raises(ValueError):
        radial_profile(-1.0, 3)


@pytest.mark.parametrize(
    "oracle,dim,tol",
    [
        (Linear((1.0, -2.0), 3.0), 2, 1e-8),
        (HarmonicQuadratic([[1.0, 0.0], [0.0, -1.0]]), 2, 1e-7),
        (HarmonicQuadratic([[0.5, 0.2, 0.0], [0.2, 0.25, 0.1], [0.0, 0.1, -0.75]]), 3, 1e-7),
        (FundamentalSolution((3.0, 0.0)), 2, 1e-3),
        (FundamentalSolution((3.0, 0.0, 0.0)), 3, 1e-3),
    ],
)
def test_oracles_are_harmonic_by_stencil(oracle, dim, tol):
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = rng.uniform(-0.8, 0.8, size=dim)
        z = _fd_laplacian(lambda p: float(oracle.eval(p)), x)
        assert abs(z) < tol


def test_probe_functions():
    sq = SquaredNorm()
    assert sq.eval((0.3, 0.4)) == pytest.approx(0.25, abs=1e-16)
    assert sq.laplacian((0.3, 0.4)) == 4.0  # 2 * dim
    assert sq.laplacian((1.0, 1.0, 1.0)) == 6.0
    q = FirstCoordinateQuartic()
    assert q.eval((0.5, 0.0)) == pytest.approx(0.0625, abs=1e-16)
    assert q.laplacian((0.5, 0.3)) == pytest.approx(3.0, abs=1e-15)  # 12 x1^2
    rng = np.random.default_rng(1)
    for probe in (sq, q):
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=3)
            fd = _fd_laplacian(lambda p: float(probe.eval(p)), x)
            assert fd == pytest.approx(probe.laplacian(x), abs=1e-5)
    assert set(PROBE_FUNCTIONS) == {"squared_norm", "first_coord_quartic"}
    assert all(isinstance(u, BoundaryData) for u in PROBE_FUNCTIONS.values())


# Every kind of boundary data, on 2-D points inside the unit disk.
_DATA = [
    Constant(1.5), Coordinate(2), DistanceTo((0.5, 0.0)),
    Tabulated([(0.0, 1.0), (1.0, 0.0), (-1.0, 0.0)], [1.0, 2.0, 3.0]),
    Linear((1.3, -0.7), 0.2), HarmonicQuadratic([[0.3, 0.5], [0.5, -0.3]]),
    FundamentalSolution((2.0, 0.0)), PoissonDisk(np.cos(np.arange(MIN_POISSON_NODES))),
    SquaredNorm(), FirstCoordinateQuartic(),
]


@pytest.mark.parametrize("data", _DATA, ids=lambda d: type(d).__name__)
def test_data_reads_a_point_as_a_batch_of_one(data):
    methods = [data.eval] + ([data.laplacian] if hasattr(data, "laplacian") else [])
    for x in np.random.default_rng(4).uniform(-0.7, 0.7, size=(200, 2)):
        for f in methods:
            one = f(x)
            assert type(one) is float
            assert np.float64(one).tobytes() == f(x[None, :])[0].tobytes()
    for f in methods:
        for bad in ((np.inf, 0.0), (0.0, np.nan), np.zeros((2, 3, 2))):
            with pytest.raises(ValueError):
                f(bad)


def _disk_samples(fn, m):
    theta = 2.0 * np.pi * np.arange(m) / m
    return fn(theta)


def test_poisson_disk_exact_for_low_harmonics():
    # boundary cos(k t) extends to r^k cos(k t); trapezoid aliasing is
    # below 1e-12 for r <= 0.5 at 64 nodes
    m = 64
    for k in (0, 1, 3):
        vals = _disk_samples(lambda t: np.cos(k * t), m)
        for r, phi in [(0.0, 0.0), (0.3, 1.1), (0.5, -2.0)]:
            x = (r * np.cos(phi), r * np.sin(phi))
            want = r**k * np.cos(k * phi)
            assert PoissonDisk(vals).eval(x) == pytest.approx(want, abs=1e-12)


def test_poisson_center_is_the_node_mean():
    vals = np.random.default_rng(9).uniform(-1.0, 1.0, 128)
    assert PoissonDisk(vals).eval((0.0, 0.0)) == pytest.approx(vals.mean(), abs=1e-14)


def test_poisson_node_doubling_agrees():
    fn = lambda t: np.cos(3 * t) - 0.5 * np.sin(7 * t) + 0.25
    for x in [(0.4, 0.1), (-0.2, 0.5), (0.0, 0.0)]:
        a = PoissonDisk(_disk_samples(fn, 64)).eval(x)
        b = PoissonDisk(_disk_samples(fn, 128)).eval(x)
        assert a == pytest.approx(b, abs=1e-10)


def test_poisson_refusals():
    disk = PoissonDisk(np.zeros(MIN_POISSON_NODES))
    with pytest.raises(ValueError):
        disk.eval((1.0, 0.0))
    with pytest.raises(ValueError):
        disk.eval((0.99999999, 0.0))
    with pytest.raises(ValueError):
        PoissonDisk(np.zeros(MIN_POISSON_NODES - 1))
    with pytest.raises(ValueError):
        disk.eval((0.1, 0.1, 0.1))


def test_poisson_disk_class_is_harmonic():
    disk = PoissonDisk(_disk_samples(lambda t: np.cos(2 * t) + 0.1 * np.sin(t), 256))
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4, size=2)
        assert abs(_fd_laplacian(lambda p: float(disk.eval(p)), x)) < 1e-5
    assert disk.laplacian((0.1, 0.2)) == 0.0
    assert isinstance(disk, BoundaryData)


@given(st.floats(0.01, 0.99), st.floats(0, 2 * np.pi))
@settings(max_examples=50)
def test_poisson_respects_bounds(r, phi):
    m = 64
    vals = _disk_samples(lambda t: np.sin(t) + 0.3 * np.cos(5 * t), m)
    x = (r * np.cos(phi), r * np.sin(phi))
    v = PoissonDisk(vals).eval(x)
    # positive weights whose discrete mass is 1 within 2 r^m / (1 - r^m), so
    # the sample range holds up to that defect (exact only in the continuum)
    slack = 2.0 * r**m / (1.0 - r**m) * np.max(np.abs(vals)) + 1e-9
    assert vals.min() - slack <= v <= vals.max() + slack


def test_parse_oracle_forms(tmp_path):
    u = parse_oracle("linear(1,0;2)")
    assert isinstance(u, Linear)
    assert u.eval((3.0, 5.0)) == pytest.approx(5.0, abs=1e-15)
    q = parse_oracle("quad(1,-1)")
    assert isinstance(q, HarmonicQuadratic)
    assert q.eval((0.3, 0.4)) == pytest.approx(-0.07, abs=1e-16)
    full = parse_oracle("quad(0,0.5;0.5,0)")
    assert full.eval((0.5, 0.5)) == pytest.approx(0.25, abs=1e-16)
    f = parse_oracle("fundamental(2,0)")
    assert isinstance(f, FundamentalSolution)
    np.testing.assert_array_equal(f.z0, [2.0, 0.0])

    csv = tmp_path / "circle.csv"
    theta = 2.0 * np.pi * np.arange(64) / 64
    np.savetxt(csv, np.cos(theta))
    disk = parse_oracle(f"poisson({csv})")
    assert isinstance(disk, PoissonDisk)
    assert disk.eval((0.5, 0.0)) == pytest.approx(0.5, abs=1e-10)


def test_parse_oracle_errors():
    with pytest.raises(ValueError):
        parse_oracle("linear()")
    with pytest.raises(ValueError):
        parse_oracle("mystery(1,2)")
    with pytest.raises(ValueError):
        parse_oracle("linear(1,0")
    with pytest.raises(ValueError):
        parse_oracle("quad(1,1)")  # not trace-free
    with pytest.raises(TypeError):
        parse_oracle(42)


def test_poisson_disk_and_its_eval_refuse_samples_alike():
    for bad, message in [(np.ones(63), "need at least 64 equispaced boundary samples"),
                         (np.ones((64, 2)), "need at least 64 equispaced boundary samples"),
                         (np.r_[np.ones(63), np.nan], "boundary samples must be finite")]:
        with pytest.raises(ValueError) as by_class:
            PoissonDisk(bad)
        assert str(by_class.value) == message
