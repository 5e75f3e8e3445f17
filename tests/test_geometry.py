"""Shape primitives: signed distance, projection, parsing."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballwalk import (
    MAX_DIM,
    Annulus,
    Ball,
    Box,
    Cone,
    Difference,
    DomainParseError,
    HalfspaceIntersection,
    PuncturedBall,
    as_point,
    cone_parameters,
    parse_domain,
)

UNIT_SHAPES = [
    Ball((0.0, 0.0), 1.0),
    Box((0.0, 0.0), (1.0, 1.0)),
    Annulus((0.0, 0.0), 0.5, 1.0),
    PuncturedBall((0.0, 0.0), 1.0),
    HalfspaceIntersection([((1.0, 0.0), 1.0), ((-1.0, 0.0), 0.0), ((0.0, 1.0), 1.0), ((0.0, -1.0), 0.0)]),
    Difference(Ball((0.0, 0.0), 1.0), Ball((0.6, 0.0), 0.4)),
]


def test_as_point_basics():
    p = as_point([1.0, 2.0])
    assert p.shape == (2,) and p.dtype == np.float64
    assert not p.flags.writeable
    with pytest.raises(ValueError):
        as_point([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_point([])
    with pytest.raises(ValueError):
        as_point([float("nan"), 0.0])
    with pytest.raises(ValueError):
        as_point(list(range(MAX_DIM + 1)))


def test_ball_exact_values():
    b = Ball((0.0, 0.0), 1.0)
    assert b.dim == 2
    assert b.signed_distance((0.3, 0.4)) == pytest.approx(-0.5, abs=1e-15)
    assert b.signed_distance((2.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert b.contains((0.0, 0.0))
    assert not b.contains((1.0, 0.0))
    assert b.diameter() == 2.0
    lo, hi = b.bounding_box()
    assert np.array_equal(lo, [-1.0, -1.0]) and np.array_equal(hi, [1.0, 1.0])
    assert b.distance_to_boundary((0.3, 0.0)) == pytest.approx(0.7, abs=1e-15)
    with pytest.raises(ValueError):
        b.distance_to_boundary((2.0, 0.0))


def test_box_face_snap():
    box = Box((0.0, 0.0), (2.0, 1.0))
    p = box.nearest_boundary_point((0.3, 0.41))
    # nearest face coordinate is hit exactly, no rounding drift
    assert p[0] == 0.0 and p[1] == 0.41
    assert box.signed_distance((0.3, 0.41)) == pytest.approx(-0.3, abs=1e-15)
    q = box.nearest_boundary_point((2.5, 0.5))
    assert q[0] == 2.0 and q[1] == 0.5
    assert box.diameter() == pytest.approx(math.hypot(2.0, 1.0), abs=1e-15)


def test_annulus_two_sheets():
    ann = Annulus((0.0, 0.0), 0.5, 1.0)
    assert ann.signed_distance((0.6, 0.0)) == pytest.approx(-0.1, abs=1e-15)
    assert ann.signed_distance((0.9, 0.0)) == pytest.approx(-0.1, abs=1e-15)
    assert ann.signed_distance((0.2, 0.0)) == pytest.approx(0.3, abs=1e-15)
    inner = ann.nearest_boundary_point((0.55, 0.0))
    assert np.linalg.norm(inner) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        Annulus((0.0, 0.0), 1.0, 0.5)


def test_punctured_ball_projects_to_puncture():
    pb = PuncturedBall((0.0, 0.0), 1.0)
    assert np.array_equal(pb.nearest_boundary_point((0.1, 0.0)), [0.0, 0.0])
    assert pb.signed_distance((0.1, 0.0)) == pytest.approx(-0.1, abs=1e-15)
    # the puncture itself is boundary, not interior
    assert pb.signed_distance((0.0, 0.0)) == 0.0
    assert not pb.contains((0.0, 0.0))
    assert pb.contains((0.5, 0.0))


def test_halfspaces_match_box_inside():
    hs = UNIT_SHAPES[4]
    box = Box((0.0, 0.0), (1.0, 1.0))
    pts = np.random.default_rng(3).uniform(0.01, 0.99, size=(200, 2))
    np.testing.assert_allclose(
        hs.signed_distance(pts), box.signed_distance(pts), rtol=0, atol=1e-12
    )
    lo, hi = hs.bounding_box()
    np.testing.assert_allclose(lo, [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(hi, [1.0, 1.0], atol=1e-9)


def test_halfspaces_reject_degenerate():
    with pytest.raises(ValueError):
        # open in the +x direction
        HalfspaceIntersection([((-1.0, 0.0), 0.0), ((0.0, 1.0), 1.0), ((0.0, -1.0), 0.0)])
    with pytest.raises(ValueError):
        # x <= -1 and -x <= -1 is empty
        HalfspaceIntersection([((1.0, 0.0), -1.0), ((-1.0, 0.0), -1.0)])


def test_difference_matches_annulus():
    diff = Difference(Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 0.5))
    ann = Annulus((0.0, 0.0), 0.5, 1.0)
    pts = np.random.default_rng(7).uniform(-1.2, 1.2, size=(300, 2))
    np.testing.assert_array_equal(diff.signed_distance(pts), ann.signed_distance(pts))


@pytest.mark.parametrize("domain", UNIT_SHAPES, ids=lambda d: type(d).__name__)
def test_contains_matches_sign(domain):
    pts = np.random.default_rng(11).uniform(-1.3, 1.3, size=(500, 2))
    sd = domain.signed_distance(pts)
    inside = domain.contains(pts)
    assert np.array_equal(inside, sd < 0.0)


@pytest.mark.parametrize("domain", UNIT_SHAPES, ids=lambda d: type(d).__name__)
def test_projection_lands_on_boundary(domain):
    rng = np.random.default_rng(13)
    pts = rng.uniform(-1.3, 1.3, size=(400, 2))
    pts = pts[domain.contains(pts)]
    assert pts.shape[0] > 20
    proj = np.array([domain.nearest_boundary_point(p) for p in pts])
    sd = domain.signed_distance(proj)
    scale = domain.diameter()
    assert np.all(np.abs(sd) <= 1e-9 * scale)
    # never inside after projection, and the travelled distance agrees with sd
    assert not np.any(domain.contains(proj))
    gap = np.linalg.norm(proj - pts, axis=1) - domain.distance_to_boundary(pts)
    assert np.all(np.abs(gap) <= 1e-12 * scale)


@given(st.floats(-0.95, 0.95), st.floats(-0.95, 0.95))
@settings(max_examples=200)
def test_ball_projection_property(x, y):
    b = Ball((0.0, 0.0), 1.0)
    p = np.array([x, y])
    if not b.contains(p):
        return
    q = b.nearest_boundary_point(p)
    assert abs(np.linalg.norm(q) - 1.0) <= 1e-12
    assert not b.contains(q)


# Every shape's signed distance is 1-Lipschitz; run_walks leaps several steps
# at once on that bound.  The 3-D shapes have faces at irrational angles.
LIPSCHITZ_SHAPES = UNIT_SHAPES + [
    Annulus((0.1, 0.0, 0.0), 0.4, 1.0),
    PuncturedBall((0.0, 0.1, 0.0), 1.0),
    Difference(Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), Ball((0.5, 0.5, 0.5), 0.3)),
    HalfspaceIntersection([((a, 0.5 * b, 0.25 * c), 1.0) for a in (1.0, -1.0)
                           for b in (1.0, -1.0) for c in (1.0, -1.0)]),
]


@given(st.sampled_from(range(len(LIPSCHITZ_SHAPES))), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-12, 1e-6, 1e-3, 0.05, 0.5, 3.0]))
@settings(max_examples=60, deadline=None)
def test_signed_distance_is_1_lipschitz(j, seed, gap):
    domain = LIPSCHITZ_SHAPES[j]
    rng = np.random.default_rng(seed)
    lo, hi = domain.bounding_box()
    x = rng.uniform(lo - 0.5, hi + 0.5, size=(512, domain.dim))
    y = x + gap * rng.standard_normal(x.shape)
    bound = np.linalg.norm(x - y, axis=1) * (1.0 + 1e-12) + 1e-15
    assert np.all(np.abs(domain.signed_distance(x) - domain.signed_distance(y)) <= bound)


def test_cone_construction_and_ratio():
    cone = Cone((0.0, 0.0, 0.0), (0.0, 0.0, 2.0), 0.5, 1.5)
    assert cone.dim == 3
    assert np.allclose(cone.axis, [0.0, 0.0, 1.0])
    assert cone_parameters(cone) == pytest.approx(
        math.sin(0.5) / (1.0 - math.sin(0.5)), abs=1e-15
    )
    with pytest.raises(ValueError):
        Cone((0.0, 0.0), (0.0, 0.0), 0.5, 1.0)
    with pytest.raises(ValueError):
        Cone((0.0, 0.0), (1.0, 0.0), math.pi / 2.0, 1.0)
    with pytest.raises(ValueError):
        Cone((0.0, 0.0), (1.0, 0.0), 0.5, 0.0)
    # sin rounds to 1 this close to pi/2, so R = s / (1 - s) has no float value
    near_flat = Cone((0.0, 0.0), (1.0, 0.0), math.pi / 2.0 - 1e-9, 1.0)
    with pytest.raises(ValueError, match="too close to pi/2"):
        cone_parameters(near_flat)
    assert cone_parameters(Cone((0.0, 0.0), (1.0, 0.0), 1.57, 1.0)) > 1e6


def test_parse_domain_forms():
    assert isinstance(parse_domain("ball(0,0;1)"), Ball)
    assert isinstance(parse_domain("box(0,0;1,1)"), Box)
    assert isinstance(parse_domain("annulus(0,0;0.5,1)"), Annulus)
    assert isinstance(parse_domain("punctured_ball(0,0;1)"), PuncturedBall)
    assert isinstance(
        parse_domain("halfspaces(1,0,1;-1,0,0;0,1,1;0,-1,0)"), HalfspaceIntersection
    )
    d = parse_domain("diff(box(0,0;1,1), ball(0.5,0.5;0.2))")
    assert isinstance(d, Difference)
    assert d.contains((0.1, 0.1))
    assert not d.contains((0.5, 0.5))
    # whitespace tolerated
    assert isinstance(parse_domain("  ball( 0 , 0 ; 1 )  "), Ball)


def test_parse_domain_errors_carry_column():
    with pytest.raises(DomainParseError) as info:
        parse_domain("ball(0,0;1")
    assert info.value.column == 10
    assert str(info.value).startswith("column 10:")
    with pytest.raises(DomainParseError) as info:
        parse_domain("blob(0,0;1)")
    assert "blob" in str(info.value)
    with pytest.raises(DomainParseError):
        parse_domain("ball(0,x;1)")
    with pytest.raises(DomainParseError):
        parse_domain("")


def test_dimension_limits():
    with pytest.raises(ValueError):
        Ball(tuple(0.0 for _ in range(MAX_DIM + 1)), 1.0)
    b = Ball(tuple(0.0 for _ in range(MAX_DIM)), 1.0)
    assert b.dim == MAX_DIM


def test_validation_errors():
    with pytest.raises(ValueError):
        Ball((0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        Box((0.0, 1.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        PuncturedBall((0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        Difference(Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0, 0.0), 1.0))
