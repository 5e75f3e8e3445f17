"""One expression grammar for domains, oracles and boundary data.

Every malformed expression raises DomainParseError at the column of the
offending token; a value refused by a constructor is reported at the column
of the call's name.
"""
import numpy as np
import pytest

from ballwalk import DomainParseError, parse_boundary_data, parse_domain, parse_oracle
from ballwalk.cli import main

PARSERS = {"domain": parse_domain, "oracle": parse_oracle, "data": parse_boundary_data}

# (parser, text, column, message fragment)
MALFORMED = [
    ("domain", "ball(0,0;1", 10, "unexpected end of input"),
    ("oracle", "linear(1,0;2", 12, "unexpected end of input"),
    ("data", "constant(1", 10, "unexpected end of input"),
    ("data", "tabulated(x.csv", 15, "unexpected end of input"),
    ("domain", "blob(0,0;1)", 0, "unknown shape 'blob'"),
    ("oracle", "mystery(1,2)", 0, "unknown oracle 'mystery'"),
    ("data", "  blob(1)", 2, "unknown oracle 'blob'"),
    ("domain", "ball(0,,0;1)", 7, "expected number, got ','"),
    ("oracle", "quad(1,,-1)", 7, "expected number, got ','"),
    ("data", "quad(1,,-1)", 7, "expected number, got ','"),
    ("data", "linear(1,0;;2)", 11, "expected number, got ';'"),
    ("domain", "ball(0,1.2.3;1)", 7, "bad number '1.2.3'"),
    ("oracle", "linear(1,0x1;2)", 9, "bad number '0x1'"),
    ("data", "constant(1_000)", 9, "bad number '1_000'"),
    ("data", "constant(-)", 9, "bad number '-'"),
    ("domain", "ball(0,0;1) x", 12, "unexpected trailing input 'x'"),
    ("oracle", "quad(1,-1))", 10, "unexpected trailing input ')'"),
    ("data", "constant(1);", 11, "unexpected trailing input ';'"),
    ("domain", "ball(0,0;1)$", 11, "unexpected character '$'"),
    ("data", "tabulated( )", 0, "needs a CSV path"),
    ("oracle", "poisson()", 0, "needs a CSV path"),
    ("data", "poisson()", 0, "needs a CSV path"),
    ("domain", "ball(0,0;-1)", 0, "radius must be positive"),
    ("domain", "annulus(0,0;-0.5,1)", 0, "annulus requires 0 <= r_inner < r_outer"),
    ("domain", "diff(ball(0,0;1), ball(0,0,0;1))", 0, "dimension mismatch"),
    ("domain", "diff(ball(0,0;1), box(0;1;2))", 18, "box expects 2 ';'-separated groups"),
    ("data", "constant(1,2)", 0, "constant expects one number"),
    ("domain", "", 0, "unexpected end of input"),
]


@pytest.mark.parametrize("parser, text, column, fragment", MALFORMED)
def test_malformed_expression_names_its_column(parser, text, column, fragment):
    with pytest.raises(DomainParseError) as info:
        PARSERS[parser](text)
    assert info.value.column == column
    assert str(info.value).startswith(f"column {column}: ")
    assert fragment in str(info.value)


# Every example of README's grammar section, with its repr before the three
# parsers shared one reader.
README_EXAMPLES = [
    ("domain", "ball(0,0;1)", "Ball(center=[0.0, 0.0], radius=1.0)"),
    ("domain", "box(0,0;1,1)", "Box(min_corner=[0.0, 0.0], max_corner=[1.0, 1.0])"),
    ("domain", "annulus(0,0;0.5,1)", "Annulus(center=[0.0, 0.0], r_inner=0.5, r_outer=1.0)"),
    ("domain", "annulus(0,0;0,1)", "Annulus(center=[0.0, 0.0], r_inner=0.0, r_outer=1.0)"),
    ("domain", "punctured_ball(0,0;1)", "PuncturedBall(center=[0.0, 0.0], radius=1.0)"),
    ("domain", "halfspaces(1,0,1;-1,0,0;0,1,1;0,-1,0)",
     "HalfspaceIntersection(4 halfspaces, dim=2)"),
    ("domain", "diff(box(0,0;1,1), ball(0.5,0.5;0.2))",
     "Difference(Box(min_corner=[0.0, 0.0], max_corner=[1.0, 1.0]), "
     "Ball(center=[0.5, 0.5], radius=0.2))"),
    ("domain", "ball(0,0,0;1)", "Ball(center=[0.0, 0.0, 0.0], radius=1.0)"),
    ("data", "constant(1)", "Constant(1.0)"),
    ("data", "constant(0)", "Constant(0.0)"),
    ("data", "coordinate(1)", "Coordinate(1)"),
    ("data", "distance_to(0.5,0)", "DistanceTo([0.5, 0.0])"),
    ("data", "quad(1,-1)", "HarmonicQuadratic([[1.0, 0.0], [0.0, -1.0]])"),
    ("data", "quad(0,0.5;0.5,0)", "HarmonicQuadratic([[0.0, 0.5], [0.5, 0.0]])"),
    ("data", "linear(1,0;2)", "Linear(a=[1.0, 0.0], b=2.0)"),
    ("data", "fundamental(2,0)", "FundamentalSolution(z0=[2.0, 0.0])"),
    ("oracle", "linear(1,0;2)", "Linear(a=[1.0, 0.0], b=2.0)"),
    ("oracle", "quad(1,-1)", "HarmonicQuadratic([[1.0, 0.0], [0.0, -1.0]])"),
    ("oracle", "quad(0,0.5;0.5,0)", "HarmonicQuadratic([[0.0, 0.5], [0.5, 0.0]])"),
    ("oracle", "fundamental(2,0)", "FundamentalSolution(z0=[2.0, 0.0])"),
]


@pytest.mark.parametrize("parser, text, expected", README_EXAMPLES)
def test_readme_examples_keep_their_repr(parser, text, expected):
    assert repr(PARSERS[parser](text)) == expected
    if parser == "oracle":     # an oracle is boundary data as it stands
        assert repr(parse_boundary_data(text)) == expected


def test_numbers_are_decimal_literals():
    assert repr(parse_domain(" ball( +.5 , 5. ; 1E+2 ) ")) == (
        "Ball(center=[0.5, 5.0], radius=100.0)")
    for parser in (parse_oracle, parse_boundary_data):
        assert repr(parser("linear(1e0,-0.;-2.5e-1)")) == "Linear(a=[1.0, -0.0], b=-0.25)"


def test_coordinate_index_follows_the_count_rule():
    assert repr(parse_boundary_data("coordinate(2.0)")) == "Coordinate(2)"
    with pytest.raises(DomainParseError,
                       match=r"^column 0: coordinate index must be an integer >= 1, got 2\.5"):
        parse_boundary_data("coordinate(2.5)")


@pytest.mark.parametrize("parser, text", [
    ("data", "constant(nan)"),
    ("domain", "ball(0,0;inf)"),
    ("domain", "ball(0,0;-inf)"),
    ("oracle", "linear(1,0;inf)"),
    ("data", "distance_to(nan,0)"),
])
def test_inf_and_nan_are_read_then_refused_as_not_finite(parser, text):
    with pytest.raises(DomainParseError, match=r"^column 0: .*finite"):
        PARSERS[parser](text)


def test_tabulated_and_poisson_read_a_raw_path(tmp_path):
    folder = tmp_path / "a (b), c; d"
    folder.mkdir()
    table = folder / "samples.csv"
    np.savetxt(table, [[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]], delimiter=",")
    data = parse_boundary_data(f" tabulated( {table} ) ")
    assert repr(data) == "Tabulated(2 samples, dim=2)"
    assert data.eval(np.array([0.0, 1.0])) == 3.0
    circle = folder / "circle.csv"
    np.savetxt(circle, np.ones(64))
    assert repr(parse_oracle(f"poisson({circle})")) == "PoissonDisk(64 samples)"
    assert repr(parse_boundary_data(f"poisson({circle})")) == "PoissonDisk(64 samples)"


def test_non_string_expression_is_a_type_error():
    for parser in PARSERS.values():
        with pytest.raises(TypeError):
            parser(42)


@pytest.mark.parametrize("argv", [
    ["solve", "--domain", "ball(0,0;1", "--data", "constant(1)"],
    ["solve", "--domain", "ball(0,0;1)", "--data", "quad(1,,-1)"],
    ["solve", "--domain", "ball(0,0;1)", "--data", "linear(1,0;2"],
    ["solve", "--domain", "ball(0,0;1)", "--data", "coordinate(2.5)"],
    ["check-avg", "--u", "linear(1,0"],
])
def test_cli_malformed_expression_exits_one_with_its_column(argv, capsys):
    assert main([*argv, "--x0", "0.3,0.4", "--eps", "0.1", "--walks", "10"]) == 1
    assert capsys.readouterr().err.startswith("error: column ")
