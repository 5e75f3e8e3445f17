"""Command-line behavior: exit codes, config round trips, deterministic reports."""
import dataclasses
import json

import pytest

from ballwalk import WalkConfig, estimator
from ballwalk.cli import RunConfig, config_from_dict, emit_config, main, parse_config

DISK_ARGS = ["--domain", "ball(0,0;1)", "--data", "coordinate(1)", "--x0", "0.3,0.4"]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_unknown_command_is_operational_error(capsys):
    assert main(["melt"]) == 1


def test_missing_required_flag(capsys):
    assert main(["solve", "--domain", "ball(0,0;1)", "--data", "constant(1)"]) == 1
    assert "is required for solve" in capsys.readouterr().err


def test_solve_json_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        ["solve", *DISK_ARGS, "--eps", "0.1", "--walks", "200", "--seed", "7",
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["seed"] == 7
    assert report["config"]["walks"] == 200
    assert "threads" not in report["config"]
    assert -1.0 <= report["result"]["mean"] <= 1.0
    assert report["result"]["n"] == 200


def test_reports_identical_across_threads(tmp_path):
    texts = []
    for threads in ("1", "4", "16"):
        out = tmp_path / f"t{threads}.json"
        assert main(
            ["solve", *DISK_ARGS, "--eps", "0.1", "--walks", "2000", "--seed", "3",
             "--threads", threads, "--out", str(out)]
        ) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "command": "solve", "domain": "ball(0,0;1)", "data": "constant(2)",
        "eps": 0.1, "walks": 500, "seed": 1, "x0": "0.1,0.1",
    }))
    out = tmp_path / "r.json"
    assert main(["solve", "--config", str(cfg), "--walks", "50", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["walks"] == 50
    assert report["result"]["mean"] == 2.0


def test_config_round_trip(tmp_path):
    cfg = parse_config(
        ["solve", *DISK_ARGS, "--eps", "0.15", "--walks", "60", "--seed", "9"]
    )
    path = tmp_path / "echo.json"
    path.write_text(emit_config(cfg))
    again = parse_config(["solve", "--config", str(path)])
    assert again == cfg


def test_config_from_dict_coerces_every_field():
    # Every RunConfig field set, scalars given as strings and tuples given as
    # comma strings or as JSON lists.
    expected = RunConfig(
        command="field", domain="ball(0,0;1)", data="coordinate(1)", eps=0.1,
        stop_tol=1e-5, max_steps=900, walks=50, seed=3, threads=2, out="f.csv",
        format="csv", svg=True, trace="t.csv", x0=(0.3, 0.4), y0=(1.0, 0.0), grid=(4, 5),
        delta=0.3, delta_hat=0.02, probes=2, n_outer=8, n_inner=100, n_samples=1000,
        distances=(0.1, 0.01), u="squared_norm", dim=3, R=1.5, threshold=0.9, sigmas=3.5)
    scalars = {f.name: str(getattr(expected, f.name)) for f in dataclasses.fields(RunConfig)
               if not isinstance(getattr(expected, f.name), (bool, tuple))}
    tuples = {"x0": "0.3,0.4", "y0": "1,0", "grid": "4,5", "distances": "0.1, 0.01,"}
    lists = {"x0": [0.3, 0.4], "y0": [1, 0], "grid": [4, 5], "distances": [0.1, 0.01]}
    for given in (tuples, lists):
        raw = {**scalars, "svg": True, **given}
        assert set(raw) == {f.name for f in dataclasses.fields(RunConfig)}
        config = config_from_dict(raw)
        assert config == expected
        assert type(config.grid[0]) is int and type(config.y0[0]) is float


def test_step_cap_default_is_the_walk_configs():
    assert config_from_dict({"command": "solve"}).max_steps == WalkConfig(0.1).max_steps


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"command": "solve", "bogus": 1}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "bogus" in capsys.readouterr().err
    with pytest.raises(ValueError):
        config_from_dict({"command": "solve", "bogus": 1})


def test_malformed_config_reports_position(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"command": "solve",,}')
    assert main(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_config_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    assert main(["solve", "--config", str(cfg)]) == 1


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("BALLWALK_SEED", "123")
    cfg = parse_config(["solve", *DISK_ARGS, "--eps", "0.1"])
    assert cfg.seed == 123
    # explicit flag wins over the environment
    cfg = parse_config(["solve", *DISK_ARGS, "--eps", "0.1", "--seed", "5"])
    assert cfg.seed == 5


def test_seed_env_value_error_names_the_variable(monkeypatch, capsys):
    monkeypatch.setenv("BALLWALK_SEED", "abc")
    assert main(["solve", *DISK_ARGS, "--eps", "0.1", "--walks", "10"]) == 1
    assert capsys.readouterr().err.startswith("error: BALLWALK_SEED='abc': ")


@pytest.mark.parametrize("flag, value", [("--walks", "2.5"), ("--threads", "0"),
                                         ("--eps", "fast"), ("--format", "xml")])
def test_bad_flag_value_names_its_key(flag, value, capsys):
    assert main(["solve", *DISK_ARGS, "--eps", "0.1", flag, value]) == 1
    key = flag[2:]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and value in err


@pytest.mark.parametrize("data", ["constant(nan)", "constant(inf)", "linear(1,0;nan)"])
def test_non_finite_boundary_data_is_refused(data, capsys):
    assert main(["solve", "--domain", "ball(0,0;1)", "--data", data, "--x0", "0.3,0.4",
                 "--eps", "0.1", "--walks", "10"]) == 1
    assert "finite" in capsys.readouterr().err


def test_bad_domain_expression(capsys):
    assert main(
        ["solve", "--domain", "ball(0,0;;1)", "--data", "constant(1)",
         "--eps", "0.1", "--x0", "0,0"]
    ) == 1
    assert "column" in capsys.readouterr().err


def test_bad_epsilon_value(capsys):
    assert main(["solve", *DISK_ARGS, "--eps", "1.5", "--walks", "10"]) == 1
    assert "epsilon" in capsys.readouterr().err


def test_cone_prints_the_bound(capsys):
    assert main(["cone", "--dim", "3", "--R", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 8.0 / 9.0) < 1e-12


def test_field_csv_and_svg(tmp_path):
    out = tmp_path / "field.csv"
    code = main(
        ["field", "--domain", "box(0,0;1,1)", "--data", "constant(1)",
         "--eps", "0.2", "--walks", "20", "--seed", "2", "--grid", "3,3",
         "--format", "csv", "--svg", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "x1,x2,mean,stderr,n,truncated"
    assert len([l for l in lines if not l.startswith("#")]) == 10  # header + 9 cells
    svg = (tmp_path / "field.svg").read_text()
    assert svg.count("<rect") == 9


@pytest.mark.parametrize("domain, grid, out, message", [
    ("box(0,0,0;1,1,1)", "3,3,3", True, "requires a 2-D domain"),
    ("box(0,0;1,1)", "3,3", False, "requires --out"),
])
def test_field_refuses_svg_before_any_walk(domain, grid, out, message, tmp_path,
                                           monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(estimator, "run_walks", lambda *a, **k: calls.append(a))
    argv = ["field", "--domain", domain, "--data", "constant(1)", "--eps", "0.2",
            "--walks", "20", "--grid", grid, "--svg"]
    if out:
        argv += ["--out", str(tmp_path / "field.json")]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("domain", ["annulus(0,0;0.5,1)", "ball(0,0;1)"])
def test_field_refuses_one_walk(domain, capsys):
    # the annulus's only grid point is in the hole, the disk's is interior
    code = main(["field", "--domain", domain, "--data", "constant(1)", "--eps", "0.2",
                 "--walks", "1", "--grid", "1,1"])
    assert code == 1
    assert "n_walks must be an integer >= 2" in capsys.readouterr().err


def test_exitdist_csv(tmp_path):
    out = tmp_path / "exits.csv"
    assert main(
        ["exitdist", *DISK_ARGS, "--eps", "0.2", "--walks", "30", "--seed", "1",
         "--format", "csv", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "x1,x2,steps,truncated"
    assert len([l for l in lines if not l.startswith("#")]) == 31


def test_solve_trace(tmp_path):
    trace = tmp_path / "walk.csv"
    assert main(
        ["solve", *DISK_ARGS, "--eps", "0.2", "--walks", "10", "--seed", "1",
         "--trace", str(trace), "--out", str(tmp_path / "r.json")]
    ) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,x1,x2"
    assert lines[1] == "0,0.3,0.4"


def test_check_mvp_constant_passes(capsys):
    code = main(
        ["check-mvp", "--domain", "ball(0,0;1)", "--data", "constant(3)",
         "--x0", "0.1,0.0", "--eps", "0.2", "--n-outer", "4", "--n-inner", "20",
         "--seed", "1", "--format", "csv"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "passed" in out and "true" in out


def test_check_avg_squared_norm(capsys):
    code = main(
        ["check-avg", "--u", "squared_norm", "--x0", "0.2,0.1", "--eps", "0.1",
         "--n-samples", "5000", "--seed", "3"]
    )
    assert code == 0


@pytest.mark.parametrize("eps, shown", [("inf", "inf"), ("1e200", "1e+200")])
def test_check_avg_refuses_an_eps_outside_the_unit_interval(eps, shown, capsys):
    assert main(["check-avg", "--u", "squared_norm", "--x0", "0.3,-0.1",
                 "--n-samples", "100", "--eps", eps]) == 1
    assert capsys.readouterr().err == f"error: epsilon must lie in (0, 1), got {shown}\n"


def test_regularity_threshold_gates_exit_code(tmp_path):
    base = ["regularity", "--domain", "ball(0,0;1)", "--y0", "1,0",
            "--delta", "0.3", "--delta-hat", "0.02", "--eps", "0.05",
            "--probes", "1", "--walks", "200", "--seed", "5"]
    assert main([*base, "--threshold", "0.5", "--out", str(tmp_path / "a.json")]) == 0
    # an unreachable threshold turns the same run into a failed check
    assert main([*base, "--threshold", "0.9999", "--out", str(tmp_path / "b.json")]) == 2


def test_regularity_honours_max_steps(tmp_path, capsys):
    base = ["regularity", "--domain", "ball(0,0;1)", "--y0", "1,0",
            "--delta", "0.3", "--delta-hat", "0.02", "--eps", "0.05",
            "--probes", "1", "--walks", "200", "--seed", "5"]
    # a cap of 2 steps truncates most walks, and the estimate is refused
    assert main([*base, "--max-steps", "2", "--out", str(tmp_path / "r.json")]) == 1
    assert "step cap" in capsys.readouterr().err


def test_escape_bound_check(tmp_path):
    out = tmp_path / "esc.json"
    code = main(
        ["escape", "--domain", "ball(0,0,0;1)", "--y0", "1,0,0", "--x0", "0.99,0,0",
         "--delta", "0.5", "--eps", "0.02", "--walks", "300", "--seed", "2",
         "--R", "67.7", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    check = report["checks"][0]
    assert check["passed"] is True
    assert check["threshold"] > check["statistic"]


def test_irregularity_rows(tmp_path):
    out = tmp_path / "irr.csv"
    assert main(
        ["irregularity", "--domain", "ball(0,0;1)", "--y0", "1,0",
         "--distances", "0.05,0.01", "--eps", "0.1", "--walks", "50",
         "--seed", "4", "--format", "csv", "--out", str(out)]
    ) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "epsilon,distance,mean,stderr,n,truncated"
    assert len(lines) == 3


@pytest.mark.parametrize("value, svg", [("false", False), ("true", True), (False, False),
                                        (True, True)])
def test_bool_config_values_are_read_exactly(value, svg):
    assert config_from_dict({"command": "field", "svg": value}).svg is svg


def test_integral_floats_are_ints():
    config = config_from_dict({"command": "field", "walks": 3.0, "grid": [4.0, "5"]})
    assert config.walks == 3 and type(config.walks) is int
    assert config.grid == (4, 5) and all(type(k) is int for k in config.grid)


@pytest.mark.parametrize("key, value", [
    ("svg", "yes"), ("svg", 0), ("svg", "False"), ("walks", 2.7), ("walks", "2.5"),
    ("walks", float("inf")), ("walks", float("nan")), ("grid", [4.5, 2]), ("x0", 5),
    ("y0", {"1": 0}), ("eps", "fast"), ("walks", True), ("sigmas", True),
    ("x0", [True, False]), ("grid", [True, 2]),
])
def test_config_value_is_read_exactly_or_refused(key, value):
    with pytest.raises(ValueError, match=key):
        config_from_dict({"command": "field", key: value})


def test_config_file_value_error_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "solve", "domain": "ball(0,0;1)",
                               "data": "constant(1)", "eps": 0.1, "x0": 5}))
    assert main(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "x0" in err


BOUNDARY = ["--domain", "ball(0,0;1)", "--y0", "1,0", "--eps", "0.1", "--walks", "20"]
ESCAPE = ["--domain", "ball(0,0,0;1)", "--y0", "1,0,0", "--x0", "0.99,0,0", "--delta", "0.5",
          "--eps", "0.05", "--walks", "20"]
REGULARITY = [*BOUNDARY, "--delta", "0.3", "--delta-hat", "0.02", "--probes", "2"]
# One small run per reported command (regularity and escape with and without
# their gate): arguments, CSV header, result keys, and whether it is gated.
REPORTED = {
    "solve": (["solve", *DISK_ARGS, "--eps", "0.2", "--walks", "20"],
              "mean,stderr,n,truncated", {"mean", "stderr", "n", "ci95", "truncated_count"},
              False),
    "field": (["field", "--domain", "box(0,0;1,1)", "--data", "constant(1)", "--eps", "0.2",
               "--walks", "5", "--grid", "2,2"], "x1,x2,mean,stderr,n,truncated",
              {"points", "means", "stderrs", "counts", "truncated", "skipped", "n_walks"},
              False),
    "exitdist": (["exitdist", *DISK_ARGS, "--eps", "0.2", "--walks", "5"],
                 "x1,x2,steps,truncated", {"exit_points", "steps", "truncated"}, False),
    "regularity": (["regularity", *REGULARITY], "x1,x2,probability,stderr,n",
                   {"report", "min_probability", "conclusion"}, False),
    "regularity-gated": (["regularity", *REGULARITY, "--threshold", "0.1"],
                         "x1,x2,probability,stderr,n",
                         {"report", "min_probability", "conclusion"}, True),
    "escape": (["escape", *ESCAPE], "probability,stderr", {"probability", "stderr"}, False),
    "escape-gated": (["escape", *ESCAPE, "--R", "67.7"], "probability,stderr,bound,passed",
                     {"probability", "stderr"}, True),
    "check-mvp": (["check-mvp", *DISK_ARGS, "--eps", "0.2", "--n-outer", "2",
                   "--n-inner", "10"], "residual,stderr,threshold,passed",
                  {"residual", "stderr"}, True),
    "check-avg": (["check-avg", "--u", "squared_norm", "--x0", "0.2,0.1", "--eps", "0.1",
                   "--n-samples", "500"], "residual,stderr,threshold,passed",
                  {"residual", "stderr"}, True),
    "irregularity": (["irregularity", *BOUNDARY, "--distances", "0.05,0.01"],
                     "epsilon,distance,mean,stderr,n,truncated", {"table"}, False),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(REPORTED))
def test_every_reported_command_in_both_formats(case, fmt, capsys):
    argv, header, result_keys, gated = REPORTED[case]
    assert main([*argv, "--seed", "3", "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "csv":
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == header and len(lines) > 1
        assert f"# command={argv[0]}" in out.splitlines()
    else:
        report = json.loads(out)
        assert set(report) == ({"config", "result", "checks"} if gated
                               else {"config", "result"})
        assert set(report["result"]) == result_keys
        assert all(c["passed"] is True for c in report.get("checks", []))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cone_prints_theta0_and_writes_json_in_either_format(fmt, tmp_path, capsys):
    out = tmp_path / "cone.out"
    assert main(["cone", "--dim", "3", "--R", "1", "--format", fmt, "--out", str(out)]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(8.0 / 9.0, abs=1e-12)
    report = json.loads(out.read_text())
    assert set(report) == {"config", "result"}
    assert report["result"] == {"theta0": pytest.approx(8.0 / 9.0, abs=1e-12)}


def test_escape_with_an_r_without_a_finite_bound_exits_one(capsys):
    assert main(["escape", *ESCAPE, "--R", "1e300"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: R = 1e+300")
