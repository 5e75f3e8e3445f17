"""Command-line front end: experiment orchestration with deterministic reports.

Commands: solve, field, exitdist, regularity, escape, cone, check-mvp,
check-avg, irregularity.  Options come from flags and/or a flat JSON config
file (flags win), read by one coercer per key; unknown config keys are
rejected.  Exit codes: 0 success,
2 a statistical check failed its threshold, 1 operational error.  Reports
embed the resolved semantic configuration (execution-only keys such as
threads and output paths are excluded), so identical experiments give
byte-identical reports regardless of worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing

import numpy as np

from . import analysis, reporting
from .estimator import estimate_field, estimate_value, exit_sample
from .geometry import Domain, _count, parse_domain
from .oracle import PROBE_FUNCTIONS, parse_boundary_data, parse_oracle
from .walk import WalkConfig, trace_walk

COMMANDS = ("solve", "field", "exitdist", "regularity", "escape", "cone",
            "check-mvp", "check-avg", "irregularity")

_EXECUTION_KEYS = {"threads", "out", "trace"}

@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; equal configs give equal reports."""

    command: str
    domain: str | None = None
    data: str | None = None
    eps: float | None = None
    stop_tol: float | None = None
    max_steps: int = WalkConfig.max_steps
    walks: int = 10_000
    seed: int = 0
    threads: int = 1
    out: str | None = None
    format: str = "json"
    svg: bool = False
    trace: str | None = None
    x0: tuple[float, ...] | None = None
    y0: tuple[float, ...] | None = None
    grid: tuple[int, ...] | None = None
    delta: float | None = None
    delta_hat: float | None = None
    probes: int = 5
    n_outer: int = 16
    n_inner: int = 2000
    n_samples: int = 100_000
    distances: tuple[float, ...] | None = None
    u: str | None = None
    dim: int | None = None
    R: float | None = None
    threshold: float | None = None
    sigmas: float = 4.0


_FIELD_NAMES = {f.name for f in dataclasses.fields(RunConfig)}


def _int(value) -> int:
    """An int, refusing a boolean or a value that int() would change (2.7, not 2)."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not an integer")
    out = int(value)
    if not isinstance(value, str) and out != value:
        raise ValueError(f"{value!r} is not an integer")
    return out


def _float(value) -> float:
    """A float, refusing a boolean."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _bool(value) -> bool:
    """A JSON boolean, or the string true or false."""
    if isinstance(value, bool):
        return value
    if value in ("true", "false"):
        return value == "true"
    raise ValueError(f"{value!r} is not true or false")


def _tuple_of(kind):
    """Coerce a comma string or a list to a tuple of ``kind``."""
    def coerce(value) -> tuple:
        if isinstance(value, str):
            value = [p for p in value.split(",") if p.strip()]
        elif not isinstance(value, (list, tuple)):
            raise ValueError(f"{value!r} is not a list or a comma string")
        return tuple(kind(v) for v in value)
    return coerce


def _coercer(hint):
    """The coercer for a RunConfig field type: None is stripped from a union,
    tuple[T, ...] reads a comma string or a list, int and bool are exact,
    numbers refuse booleans, and any other type is its own."""
    if typing.get_origin(hint) is tuple:
        return _tuple_of(_coercer(typing.get_args(hint)[0]))
    members = [a for a in typing.get_args(hint) if a is not type(None)]
    if members:
        return _coercer(members[0])
    return {int: _int, float: _float, bool: _bool}.get(hint, hint)


_COERCERS = {name: _coercer(hint) for name, hint in typing.get_type_hints(RunConfig).items()}


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from a flat dict (e.g. a parsed JSON config file)."""
    return _resolve_config(dict(raw), {})


def _resolve_config(file_values: dict, flag_values: dict) -> RunConfig:
    for key in file_values:
        if key not in _FIELD_NAMES:
            raise ValueError(f"unknown config key {key!r}")
    merged = dict(file_values)
    merged.update(flag_values)
    command = merged.pop("command", None)
    if command not in COMMANDS:
        raise ValueError(f"command must be one of {', '.join(COMMANDS)}; got {command!r}")
    # (label, key, value): the label names the value's source in errors.
    items = [(key, key, value) for key, value in merged.items() if value is not None]
    env_seed = os.environ.get("BALLWALK_SEED")
    if merged.get("seed") is None and env_seed:
        items.append(("BALLWALK_SEED", "seed", env_seed))
    values: dict = {"command": command}
    for label, key, value in items:
        try:
            values[key] = _COERCERS[key](value)
        except (TypeError, ValueError, OverflowError) as e:
            raise ValueError(f"{label}={value!r}: {e}") from None
    config = RunConfig(**values)
    if config.format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {config.format!r}")
    _count(config.threads, "threads")
    return config


def emit_config(config: RunConfig) -> str:
    """Serialize a config as the flat JSON accepted back by config_from_dict."""
    payload = {k: v for k, v in dataclasses.asdict(config).items() if v is not None}
    return reporting.json_report(payload)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballwalk",
        description="Monte Carlo Dirichlet solver and boundary-regularity diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat JSON config file; flags override it")
        p.add_argument("--domain", help="domain expression, e.g. ball(0,0;1)")
        p.add_argument("--data", help="boundary data, e.g. coordinate(1) or quad(1,-1)")
        p.add_argument("--eps", help="step radius, in (0,1)")
        p.add_argument("--stop-tol", dest="stop_tol",
                       help="termination distance (default 1e-4 * diameter)")
        p.add_argument("--max-steps", dest="max_steps")
        p.add_argument("--walks", help="walks per estimate")
        p.add_argument("--seed", help="master seed (env BALLWALK_SEED as fallback)")
        p.add_argument("--threads")
        p.add_argument("--out", help="report file (default: stdout)")
        p.add_argument("--format", help="csv or json (default json)")
        p.add_argument("--x0", help="point, e.g. 0.3,0.4")
        p.add_argument("--y0", help="boundary point, e.g. 1,0")
        p.add_argument("--sigmas", help="threshold in standard errors (default 4)")
        if name == "solve":
            p.add_argument("--trace", help="write the first walk's trajectory CSV here")
        if name == "field":
            p.add_argument("--grid", help="cells per axis over the bounding box, e.g. 20,20")
            p.add_argument("--svg", action="store_true", default=None,
                           help="also write a heatmap next to --out (2-D only)")
        if name in ("regularity", "escape"):
            p.add_argument("--delta")
        if name == "regularity":
            p.add_argument("--delta-hat", dest="delta_hat")
            p.add_argument("--probes")
            p.add_argument("--threshold",
                           help="fail (exit 2) when min probe probability is below this")
        if name == "escape":
            p.add_argument("--R", help="exterior-cone ratio; enables the theta0 bound check")
        if name == "cone":
            p.add_argument("--dim")
            p.add_argument("--R")
        if name == "check-mvp":
            p.add_argument("--n-outer", dest="n_outer")
            p.add_argument("--n-inner", dest="n_inner")
        if name == "check-avg":
            p.add_argument("--u", help="test function: squared_norm, first_coord_quartic, "
                                       "or an oracle expression")
            p.add_argument("--n-samples", dest="n_samples")
        if name == "irregularity":
            p.add_argument("--distances", help="start distances from y0, e.g. 0.01,0.001")
    return parser


def parse_config(argv) -> RunConfig:
    """Parse CLI arguments plus optional --config file into a RunConfig."""
    args = vars(_build_parser().parse_args(argv))
    config_path = args.pop("config", None)
    flag_values = {k: v for k, v in args.items() if v is not None}
    file_values: dict = {}
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            try:
                file_values = json.load(fh)
            except json.JSONDecodeError as e:
                raise ValueError(
                    f"config file {config_path}: line {e.lineno}, column {e.colno}: {e.msg}")
        if not isinstance(file_values, dict):
            raise ValueError(f"config file {config_path} must hold a flat JSON object")
    return _resolve_config(file_values, flag_values)


def _require(config: RunConfig, *keys: str):
    for key in keys:
        if getattr(config, key) is None:
            raise ValueError(f"--{key.replace('_', '-')} is required for {config.command}")


def _semantic_config(config: RunConfig) -> dict:
    return {k: v for k, v in dataclasses.asdict(config).items()
            if k not in _EXECUTION_KEYS and v is not None}


def _comment_config(config: RunConfig) -> dict:
    """The semantic config as CSV comments, tuples joined by commas."""
    return {k: ",".join(map(reporting.format_value, v)) if isinstance(v, tuple) else v
            for k, v in _semantic_config(config).items()}


def _walk_config(config: RunConfig) -> WalkConfig:
    _require(config, "eps")
    return WalkConfig(epsilon=config.eps, stop_tolerance=config.stop_tol,
                      max_steps=config.max_steps)


def _domain(config: RunConfig) -> Domain:
    _require(config, "domain")
    return parse_domain(config.domain)


class _Report(typing.NamedTuple):
    """A command's outcome: JSON result, CSV header and rows, and checks."""

    result: object
    header: list[str]
    rows: typing.Iterable[list]
    checks: tuple[dict, ...] = ()


def _check(name: str, statistic: float, stderr: float, threshold: float, passed) -> dict:
    return {"name": name, "statistic": statistic, "stderr": stderr,
            "threshold": threshold, "passed": bool(passed)}


def _json_payload(config: RunConfig, result: object, checks: tuple[dict, ...]) -> str:
    payload = {"config": _semantic_config(config), "result": result}
    if checks:
        payload["checks"] = checks
    return reporting.json_report(payload)


def _run_solve(config: RunConfig) -> _Report:
    _require(config, "data", "x0")
    domain = _domain(config)
    wc = _walk_config(config)
    data = parse_boundary_data(config.data)
    est = estimate_value(domain, data, config.x0, wc, config.seed, config.walks,
                         threads=config.threads)
    if config.trace:
        path = trace_walk(domain, config.x0, wc, config.seed, 0)[0]
        with open(config.trace, "w", encoding="utf-8", newline="") as fh:
            fh.write(reporting.trace_csv(path))
    result = {"mean": est.mean, "stderr": est.stderr, "n": est.n,
              "ci95": list(est.ci95), "truncated_count": est.truncated_count}
    return _Report(result, ["mean", "stderr", "n", "truncated"],
                   [[est.mean, est.stderr, est.n, est.truncated_count]])


def _grid_points(domain: Domain, shape: tuple[int, ...]) -> np.ndarray:
    if len(shape) != domain.dim:
        raise ValueError(f"--grid needs {domain.dim} cell counts for this domain")
    for k in shape:
        _count(k, "grid cell count")
    lo, hi = domain.bounding_box()
    axes = [lo[i] + (np.arange(shape[i]) + 0.5) * (hi[i] - lo[i]) / shape[i]
            for i in range(len(shape))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _run_field(config: RunConfig) -> _Report:
    _require(config, "data", "grid")
    domain = _domain(config)
    wc = _walk_config(config)
    data = parse_boundary_data(config.data)
    points = _grid_points(domain, config.grid)
    if config.svg and domain.dim != 2:
        raise ValueError("--svg requires a 2-D domain")
    if config.svg and not config.out:
        raise ValueError("--svg requires --out to name the report file")
    field = estimate_field(domain, data, points, wc, config.seed, config.walks,
                           threads=config.threads)
    if config.svg:
        k1, k2 = config.grid
        cells = field.means.reshape(k1, k2).T
        svg_path = os.path.splitext(config.out)[0] + ".svg"
        with open(svg_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(reporting.svg_heatmap(cells))
    return _Report(field, *reporting.field_table(field))


def _run_exitdist(config: RunConfig) -> _Report:
    _require(config, "x0")
    domain = _domain(config)
    wc = _walk_config(config)
    batch = exit_sample(domain, config.x0, wc, config.seed, config.walks,
                        threads=config.threads)
    result = {"exit_points": batch.exit_points, "steps": batch.steps,
              "truncated": batch.truncated}
    header = [f"x{i + 1}" for i in range(domain.dim)] + ["steps", "truncated"]
    # A generator: the per-walk rows are built only for a CSV report.
    rows = ([*batch.exit_points[k], int(batch.steps[k]), int(batch.truncated[k])]
            for k in range(batch.exit_points.shape[0]))
    return _Report(result, header, rows)


def _run_regularity(config: RunConfig) -> _Report:
    _require(config, "y0", "delta", "delta_hat", "eps")
    domain = _domain(config)
    report = analysis.estimate_regularity(
        domain, config.y0, config.delta, config.delta_hat, _walk_config(config),
        config.probes, config.walks, config.seed, threads=config.threads)
    checks = ()
    if config.threshold is not None:
        checks = (_check("min_probe_probability", report.min_probability,
                         max(p.stderr for p in report.probes), config.threshold,
                         report.min_probability >= config.threshold),)
    conclusion = ("consistent with walk-regularity at the probed scales"
                  if all(c["passed"] for c in checks)
                  else "below the requested probability threshold")
    result = {"report": report, "min_probability": report.min_probability,
              "conclusion": conclusion}
    header = [f"x{i + 1}" for i in range(domain.dim)] + ["probability", "stderr", "n"]
    rows = [[*p.x0, p.probability, p.stderr, p.n] for p in report.probes]
    return _Report(result, header, rows, checks)


def _run_escape(config: RunConfig) -> _Report:
    _require(config, "y0", "delta", "x0", "eps")
    domain = _domain(config)
    bound = None if config.R is None else analysis.cone_bound_theta0(domain.dim, config.R)
    p, stderr = analysis.estimate_escape_probability(
        domain, config.y0, config.delta, config.x0, _walk_config(config), config.walks,
        config.seed, threads=config.threads)
    result = {"probability": p, "stderr": stderr}
    if bound is None:
        return _Report(result, ["probability", "stderr"], [[p, stderr]])
    check = _check("exterior_cone_escape_bound", p, stderr, bound,
                   p <= bound + config.sigmas * stderr)
    return _Report(result, ["probability", "stderr", "bound", "passed"],
                   [[p, stderr, bound, check["passed"]]], (check,))


def _run_cone(config: RunConfig) -> int:
    """theta0 always goes to stdout; --out also gets the JSON report, whatever
    --format says."""
    _require(config, "dim", "R")
    theta0 = analysis.cone_bound_theta0(config.dim, config.R)
    sys.stdout.write(f"{theta0!r}\n")
    if config.out:
        text = _json_payload(config, {"theta0": theta0}, ())
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0


def _residual_report(config: RunConfig, name: str, residual: float, stderr: float) -> _Report:
    """A residual gated at config.sigmas standard errors (plus 1e-12)."""
    threshold = config.sigmas * stderr + 1e-12
    check = _check(name, residual, stderr, threshold, abs(residual) <= threshold)
    return _Report({"residual": residual, "stderr": stderr},
                   ["residual", "stderr", "threshold", "passed"],
                   [[residual, stderr, threshold, check["passed"]]], (check,))


def _run_check_mvp(config: RunConfig) -> _Report:
    _require(config, "data", "x0")
    domain = _domain(config)
    wc = _walk_config(config)
    data = parse_boundary_data(config.data)
    residual, stderr = analysis.mean_value_residual(
        domain, data, config.x0, wc, config.n_outer, config.n_inner, config.seed,
        threads=config.threads)
    return _residual_report(config, "interior_mean_value_residual", residual, stderr)


def _run_check_avg(config: RunConfig) -> _Report:
    _require(config, "u", "x0", "eps")
    u = (PROBE_FUNCTIONS[config.u] if config.u in PROBE_FUNCTIONS
         else parse_oracle(config.u))
    lap = u.laplacian(np.asarray(config.x0, dtype=np.float64))
    residual, stderr = analysis.averaging_residual(
        u, float(lap), config.x0, config.eps, config.n_samples, config.seed)
    return _residual_report(config, "ball_averaging_residual", residual, stderr)


def _run_irregularity(config: RunConfig) -> _Report:
    _require(config, "y0", "distances", "eps")
    domain = _domain(config)
    table = analysis.irregularity_witness(
        domain, config.y0, [_walk_config(config)], config.distances, config.walks,
        config.seed, threads=config.threads)
    rows = [[r.epsilon, r.start_distance, r.mean, r.stderr, r.n, r.truncated_count]
            for r in table.rows]
    return _Report({"table": table},
                   ["epsilon", "distance", "mean", "stderr", "n", "truncated"], rows)


_RUNNERS = {"solve": _run_solve, "field": _run_field, "exitdist": _run_exitdist,
            "regularity": _run_regularity, "escape": _run_escape,
            "check-mvp": _run_check_mvp, "check-avg": _run_check_avg,
            "irregularity": _run_irregularity}


def run(config: RunConfig) -> int:
    """Execute a resolved config; returns the process exit code.

    Every command but cone returns a _Report, rendered here as CSV or JSON
    and written to --out or stdout; the exit code is 2 when a check failed.
    """
    if config.command == "cone":
        return _run_cone(config)
    report = _RUNNERS[config.command](config)
    if config.format == "csv":
        text = reporting.csv_table(report.header, report.rows,
                                   comments=_comment_config(config))
    else:
        text = _json_payload(config, report.result, report.checks)
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(c["passed"] for c in report.checks) else 2


def main(argv=None) -> int:
    try:
        return run(parse_config(argv))
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    except (ValueError, RuntimeError, OSError, NotImplementedError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
