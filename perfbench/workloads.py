"""The benchmark's workloads: the CLI call each one times, and its checks.

Every workload is one ``ballwalk`` subcommand with fixed sizes.  Its inputs
are a pure function of the workload seed (probe_tail's are fixed, see
PROBE_SEED), and each report is checked against a closed form, or the
command's own threshold gate, before it counts.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Callable

DISK = "ball(0,0;1)"
VOID = "diff(box(0,0,0;1,1,1), ball(0.5,0.5,0.5;0.3))"

# Slack on top of 4 standard errors.  Walks stop within 1e-4 * diameter of
# the boundary (2e-4 on the disk, 1.7e-4 on the box) and the data's gradient
# is at most 2.5 there, so the stopping bias is below 1e-3.
BIAS_BUDGET = 0.01

# A probe's cost is its longest walk: the kernel steps until the last of its
# walks exits, and that walk's length is an extreme-value draw.  Measured on
# a 2-CPU machine, one probe of 8192 walks took 58k-106k lockstep iterations
# across seeds, and a run's median spread 21% (quartile distance over median)
# across five seeds, more than any bound a 40 s run could hold.  (The command
# ignores --max-steps, so the tail cannot be capped either.)  The probe
# workload therefore runs the same CLI seed whatever the workload seed; its
# spread is then the machine's alone.
PROBE_SEED = 0


@dataclasses.dataclass(frozen=True)
class Checked:
    ok: bool
    detail: str
    stderr_max: float | None = None


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]     # CLI seed -> arguments, less --threads
    warmup: list[str]                    # a tiny call of the same command
    check: Callable[[int, str], Checked]  # (exit code, report) -> verdict
    stderr_target: float                 # the accuracy tta_s is timed to
    fixed_seed: int | None = None        # CLI seed that overrides the workload seed


def _report(code: int, text: str) -> dict | None:
    if code != 0:
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def _check_solve(code: int, text: str) -> Checked:
    report = _report(code, text)
    if report is None:
        return Checked(False, f"exit code {code}")
    mean, stderr = report["result"]["mean"], report["result"]["stderr"]
    err = abs(mean + 0.07)   # u(0.3, 0.4) = 0.09 - 0.16
    ok = err <= 4.0 * stderr + BIAS_BUDGET
    return Checked(ok, f"|mean - u(x0)| = {err:.5f}, stderr {stderr:.5f}", stderr)


def _check_field(code: int, text: str) -> Checked:
    report = _report(code, text)
    if report is None:
        return Checked(False, f"exit code {code}")
    res = report["result"]
    skipped = set(res["skipped"])
    excess, stderr_max, interior = -math.inf, 0.0, 0
    for j, (x, y, z) in enumerate(res["points"]):
        if j in skipped:
            continue
        interior += 1
        mean, stderr = res["means"][j], res["stderrs"][j]
        err = abs(mean - (x * x - 0.5 * y * y - 0.5 * z * z))
        excess = max(excess, err - 4.0 * stderr)
        stderr_max = max(stderr_max, stderr)
    ok = interior == 56 and excess <= BIAS_BUDGET
    return Checked(ok, f"{interior} interior points, max |mean - u| - 4 stderr "
                       f"{excess:.5f}", stderr_max)


def _check_probe(code: int, text: str) -> Checked:
    report = _report(code, text)
    if report is None:
        return Checked(False, f"exit code {code}")
    passed = all(c["passed"] for c in report.get("checks", []))
    p = report["result"]["min_probability"]
    # A binomial stderr is 0 when every walk lands in (or out of) the target,
    # so accuracy here is the worst case over p, sqrt(1 / (4 n)).
    n = min(probe["n"] for probe in report["result"]["report"]["probes"])
    return Checked(passed, f"min probe probability {p:.4f} over {n} walks",
                   0.5 / math.sqrt(n))


def _solve_argv(seed: int, walks: int = 65_536) -> list[str]:
    return ["solve", "--domain", DISK, "--data", "quad(1,-1)", "--x0", "0.3,0.4",
            "--eps", "0.1", "--walks", str(walks), "--seed", str(seed)]


def _field_argv(seed: int, walks: int = 1000, grid: str = "4,4,4") -> list[str]:
    return ["field", "--domain", VOID, "--data", "quad(1,-0.5,-0.5)", "--grid", grid,
            "--eps", "0.1", "--walks", str(walks), "--seed", str(seed)]


def _probe_argv(seed: int) -> list[str]:
    return ["regularity", "--domain", DISK, "--y0", "1,0", "--delta", "0.3",
            "--delta-hat", "0.02", "--eps", "0.01", "--probes", "2", "--walks", "500",
            "--threshold", "0.95", "--seed", str(seed)]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="solve_disk",
            argv=_solve_argv,
            warmup=_solve_argv(0, walks=64),
            check=_check_solve,
            stderr_target=1e-3,
        ),
        Workload(
            name="probe_tail",
            argv=_probe_argv,
            # At eps 0.01 even 16 walks can take 10^4 steps; 0.1 keeps it tiny,
            # and 16 walks cannot meet the threshold gate, so it is left off.
            warmup=["regularity", "--domain", DISK, "--y0", "1,0", "--delta", "0.3",
                    "--delta-hat", "0.02", "--eps", "0.1", "--probes", "2",
                    "--walks", "16", "--seed", "0"],
            check=_check_probe,
            stderr_target=1e-3,
            fixed_seed=PROBE_SEED,
        ),
        Workload(
            name="field_void",
            argv=_field_argv,
            warmup=_field_argv(0, walks=16, grid="2,2,2"),
            check=_check_field,
            stderr_target=5e-3,
        ),
    )
}
