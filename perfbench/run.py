"""ballwalk benchmark: times CLI operations in-process and checks each report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The benchmark is a closed loop: one caller runs ``ballwalk.cli.main`` with
the workload's arguments, waits for the report, checks it and starts the next
call.  Calls run on min(2, CPUs) threads.

--trace 0 gives the end-to-end metrics.  Set-up (import, parse and one tiny
call) is timed in fresh interpreters; this process then does its own warm-up
call, untimed, and repeats the operation until the time is spent.  Peak RSS
is this process's, which is fresh for each workload.

--trace 1 gives the per-layer metrics.  It alternates untraced calls on 1
and on 2 threads (the thread scaling, and a check that both give the same
bytes), then runs one call with the boundary tracer installed.

A call fails when it exits non-zero, when its report fails the workload's
check, or when its bytes differ from the first report of the run.  The last
line of output is one JSON object: correct, attempted, failed and metrics.
--workload all runs every workload in both modes, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREADS = min(2, os.cpu_count() or 1)
SETUP_PROCESSES = 5
MIN_OPS = 2

from workloads import WORKLOADS  # noqa: E402


def _say(line: str) -> None:
    print(line, flush=True)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Caller:
    """The closed-loop caller: runs CLI calls in this process, keeps the tally."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                # Looked up on every call, so an installed tracer sees it.
                code = self.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        return code, buf.getvalue(), time.perf_counter() - t0

    def warmup(self) -> None:
        code, _, _ = self.call(self.workload.warmup + ["--threads", str(THREADS)])
        self.count(code == 0, f"warm-up call exited with {code}")

    def op(self, argv: list[str], label: str):
        """One checked operation; returns (wall seconds, verdict)."""
        code, text, wall = self.call(argv)
        verdict = self.workload.check(code, text)
        digest = _digest(text)
        if self.digest is None:
            self.digest = digest
        same = digest == self.digest
        self.count(verdict.ok and same,
                   f"{label}: {verdict.detail}" if same else
                   f"{label}: report {digest[:16]} differs from {self.digest[:16]}")
        _say(f"  {label}: {wall:.4f} s  {'ok' if verdict.ok and same else 'FAILED'}  "
             f"{verdict.detail}")
        return wall, verdict

    def count(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {why}", file=sys.stderr, flush=True)


def _setup_times(caller: Caller) -> list[float]:
    times = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
            + caller.workload.warmup + ["--threads", str(THREADS)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        try:
            row = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = proc.returncode == 0 and row["code"] == 0
        except (IndexError, json.JSONDecodeError, KeyError):
            ok = False
        caller.count(ok, f"set-up process: {proc.stderr.strip()[-300:]}")
        if ok:
            times.append(row["setup_s"])
    return times


def end_to_end(caller: Caller, argv: list[str], seconds: float) -> dict:
    setup = _setup_times(caller)
    _say(f"  set-up in {len(setup)} fresh processes: "
         + " ".join(f"{t:.4f}" for t in setup) + " s")
    caller.warmup()
    argv = argv + ["--threads", str(THREADS)]
    walls = []
    start = time.perf_counter()
    while True:
        wall, verdict = caller.op(argv, f"op {len(walls) + 1}")
        walls.append(wall)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_OPS and elapsed + statistics.median(walls) > seconds:
            break
    wall_s = statistics.median(walls)
    metrics = {"wall_s": wall_s,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    if verdict.stderr_max:
        metrics["tta_s"] = wall_s * (verdict.stderr_max / caller.workload.stderr_target) ** 2
    _say(f"  median of {len(walls)} operations")
    return metrics


def per_layer(caller: Caller, argv: list[str], seconds: float) -> dict:
    from tracer import Tracer
    from layers import derive

    tracer = Tracer()
    _say(f"  boundaries: {len(tracer.present)} resolved"
         + (f"; absent: {', '.join(tracer.absent)}" if tracer.absent else ""))
    caller.warmup()
    one = argv + ["--threads", "1"]
    many = argv + ["--threads", str(THREADS)]
    walls_many, walls_one = [], []
    start = time.perf_counter()
    while True:
        walls_many.append(caller.op(many, f"untraced {THREADS} threads")[0])
        walls_one.append(caller.op(one, "untraced 1 thread")[0])
        elapsed = time.perf_counter() - start
        pair = statistics.median(walls_many) + statistics.median(walls_one)
        if elapsed + pair + 1.5 * statistics.median(walls_many) > seconds:
            break
    tracer.install()
    try:
        traced_wall, _ = caller.op(many, f"traced {THREADS} threads")
    finally:
        tracer.remove()
    base = statistics.median(walls_many)
    metrics = derive(tracer.totals(), tracer, traced_wall, THREADS)
    metrics["estimator.scaling_2t"] = statistics.median(walls_one) / base
    metrics["trace.overhead_frac"] = traced_wall / base - 1.0
    return metrics


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    if not (SRC / "ballwalk" / "cli.py").is_file():
        print(f"error: no ballwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from ballwalk import cli
    if Path(cli.__file__).resolve().parent != SRC / "ballwalk":
        print(f"error: imported ballwalk from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]

    workload = WORKLOADS[name]
    caller = Caller(cli, workload)
    cli_seed = seed if workload.fixed_seed is None else workload.fixed_seed
    argv = workload.argv(cli_seed)
    _say(f"workload {name}  seed {seed}  cli seed {cli_seed}  threads {THREADS}  "
         f"trace {trace}")
    measure = per_layer if trace else end_to_end
    metrics = measure(caller, argv, seconds)
    _say(f"  report_sha256 {name} cli-seed {cli_seed} {caller.digest}")
    _say(f"  metric error_rate = {caller.failed / caller.attempted:.6g} ratio "
         f"({caller.failed} of {caller.attempted} calls failed)")
    out = {}
    for m in wanted:
        if m["name"] in metrics:
            value = float(metrics[m["name"]])
            out[m["name"]] = {"value": value, "unit": m["unit"]}
            _say(f"  metric {m['name']} = {value:.6g} {m['unit']}")
    result = {"correct": caller.failed == 0, "attempted": caller.attempted,
              "failed": caller.failed, "metrics": out}
    _say(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in a fresh process; one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            with subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
                lines = []
                for line in proc.stdout:
                    sys.stdout.write(line)
                    sys.stdout.flush()
                    lines.append(line)
            if proc.returncode != 0 or not lines:
                return proc.returncode or 1
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = value
    _say(f"all workloads: {summary['failed']} of {summary['attempted']} calls failed")
    _say(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
