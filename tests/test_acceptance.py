"""Acceptance suite: one test per shipped claim, one PASS/FAIL line each.

Every statistical check uses a 4-standard-error budget plus, where the
estimator carries a known discretization bias, an explicit bias budget.
Seeds are fixed; all numbers here are reproducible bit for bit.
Run with `pytest tests/test_acceptance.py -v -s` for the detail lines.
"""
import json
import math
import time

import numpy as np

import ballwalk as bw

_SUITE_START = time.time()


def _report(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {label} ({detail})")
    assert ok, f"{label}: {detail}"


def test_criterion_1_oracle_agreement_on_the_disk():
    # harmonic x1^2 - x2^2 has the exact value -0.07 at (0.3, 0.4)
    disk = bw.Ball((0.0, 0.0), 1.0)
    data = bw.HarmonicQuadratic([[1.0, 0.0], [0.0, -1.0]])
    cfg = bw.WalkConfig(0.1, stop_tolerance=1e-4)
    t0 = time.time()
    est = bw.estimate_value(disk, data, (0.3, 0.4), cfg, 2026, 100_000, threads=1)
    elapsed = time.time() - t0
    budget = 4.0 * est.stderr + 0.01
    gap = abs(est.mean - (-0.07))
    _report(
        "criterion 1, oracle agreement",
        gap <= budget and elapsed < 10.0,
        f"mean={est.mean:.6f} gap={gap:.6f} budget={budget:.6f} t={elapsed:.1f}s",
    )


def test_criterion_2_epsilon_independence_on_the_square():
    square = bw.Box((0.0, 0.0), (1.0, 1.0))
    data = bw.HarmonicQuadratic([[1.0, 0.0], [0.0, -1.0]])
    sizes = {0.2: 30_000, 0.05: 30_000, 0.02: 20_000}
    ests = {
        eps: bw.estimate_value(square, data, (0.3, 0.4), bw.WalkConfig(eps), 2026, n)
        for eps, n in sizes.items()
    }
    bias_budget = 0.005
    worst = ""
    ok = True
    eps_list = list(ests)
    for i, ei in enumerate(eps_list):
        for ej in eps_list[i + 1:]:
            a, b = ests[ei], ests[ej]
            gap = abs(a.mean - b.mean)
            budget = 4.0 * math.hypot(a.stderr, b.stderr) + bias_budget
            if gap > budget:
                ok = False
            worst = max(worst, f"eps {ei}/{ej}: gap={gap:.5f} budget={budget:.5f}", key=len)
    means = {e: round(v.mean, 5) for e, v in ests.items()}
    _report("criterion 2, epsilon independence", ok, f"means={means} last={worst}")


def test_criterion_3_ball_and_sphere_walks_agree():
    ball = bw.Ball((0.0, 0.0, 0.0), 1.0)
    data = bw.Linear((1.0, -0.5, 2.0), 0.25)
    x0 = (0.2, 0.1, -0.3)
    truth = 0.2 - 0.05 - 0.6 + 0.25
    a = bw.estimate_value(ball, data, x0, bw.WalkConfig(0.1, kind=bw.BALL), 77, 20_000)
    b = bw.estimate_value(ball, data, x0, bw.WalkConfig(0.1, kind=bw.SPHERE), 78, 20_000)
    comb = math.hypot(a.stderr, b.stderr)
    ok = (
        abs(a.mean - b.mean) <= 4.0 * comb
        and abs(a.mean - truth) <= 4.0 * a.stderr
        and abs(b.mean - truth) <= 4.0 * b.stderr
    )
    _report(
        "criterion 3, ball vs sphere walk",
        ok,
        f"ball={a.mean:.5f} sphere={b.mean:.5f} truth={truth} comb={comb:.5f}",
    )


def test_criterion_4_averaging_principle():
    sq = bw.SquaredNorm()
    x = (0.3, -0.1)
    zs = []
    for eps in (0.2, 0.1):
        res, se = bw.averaging_residual(sq, sq.laplacian(x), x, eps, 100_000, 5)
        zs.append(res / se)
    quartic = bw.FirstCoordinateQuartic()
    ratios = []
    for eps in (0.2, 0.1, 0.05):
        res, _ = bw.averaging_residual(quartic, quartic.laplacian((0.0, 0.0)),
                                       (0.0, 0.0), eps, 100_000, 11)
        ratios.append(res / eps**2)
    ok = all(abs(z) < 4.0 for z in zs) and ratios[0] > ratios[1] > ratios[2]
    _report(
        "criterion 4, averaging principle",
        ok,
        f"|z|={[round(abs(z), 2) for z in zs]} ratios={[round(r, 5) for r in ratios]}",
    )


def test_criterion_5_exit_measure_of_the_sphere():
    n = 100_000
    stats = bw.exit_measure_stats(bw.Ball((0.0, 0.0, 0.0), 1.0), (0.0, 0.0, 0.0),
                                  0.3, 0.03, n, 11)
    dir_tol = 4.0 / math.sqrt(3 * n)
    # var of a squared sphere coordinate in R^3 is 4/45
    cov_tol = 4.0 * math.sqrt(4.0 / 45.0 / n)
    diag = np.diag(stats.direction_covariance)
    ok = (
        stats.radial_overshoot.max < 0.03
        and np.all(np.abs(stats.mean_direction) < dir_tol)
        and np.all(np.abs(diag - 1.0 / 3.0) < cov_tol)
    )
    _report(
        "criterion 5, exit measure",
        ok,
        f"overshoot_max={stats.radial_overshoot.max:.5f} "
        f"|mean_dir|={np.abs(stats.mean_direction).max():.5f}<{dir_tol:.5f} "
        f"diag_gap={np.abs(diag - 1/3).max():.5f}<{cov_tol:.5f}",
    )


def test_criterion_6_cone_bound():
    vals = {
        (3, 1.0): 8.0 / 9.0,
        (2, 1.0): math.log(3.0) / math.log(4.0),
        (1, 1.0): 2.0 / 3.0,
    }
    exact_ok = all(
        abs(bw.cone_bound_theta0(n, r) - want) <= 1e-12
        for (n, r), want in vals.items()
    )

    # a cone of half-angle 1.4 fits in the exterior of the unit ball at y0
    big_r = bw.cone_ratio(1.4)
    bound = bw.cone_bound_theta0(3, big_r)
    delta = 0.5
    delta_hat = delta / (4.0 + 2.0 * big_r)
    ball = bw.Ball((0.0, 0.0, 0.0), 1.0)
    x0 = (1.0 - 0.8 * delta_hat, 0.0, 0.0)
    p, se = bw.estimate_escape_probability(ball, (1.0, 0.0, 0.0), delta, x0,
                                           bw.WalkConfig(0.01), 4000, 314)
    escape_ok = p <= bound + 4.0 * se
    _report(
        "criterion 6, cone bound",
        exact_ok and escape_ok,
        f"theta0(3,1)={bw.cone_bound_theta0(3, 1.0)!r} "
        f"escape p={p:.4f} bound={bound:.4f} R={big_r:.1f}",
    )


def test_criterion_7_regularity_and_its_failure():
    # regular point: probes next to (1,0) on the disk exit nearby
    disk = bw.Ball((0.0, 0.0), 1.0)
    report = bw.estimate_regularity(disk, (1.0, 0.0), 0.3, 0.02, bw.WalkConfig(0.01), 5,
                                    2000, 5)
    regular_ok = report.min_probability >= 0.95

    # puncture: walks started next to it exit at the far circle instead.
    # The 1e-80 stop tolerance is only reachable where float resolution is
    # relative (near the puncture); the outer circle absorbs by rounding.
    punct = bw.PuncturedBall((0.0, 0.0), 1.0)
    deep = bw.WalkConfig(0.1, stop_tolerance=1e-80)
    table = bw.irregularity_witness(punct, (0.0, 0.0), [deep], [1e-2, 1e-3], 2000, 314)
    witness_ok = True
    rows = []
    for row in table.rows:
        # F(x) = |x - y0| has F(y0) = 0, yet estimates stay within noise of 1
        near_one = abs(row.mean - 1.0) <= 4.0 * row.stderr + 0.05
        gap = row.mean - 4.0 * row.stderr >= 0.9
        witness_ok = witness_ok and near_one and gap
        rows.append(round(row.mean, 4))
    _report(
        "criterion 7, regularity and its failure",
        regular_ok and witness_ok,
        f"regular_min={report.min_probability:.4f} witness_means={rows}",
    )


def test_criterion_8_martingale_and_comparison():
    disk = bw.Ball((0.0, 0.0), 1.0)
    stat = bw.martingale_check(disk, (0.5, 0.0), 0.3, 1_000_000, 7)

    # samplewise comparison: on the circle x1 <= 1, so sharing every exit
    # forces the ordering of the estimates, not just their expectations
    low = bw.estimate_value(disk, bw.Coordinate(1), (0.2, 0.1), bw.WalkConfig(0.15),
                            13, 5000)
    high = bw.estimate_value(disk, bw.Constant(1.0), (0.2, 0.1), bw.WalkConfig(0.15),
                             13, 5000)
    ps = []
    for delta in (0.3, 0.5, 0.7):
        p, _ = bw.estimate_escape_probability(disk, (1.0, 0.0), delta, (0.97, 0.0),
                                              bw.WalkConfig(0.02), 2000, 9)
        ps.append(p)
    ok = stat < 4.0 and low.mean <= high.mean and ps[0] >= ps[1] >= ps[2]
    _report(
        "criterion 8, martingale and comparison",
        ok,
        f"martingale_z={stat:.3f} coord_mean={low.mean:.4f}<=1 escape={ps}",
    )


def test_criterion_9_deterministic_reports_across_threads(tmp_path):
    from ballwalk.cli import main

    blobs = []
    for threads in ("1", "4", "16"):
        out = tmp_path / f"report_t{threads}.json"
        code = main([
            "solve", "--domain", "ball(0,0;1)", "--data", "quad(1,-1)",
            "--x0", "0.3,0.4", "--eps", "0.1", "--walks", "20000",
            "--seed", "2026", "--threads", threads, "--out", str(out),
        ])
        assert code == 0
        blobs.append(out.read_bytes())
    identical = blobs[0] == blobs[1] == blobs[2]
    mean = json.loads(blobs[0])["result"]["mean"]
    _report(
        "criterion 9, thread determinism",
        identical,
        f"3 reports, {len(blobs[0])} bytes each, mean={mean:.6f}",
    )


def test_criterion_9b_suite_runtime():
    elapsed = time.time() - _SUITE_START
    _report("criterion 9, suite runtime", elapsed < 300.0, f"{elapsed:.0f}s < 300s")
