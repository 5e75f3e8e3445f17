"""One rule for every count: walks, threads, probes, samples, steps, dimensions.

Each public count argument accepts an integral int, float or numpy integer
and refuses a boolean, a fraction, NaN, an infinity or a value below its
minimum with a ValueError that names the argument.
"""
import math
import pickle
import re

import numpy as np
import pytest

from ballwalk import (
    Ball,
    Constant,
    Coordinate,
    RngStream,
    WalkConfig,
    averaging_residual,
    cone_bound_theta0,
    estimate_escape_probability,
    estimate_field,
    estimate_regularity,
    estimate_value,
    exit_measure_stats,
    exit_sample,
    irregularity_witness,
    martingale_check,
    mean_value_residual,
    run_walks,
    sample_unit_ball,
    sample_unit_sphere,
)
from ballwalk.cli import config_from_dict
from ballwalk.oracle import PROBE_FUNCTIONS

DISK = Ball((0.0, 0.0), 1.0)
CFG = WalkConfig(0.3)
X0 = (0.2, 0.1)
Y0 = (1.0, 0.0)
SQUARED_NORM = PROBE_FUNCTIONS["squared_norm"]

# name -> (argument name in the error, minimum, call with the count set to v)
COUNTS = {
    "exit_sample.n_walks": ("n_walks", 1, lambda v: exit_sample(DISK, X0, CFG, 1, v)),
    "exit_sample.threads": ("threads", 1,
                            lambda v: exit_sample(DISK, X0, CFG, 1, 3, threads=v)),
    "exit_sample.stream_base": ("stream_base", 0,
                                lambda v: exit_sample(DISK, X0, CFG, 1, 3, stream_base=v)),
    "estimate_value.n_walks": ("n_walks", 2,
                               lambda v: estimate_value(DISK, Constant(1.0), X0, CFG, 1, v)),
    "estimate_value.threads": ("threads", 1, lambda v: estimate_value(
        DISK, Coordinate(1), X0, CFG, 1, 3, threads=v)),
    "estimate_value.stream_base": ("stream_base", 0, lambda v: estimate_value(
        DISK, Coordinate(1), X0, CFG, 1, 3, stream_base=v)),
    "estimate_field.n_walks": ("n_walks", 2, lambda v: estimate_field(
        DISK, Coordinate(1), [X0, (3.0, 0.0)], CFG, 1, v)),
    "estimate_field.threads": ("threads", 1, lambda v: estimate_field(
        DISK, Coordinate(1), [X0], CFG, 1, 3, threads=v)),
    "estimate_field.stream_base": ("stream_base", 0, lambda v: estimate_field(
        DISK, Coordinate(1), [X0], CFG, 1, 3, stream_base=v)),
    "estimate_regularity.probe_count": ("probe_count", 1, lambda v: estimate_regularity(
        DISK, Y0, 0.3, 0.02, WalkConfig(0.1), v, 3, 1)),
    "estimate_regularity.n_walks": ("n_walks", 2, lambda v: estimate_regularity(
        DISK, Y0, 0.3, 0.02, WalkConfig(0.1), 2, v, 1)),
    "estimate_regularity.threads": ("threads", 1, lambda v: estimate_regularity(
        DISK, Y0, 0.3, 0.02, WalkConfig(0.1), 2, 3, 1, threads=v)),
    "estimate_escape_probability.n_walks": ("n_walks", 2, lambda v: estimate_escape_probability(
        DISK, Y0, 0.5, (0.9, 0.0), WalkConfig(0.1), v, 1)),
    "estimate_escape_probability.threads": ("threads", 1,
                                            lambda v: estimate_escape_probability(
                                                DISK, Y0, 0.5, (0.9, 0.0), WalkConfig(0.1), 3, 1,
                                                threads=v)),
    "irregularity_witness.n_walks": ("n_walks", 2, lambda v: irregularity_witness(
        DISK, Y0, [WalkConfig(0.1)], [0.1], v, 1)),
    "mean_value_residual.n_outer": ("n_outer", 2, lambda v: mean_value_residual(
        DISK, Coordinate(1), X0, CFG, v, 3, 1)),
    "mean_value_residual.n_inner": ("n_inner", 2, lambda v: mean_value_residual(
        DISK, Coordinate(1), X0, CFG, 2, v, 1)),
    "averaging_residual.n_samples": ("n_samples", 2, lambda v: averaging_residual(
        SQUARED_NORM, 4.0, X0, 0.1, v, 1)),
    "exit_measure_stats.n": ("n", 2, lambda v: exit_measure_stats(DISK, (0.0, 0.0), 0.3,
                                                                  0.1, v, 1)),
    "martingale_check.n": ("n", 2, lambda v: martingale_check(DISK, X0, 0.1, v, 1)),
    "cone_bound_theta0.n_dim": ("n_dim", 1, lambda v: cone_bound_theta0(v, 1.0)),
    "WalkConfig.max_steps": ("max_steps", 1, lambda v: run_walks(
        DISK, (0.9, 0.0), WalkConfig(0.3, max_steps=v), 1, np.arange(4))),
    "Coordinate.index": ("coordinate index", 1,
                         lambda v: Coordinate(v).eval(np.array([[0.1, 0.2, 0.3]]))),
    "sample_unit_ball.count": ("count", 0, lambda v: sample_unit_ball(RngStream(1, 0), 2, v)),
    "sample_unit_sphere.count": ("count", 0,
                                 lambda v: sample_unit_sphere(RngStream(1, 0), 2, v)),
    "sample_unit_ball.dimension": ("dimension", 1,
                                   lambda v: sample_unit_ball(RngStream(1, 0), v, 2)),
    "sample_unit_sphere.dimension": ("dimension", 1,
                                     lambda v: sample_unit_sphere(RngStream(1, 0), v, 2)),
    "RngStream.uniforms.count": ("count", 0, lambda v: RngStream(1, 0).uniforms(v)),
    "RngStream.advanced.count": ("count", 0,
                                 lambda v: RngStream(1, 0).advanced(v).uniforms(2)),
    "cli.threads": ("threads", 1,
                    lambda v: config_from_dict({"command": "solve", "threads": v})),
}


@pytest.mark.parametrize("case", sorted(COUNTS))
def test_count_refuses_what_is_not_a_count(case):
    name, minimum, call = COUNTS[case]
    for bad in (True, 2.5, math.nan, math.inf, minimum - 1):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)}\b"):
            call(bad)


@pytest.mark.parametrize("case", sorted(COUNTS))
def test_integral_float_and_numpy_counts_equal_the_int(case):
    _, _, call = COUNTS[case]
    expected = pickle.dumps(call(3))
    assert pickle.dumps(call(3.0)) == expected
    assert pickle.dumps(call(np.int64(3))) == expected


def test_dimension_has_a_maximum():
    with pytest.raises(ValueError, match=r"dimension must be an integer in 1\.\.16, got 17"):
        sample_unit_ball(RngStream(0, 0), 17)
