"""Per-layer metrics from one traced operation's span totals.

Layers are ballwalk's modules: cli (with reporting), analysis, estimator,
walk, stochastic, geometry, and oracle for the boundary data.  A metric whose
boundary the tracer could not resolve is left out rather than reported as 0.
"""

from __future__ import annotations

from tracer import CALLS, ENTRIES, ENTRY_SIZE, SAMPLERS, SELF_S, SIZE, SLOTS, TOTAL_S


def derive(totals: dict, tracer, wall: float, threads: int) -> dict[str, float]:
    """Metric name -> value for the boundaries ``tracer`` resolved."""

    def total(field, layer, name=None, suffix=None):
        return sum(row[field] for (lay, nm), row in totals.items()
                   if lay == layer and (name is None or nm in name)
                   and (suffix is None or nm.endswith(suffix)))

    def ratio(a, b):
        return a / b if b else None

    has = tracer.has
    sampler = any(has(f"ballwalk.walk.{n}") for n in SAMPLERS)
    kernel = has("ballwalk.estimator.run_walks") or has("ballwalk.analysis.run_walks")
    out: dict[str, float | None] = {}

    if sampler:
        samples = total(SIZE, "stochastic", SAMPLERS + ("sample_unit_ball",))
        self_s = total(SELF_S, "stochastic")
        out["stochastic.calls"] = total(ENTRIES, "stochastic")
        out["stochastic.self_s"] = self_s
        out["stochastic.samples_per_s"] = ratio(samples, self_s)

    if has("ballwalk.geometry.Domain._sd") and has("ballwalk.geometry.Domain._project"):
        sd_self = total(SELF_S, "geometry", suffix="._sd")
        project_self = total(SELF_S, "geometry", suffix="._project")
        points = (total(ENTRY_SIZE, "geometry", suffix="._sd")
                  + total(ENTRY_SIZE, "geometry", suffix="._project"))
        out["geometry.sd_calls"] = total(ENTRIES, "geometry", suffix="._sd")
        out["geometry.sd_self_s"] = sd_self
        out["geometry.project_self_s"] = project_self
        out["geometry.points_per_s"] = ratio(points, sd_self + project_self)

    if kernel:
        calls = total(CALLS, "walk")
        out["walk.calls"] = calls
        out["walk.self_s"] = total(SELF_S, "walk")
        if sampler:
            iters = total(CALLS, "stochastic", SAMPLERS)
            steps = total(SIZE, "stochastic", SAMPLERS)
            out["walk.lockstep_iters"] = iters
            out["walk.steps"] = steps
            out["walk.steps_per_s"] = ratio(steps, total(TOTAL_S, "walk"))
            out["walk.lane_occupancy"] = ratio(steps, total(SLOTS, "walk"))
            walks = total(SIZE, "stochastic", ("_stream_base",))
            if has("ballwalk.walk._stream_base") and calls and steps:
                # Mean lockstep iterations per kernel call over mean steps per walk.
                out["walk.tail_ratio"] = (iters / calls) / (steps / walks)

    if has("ballwalk.estimator._map_chunks"):
        out["estimator.chunks"] = total(CALLS, "estimator", ("chunk",))
        out["estimator.busy_frac"] = ratio(total(TOTAL_S, "estimator", ("chunk",)),
                                           wall * threads)
    out["estimator.self_s"] = total(SELF_S, "estimator")
    if has("ballwalk.oracle.HarmonicOracle.eval"):
        out["estimator.data_eval_s"] = total(TOTAL_S, "oracle")
    if has("ballwalk.analysis.estimate_regularity"):
        out["analysis.self_s"] = total(SELF_S, "analysis")
    if has("ballwalk.cli.main"):
        out["cli.self_s"] = total(SELF_S, "cli")
    return {k: v for k, v in out.items() if v is not None}
