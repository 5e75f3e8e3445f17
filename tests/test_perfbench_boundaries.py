"""The benchmark tracer's view of the program's module boundaries.

perfbench/tracer.py resolves the names one module looks up in another when
it is built, and every per-layer metric that needs a missing name is left
out.  A rename under src/ would therefore blank a metric silently; this
test pins the set of names the tracer cannot find.
"""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Names the tracer still lists that the program no longer has: the analysis
# module stopped fanning out and walking itself, and the CLI never calls the
# kernel directly.
STALE = [
    "ballwalk.analysis._map_chunks",
    "ballwalk.analysis.estimate_value",
    "ballwalk.analysis.run_stopped_walks",
    "ballwalk.analysis.run_walks",
    "ballwalk.cli.run_walks",
]


def test_the_tracer_finds_every_boundary_but_the_known_stale_ones(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    assert sorted(tracer.Tracer().absent) == STALE
