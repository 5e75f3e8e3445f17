"""Span tracer for the calls that cross ballwalk's module boundaries.

A boundary is a name one module looks up in another module's namespace
(``ballwalk.estimator.run_walks`` is the walk kernel as the estimator sees
it), or a method of the shape and oracle classes.  ``Tracer.install`` rebinds
each boundary to a wrapper that records a span on a per-thread stack and
``Tracer.remove`` puts the originals back, so the program itself is never
edited.  Names are resolved when the tracer is built: a name a refactor has
removed is listed in ``absent`` and every metric that needs it is left out.

Spans are folded into per-thread totals as they close, so memory stays flat
on runs with hundreds of thousands of kernel iterations.  A span's self time
is its duration minus the part of it that its child spans cover; children
that ran on pool threads (the estimator's chunk fan-out) are merged as
intervals, so two overlapping chunks are not subtracted twice.
"""

from __future__ import annotations

import importlib
import threading
import time

# (module whose namespace holds the name, name, layer of the callee, sizer).
# The sizer says how many items the call handles; None means "one call".
FUNCTION_BOUNDARIES = (
    ("ballwalk.cli", "main", "cli", None),
    ("ballwalk.cli", "parse_domain", "geometry", None),
    ("ballwalk.cli", "parse_boundary_data", "estimator", None),
    ("ballwalk.cli", "estimate_value", "estimator", None),
    ("ballwalk.cli", "estimate_field", "estimator", None),
    ("ballwalk.cli", "exit_sample", "estimator", None),
    ("ballwalk.cli", "run_walks", "walk", None),
    # cli reaches analysis through the module object, so the name lives there.
    ("ballwalk.analysis", "estimate_regularity", "analysis", None),
    ("ballwalk.analysis", "exit_sample", "estimator", None),
    ("ballwalk.analysis", "estimate_value", "estimator", None),
    ("ballwalk.analysis", "_map_chunks", "estimator", "fanout"),
    ("ballwalk.analysis", "run_walks", "walk", None),
    ("ballwalk.analysis", "run_stopped_walks", "walk", None),
    ("ballwalk.analysis", "sample_unit_ball", "stochastic", "count"),
    ("ballwalk.estimator", "_map_chunks", "estimator", "fanout"),
    ("ballwalk.estimator", "run_walks", "walk", None),
    ("ballwalk.walk", "_stream_base", "stochastic", "arg1"),
    ("ballwalk.walk", "_unit_ball_from_base", "stochastic", "sampler"),
    ("ballwalk.walk", "_unit_sphere_from_base", "stochastic", "sampler"),
)

# (module, base class, methods, layer): every subclass that defines one of
# the methods itself is wrapped, so shapes added later are traced too.
METHOD_BOUNDARIES = (
    ("ballwalk.geometry", "Domain", ("_sd", "_project"), "geometry"),
    ("ballwalk.oracle", "HarmonicOracle", ("eval",), "oracle"),
)

# Aggregate fields per span key.
CALLS, ENTRIES, TOTAL_S, SELF_S, SIZE, ENTRY_SIZE, SLOTS = range(7)


def _length(x) -> int:
    """Items in a 1-D per-walk array (a scalar counts once)."""
    shape = getattr(x, "shape", ())
    return int(shape[0]) if shape else 1


def _points(x) -> int:
    """Rows of an (m, n) point batch (a single point counts once)."""
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


# How many items a call handles, from its arguments.  A sampler call made by
# the walk kernel draws one sample per live walk, so it is one lockstep
# iteration and its size is the number of walks stepped.
_SIZERS = {
    None: lambda args, kwargs: 1,
    "sampler": lambda args, kwargs: _length(args[0]),
    "arg1": lambda args, kwargs: _length(args[1]),
    "method": lambda args, kwargs: _points(args[1]),
    "count": lambda args, kwargs: int(args[2] if len(args) > 2 else kwargs.get("count") or 1),
}

SAMPLERS = tuple(name for _, name, _, kind in FUNCTION_BOUNDARIES if kind == "sampler")


class _Frame:
    __slots__ = ("key", "layer", "parent", "tid", "t0", "child", "remote", "iters",
                 "width")

    def __init__(self, key, layer, parent, tid):
        self.key = key
        self.layer = layer
        self.parent = parent
        self.tid = tid
        self.child = 0.0
        self.remote = None
        self.iters = 0
        self.width = 0


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    """Resolves the boundaries once; install/remove may be repeated."""

    def __init__(self):
        self.present: list[str] = []
        self.absent: list[str] = []
        self._bindings = []   # (owner, attribute, original, wrapper)
        for modname, name, layer, kind in FUNCTION_BOUNDARIES:
            label = f"{modname}.{name}"
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.absent.append(label)
                continue
            orig = getattr(mod, name, None)
            if not callable(orig):
                self.absent.append(label)
                continue
            self.present.append(label)
            wrap = self._wrap_fanout if kind == "fanout" else self._wrap
            self._bindings.append((mod, name, orig, wrap(orig, layer, name, kind)))
        for modname, basename, methods, layer in METHOD_BOUNDARIES:
            try:
                base = getattr(importlib.import_module(modname), basename)
            except (ImportError, AttributeError):
                self.absent.extend(f"{modname}.{basename}.{m}" for m in methods)
                continue
            classes = _subclasses(base)
            for method in methods:
                found = False
                for cls in classes:
                    orig = cls.__dict__.get(method)
                    if not callable(orig) or getattr(orig, "__isabstractmethod__", False):
                        continue
                    found = True
                    key = f"{cls.__name__}.{method}"
                    self._bindings.append(
                        (cls, method, orig, self._wrap(orig, layer, key, "method")))
                label = f"{modname}.{basename}.{method}"
                (self.present if found else self.absent).append(label)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self._tables = []
        self._local = threading.local()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, orig, _ in reversed(self._bindings):
            setattr(owner, attr, orig)

    def has(self, label: str) -> bool:
        return label in self.present

    # -- spans ----------------------------------------------------------------

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.table = {}
            local.tid = threading.get_ident()
            with self._lock:
                self._tables.append(local.table)
        return local

    def _enter(self, key, layer, remote_parent=None):
        local = self._state()
        stack = local.stack
        parent = stack[-1] if stack else remote_parent
        frame = _Frame(key, layer, parent, local.tid)
        stack.append(frame)
        frame.t0 = time.perf_counter()
        return frame

    def _exit(self, frame, size, sampler=False):
        t1 = time.perf_counter()
        local = self._local
        local.stack.pop()
        dur = t1 - frame.t0
        covered = frame.child
        if frame.remote:
            covered += _union_length(frame.remote)
        row = local.table.get(frame.key)
        if row is None:
            row = local.table[frame.key] = [0, 0, 0.0, 0.0, 0, 0, 0]
        parent = frame.parent
        entry = parent is None or parent.layer != frame.layer
        row[CALLS] += 1
        row[TOTAL_S] += dur
        row[SELF_S] += dur - covered
        row[SIZE] += size
        if entry:
            row[ENTRIES] += 1
            row[ENTRY_SIZE] += size
        if frame.iters:
            row[SLOTS] += frame.iters * frame.width
        if parent is None:
            return
        if sampler and parent.layer == "walk":
            parent.iters += 1
            if not parent.width:
                parent.width = size
        if parent.tid == frame.tid:
            parent.child += dur
        else:
            with self._lock:
                if parent.remote is None:
                    parent.remote = []
                parent.remote.append((frame.t0, t1))

    def _wrap(self, orig, layer, name, kind):
        key = (layer, name)
        size_of = _SIZERS[kind]
        sampler = kind == "sampler"
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(key, layer)
            size = 0
            try:
                result = orig(*args, **kwargs)
                try:
                    size = size_of(args, kwargs)
                except (IndexError, TypeError, ValueError):
                    size = 0
                return result
            finally:
                leave(frame, size, sampler)

        traced.__wrapped__ = orig
        return traced

    def _wrap_fanout(self, orig, layer, name, kind):
        key = (layer, name)
        chunk_key = (layer, "chunk")
        enter, leave = self._enter, self._exit

        def traced(worker, *args, **kwargs):
            frame = enter(key, layer)

            def chunk(*a, **k):
                span = enter(chunk_key, layer, remote_parent=frame)
                try:
                    return worker(*a, **k)
                finally:
                    leave(span, 1)

            try:
                return orig(chunk, *args, **kwargs)
            finally:
                leave(frame, 1)

        traced.__wrapped__ = orig
        return traced

    # -- results --------------------------------------------------------------

    def totals(self) -> dict:
        """Per (layer, name) sums over every thread, as lists of the fields."""
        out: dict = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, row in table.items():
                acc = out.setdefault(key, [0, 0, 0.0, 0.0, 0, 0, 0])
                for i, v in enumerate(row):
                    acc[i] += v
        return out


def _subclasses(base) -> list:
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen
