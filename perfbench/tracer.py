"""Per-layer tracing from outside the program.

`Tracer.install()` rebinds, in every loaded `pulsebeam` module, the
attributes that refer to the public functions listed in TRACED (and the
acceptance checks in `verification.ACCEPTANCE_CHECKS`) to wrappers that
record a span per call: name, start, end and parent span, kept per pass.  The
program's own files are not changed; modules call each other through
their module globals, so nested calls are seen too.  `signals.quad` is
scipy's quad as imported by `signals`; its wrapper also counts integrand
evaluations by wrapping the callable passed to it.

Spans stay in memory and are written out by `save()` when the run ends.
Self time is a span's duration minus the part its child spans cover.
Worker threads' spans are children of the span open in the thread that
started the pass, and when spans in several threads are open at once each
moment is shared equally among the open spans that have no open child, so
the self times of one pass add up to its wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time

import numpy as np

TRACED = {
    "spacetime": ("cone_status",),
    "geometry": ("complex_distance", "branch_classify", "segment_crosses_cut", "spheroidal_coords"),
    "signals": ("analytic_signal", "spectral_signal", "richardson_limit", "quad"),
    "propagator": ("extended_propagator", "far_zone_propagator", "beam_profile"),
    "wavelet": ("wavelet_eval", "boundary_jump", "wave_residual"),
    "channel": (
        "channel_amplitude",
        "channel_metrics",
        "channel_translate",
        "gain_scan",
        "channel_from_json",
    ),
    "cli": ("main", "write_csv"),
}
LAYERS = tuple(TRACED) + ("verification",)
CHECK_IDS = tuple(str(i) for i in range(1, 12))
ROOT = "bench.pass"


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    metrics = []
    for layer, functions in TRACED.items():
        for function in functions:
            metrics.append((f"{layer}.{function}.calls", "count", "lower"))
            metrics.append((f"{layer}.{function}.self_s", "s", "lower"))
    metrics += [
        ("signals.quad.evals", "count", "lower"),
        ("signals.quad.evals_per_call", "count", "lower"),
        ("cli.csv_bytes", "B", "lower"),
        ("cli.points_ok", "count", "higher"),
        ("cli.points_on_cut", "count", "lower"),
        ("cli.points_singular", "count", "lower"),
    ]
    metrics += [(f"verification.check_{i}_s", "s", "lower") for i in CHECK_IDS]
    metrics += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    metrics += [
        ("trace.wall_s", "s", "lower"),
        ("trace.outside_frac", "ratio", "lower"),
        ("trace_overhead_frac", "ratio", "lower"),
    ]
    return metrics


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._spans = []
        self._local = threading.local()
        self._main_stack = []
        self._errors_lock = threading.Lock()
        self._undo = []
        self._evals = itertools.count()
        self._pass_errors = {}
        self.passes = []  # per-pass aggregates, filled by end_pass()
        self._saved = []  # per-pass span arrays, written by save()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = [name_id, 0.0, 0.0, parent]
        self._spans.append(span)
        stack.append(span)
        span[1] = time.perf_counter()
        return span, stack

    def _wrap(self, name: str, layer: str, func):
        name_id = self._name_id(name)
        errors = self._errors_for(layer)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span, stack = self._open(name_id)
            try:
                return func(*args, **kwargs)
            except BaseException:
                errors()
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _wrap_quad(self, func):
        traced = self._wrap("signals.quad", "signals", func)

        @functools.wraps(func)
        def counting(integrand, *args, **kwargs):
            counter = self._evals

            def counted(*point):
                next(counter)
                return integrand(*point)

            return traced(counted, *args, **kwargs)

        return counting

    def _errors_for(self, layer: str):
        def bump():
            with self._errors_lock:
                counts = self._pass_errors
                counts[layer] = counts.get(layer, 0) + 1

        return bump

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Rebind the traced functions in every loaded pulsebeam module."""
        wrapped = {}
        for layer, functions in TRACED.items():
            module = importlib.import_module(f"pulsebeam.{layer}")
            for function in functions:
                func = getattr(module, function, None)
                if not callable(func):
                    continue
                if function == "quad":
                    wrapped[id(func)] = (func, self._wrap_quad(func))
                else:
                    wrapped[id(func)] = (func, self._wrap(f"{layer}.{function}", layer, func))
        verification = importlib.import_module("pulsebeam.verification")
        checks = getattr(verification, "ACCEPTANCE_CHECKS", ())
        for ident, _, func in checks:
            if ident in CHECK_IDS:
                name = f"verification.check_{ident}"
                wrapped[id(func)] = (func, self._wrap(name, "verification", func))
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "pulsebeam" and not module_name.startswith("pulsebeam."):
                continue
            for attr, value in list(vars(module).items()):
                pair = wrapped.get(id(value))
                if pair is not None and pair[0] is value:
                    self._rebind(module, attr, pair[1])
        if checks:
            self._rebind(
                verification,
                "ACCEPTANCE_CHECKS",
                tuple(
                    (ident, name, wrapped.get(id(func), (func, func))[1])
                    for ident, name, func in checks
                ),
            )
        self._local.stack = self._main_stack

    def _rebind(self, module, attr: str, value) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    # -- passes --------------------------------------------------------------

    def begin_pass(self) -> None:
        self._evals = itertools.count()
        self._pass_errors = {}
        self._spans = []
        span, _ = self._open(self._name_id(ROOT))
        self._main_stack.append(span)

    def end_pass(self) -> None:
        root = self._main_stack.pop()
        root[2] = time.perf_counter()
        spans = self._spans
        self._spans = []
        evals = next(self._evals)
        index = {id(span): i for i, span in enumerate(spans)}
        arrays = {
            "name": np.array([s[0] for s in spans], dtype=np.int32),
            "start": np.array([s[1] for s in spans]),
            "end": np.array([s[2] for s in spans]),
            "parent": np.array(
                [index.get(id(s[3]), -1) if s[3] is not None else -1 for s in spans],
                dtype=np.int64,
            ),
        }
        self._saved.append(arrays)
        self.passes.append(self._aggregate(arrays, evals, dict(self._pass_errors)))

    def _aggregate(self, arrays: dict, evals: int, errors: dict) -> dict:
        names, start, end, parent = arrays["name"], arrays["start"], arrays["end"], arrays["parent"]
        own = self_times(start, end, parent)
        calls, self_s, total_s = {}, {}, {}
        for i, name_id in enumerate(names.tolist()):
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[i]
            total_s[name] = total_s.get(name, 0.0) + (end[i] - start[i])
        root = int(np.flatnonzero(parent == -1)[0])
        return {
            "wall_s": float(end[root] - start[root]),
            "calls": calls,
            "self_s": self_s,
            "total_s": total_s,
            "evals": evals,
            "errors": errors,
        }

    # -- reporting -----------------------------------------------------------

    def metrics(self, untraced_wall_s: float, counters: dict) -> dict:
        """Per-pass medians of every per-layer metric (0 where a layer is unused)."""

        def median(pick):
            return statistics.median(pick(p) for p in self.passes)

        out = {}
        for layer, functions in TRACED.items():
            for function in functions:
                name = f"{layer}.{function}"
                out[f"{name}.calls"] = median(lambda p: p["calls"].get(name, 0))
                out[f"{name}.self_s"] = median(lambda p: p["self_s"].get(name, 0.0))
        quad_calls = out["signals.quad.calls"]
        out["signals.quad.evals"] = median(lambda p: p["evals"])
        out["signals.quad.evals_per_call"] = out["signals.quad.evals"] / quad_calls if quad_calls else 0.0
        for key in ("cli.csv_bytes", "cli.points_ok", "cli.points_on_cut", "cli.points_singular"):
            out[key] = counters.get(key, 0)
        for ident in CHECK_IDS:
            name = f"verification.check_{ident}"
            out[f"{name}_s"] = median(lambda p: p["total_s"].get(name, 0.0))
        for layer in LAYERS:
            out[f"{layer}.errors"] = median(lambda p: p["errors"].get(layer, 0))
        wall = median(lambda p: p["wall_s"])
        out["trace.wall_s"] = wall
        out["trace.outside_frac"] = median(lambda p: p["self_s"].get(ROOT, 0.0) / p["wall_s"])
        out["trace_overhead_frac"] = wall / untraced_wall_s - 1.0
        return out

    def save(self, path: str) -> None:
        """Write every span of every traced pass (times relative to the first span)."""
        if not self._saved:
            return
        offset = 0
        parts = {"name": [], "start": [], "end": [], "parent": [], "pass_id": []}
        origin = self._saved[0]["start"].min()
        for pass_id, arrays in enumerate(self._saved):
            parts["name"].append(arrays["name"])
            parts["start"].append(arrays["start"] - origin)
            parts["end"].append(arrays["end"] - origin)
            parts["parent"].append(np.where(arrays["parent"] < 0, -1, arrays["parent"] + offset))
            parts["pass_id"].append(np.full(len(arrays["name"]), pass_id, dtype=np.int32))
            offset += len(arrays["name"])
        np.savez_compressed(
            path, names=np.array(self.names), **{k: np.concatenate(v) for k, v in parts.items()}
        )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> list:
    """Self time of each span; concurrent leaves share each moment equally."""
    count = len(start)
    events = [(t, 1, i) for i, t in enumerate(start.tolist())]
    events += [(t, 0, -i) for i, t in enumerate(end.tolist())]
    # At equal times, ends come before starts, children end before their
    # parents and parents start before their children.
    events.sort()
    parents = parent.tolist()
    open_children = [0] * count
    is_open = [False] * count
    own = [0.0] * count
    leaves = set()
    previous = events[0][0] if events else 0.0
    for moment, kind, key in events:
        if leaves and moment > previous:
            share = (moment - previous) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        previous = moment
        p = parents[key if kind else -key]
        if kind:
            is_open[key] = True
            leaves.add(key)
            if p >= 0:
                open_children[p] += 1
                leaves.discard(p)
        else:
            i = -key
            is_open[i] = False
            leaves.discard(i)
            if p >= 0:
                open_children[p] -= 1
                if open_children[p] == 0 and is_open[p]:
                    leaves.add(p)
    return own
