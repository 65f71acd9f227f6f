"""In-memory spans around calls into the package's public functions.

The program's source is not touched: :func:`install` replaces each traced
function with a recording wrapper in every package module that holds it
(``gpspectra.real_branches.branch_roots`` and ``gpspectra.solve.branch_roots``
alike), and puts the originals back when the traced phase ends.  Each span records its name, parent, start, end and one
integer value (evaluation points, iterations, contour samples or modes).
Spans nest by call order, so a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import sys
from array import array
from contextlib import contextmanager
from functools import wraps
from time import perf_counter_ns
from typing import Callable

import numpy as np


class Tracer:
    """Spans kept in flat arrays until the run ends."""

    def __init__(self, clock: Callable[[], int] = perf_counter_ns):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self._stack: list[int] = []
        #: (restore, apply), set by :func:`install`
        self.pause_hooks: tuple[Callable[[], None], Callable[[], None]] | None = None

    def open(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name)
        self.name.append(ident)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.value.append(0)
        self._stack.append(index)
        self.start.append(self._clock())
        return index

    def close(self, index: int, value: int = 0) -> None:
        self.end[index] = self._clock()
        self.value[index] = value
        self._stack.pop()

    @contextmanager
    def span(self, name: str, value: int = 0):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index, value)

    @contextmanager
    def paused(self):
        """Run the block with the original functions in place of the wrappers."""
        restore, apply = self.pause_hooks
        restore()
        try:
            yield
        finally:
            apply()

    def wrap(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        """``fn`` with a span around each call; ``measure(args, result)`` gives its value."""

        @wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            value = 0
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(args, result)
                return result
            finally:
                self.close(index, value)

        return traced

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[int]:
        """Duration minus the durations of direct children, per span."""
        own = self.durations()
        children = [0] * len(own)
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += own[i]
        return [d - c for d, c in zip(own, children)]

    def roots(self) -> list[int]:
        """Index of the outermost enclosing span, per span (itself for a root)."""
        out: list[int] = []
        for i, p in enumerate(self.parent):
            out.append(i if p < 0 else out[p])
        return out

    def dump(self, path) -> None:
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,parent,name,start_ns,end_ns,value\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]},{self.value[i]}\n"
                )


def _points(args, result) -> int:
    return int(np.size(args[1]))


def _iterations(args, result) -> int:
    return result.iterations


def _contour_samples(args, result) -> int:
    return result.samples_per_side


#: (defining module, function, span name, value) for every traced entry
#: point.  Each function is wrapped wherever the package's modules hold it.
TRACED = (
    ("gpspectra.kernels", "laplace", "kernels.laplace", _points),
    ("gpspectra.kernels", "laplace_deriv", "kernels.laplace_deriv", _points),
    ("gpspectra.kernels", "laplace_tail", "kernels.laplace_tail", None),
    ("gpspectra.kernels", "materialize", "kernels.materialize", None),
    ("gpspectra.real_branches", "branch_roots", "real_branches.branch_roots", None),
    ("gpspectra.real_branches", "stiffness_roots", "real_branches.stiffness_roots", None),
    ("gpspectra.complex_pair", "fixed_point_pair", "complex_pair.fixed_point_pair", _iterations),
    ("gpspectra.complex_pair", "newton_refine", "complex_pair.newton_refine", None),
    ("gpspectra.complex_pair", "count_zeros", "complex_pair.count_zeros", _contour_samples),
    ("gpspectra.solve", "solve_mode", "solve.solve_mode", None),
    ("gpspectra.pencil", "to_polynomial", "pencil.to_polynomial", None),
    ("gpspectra.oracle", "aberth_roots", "oracle.aberth_roots", None),
    ("gpspectra.oracle", "match_roots", "oracle.match_roots", None),
    ("gpspectra.asymptotics", "predict_power_law", "asymptotics.predict_power_law", None),
    ("gpspectra.cli", "parse_config", "cli.parse_config", None),
)


def install(tracer: Tracer, traced=TRACED) -> Callable[[], None]:
    """Wrap every traced function; returns the function that restores them.

    Each function is looked up in its defining module and replaced in every
    loaded ``gpspectra`` module that holds that same object, so a function
    that is moved or imported by a new module is still traced.  A function
    missing from its defining module raises LookupError: its layer would
    otherwise read 0, which looks like a gain.
    """
    wrappers = {}
    for module_name, attribute, span_name, measure in traced:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute, None)
        if original is None:
            raise LookupError(f"{module_name}.{attribute} is gone; update tracing.TRACED")
        wrappers[id(original)] = (original, tracer.wrap(span_name, original, measure))
    patches: list[tuple] = []

    def apply() -> None:
        # scanned on every apply, so a module loaded while paused is covered too
        patches.clear()
        for name, module in list(sys.modules.items()):
            if name != "gpspectra" and not name.startswith("gpspectra."):
                continue
            for attribute, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    patches.append((module, attribute, value))
                    setattr(module, attribute, entry[1])

    def restore() -> None:
        for module, attribute, original in patches:
            setattr(module, attribute, original)

    apply()
    tracer.pause_hooks = (restore, apply)
    return restore


class Layers:
    """Per-layer figures read off one traced phase.

    ``units`` names the root spans that stand for one unit of work (a mode
    solve, a sweep job, an in-process runner call); their value is the
    number of modes they carried.
    """

    def __init__(self, tracer: Tracer, units: set[str]):
        self.tracer = tracer
        names = tracer.names
        self._name = [names[i] for i in tracer.name]
        self._dur = tracer.durations()
        self._self = tracer.self_times()
        roots = tracer.roots()
        self._unit_modes: dict[int, int] = {}
        for i, root in enumerate(roots):
            if i == root and self._name[i] in units and tracer.value[i] > 0:
                self._unit_modes[i] = tracer.value[i]
        # per unit, per layer name: [calls, total ns, total value]
        self._per_unit: dict[int, dict[str, list[int]]] = {u: {} for u in self._unit_modes}
        for i, root in enumerate(roots):
            acc = self._per_unit.get(root)
            if acc is None or i == root:
                continue
            slot = acc.setdefault(self._name[i], [0, 0, 0])
            slot[0] += 1
            slot[1] += self._dur[i]
            slot[2] += tracer.value[i]

    def per_call_ms(self, name: str, own: bool = False) -> list[float]:
        times = self._self if own else self._dur
        return [times[i] / 1e6 for i, n in enumerate(self._name) if n == name]

    def per_call_values(self, name: str) -> list[int]:
        return [self.tracer.value[i] for i, n in enumerate(self._name) if n == name]

    def per_mode(self, name: str, field: str) -> list[float]:
        """Per unit that enters the layer: calls, ns or value total over its modes."""
        column = {"calls": 0, "ns": 1, "value": 2}[field]
        out = []
        for unit, acc in self._per_unit.items():
            slot = acc.get(name)
            if slot is not None:
                out.append(slot[column] / self._unit_modes[unit])
        return out


#: spans reported as per-call inclusive times, each as metric "<span>_ms"
_PER_CALL_SPANS = (
    "real_branches.branch_roots",
    "real_branches.stiffness_roots",
    "complex_pair.fixed_point_pair",
    "complex_pair.newton_refine",
    "complex_pair.count_zeros",
    "pencil.to_polynomial",
    "oracle.aberth_roots",
    "oracle.match_roots",
    "kernels.materialize",
    "kernels.laplace_tail",
    "asymptotics.predict_power_law",
    "cli.parse_config",
    "cli.run_spectrum",
    "cli.run_verify",
    "cli.run_oracle_check",
    "cli.run_sweep",
    "cli.run_asymptote",
)


def per_layer_metrics(layers: Layers) -> dict[str, tuple[float, str]]:
    """Every span-based per-layer metric: the median of its samples, 0 if none.

    0 means the workload did not enter that layer.
    """

    def med(values, unit):
        return (statistics.median(values) if values else 0.0, unit)

    out = {f"{span}_ms": med(layers.per_call_ms(span), "ms") for span in _PER_CALL_SPANS}
    laplace_ns = layers.per_mode("kernels.laplace", "ns")
    laplace_calls = layers.per_mode("kernels.laplace", "calls")
    out.update(
        {
            "solve.solve_mode_self_ms": med(layers.per_call_ms("solve.solve_mode", own=True), "ms"),
            "complex_pair.contour_side_evals": med(
                layers.per_call_values("complex_pair.count_zeros"), "count"
            ),
            "complex_pair.fixed_point_iterations": med(
                layers.per_call_values("complex_pair.fixed_point_pair"), "count"
            ),
            "kernels.laplace_calls": med(laplace_calls, "count"),
            "kernels.laplace_points": med(layers.per_mode("kernels.laplace", "value"), "count"),
            "kernels.laplace_deriv_calls": med(
                layers.per_mode("kernels.laplace_deriv", "calls"), "count"
            ),
            "kernels.laplace_ms": med([t / 1e6 for t in laplace_ns], "ms"),
            "kernels.laplace_us": med(
                [t / 1e3 / c for t, c in zip(laplace_ns, laplace_calls)], "us"
            ),
        }
    )
    return out
