"""In-memory span tracer installed from outside the library.

Every public function in a layer's ``__all__`` and the constructors in
``CONSTRUCTORS`` are wrapped. Layers import each other with
``from .x import name``, so a function object can be bound in several
``realcalc`` module namespaces; the wrapper replaces every binding that
*is* the original object, and :meth:`Tracer.uninstall` puts them back.

A span records its name, start, end, parent span and the id of the
benchmark call it belongs to, plus the bytes of array arguments it was
given. With ``memory`` on, tracemalloc measures each span's peak above
the memory in use when it began; a parent's peak includes its children.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import tracemalloc

import numpy as np

LAYERS = ("matlin", "liealg", "cncalc", "projcalc", "cli")
CONSTRUCTORS = {
    "liealg": ("LieBasis", "StructureConstants"),
    "projcalc": ("ProjectiveCalculusData",),
}

# Fields of one span record.
NAME, PARENT, CALL, START, END, IN_BYTES, PEAK = range(7)


class MissingSpan(RuntimeError):
    """A name the tracer must wrap has no binding to wrap."""


def _nbytes(args, kwargs) -> int:
    total = 0
    for value in (*args, *kwargs.values()):
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (list, tuple)):
            total += sum(v.nbytes for v in value if isinstance(v, np.ndarray))
    return total


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.call_id = -1
        self.memory = False
        self._stack: list[int] = []
        self._mem: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []
        self.names: set[str] = set()

    # -- recording ---------------------------------------------------------

    def _enter_memory(self) -> None:
        if self._mem:
            top = self._mem[-1]
            top[1] = max(top[1], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        self._mem.append([tracemalloc.get_traced_memory()[0], 0])

    def _exit_memory(self, rec: list) -> None:
        entry, running = self._mem.pop()
        peak = max(running, tracemalloc.get_traced_memory()[1])
        rec[PEAK] = peak - entry
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)

    def _run(self, name, fn, args, kwargs):
        rec = [name, self._stack[-1] if self._stack else -1, self.call_id, 0.0, 0.0,
               _nbytes(args, kwargs), 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        if self.memory:
            self._enter_memory()
        rec[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            if self.memory:
                self._exit_memory(rec)
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and listed constructor of every layer."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "realcalc" or key.startswith("realcalc."))]
        for layer in LAYERS:
            module = sys.modules[f"realcalc.{layer}"]
            for name in module.__all__:
                if not hasattr(module, name):
                    raise MissingSpan(f"realcalc.{layer}.__all__ names {name!r}, which is not defined")
                obj = getattr(module, name)
                span = f"{layer}.{name}"
                if inspect.isfunction(obj):
                    wrapper = self.wrap(span, obj)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is obj:
                                setattr(mod, attr, wrapper)
                                self._restore.append((mod, attr, obj))
                    if getattr(module, name) is not wrapper:
                        raise MissingSpan(f"{span} has no wrapped binding")
                    self.names.add(span)
            for name in CONSTRUCTORS.get(layer, ()):
                if name not in module.__all__:
                    raise MissingSpan(f"constructor {layer}.{name} is not in __all__")
                cls = getattr(module, name)
                init = cls.__dict__["__init__"]
                cls.__init__ = self.wrap(f"{layer}.{name}", init)
                self._restore.append((cls, "__init__", init))
                self.names.add(f"{layer}.{name}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def wrapper_cost(repeats: int = 5000) -> float:
    """Seconds one wrapped call adds over a bare call (median of five batches).

    The calls pass what a constructor such as ``LieBasis`` is given, a
    list of 25 arrays and one more array, so that the measured cost
    includes the wrapper's scan of array arguments.
    """

    def callee(mats, metric):
        return None

    mats = [np.zeros((6, 6), dtype=complex) for _ in range(25)]
    metric = np.eye(25)
    tracer = Tracer()
    traced = tracer.wrap("callee", callee)
    diffs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeats):
            callee(mats, metric)
        t1 = time.perf_counter()
        for _ in range(repeats):
            traced(mats, metric)
        t2 = time.perf_counter()
        tracer.spans.clear()
        diffs.append((t2 - t1) - (t1 - t0))
    return max(0.0, statistics.median(diffs)) / repeats
