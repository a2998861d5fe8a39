"""Outside-in tracer: spans around speccap's public functions, recorded from the benchmark.

``Tracer.installed()`` rebinds each traced function in every ``speccap.*``
module namespace that holds it (``from .numerics import
hermitian_eigenvalues`` copies the binding, so patching the defining module
alone would miss most calls), wraps the ``.value`` methods of the amplitude
and response classes with a point counter, and restores every binding on
exit.  Spans ``(name, start, end, parent)`` stay in memory in flat arrays;
self time is a span's duration minus that of its direct children.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

TRACED = {
    "cli": ("main",),
    "channel": ("compute_gram", "output_spectrum"),
    "spectral": ("modulated_overlap", "load_tabulated_amplitude", "load_tabulated_response"),
    "numerics": ("hermitian_eigenvalues", "integrate"),
    "capacity": ("holevo_bound", "optimize_priors", "optimal_alphabet_size"),
}
VALUE_CLASSES = (
    "GaussianAmplitude",
    "TabulatedAmplitude",
    "FlatResponse",
    "GaussianPeakResponse",
    "TabulatedResponse",
)
EIGENSOLVER = "numerics.hermitian_eigenvalues"


def _dim_cubed(args, kwargs):
    """n^3 summed over the matrices handed to the eigensolver (a stack counts each)."""
    matrix = args[0] if args else next(iter(kwargs.values()))
    shape = np.shape(getattr(matrix, "entries", matrix))
    return float(np.prod(shape[:-2], dtype=float) * shape[-1] ** 3) if len(shape) >= 2 else 0.0


def self_times(start, end, parent):
    """Each span's duration minus the durations of its direct children."""
    duration = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    return duration - children


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._stacks = {}
        self.reset()

    def reset(self):
        """Drop recorded spans and counters; names keep their indices."""
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.weight = array("d")
        self.points = 0

    def _name_index(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name, fn, weigh=None):
        """``fn`` wrapped so that every call records a span called ``name``."""
        index = self._name_index(name)
        clock, stacks, get_ident = self.clock, self._stacks, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stacks.setdefault(get_ident(), [])
            span = len(self.start)
            self.name.append(index)
            self.parent.append(stack[-1] if stack else -1)
            self.weight.append(weigh(args, kwargs) if weigh else 0.0)
            self.end.append(0.0)
            stack.append(span)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()

        return wrapper

    def _counted_value(self, fn):
        @functools.wraps(fn)
        def value(instance, omega):
            self.points += np.size(omega)
            return fn(instance, omega)

        return value

    @contextmanager
    def installed(self):
        """Wrap every traced function and ``.value`` method; restore them on exit."""
        modules = [m for k, m in list(sys.modules.items()) if k == "speccap" or k.startswith("speccap.")]
        restore = []
        try:
            for module_name, functions in TRACED.items():
                home = sys.modules.get(f"speccap.{module_name}")
                for function in functions:
                    # A function the program no longer has is skipped; its metrics read 0.
                    original = getattr(home, function, None)
                    if original is None:
                        continue
                    weigh = _dim_cubed if f"{module_name}.{function}" == EIGENSOLVER else None
                    wrapper = self.span(f"{module_name}.{function}", original, weigh)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                restore.append((module, attr, original))
                                setattr(module, attr, wrapper)
            spectral = sys.modules.get("speccap.spectral")
            for class_name in VALUE_CLASSES:
                cls = getattr(spectral, class_name, None)
                original = vars(cls).get("value") if cls is not None else None
                if original is None:
                    continue
                restore.append((cls, "value", original))
                setattr(cls, "value", self._counted_value(original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def spans(self):
        """Recorded spans as arrays: name index, start, end, parent index, weight."""
        return tuple(np.array(a) for a in (self.name, self.start, self.end, self.parent, self.weight))

    def summary(self):
        """Per span name: calls, self seconds, summed weight, and call durations."""
        name, start, end, parent, weight = self.spans()
        own = self_times(start, end, parent)
        duration = end - start
        out = {}
        for index, label in enumerate(self.names):
            mask = name == index
            out[label] = {
                "calls": int(mask.sum()),
                "self_s": float(own[mask].sum()),
                "weight": float(weight[mask].sum()),
                "durations": duration[mask],
            }
        return out

    def descendants(self, ancestor, descendant):
        """How many ``descendant`` spans ran somewhere inside an ``ancestor`` span."""
        if ancestor not in self.names or descendant not in self.names:
            return 0
        a, d = self.names.index(ancestor), self.names.index(descendant)
        if a not in self.name:
            return 0
        inside = [False] * len(self.name)
        count = 0
        for span, (label, parent) in enumerate(zip(self.name, self.parent)):
            inside[span] = parent >= 0 and (self.name[parent] == a or inside[parent])
            count += label == d and inside[span]
        return count
