"""Span tracing of netmorph's public functions, installed from outside the
package.

``Tracer.install`` replaces each traced function by a wrapper that records
a span (name, start, end, parent).  The wrapper is bound under every name
that refers to the original function in any ``netmorph`` module, because
modules such as ``cli`` and ``morph_variants`` import functions by name and
would otherwise keep calling the unwrapped original.  ``numpy.linalg.lstsq``
is wrapped as the ``lstsq`` layer.  ``uninstall`` restores every binding,
so traced and untraced passes can alternate within one process.

Spans stay in memory; ``summary`` turns one pass's spans into per-layer
call counts, self times and work counters.
"""

import functools
import importlib
import inspect
import sys
import time

import numpy as np

# (module, function) pairs traced as layers, named "<module>.<function>".
TRACED = (
    ("archparse", "build_network"),
    ("cli", "main"),
    ("morph_depth", "insert_depth"),
    ("morph_depth", "morph_practical"),
    ("morph_variants", "expand_kernel"),
    ("morph_variants", "morph_sequential"),
    ("morph_variants", "morph_stacked"),
    ("morph_variants", "widen"),
    ("netdef", "forward"),
    ("serialize", "deserialize"),
    ("serialize", "serialize"),
    ("tensor_ops", "compose_filters"),
    ("tensor_ops", "conv_mc"),
    ("tensor_ops", "lstsq_factor_step"),
    ("train", "forward_batch"),
    ("train", "train_sgd"),
    ("verify", "check_preservation"),
)
LAYERS = ("lstsq",) + tuple(f"{m}.{f}" for m, f in TRACED)

# Work counters recorded at the layer boundaries, with their units.
COUNTERS = {
    "lstsq.cells": "count",  # sum of m*n over lstsq system matrices, as computed
    "morph_depth.shrink_attempts": "count",
    "morph_variants.sequential_lstsq_calls": "count",
    "verify.samples": "count",
    "verify.fail": "count",
    "serialize.bytes": "bytes",
    "train.samples": "count",
    "train.batches": "count",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.systems = []  # (m, n) of each lstsq system matrix
        self._stack = []
        self._restore = []

    # -- installation ---------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for mod_name, _ in TRACED:
            importlib.import_module(f"netmorph.{mod_name}")
        modules = [m for name, m in sys.modules.items() if name == "netmorph" or name.startswith("netmorph.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"netmorph.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, _COUNT_HOOKS.get(fn_name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        self._restore.append((np.linalg, "lstsq", np.linalg.lstsq))
        np.linalg.lstsq = self._wrap("lstsq", np.linalg.lstsq, _count_lstsq)

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore = []

    def _wrap(self, name, fn, hook):
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, index, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def ancestors(self, index):
        parent = self.spans[index][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    # -- reduction ------------------------------------------------------

    def mark(self):
        """Position to pass to ``summary`` for the spans recorded after it."""
        return len(self.spans), dict(self.counters)

    def summary(self, mark):
        """Per-layer calls and self time, plus counters, since ``mark``."""
        first, counters_before = mark
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for name, start, end, parent in self.spans[first:]:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= first:
                self_s[self.spans[parent][0]] -= end - start
        counters = {k: v - counters_before[k] for k, v in self.counters.items()}
        return calls, self_s, counters


def _count_lstsq(tracer, index, arguments, result):
    m, n = (int(v) for v in np.shape(arguments["a"]))
    tracer.systems.append((m, n))
    tracer.counters["lstsq.cells"] += m * n
    if "morph_variants.morph_sequential" in tracer.ancestors(index):
        tracer.counters["morph_variants.sequential_lstsq_calls"] += 1


def _count_factor_step(tracer, index, arguments, result):
    # One shrink attempt of the practical solver is one upper plus one lower
    # factor solve; count the upper ones made on behalf of morph_practical.
    if arguments["solve_side"] == "upper" and next(tracer.ancestors(index), None) == "morph_depth.morph_practical":
        tracer.counters["morph_depth.shrink_attempts"] += 1


def _count_check(tracer, index, arguments, result):
    tracer.counters["verify.samples"] += result.samples
    tracer.counters["verify.fail"] += 0 if result.pass_ else 1


def _count_serialize(tracer, index, arguments, result):
    tracer.counters["serialize.bytes"] += len(result)


def _count_train(tracer, index, arguments, result):
    n, cfg = len(arguments["dataset"]), arguments["cfg"]
    tracer.counters["train.samples"] += n * cfg.epochs
    tracer.counters["train.batches"] += -(-n // cfg.batch_size) * cfg.epochs


_COUNT_HOOKS = {
    "lstsq_factor_step": _count_factor_step,
    "check_preservation": _count_check,
    "serialize": _count_serialize,
    "train_sgd": _count_train,
}
