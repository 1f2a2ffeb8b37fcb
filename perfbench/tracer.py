"""Span recorder that wraps the public functions of the gbsim modules.

Only the traced benchmark process installs it. Each wrapped call records a
span (name, start, end, parent) in memory, in process CPU seconds like the
end-to-end latencies; self time is a span's duration minus the time covered
by its child spans. A wrapper replaces the function in every gbsim module
namespace that refers to it, so calls between modules
(``probabilities.distribution`` -> ``torontonian.torontonian``) and within a
module (``cv.measure_all_cv`` -> ``cv.outcome_density``) are both seen,
without changing any file under ``src/``.

Exact work counters are derived from arguments and return values at the
same boundaries (see ``_COUNTERS``).
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import statistics
import sys
import time
import types
from contextlib import contextmanager

LAYERS = ("cli", "gaussian", "serialize", "torontonian", "hafnian", "probabilities", "sampler", "cv")

_FLOAT_BYTES = 8


def _tor_chol_flops(modes):
    """Complex multiply-adds of the 2^N Cholesky factorisations: sum_k C(N,k) (2k)^3 / 3."""
    return sum(math.comb(modes, k) * (2 * k) ** 3 / 3 for k in range(1, modes + 1))


def _count_torontonian(tracer, span, args, kwargs, result):
    modes = result.terms.bit_length() - 1
    tracer.add("torontonian.subsets", result.terms)
    tracer.add("torontonian.chol_flops", _tor_chol_flops(modes))
    if tracer.parent_module(span) == "probabilities":
        tracer.add("probabilities.tor_calls", 1)


def _count_hafnian_powerset(tracer, span, args, kwargs, result):
    tracer.add("hafnian.subsets", 1 << (len(args[0]) // 2))


def _branch_steps(tracer, start_branches, start_modes, after_counts):
    """Branch updates, peak branches and peak branch-array bytes of a chain of steps."""
    before = [start_branches] + list(after_counts[:-1])
    tracer.add("sampler.branch_updates", sum(before))
    tracer.peak("sampler.peak_branches", max(after_counts, default=start_branches))
    # After step j the mixture stores count x (2m x 2m) covariances, m = remaining modes.
    peak_bytes = max(
        (count * (2 * (start_modes - j - 1)) ** 2 * _FLOAT_BYTES for j, count in enumerate(after_counts)),
        default=0,
    )
    tracer.peak("sampler.peak_branch_mb", peak_bytes / 1e6)


def _count_sample_mixture(tracer, span, args, kwargs, result):
    mixture = args[0]
    _, _, counts = result
    _branch_steps(tracer, mixture.branch_count, mixture.modes, counts)


def _count_herald(tracer, span, args, kwargs, result):
    state, measured, outcomes = args[:3]
    order = args[3] if len(args) > 3 else kwargs.get("order")
    forced = dict(zip((int(m) for m in measured), (int(b) for b in outcomes)))
    sequence = sorted(forced, reverse=True) if order is None else list(order)
    branches = getattr(state, "branch_count", 1)
    counts = []
    for label in sequence:
        branches *= 2 if forced[label] else 1
        counts.append(branches)
    _branch_steps(tracer, getattr(state, "branch_count", 1), state.modes, counts)


def _count_outcome_density(tracer, span, args, kwargs, result):
    tracer.add("cv.densities", 1)


def _count_serialize_bytes(tracer, span, args, kwargs, result):
    if tracer.parent_module(span) == "serialize":
        return  # counted once, at the outermost serialize call
    path = span["path"]
    if path is not None and os.path.exists(path):
        tracer.add("serialize.bytes", os.path.getsize(path))


_COUNTERS = {
    "torontonian.torontonian": _count_torontonian,
    "hafnian.hafnian_powerset": _count_hafnian_powerset,
    "sampler.sample_mixture": _count_sample_mixture,
    "sampler.herald": _count_herald,
    "cv.outcome_density": _count_outcome_density,
}


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.spans = []  # dicts: name, module, start, end, parent, child_s
        self.counters = {}
        self.peaks = {}
        self._stack = []
        self._patches = None

    # -- counters ---------------------------------------------------------
    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def parent_module(self, span):
        parent = span["parent"]
        return None if parent is None else self.spans[parent]["module"]

    # -- spans ------------------------------------------------------------
    @contextmanager
    def span(self, name, module="bench", path=None):
        """Record one span; spans opened inside it become its children."""
        record = {
            "name": name,
            "module": module,
            "start": time.process_time(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "child_s": 0.0,
            "path": path,
        }
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.process_time()
            self._stack.pop()
            if record["parent"] is not None:
                self.spans[record["parent"]]["child_s"] += record["end"] - record["start"]

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, module, func):
        qualname = f"{module}.{func.__name__}"
        counter = _COUNTERS.get(qualname)
        if counter is None and module == "serialize":
            counter = _count_serialize_bytes
        signature = inspect.signature(func)
        wants_path = "path" in signature.parameters
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            path = signature.bind_partial(*args, **kwargs).arguments.get("path") if wants_path else None
            with tracer.span(qualname, module, path) as record:
                result = func(*args, **kwargs)
            if counter is not None:
                counter(tracer, record, args, kwargs, result)
            return result

        return wrapper

    def _collect_patches(self):
        """(namespace, attribute, original, wrapper) for each layer's public functions,
        wherever a gbsim module names them."""
        import gbsim.cli  # noqa: F401  (loads every layer)

        namespaces = [m for name, m in sys.modules.items() if name == "gbsim" or name.startswith("gbsim.")]
        patches = []
        for layer in LAYERS:
            mod = sys.modules[f"gbsim.{layer}"]
            for attr, func in vars(mod).items():
                if attr.startswith("_") or not isinstance(func, types.FunctionType):
                    continue
                if func.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(layer, func)
                for ns in namespaces:
                    for name, value in vars(ns).items():
                        if value is func:
                            patches.append((ns, name, func, wrapper))
        return patches

    @contextmanager
    def tracing(self, name):
        """Wrap the public functions and record one benchmark span around the block;
        the originals are restored on exit."""
        if self._patches is None:
            self._patches = self._collect_patches()
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)
        try:
            with self.span(name):
                yield
        finally:
            for ns, attr, func, _ in self._patches:
                setattr(ns, attr, func)

    # -- results ----------------------------------------------------------
    def self_seconds(self, predicate):
        return math.fsum(
            (s["end"] - s["start"]) - s["child_s"] for s in self.spans if s["end"] is not None and predicate(s)
        )

    def inclusive_seconds(self, name):
        return math.fsum(s["end"] - s["start"] for s in self.spans if s["name"] == name and s["end"] is not None)

    def p50(self, name):
        durations = [s["end"] - s["start"] for s in self.spans if s["name"] == name and s["end"] is not None]
        return statistics.median(durations) if durations else 0.0

    def calls(self, module):
        return sum(1 for s in self.spans if s["module"] == module)

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = {"name": s["name"], "start": s["start"], "end": s["end"], "parent": s["parent"]}
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
