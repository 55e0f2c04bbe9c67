"""Spans and work counters for the traced benchmark pass.

The tracer times calls into primform's public functions from the outside:
it replaces each traced name with a timing wrapper in every loaded
``primform`` module that binds it, so calls made through ``primform.cli``
and calls one engine module makes into another are both seen.  Engine
source is never modified.  Spans stay in memory and are handed back to the
parent process when the pass ends.

``SSeries.__mul__`` (and ``__rmul__``) is far too hot for one span per call,
so it is counted and timed in aggregate.  Every span records how much
multiplication time ran inside it, which lets self time treat the kernel
as one more child layer.

A traced name or attribute that no longer exists makes the metrics that
depend on it ``None`` instead of failing the pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# Span name -> candidate homes of the public function it wraps.  The
# package top level is tried first, so a function that moves between
# modules but stays exported keeps its span.
WRAPPED = {
    "catalog.load": ("primform.load_catalog", "primform.catalog.load_catalog"),
    "milnor.basis": ("primform.milnor_basis", "primform.milnor.milnor_basis"),
    "primitive.unfold": ("primform.build_unfolding", "primform.primitive.build_unfolding"),
    "primitive.solve": ("primform.solve_star", "primform.primitive.solve_star"),
    "primitive.defect": ("primform.defect_is_zero", "primform.primitive.defect_is_zero"),
    "frobenius.prepotential": ("primform.prepotential", "primform.frobenius.prepotential"),
    "frobenius.wdvv": ("primform.wdvv_check", "primform.frobenius.wdvv_check"),
    "frobenius.euler": ("primform.euler_check", "primform.frobenius.euler_check"),
    "frobenius.record": ("primform.frobenius.prepotential_record",),
}

# Spans the benchmark opens itself, around calls it makes directly.
OWN_SPANS = ("case", "cli.compute", "frobenius.verify", "frobenius.invert")

# Layers whose inclusive time is reported as "<layer>_s".
INCLUSIVE = (
    "milnor.basis",
    "primitive.solve",
    "primitive.defect",
    "frobenius.invert",
    "frobenius.prepotential",
    "frobenius.wdvv",
    "frobenius.verify",
    "frobenius.euler",
)

# Counter -> span whose wrapper reads it from the wrapped call's result.
_COUNTER_SOURCE = {
    "primitive.j_terms": "primitive.solve",
    "brieskorn.cache_entries": "primitive.solve",
    "frobenius.f0_terms": "frobenius.prepotential",
    "frobenius.wdvv_checked": "frobenius.wdvv",
}

COUNTERS = (*_COUNTER_SOURCE, "algebra.series_mul_calls")


def resolve(dotted: str):
    """The object at a dotted path such as "primform.frobenius.prepotential",
    or None when any part of it is missing."""
    module_name, _, attr = dotted.rpartition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


def _dig(obj, *attrs):
    for attr in attrs:
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    return obj


def _j_terms(result):
    block = _dig(result, "J")
    if block is None or not hasattr(block, "iter_terms"):
        return None
    total = 0
    for _zp, _idx, series in block.iter_terms():
        terms = getattr(series, "terms", None)
        if terms is None:
            return None
        total += len(terms)
    return total


def _cache_entries(result):
    cache = _dig(result, "state", "milnor", "_reduce_cache")
    return None if cache is None else len(cache)


def _f0_terms(frob):
    terms = _dig(frob, "prepotential", "terms")
    return None if terms is None else len(terms)


def _wdvv_checked(report):
    checked = getattr(report, "checked", None)
    return checked if isinstance(checked, int) else None


class Tracer:
    """Span recorder for one pass.

    A span is [name, start, end, parent, case, mul_s] where parent is the
    index of the enclosing span (or None) and mul_s the series
    multiplication time spent inside it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.case = None
        self.mul_calls = 0
        self.mul_s = 0.0
        self.counters = {name: 0 for name in _COUNTER_SOURCE}
        self.missing: set[str] = set()
        self.last_result = None

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.case, self.mul_s])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = self.mul_s - span[5]
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- counters ----------------------------------------------------------

    def count(self, name: str, value) -> None:
        current = self.counters[name]
        if current is None or value is None:
            self.counters[name] = None
        else:
            self.counters[name] = current + value

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced public name in all loaded primform modules."""
        for span_name, candidates in WRAPPED.items():
            original = next(
                (obj for obj in map(resolve, candidates) if callable(obj)), None
            )
            if original is None:
                self.missing.add(span_name)
                continue
            _rebind(original, self._wrap(span_name, original))
        series = resolve("primform.SSeries") or resolve("primform.algebra.SSeries")
        if series is None:
            self.missing.add("algebra.series_mul")
        else:
            self._wrap_mul(series)
        for counter, source in _COUNTER_SOURCE.items():
            if source in self.missing:
                self.counters[counter] = None

    def _wrap(self, span_name: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                result = original(*args, **kwargs)
            tracer._observe(span_name, result)
            return result

        return wrapper

    def _observe(self, span_name: str, result) -> None:
        if span_name == "primitive.solve":
            self.last_result = result
            self.count("primitive.j_terms", _j_terms(result))
            self.count("brieskorn.cache_entries", _cache_entries(result))
        elif span_name == "frobenius.prepotential":
            self.count("frobenius.f0_terms", _f0_terms(result))
        elif span_name == "frobenius.wdvv":
            self.count("frobenius.wdvv_checked", _wdvv_checked(result))

    def _wrap_mul(self, series) -> None:
        tracer = self
        perf_counter = time.perf_counter
        wrapped = {}
        for attr in ("__mul__", "__rmul__"):
            original = series.__dict__.get(attr)
            if original is None:
                continue
            if original not in wrapped:

                def wrapper(a, b, _original=original):
                    start = perf_counter()
                    try:
                        return _original(a, b)
                    finally:
                        tracer.mul_s += perf_counter() - start
                        tracer.mul_calls += 1

                wrapped[original] = functools.wraps(original)(wrapper)
            setattr(series, attr, wrapped[original])
        if not wrapped:
            self.missing.add("algebra.series_mul")


def _rebind(original, wrapper) -> None:
    """Point every primform module binding of `original` at `wrapper`."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "primform" or module_name.startswith("primform.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def summarize(spans: list[list], mul_calls, mul_s, counters: dict, missing: set) -> dict:
    """Per-layer metrics of one traced pass.

    Inclusive time of a layer sums its outermost spans (a span nested in one
    of the same name is already covered).  Self time is a span's duration
    minus its direct children and minus the series multiplication time not
    already inside those children.
    """
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    child_s = [0.0] * len(spans)
    child_mul = [0.0] * len(spans)
    for name, start, end, parent, _case, mul in spans:
        if parent is not None:
            child_s[parent] += end - start
            child_mul[parent] += mul
    for index, (name, start, end, parent, _case, mul) in enumerate(spans):
        duration = end - start
        own = duration - child_s[index] - (mul - child_mul[index])
        self_time[name] = self_time.get(name, 0.0) + own
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            inclusive[name] = inclusive.get(name, 0.0) + duration

    def known(layer):
        return layer not in missing

    metrics = {}
    for layer in INCLUSIVE:
        metrics[f"{layer}_s"] = inclusive.get(layer, 0.0) if known(layer) else None
    mul_known = known("algebra.series_mul")
    metrics["algebra.series_mul_s"] = mul_s if mul_known else None
    for layer in OWN_SPANS + tuple(WRAPPED):
        metrics[f"{layer}.self_s"] = self_time.get(layer, 0.0) if known(layer) else None
    for name in _COUNTER_SOURCE:
        metrics[name] = counters.get(name)
    metrics["algebra.series_mul_calls"] = mul_calls if mul_known else None
    return metrics
