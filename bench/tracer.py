"""Spans and call counts around hanoikernel's public functions, installed from
outside the package.

A span records name, start, end and the index of the span that was open when
it started. Spans stay in memory until the pass ends. ``perm`` is only
counted: a span on each of about a million degree-3 products would distort
the pass it measures.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

SPANNED = ("analysis", "automorphism", "cli", "f2", "game", "permgroup", "words")
COUNTED = ("perm",)
# Operators that are part of the public API of a class.
PUBLIC_DUNDERS = ("__init__", "__mul__", "__call__")
# analysis.cache_reuse: calls to these whose canonical arguments repeat.
CACHED = ("build_quotient", "stab", "rist_image", "derived_of_quotient")
# Inclusive times reported by name (outermost spans only).
INCLUSIVE = {
    "permgroup.derived_subgroup_s": "permgroup.derived_subgroup",
    "permgroup.normal_closure_s": "permgroup.normal_closure",
    "permgroup.pointwise_stabilizer_s": "permgroup.PermGroup.pointwise_stabilizer",
    "permgroup.kernel_of_level_action_s": "permgroup.kernel_of_level_action",
    "analysis.kernel_report_s": "analysis.kernel_report",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        # name -> itertools.count: the cheapest counter callable from Python
        self.counts: dict[str, itertools.count] = {}
        self.arg_keys: dict[str, set] = defaultdict(set)
        self.repeats = 0
        self.cached_calls = 0

    def span(self, name, func, on_call=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def count(self, name, func, on_call=None):
        tick = self.counts.setdefault(name, itertools.count())

        def wrapper(*args, **kwargs):
            next(tick)
            return func(*args, **kwargs)

        return wrapper

    def _arg_logger(self, name, func, quotient_type):
        signature = inspect.signature(func)

        def canonical(value):
            if isinstance(value, quotient_type):
                return ("quotient", value.depth)
            return value

        def on_call(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple((k, canonical(v)) for k, v in bound.arguments.items())
            self.cached_calls += 1
            if key in self.arg_keys[name]:
                self.repeats += 1
            self.arg_keys[name].add(key)

        return on_call

    def install(self) -> None:
        """Wrap the public functions and methods of the traced modules and
        rebind every reference the package's modules hold to them."""
        analysis = importlib.import_module("hanoikernel.analysis")
        replaced = {}
        for short in SPANNED + COUNTED:
            module = importlib.import_module(f"hanoikernel.{short}")
            make = self.count if short in COUNTED else self.span
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, f"{short}.{attr}", make)
                elif (inspect.isfunction(obj) or hasattr(obj, "__wrapped__")) and not (
                    inspect.isgeneratorfunction(obj)
                ):
                    on_call = None
                    if module is analysis and attr in CACHED:
                        on_call = self._arg_logger(attr, obj, analysis.TruncatedQuotient)
                    replaced[id(obj)] = (obj, make(f"{short}.{attr}", obj, on_call))
        for name, module in list(sys.modules.items()):
            if name == "hanoikernel" or name.startswith("hanoikernel."):
                for attr, obj in list(vars(module).items()):
                    hit = replaced.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(module, attr, hit[1])

    def _wrap_class(self, cls, prefix, make) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in PUBLIC_DUNDERS:
                continue
            if name == "__init__" and dataclasses.is_dataclass(cls):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, name, type(raw)(make(f"{prefix}.{name}", raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, name, make(f"{prefix}.{name}", raw))

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent index."""
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")

    def summary(self) -> dict:
        """Per-module self time and calls, named inclusive times, per-name
        call counts and the analysis cache-reuse share."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        by_name: Counter = Counter()
        inclusive = {metric: 0.0 for metric in INCLUSIVE}
        outer = {target: metric for metric, target in INCLUSIVE.items()}
        for i, (name, start, end, parent) in enumerate(spans):
            module = name.split(".", 1)[0]
            self_s[module] += (end - start) - covered[i]
            calls[module] += 1
            by_name[name] += 1
            if name in outer:
                p = parent
                while p >= 0 and spans[p][0] != name:
                    p = spans[p][3]
                if p < 0:
                    inclusive[outer[name]] += end - start
        # the next value of each counter is the number of calls it counted
        counted = {name: next(tick) for name, tick in self.counts.items()}
        calls["perm"] = sum(counted.values())
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "by_name": dict(by_name) | counted,
            "inclusive_s": inclusive,
            "cache_reuse": self.repeats / self.cached_calls if self.cached_calls else 0.0,
            "spans": len(spans),
        }
