"""Span tracing of minexp's public functions, from outside the package.

:class:`Tracer` replaces every public function of the five layer modules
(and ``DiagonalResult.verify``) with a wrapper that records a span: request
id, name, start, end and parent span.  A function is replaced in *every*
namespace that binds it, because modules import each other's functions by
name (``resolution`` binds ``exponent_candidates``, ``newton`` binds
``weighted_order`` and ``as_weights``, the package re-exports most names); a
patch on the defining module alone would miss those calls.

Spans stay in memory until :meth:`Tracer.write`.  Self time of a span is its
duration minus the time its direct children cover; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "exponent", "resolution", "newton", "poly")

# Self-time groups for the dominant-layer report: each workload is meant to be
# dominated by one of them.
GROUPS = {
    "resolution.simulate_resolution": "charts",
    "resolution.blowup_chart": "charts",
    "resolution.ledger_lower_bound": "charts",
    "resolution.verify_valuation_inequality": "scans",
    "resolution.descent_chain": "scans",
    "poly.probe_transversality": "scans",
}
GROUP_NAMES = ("cli", "exponent", "charts", "scans", "newton", "poly")


def group_of(name: str) -> str:
    return GROUPS.get(name, name.split(".", 1)[0])


class Tracer:
    """Installs span-recording wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self):
        self.spans: list[tuple] = []  # (request, name, start, end, parent index)
        self.charts_built = 0
        self.request = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (self.request, name, start, end, parent)
            if name == "resolution.blowup_chart":
                self.charts_built += len(result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module("minexp")]
        modules += [importlib.import_module(f"minexp.{layer}") for layer in LAYERS]
        targets = []  # (qualified name, original function)
        for module in modules[1:]:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    targets.append((f"{layer}.{attr}", obj))
        for qualified, original in targets:
            wrapper = self._wrap(qualified, original)
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    if obj is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        result_cls = importlib.import_module("minexp.newton").DiagonalResult
        self._patches.append((result_cls, "verify", result_cls.verify))
        result_cls.verify = self._wrap("newton.DiagonalResult.verify", result_cls.verify)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self, first: int = 0) -> tuple[Counter, Counter]:
        """Calls and self seconds per name over the spans from index ``first`` on."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        child = Counter()
        for index in range(len(self.spans) - 1, first - 1, -1):
            _, name, start, end, parent = self.spans[index]
            duration = end - start
            calls[name] += 1
            self_s[name] += duration - child.pop(index, 0.0)
            if parent >= first:
                child[parent] += duration
        return calls, self_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (request, name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"span": index, "parent": parent, "request": request, "name": name,
                     "start": start, "end": end}
                ) + "\n")
