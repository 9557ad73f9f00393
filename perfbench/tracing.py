"""Out-of-package tracer for kdvlab: spans around every public layer function.

The tracer never edits the package. It wraps each public function of the
traced modules and rebinds the name wherever a ``kdvlab`` module holds it,
because modules import each other's functions by name (for example
``kdvlab.cli`` holds its own ``wasserstein_p_exact``). The scipy solvers that
``kdvlab.transport`` imports by name are wrapped where they are bound.
``uninstall`` puts every original back.

Spans stay in memory as ``[name, start, end, parent, call_id, attrs, hook_s]``.
``attrs`` come from an optional per-name hook that runs after the span has
ended; an optional pre-hook runs before it starts. Their duration ``hook_s``
is excluded from the parent's self time, so tracing bookkeeping is charged
to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

NAME, START, END, PARENT, CALL, ATTRS, HOOK = range(7)

# scipy entry points as bound in kdvlab.transport -> span name
SCIPY_SPANS = {
    "linprog": "transport.lp",
    "linear_sum_assignment": "transport.assignment",
    "maximum_flow": "transport.probe",
    "maximum_bipartite_matching": "transport.probe",
}


class Tracer:
    """Collects spans for the calls into a set of kdvlab modules."""

    def __init__(self, layers, hooks=None, pre_hooks=None, count_only=()):
        self.layers = tuple(layers)  # module short names, e.g. "transport"
        self.hooks = dict(hooks or {})  # span name -> fn(args, kwargs, result) -> attrs
        self.pre_hooks = dict(pre_hooks or {})  # span name -> fn(args, kwargs)
        self.count_only = frozenset(count_only)  # names counted without a span
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.call_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self.hooks.get(name)
        pre_hook = self.pre_hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre_s = 0.0
            if pre_hook is not None:
                t0 = clock()
                pre_hook(args, kwargs)
                pre_s = clock() - t0
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.call_id, None, pre_s]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                span[ATTRS] = hook(args, kwargs, result)
                span[HOOK] += clock() - span[END]
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # --- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        layer_modules = [importlib.import_module(f"kdvlab.{layer}") for layer in self.layers]
        package = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "kdvlab" or name.startswith("kdvlab.")
        }
        replacement = {}  # id(original) -> wrapper
        for layer, mod in zip(self.layers, layer_modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in self.count_only:
                    replacement[id(obj)] = self._count_wrapper(name, obj)
                else:
                    replacement[id(obj)] = self._span_wrapper(name, obj)
        transport = package["kdvlab.transport"]
        for attr in SCIPY_SPANS:
            replacement[id(getattr(transport, attr))] = None  # wrapped in transport only
        for mod in package.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) not in replacement:
                    continue
                wrapper = replacement[id(obj)]
                if wrapper is None:
                    if mod is not transport:
                        continue
                    wrapper = self._span_wrapper(SCIPY_SPANS[attr], obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def dump(self, path) -> None:
        """Write the spans (one JSON object per line) and the counters."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "call_id": span[CALL],
                            "attrs": span[ATTRS],
                        }
                    )
                )
                fh.write("\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")


def self_times(spans) -> list[float]:
    """Span duration minus its children's durations and hook times."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= (s[END] - s[START]) + s[HOOK]
    return out
