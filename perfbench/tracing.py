"""Span tracing of the decycling package from outside, for the traced run.

The tracer wraps the package's public functions at their import sites: each
module-level name in a package module that is bound to a public function of
another package module is replaced by a wrapper, so `decycling.cli.realize`
and `decycling.construct.realize` are traced while `decycling.graphs.realize`
itself is left alone.  Two functions called inside their own module are
wrapped there too (`verify.residual`, `solver.greedy_decycling`), along with
the static `Graph.from_edges` and the entry point `cli.main`.  No file of the
package changes; `uninstall` puts every original back.

Spans are kept in memory as [name, start, end, parent index, stage] and
written out by the caller when the run ends.  A layer is the package module a
traced function belongs to; its self time is its span time minus the part its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter

# Public functions called from inside their own module whose calls still
# cross a layer boundary worth measuring.
_OWN_MODULE_SITES = (("verify", "residual"), ("solver", "greedy_decycling"))


class Tracer:
    def __init__(self, modules: dict):
        """modules maps each layer name to the imported package module."""
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.recording = False
        self.stage = ""
        self.counts: Counter = Counter()
        self._raised: list[BaseException] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _on_result(self, name: str, args, kwargs, result) -> None:
        if name == "solver.min_fvs_exact":
            self.counts["solver.nodes"] += result.nodes_explored
            if kwargs.get("spec") is not None:
                self.counts["seeded_minimum"] += result.minimum
        elif name == "bounds.bound_report":
            parent = self.stack[-1] if self.stack else -1
            if parent >= 0 and self.spans[parent][0] == "solver.min_fvs_exact":
                self.counts["seed_bound"] += result.best
        elif name in ("certio.save", "certio.load"):
            path = args[1] if name == "certio.save" else args[0]
            self.counts["certio.bytes"] += os.path.getsize(path)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.stage]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                # Count each exception once, at the innermost layer it left.
                if not any(err is seen for seen in tracer._raised):
                    tracer._raised.append(err)
                    tracer.counts[name.split(".", 1)[0] + ".errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            tracer._on_result(name, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__.startswith("decycling.")
                    and obj.__module__ != module.__name__
                ):
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    self._patch(module, attr, self._wrap(f"{layer}.{attr}", obj))
        for layer, attr in _OWN_MODULE_SITES:
            module = self.modules[layer]
            self._patch(module, attr, self._wrap(f"{layer}.{attr}", getattr(module, attr)))
        graph_cls = self.modules["graphs"].Graph
        from_edges = self._wrap("graphs.from_edges", graph_cls.from_edges)
        self._patch(graph_cls, "from_edges", staticmethod(from_edges))
        cli = self.modules["cli"]
        self._patch(cli, "main", self._wrap("cli.main", cli.main))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the spans --------------------------------------------------

    def summary(self) -> dict:
        """Totals over every recorded span: inclusive and self time per span
        name, self time per layer, calls per name and per (name, stage)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        layer_self: Counter = Counter({layer: 0.0 for layer in self.modules})
        calls: Counter = Counter()
        stage_calls: Counter = Counter()
        roots = 0.0
        for (name, start, end, parent, stage), children in zip(self.spans, child_time):
            total[name] += end - start
            own[name] += end - start - children
            layer_self[name.split(".", 1)[0]] += end - start - children
            calls[name] += 1
            stage_calls[name, stage] += 1
            if parent < 0:
                roots += end - start
        return {
            "total": total,
            "self": own,
            "layer_self": layer_self,
            "calls": calls,
            "stage_calls": stage_calls,
            "roots": roots,
        }
