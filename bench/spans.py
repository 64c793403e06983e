"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each listed function, in every loaded
``friezelotus`` module that binds it, by a wrapper that records a span
(name, start, end, parent) while the tracer is on.  Calls the program makes
internally go through the same module bindings, so nested calls become
child spans and each function's self time is its span minus its children.
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import thread_time_ns

# public functions timed per layer, as "module.function"
FUNCTIONS = (
    "contfrac.hj_expand", "contfrac.kidoh_dual",
    "lotus.lotus_of_slopes", "lotus.polygon_of_lotus", "lotus.lotus_of_polygon",
    "polygon.quiddity_of", "polygon.polygon_from_quiddity", "polygon.polygon_of_cf",
    "frieze.frieze_from_quiddity",
    "resolution.graph_of_lotus", "resolution.partial_resolutions",
    "resolution.is_newton_nondegenerate",
    "transform.reduction_chain", "transform.mutate_lotus",
    "polyparse.parse_poly",
    "render.render_frieze_text", "render.render_lotus_svg", "render.render_graph_dot",
    "cli.run",
)

# counters taken from a function's result: name -> (function, how to count)
COUNTERS = {
    "frieze.entries": ("frieze.frieze_from_quiddity", lambda f: len(f.entries)),
    "lotus.petals": ("lotus.lotus_of_slopes", lambda l: len(l.petals)),
    "transform.cuts": ("transform.reduction_chain", len),
    "resolution.stages": ("resolution.partial_resolutions", len),
    "cli.output_bytes": ("cli.run", lambda r: len(r[1].encode())),
}
# a maximum rather than a sum
MAX_BITS = "frieze.max_entry_bits"


class Tracer:
    def __init__(self):
        self.spans: list = []      # [name, start_ns, end_ns, parent index or -1]
        self.stack: list[int] = []
        self.on = False
        self.counts: Counter = Counter()
        self.replaced: list = []   # (module, attribute, original function)

    def install(self) -> None:
        hooks: dict = {}
        for counter, (func, how) in COUNTERS.items():
            hooks.setdefault(func, []).append((counter, how))
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "friezelotus" or k.startswith("friezelotus."))]
        for name in FUNCTIONS:
            mod = sys.modules.get("friezelotus." + name.split(".")[0])
            if mod is None:
                continue
            original = getattr(mod, name.split(".")[1])
            wrapper = self._wrap(name, original, hooks.get(name, []))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self.replaced.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in self.replaced:
            setattr(m, attr, original)
        self.replaced.clear()

    def _wrap(self, name, fn, hooks):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            for counter, how in hooks:
                tracer.counts[counter] += how(result)
            if name == "frieze.frieze_from_quiddity":
                bits = max(result.entries.values()).bit_length()
                tracer.counts[MAX_BITS] = max(tracer.counts[MAX_BITS], bits)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, thread_time_ns(), 0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = thread_time_ns()
        self.stack.pop()

    def summary(self, first: int = 0) -> dict:
        """Per function: calls, busy ns (outermost spans only, so recursion
        is not counted twice) and self ns, over spans[first:]."""
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        for s in spans:
            if s[3] >= first:
                child_ns[s[3] - first] += s[2] - s[1]
        out: dict = {}
        for t, (name, start, end, parent) in enumerate(spans):
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[2] += end - start - child_ns[t]
            p = parent
            while p >= first and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < first:
                row[1] += end - start
        return out

    def dump(self, path, meta: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans]},
                      fh, separators=(",", ":"))
            fh.write("\n")
