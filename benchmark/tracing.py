"""Span tracing from outside the compiler.

The compiler is not instrumented.  Instead, while a :class:`Tracer` is
installed, the module bindings that quditc calls through (for example
``quditc.adaptive.annihilation_angles`` or ``quditc._compile.plan_routing``)
are replaced by wrappers that time each call.  A wrapper stack gives every
call its parent.  Calls made with an empty stack are the benchmark's own
top-level calls; each becomes a span tagged with the current instance id.
Inner calls are too frequent to keep one by one, so they are aggregated per
(root, parent, name) into a call count, total time and self time (total
minus the time of wrapped calls made inside it).

Layer names are ``<module>.<function>`` with quditc's ``_compile`` module
written ``compile``.
"""
from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, layer name, counter).  A counter maps a call's result
# to an amount added to the named tally under the call's root.
BINDINGS = [
    ("quditc.adaptive", "adaptive_compile", "adaptive.adaptive_compile", None),
    ("quditc.adaptive", "_ladder_replay", "adaptive._ladder_replay", None),
    ("quditc.adaptive", "qr_cost_bound", "qr.qr_cost_bound", None),
    ("quditc.adaptive", "is_unitary", "linalg.is_unitary", None),
    ("quditc.adaptive", "is_diagonal", "linalg.is_diagonal", None),
    ("quditc.adaptive", "annihilation_angles", "compile.annihilation_angles", None),
    ("quditc.adaptive", "rotation_cost", "cost.rotation_cost", None),
    ("quditc.adaptive", "apply_rotation_rows", "compile.apply_rotation_rows", None),
    ("quditc.adaptive", "emit_rotation", "compile.emit_rotation", None),
    ("quditc.adaptive", "assemble", "compile.assemble", None),
    ("quditc.qr", "qr_decompose", "qr.qr_decompose", None),
    ("quditc.qr", "is_unitary", "linalg.is_unitary", None),
    ("quditc.qr", "is_diagonal", "linalg.is_diagonal", None),
    ("quditc.qr", "annihilation_angles", "compile.annihilation_angles", None),
    ("quditc.qr", "apply_rotation_rows", "compile.apply_rotation_rows", None),
    ("quditc.qr", "emit_rotation", "compile.emit_rotation", None),
    ("quditc.qr", "assemble", "compile.assemble", None),
    ("quditc._compile", "plan_routing", "graph.plan_routing",
     ("graph.pulses_planned", lambda plan: len(plan.pulses))),
    ("quditc._compile", "rotation_cost", "cost.rotation_cost", None),
    ("quditc._compile", "conjugated", "phases.conjugated", None),
    ("quditc.verify", "verify_result", "verify.verify_result", None),
]


class Tracer:
    def __init__(self):
        self.instance = None
        self.spans = []     # (name, instance, start, end, self seconds)
        self.agg = {}       # (root, parent, name) -> [calls, total s, self s]
        self.tallies = {}   # (root, tally name) -> amount
        self._stack = []    # open calls: [name, root, child seconds]

    def wrap(self, name, fn, counter=None):
        stack, agg, clock = self._stack, self.agg, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            root = parent[1] if parent else name
            frame = [name, root, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                key = (root, parent[0] if parent else None, name)
                entry = agg.get(key)
                if entry is None:
                    entry = agg[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[2]
                if parent:
                    parent[2] += elapsed
                else:
                    self.spans.append((name, self.instance, start, end, elapsed - frame[2]))
            if counter is not None:
                tally = (root, counter[0])
                self.tallies[tally] = self.tallies.get(tally, 0) + counter[1](result)
            return result

        return traced

    # Queries sum the aggregates of ``name`` under ``root``.  ``parent``
    # narrows them to one direct caller (None: the top-level calls); the
    # default ``...`` takes every caller.
    def calls(self, root, name, parent=...):
        return self._sum(0, root, name, parent)

    def total_s(self, root, name, parent=...):
        return self._sum(1, root, name, parent)

    def self_s(self, root, name, parent=...):
        return self._sum(2, root, name, parent)

    def _sum(self, field, root, name, parent):
        return sum(v[field] for (r, p, n), v in self.agg.items()
                   if r == root and n == name and (parent is ... or p == parent))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                {"name": n, "instance": i, "start": s, "end": e, "self": x}
                for n, i, s, e, x in self.spans
            ],
            "aggregates": [
                {"root": r, "parent": p, "name": n, "calls": c, "total_s": t, "self_s": x}
                for (r, p, n), (c, t, x) in sorted(self.agg.items(), key=lambda kv: str(kv[0]))
            ],
            "tallies": [{"root": r, "name": n, "amount": a} for (r, n), a in self.tallies.items()],
        }
        path.write_text(json.dumps(doc) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Route quditc's calls through ``tracer`` for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, counter in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, counter))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
