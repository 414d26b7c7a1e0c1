"""Spans around the library's public functions, recorded from outside it.

``install`` replaces each traced function, wherever a ``linedyn`` module
holds a reference to it, with a wrapper that records one span per call:
name, start, end, parent span and the benchmark operation it belongs to.
Calls the library makes to itself go through module globals, so nested
calls are traced too.  For a generator function the span covers its life
and counts as busy only while the consumer is inside ``next``.  Spans stay
in memory; ``dump`` writes them out once the run is over.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter


def _num_cycles(orbits) -> int:
    return sum(len(v) for v in orbits.values())


# (span name, module, attribute, count taken from the result or None)
TRACED = (
    ("posets.core", "linedyn.posets", "Poset.core", None),
    ("posets.chains", "linedyn.posets", "Poset.chains", None),
    ("posets.induced", "linedyn.posets", "Poset.induced", None),
    ("complexes.order_complex", "linedyn.complexes", "order_complex",
     lambda k: k.num_simplices),
    ("homology.homology", "linedyn.homology", "homology", None),
    ("homology.snf", "linedyn.homology", "snf_diagonal", None),
    ("homology.is_acyclic", "linedyn.homology", "is_acyclic", None),
    ("homology.rational_homology_basis", "linedyn.homology", "rational_homology_basis", None),
    ("multimaps.is_vietoris_like_multimap", "linedyn.multimaps", "is_vietoris_like_multimap", None),
    ("multimaps.lefschetz_number", "linedyn.multimaps", "lefschetz_number", None),
    ("multimaps.graph_poset", "linedyn.multimaps", "graph_poset", None),
    ("multimaps.periodic_orbits", "linedyn.multimaps", "periodic_orbits", _num_cycles),
    ("multimaps.classify_invariant_sets", "linedyn.multimaps", "classify_invariant_sets", None),
    ("singlemaps.selfmap_lefschetz", "linedyn.singlemaps", "selfmap_lefschetz", None),
    ("singlemaps.enumerate", "linedyn.singlemaps", "enumerate_continuous_selfmaps", None),
    ("verify.no-period-3", "linedyn.verify", "verify_no_high_periods", lambda r: r.checks),
    ("verify.period-2-structure", "linedyn.verify", "verify_period_two_structure",
     lambda r: r.checks),
    ("verify.interval-lemma", "linedyn.verify", "verify_interval_lemma", lambda r: r.checks),
    ("verify.lefschetz", "linedyn.verify", "verify_lefschetz_fixed_points", lambda r: r.checks),
)

# span fields, kept as lists for speed
NAME, START, END, PARENT, OP, BUSY, COUNT = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.current = -1
        self.op = None
        self._undo: list = []

    def _call(self, name, fn, count, args, kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.current, self.op, 0.0, None]
        self.spans.append(span)
        parent, self.current = self.current, idx
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.current = parent
            span[START], span[END], span[BUSY] = start, end, end - start
        if count is not None:
            span[COUNT] = count(result)
        return result

    def _generate(self, name, fn, args, kwargs):
        idx = len(self.spans)
        start = perf_counter()
        span = [name, start, start, self.current, self.op, 0.0, None]
        self.spans.append(span)
        inner = fn(*args, **kwargs)
        while True:
            outer, self.current = self.current, idx
            t0 = perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                t1 = perf_counter()
                self.current = outer
                span[BUSY] += t1 - t0
                span[END] = t1
            yield item

    def _wrapper(self, name, fn, count):
        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                return self._generate(name, fn, args, kwargs)
        else:
            def traced(*args, **kwargs):
                return self._call(name, fn, count, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded linedyn module."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "linedyn" or name.startswith("linedyn.")
        ]
        for span_name, module, attr, count in TRACED:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self._wrapper(span_name, fn, count))
                self._undo.append((cls, meth, fn))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrapper(span_name, fn, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, fn))

    def uninstall(self) -> None:
        for target, key, fn in reversed(self._undo):
            setattr(target, key, fn)
        self._undo.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START] - origin,
                    "end": s[END] - origin, "parent": s[PARENT], "op": s[OP],
                    "busy": s[BUSY], "count": s[COUNT],
                }) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's busy time minus the busy time of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[BUSY]
    return [s[BUSY] - c for s, c in zip(spans, child)]
