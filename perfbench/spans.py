"""Spans and counters recorded from outside the program.

The traced run replaces, on the module that resolves each name, the
public functions one colsym layer calls into another with wrappers that
record a span (name, start, end, parent span, op id) and bump counters.
Spans stay in memory and are written out when the run ends.  Nothing
under src/ is touched: the wrappers are installed per op and removed
again, and an untraced run never installs them.

A span name's first component is its layer; the op's root span belongs
to the harness.  A layer's self time is the time of its spans minus the
time their child spans cover, so the self times of one op sum to its
root span.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

from growth import ball_size

LAYERS = ("lowindex", "cache", "census", "geometry", "render", "selftest", "harness")

# inclusive span time reported per op under a metric name
SPAN_TIMES = {
    "lowindex.search": "lowindex.search_s",
    "cache.load": "cache.load_s",
    "cache.store": "cache.store_s",
    "census.twist": "census.twist_s",
    "census.record": "census.record_s",
    "geometry.patch": "geometry.patch_s",
    "render.colour": "render.colour_s",
    "render.verify": "render.verify_s",
    "render.svg": "render.svg_s",
}

COUNTS = (
    "lowindex.calls", "lowindex.classes",
    "census.classes_scanned", "census.representatives",
    "census.twist_calls", "census.records",
    "cache.loads", "cache.hits", "cache.misses", "cache.bytes_read",
    "cache.stores", "cache.bytes_written",
    "geometry.triangles", "geometry.exact_triangles", "geometry.excess_triangles",
    "render.polygons", "render.oversize_polygons", "render.verify_words",
    "render.svg_paths", "render.svg_bytes",
)


def _layer(name: str) -> str:
    return "harness" if name == "op" else name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()  # counters of the current op
        self.missing: set[str] = set()  # hook targets absent from the program
        self._open: list[int] = []
        self._op: int | None = None

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self._op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, result, args)
            return result

        return wrapper

    def _hooks(self):
        """(module, attribute, wrapper maker) for every wrapped call site."""
        mods = sys.modules
        cache, census = mods["colsym.cache"], mods["colsym.census"]
        geometry, render, selftest = mods["colsym.geometry"], mods["colsym.render"], mods["colsym.selftest"]

        def searched(c, r, a):
            c["lowindex.calls"] += 1
            c["lowindex.classes"] += len(r.tables)

        def loaded(c, r, a):
            c["cache.loads"] += 1
            c["cache.hits" if r is not None else "cache.misses"] += 1

        def parsed(c, r, a):
            c["cache.bytes_read"] += len(a[0])

        def stored(c, r, a):
            c["cache.stores"] += 1
            c["cache.bytes_written"] += os.path.getsize(r)

        def provided(c, r, a):
            c["cache.provider_calls"] += 1
            c["census.classes_scanned"] += len(r.tables)

        def counted(c, r, a):
            c["census.representatives"] += sum(e.count for e in r.entries)

        def patched(c, r, a):
            exact = ball_size(r.p, r.q, r.depth)
            c["geometry.triangles"] += len(r.tiles)
            c["geometry.exact_triangles"] += exact
            c["geometry.excess_triangles"] += len(r.tiles) - exact

        def coloured(c, r, a):
            c["render.polygons"] += len(r.polygons)
            c["render.oversize_polygons"] += sum(len(g) > r.polygon_size for g in r.polygons)

        def drawn(c, r, a):
            c["render.svg_paths"] += r.count(b"<path")
            c["render.svg_bytes"] += len(r)

        def bump(key):
            def count(c, r, a):
                c[key] += 1
            return count

        def wrap(name, count=None):
            return lambda fn: self._wrap(fn, name, count)

        def provider_factory(factory):
            # cached_provider returns the provider census calls; wrap that instead
            @functools.wraps(factory)
            def make(*args, **kwargs):
                return self._wrap(factory(*args, **kwargs), "cache.provider", provided)
            return make

        hooks = [
            (cache, "low_index_classes", wrap("lowindex.search", searched)),
            (cache, "load_classes", wrap("cache.load", loaded)),
            (cache, "parse_class_list", wrap("cache.parse", parsed)),
            (cache, "store_classes", wrap("cache.store", stored)),
            (census, "transform_subgroup", wrap("census.twist", bump("census.twist_calls"))),
            (census, "_rerooted_record", wrap("census.record", bump("census.records"))),
            (selftest, "run_selftest", wrap("selftest")),
        ]
        for mod in (cache, selftest):
            hooks.append((mod, "cached_provider", provider_factory))
        for mod in (census, selftest):
            hooks.append((mod, "census", wrap("census", counted)))
        for mod in (geometry, selftest):
            hooks.append((mod, "generate_patch", wrap("geometry.patch", patched)))
        for mod in (render, selftest):
            hooks += [
                (mod, "colour_patch", wrap("render.colour", coloured)),
                (mod, "verify_perfect_on_patch", wrap("render.verify", bump("render.verify_words"))),
                (mod, "emit_svg", wrap("render.svg", drawn)),
            ]
        return hooks

    @contextmanager
    def installed(self, op_id: int):
        """Wrap every hooked call site for the duration of one op."""
        self._op = op_id
        self.counts = Counter()
        saved = []
        try:
            for mod, attr, make in self._hooks():
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.add(f"{mod.__name__}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, make(fn))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            self._op = None

    def op_metrics(self, op_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced op, from its spans and counters."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == op_id]
        child_time: Counter = Counter()
        for _, s in spans:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({metric: 0.0 for metric in SPAN_TIMES.values()})
        root = 0.0
        for i, s in spans:
            dur = s[2] - s[1]
            out[f"{_layer(s[0])}.self_s"] += dur - child_time[i]
            if s[0] in SPAN_TIMES:
                out[SPAN_TIMES[s[0]]] += dur
            if s[0] == "op":
                root = dur
        c = self.counts
        out.update({key: float(c[key]) for key in COUNTS})
        out["cache.memo_hits"] = float(c["cache.provider_calls"] - c["cache.loads"])
        scanned = c["census.classes_scanned"]
        out["census.keep_ratio"] = c["census.representatives"] / scanned if scanned else 0.0
        search = out["lowindex.search_s"]
        out["lowindex.classes_per_s"] = c["lowindex.classes"] / search if search else 0.0
        out["trace.op_s"] = root
        return out

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
