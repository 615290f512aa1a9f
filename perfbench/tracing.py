"""Spans and counters at kvertex's layer boundaries, recorded from outside.

``Tracer.install`` replaces each traced public function with a wrapper,
at every module attribute through which a caller looks it up, and
``Tracer.uninstall`` puts the originals back. Nothing inside kvertex is
changed. A span is ``[name, start, end, parent]`` with ``parent`` the
index of the enclosing span (-1 at top level); all spans of one pass share
the tracer's ``pass_id``. Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from kvertex import boxconfig, fastsum, qcombi, vertexk, wallcross

PROPS = qcombi.PROPS


def _weight_factors(args, kwargs, fw):
    return {"vertexk.weight_factors": sum(-e for e in fw.fac.values() if e < 0)}


def _sum_counts(args, kwargs, pair):
    num, den = pair
    return {
        "vertexk.leaves": len(args[0]),
        "vertexk.final_num_terms": num.num_terms(),
        "vertexk.final_den_mult": sum(den.values()),
    }


def _identity_name(args, kwargs):
    return "qcombi.check_identity." + args[0]


# (attribute, modules it is looked up in, span name, result counter, is generator)
TRACED = (
    ("enumerate_configs", (boxconfig, vertexk), "boxconfig.enumerate_configs", None, True),
    ("vertex_character", (vertexk,), "vertexk.vertex_character", None, False),
    ("factored_weight", (vertexk,), "vertexk.factored_weight", _weight_factors, False),
    ("sum_weights", (vertexk,), "vertexk.sum_weights", _sum_counts, False),
    ("sum_factored", (fastsum,), "fastsum.sum_factored", None, False),
    ("dt_vertex_series", (vertexk,), "vertexk.dt_vertex_series", None, False),
    ("quot2_vertex_series", (vertexk,), "vertexk.quot2_vertex_series", None, False),
    ("check_identity", (qcombi,), _identity_name, None, False),
    ("restricted_word_sum", (qcombi, wallcross), "qcombi.restricted_word_sum", None, False),
    ("wall_transfer", (wallcross,), "wallcross.wall_transfer", None, False),
    ("joyce_check", (wallcross,), "wallcross.joyce_check", None, False),
    ("mochizuki_check", (wallcross,), "wallcross.mochizuki_check", None, False),
)

# per-layer time metric -> span names whose total time it is
TIMES = {
    "boxconfig.enumerate_s": ("boxconfig.enumerate_configs",),
    "vertexk.character_s": ("vertexk.vertex_character",),
    "vertexk.weight_s": ("vertexk.factored_weight",),
    "vertexk.sum_s": ("vertexk.sum_weights",),
    "fastsum.sum_s": ("fastsum.sum_factored",),
    **{"qcombi.check_identity_s." + p: ("qcombi.check_identity." + p,) for p in PROPS},
    "qcombi.restricted_word_sum_s": ("qcombi.restricted_word_sum",),
    "wallcross.wall_transfer_s": ("wallcross.wall_transfer",),
    "wallcross.joyce_check_s": ("wallcross.joyce_check",),
    "wallcross.mochizuki_check_s": ("wallcross.mochizuki_check",),
}
# per-layer self-time metric -> span names
SELF_TIMES = {
    "vertexk.series_self_s": ("vertexk.dt_vertex_series", "vertexk.quot2_vertex_series"),
}
# per-layer call-count metric -> span names it counts
CALLS = {
    "vertexk.character_calls": ("vertexk.vertex_character",),
    "vertexk.sum_calls": ("vertexk.sum_weights",),
    "qcombi.instances": tuple("qcombi.check_identity." + p for p in PROPS),
}
COUNTERS = (
    "boxconfig.configs",
    "vertexk.weight_factors",
    "vertexk.leaves",
    "vertexk.final_num_terms",
    "vertexk.final_den_mult",
    "fastsum.unavailable",
)
DERIVED = ("vertexk.fallback_s",)

LAYER_UNITS = {
    **{name: "s" for name in (*TIMES, *SELF_TIMES, *DERIVED)},
    **{name: "count" for name in (*CALLS, *COUNTERS)},
    "trace.wall_s": "s",
}


class Tracer:
    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self._saved = []

    def install(self):
        for attr, modules, name, count, is_gen in TRACED:
            for module in modules:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap_gen(name, fn) if is_gen else self._wrap(name, fn, count))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            idx = self._open(name(args, kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            except fastsum.FastSumUnavailable:
                self.counters["fastsum.unavailable"] += 1
                raise
            finally:
                self._close(idx)
            if count:
                self.counters.update(count(args, kwargs, out))
            return out

        return traced

    def _wrap_gen(self, name, fn):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counters["boxconfig.configs"] += 1
                yield item

        return traced

    def metrics(self):
        """Per-layer totals, self times and counts of this pass."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def outermost(i):
            name, parent = spans[i][0], spans[i][3]
            while parent >= 0:
                if spans[parent][0] == name:
                    return False
                parent = spans[parent][3]
            return True

        total = Counter()
        own = Counter()
        calls = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            own[name] += end - start - child_time[i]
            if outermost(i):
                total[name] += end - start
        out = {m: sum(total[n] for n in names) for m, names in TIMES.items()}
        out.update({m: sum(own[n] for n in names) for m, names in SELF_TIMES.items()})
        out.update({m: sum(calls[n] for n in names) for m, names in CALLS.items()})
        out.update({m: self.counters[m] for m in COUNTERS})
        out["vertexk.fallback_s"] = out["vertexk.sum_s"] - out["fastsum.sum_s"]
        return out

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"pass_id": self.pass_id, "counters": dict(self.counters),
                       "spans": self.spans}, f)
