"""Span tracer for the benchmark's traced run.

The tracer rebinds selected public functions of krenergy's modules (and
``PolyMatrix.det``) to timing wrappers, in every loaded ``krenergy``
namespace that holds them, so calls made between modules and calls made
inside one module both pass through a wrapper.  Nothing in the package
itself changes; ``uninstall`` puts the original objects back.

Every wrapped call is one span: an id, the id of the span that was running
when it was called, a name, an optional key, its start and end, its busy
time and its self time (busy time minus the busy time of its child spans).
A generator such as ``enumerate_ssyt`` is timed only inside ``next()``, so
the time its consumer spends between two items is not charged to it; its
span covers all of its ``next()`` calls and its item count is the number of
values it yielded.  Spans stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

_clock = time.perf_counter_ns

# Traced functions per layer, in module krenergy.<layer>; a dotted name is
# a method, rebound on its class.  The set is the public functions that the
# per-layer metrics name; small helpers such as ``ok`` or ``kappa`` stay
# unwrapped so that their cost is charged to their caller's self time.
TRACED = {
    "tableaux": ("enumerate_ssyt", "rectify"),
    "crystal": ("intrinsic_energy", "r_matrix", "energy_staircase", "r_matrix_oracle"),
    "lsym": ("PolyMatrix.det", "loop_e", "loop_h", "tau", "sigma", "loop_schur_tableaux",
             "loop_schur_jt", "trop_eval"),
    "birational": ("eval_loop_e", "eval_loop_h", "eval_tau", "eval_sigma", "fraction_det",
                   "s_action", "rational_energy_global", "rational_energy_product"),
    "identities": ("identity_suite",),
    "verify": ("run_verify",),
}

GENERATORS = {"tableaux.enumerate_ssyt"}

# Span fields, stored flat in one array of 64-bit integers.
FIELDS = ("id", "parent", "name", "key", "start_ns", "end_ns", "busy_ns", "self_ns", "items")
_WIDTH = len(FIELDS)


def _ssyt_key(original):
    from krenergy.tableaux import SkewShape

    signature = inspect.signature(original)

    def key(args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        shape = SkewShape.of(bound["shape"])
        return (shape.outer.parts, shape.inner.parts, bound["max_entry"])

    return key


def _suite_key(original):
    signature = inspect.signature(original)

    def key(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return (bound.arguments["n"], bound.arguments["m"], bound.arguments["mode"])

    return key


def _poly_terms(result) -> int:
    return len(result.terms) if hasattr(result, "terms") else -1


# How a span is keyed (for the re-enumeration and per-cell ratios) and
# what it counts as items; a generator's items are the values it yielded.
KEYS = {"tableaux.enumerate_ssyt": _ssyt_key, "identities.identity_suite": _suite_key}
ITEMS = {"identities.identity_suite": len}


class _TracedIter:
    """Iterator wrapper that times each ``next()`` as part of one span."""

    __slots__ = ("_tracer", "_it", "_sid", "_parent", "_name", "_key", "_first", "_last",
                 "_busy", "_self", "_count")

    def __init__(self, tracer, it, sid, parent, name, key):
        self._tracer = tracer
        self._it = it
        self._sid = sid
        self._parent = parent
        self._name = name
        self._key = key
        self._first = -1
        self._last = -1
        self._busy = 0
        self._self = 0
        self._count = 0

    def __iter__(self):
        return self

    def __next__(self):
        stack = self._tracer._stack
        frame = [self._sid, 0]
        stack.append(frame)
        start = _clock()
        try:
            value = next(self._it)
        except BaseException:
            self._segment(start, frame)
            self._finish()
            raise
        self._segment(start, frame)
        self._count += 1
        return value

    def _segment(self, start, frame):
        end = _clock()
        stack = self._tracer._stack
        stack.pop()
        busy = end - start
        if stack:
            stack[-1][1] += busy
        if self._first < 0:
            self._first = start
        self._last = end
        self._busy += busy
        self._self += busy - frame[1]

    def _finish(self):
        tracer = self._tracer
        if tracer._open.pop(self._sid, None) is None:
            return
        tracer._spans.extend(
            (self._sid, self._parent, self._name, self._key, self._first, self._last,
             self._busy, self._self, self._count)
        )


class Tracer:
    """Collects spans from the wrapped functions while installed."""

    def __init__(self) -> None:
        self._spans = array("q")
        self._stack: list[list[int]] = []
        self._open: dict[int, _TracedIter] = {}
        self._next_id = 1
        self.names: list[str] = []
        self.keys: list[object] = [None]
        self._key_index: dict[object, int] = {None: 0}
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if mod is not None and (name == "krenergy" or name.startswith("krenergy."))]
        for layer, names in TRACED.items():
            module = sys.modules[f"krenergy.{layer}"]
            for qual in names:
                name = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._rebind(owner, attr, self._wrap(original, name))
                    continue
                original = getattr(module, qual)
                wrapper = self._wrap(original, name)
                for ns in namespaces:
                    if ns.__dict__.get(qual) is original:
                        self._rebind(ns, qual, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _close(self, frame, parent, name_idx, key, start, end, items) -> None:
        stack = self._stack
        stack.pop()
        busy = end - start
        if stack:
            stack[-1][1] += busy
        self._spans.extend((frame[0], parent, name_idx, key, start, end, busy, busy - frame[1], items))

    def _intern_key(self, key) -> int:
        idx = self._key_index.get(key)
        if idx is None:
            idx = self._key_index[key] = len(self.keys)
            self.keys.append(key)
        return idx

    def _wrap(self, original, name: str):
        self.names.append(name)
        name_idx = len(self.names) - 1
        items_of = ITEMS.get(name, _poly_terms if name.startswith("lsym.") else None)
        key_of = KEYS[name](original) if name in KEYS else None
        tracer = self

        if name in GENERATORS:
            def traced_gen(*args, **kwargs):
                key = tracer._intern_key(key_of(args, kwargs)) if key_of else 0
                sid = tracer._next_id
                tracer._next_id += 1
                parent = tracer._stack[-1][0] if tracer._stack else 0
                it = _TracedIter(tracer, iter(original(*args, **kwargs)), sid, parent, name_idx, key)
                tracer._open[sid] = it
                return it

            traced_gen.__wrapped__ = original
            traced_gen.span_name = name
            return traced_gen

        def traced(*args, **kwargs):
            key = tracer._intern_key(key_of(args, kwargs)) if key_of else 0
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            start = _clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(frame, parent, name_idx, key, start, _clock(), -1)
                raise
            end = _clock()
            tracer._close(frame, parent, name_idx, key, start, end,
                          items_of(result) if items_of is not None else -1)
            return result

        traced.__wrapped__ = original
        traced.span_name = name
        return traced

    # -- results ------------------------------------------------------

    def finish(self) -> None:
        """Close generator spans that were never run to exhaustion."""
        for it in list(self._open.values()):
            it._finish()

    def spans(self):
        """Yield each finished span as a tuple in ``FIELDS`` order."""
        data = self._spans
        for off in range(0, len(data), _WIDTH):
            yield tuple(data[off : off + _WIDTH])

    def span_count(self) -> int:
        return len(self._spans) // _WIDTH

    def write_spans(self, path) -> None:
        """Write every span as one tab-separated line, names resolved."""
        with open(path, "w") as out:
            out.write("\t".join(FIELDS) + "\n")
            for span in self.spans():
                row = list(map(str, span))
                row[2] = self.names[span[2]]
                row[3] = repr(self.keys[span[3]]) if span[3] else ""
                out.write("\t".join(row) + "\n")

    def summary(self) -> dict:
        """Per span name: calls, busy and self seconds, items, the largest
        item count seen per key, and the number of calls per parent name."""
        stats: dict[str, dict] = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "items": 0, "by_key": {}, "by_parent": {}}
            for name in self.names
        }
        name_of = array("i", [-1]) * self._next_id
        for span in self.spans():
            name_of[span[0]] = span[2]
        for sid, parent, name_idx, key, _start, _end, busy, self_ns, items in self.spans():
            entry = stats[self.names[name_idx]]
            entry["calls"] += 1
            entry["busy_s"] += busy / 1e9
            entry["self_s"] += self_ns / 1e9
            if items > 0:
                entry["items"] += items
            if key:
                k = repr(self.keys[key])
                entry["by_key"][k] = max(entry["by_key"].get(k, 0), max(items, 0))
            if parent:
                pname = self.names[name_of[parent]] if name_of[parent] >= 0 else "?"
                entry["by_parent"][pname] = entry["by_parent"].get(pname, 0) + 1
        return stats
