"""Span tracer that wraps the library's public functions from outside it.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper that records a span (name, start, end, parent) and, for a few
functions, a work count.  A function is replaced under every name it is
bound to in any ``jetiso`` module, found by identity, because ``cli``,
``verify`` and ``metriclab`` import functions by name (``cli`` even under a
private alias).  ``Poly.mul``, ``PolyEnd.__mul__`` and ``MultiTensor.permuted``
are patched on their classes.  ``uninstall`` puts every original back.

Spans stay in memory; ``fold`` turns the spans of one op into per-name call
counts, inclusive time and self time (duration minus the time its child
spans cover) and then drops them.  Generator functions are not wrapped,
because a span would end before the generator runs; their time is charged
to the caller.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = ("cli", "metriclab", "poly", "freealg", "tensor", "jets", "exactla", "verify")
METHODS = (
    ("poly", "Poly", "mul", "poly.mul"),
    ("tensor", "PolyEnd", "__mul__", "tensor.PolyEnd.mul"),
    ("jets", "MultiTensor", "permuted", "jets.MultiTensor.permuted"),
)
_MARK = "_bench_traced"


def _degree_hist(poly):
    return Counter(map(sum, poly.coeffs))


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = Counter()
        self._restore = []

    # -- counters, called with the wrapped function's arguments

    def _count_poly_mul(self, args, kwargs):
        a, b = args[0], args[1]
        trunc = args[2] if len(args) > 2 else kwargs.get("trunc")
        pairs = len(a.coeffs) * len(b.coeffs)
        self.counts["poly.mul.term_pairs"] += pairs
        if trunc is None:
            self.counts["poly.mul.kept_pairs"] += pairs
            return
        # pairs within the truncation, from degree histograms in O(|a|+|b|)
        hb = _degree_hist(b)
        self.counts["poly.mul.kept_pairs"] += sum(
            ca * cb for da, ca in _degree_hist(a).items()
            for db, cb in hb.items() if da + db <= trunc)

    def _count_rref(self, args, kwargs):
        m = args[0] if args else kwargs["m"]
        cells = m.rows * m.cols
        self.counts["exactla.rref.cells"] += cells
        self.maxima["exactla.rref.max_cells"] = max(self.maxima["exactla.rref.max_cells"], cells)

    def _count_ricci(self, args, kwargs):
        jet = args[0] if args else kwargs["jet"]
        level = args[1] if len(args) > 1 else kwargs["level"]
        self.counts["jets.ricci_defect.indices"] += jet.space.n ** (level + 4)

    # -- patching

    def _wrap(self, fn, name, count=None):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        setattr(traced, _MARK, True)
        return traced

    def install(self):
        counters = {"exactla.rref": self._count_rref,
                    "jets.ricci_defect": self._count_ricci}
        modules = [importlib.import_module(f"jetiso.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or id(obj) in wrappers):
                    continue
                fn = inspect.unwrap(obj)
                if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(obj, name, counters.get(name)))
        try:
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "jetiso" or mod_name.startswith("jetiso.")):
                    continue
                for attr, obj in list(vars(mod).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(mod, attr, hit[1])
                        self._restore.append((mod, attr, obj))
            for mod_short, cls_name, meth, name in METHODS:
                cls = getattr(importlib.import_module(f"jetiso.{mod_short}"), cls_name)
                orig = cls.__dict__[meth]
                count = self._count_poly_mul if name == "poly.mul" else None
                setattr(cls, meth, self._wrap(orig, name, count))
                self._restore.append((cls, meth, orig))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- aggregation

    def fold(self):
        """Add the spans recorded so far to the totals and drop them."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(spans, covered):
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - child
        spans.clear()


def is_traced(obj):
    return getattr(obj, _MARK, False)
