"""Per-layer spans and counts, recorded from outside the program.

A Tracer replaces the listed public functions in every hkdiag module
namespace that bound them, so calls through imports and through module
globals are both seen, and restores the originals on uninstall. Each call
records a span (name, start, end, parent, request id, size) in memory. Hot
primitives run millions of times per pass, so their methods are wrapped on
the class with counters only.

A layer is one module of the package. Self time is a span's duration minus
the time its child spans cover; time in counted primitives stays with the
span that called them.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("cli", "spatial", "wirtinger", "homology", "diagram", "labeling")

SPANNED = {
    "cli": ("main",),
    "spatial": ("parse_code", "validate_code", "loop_at", "format_code", "constituent_links",
                "linking_number", "classify_atoroidal", "predicted_annulus"),
    "wirtinger": ("alexander_polynomial", "h1_complement", "attach_evidence"),
    "homology": ("smith_normal_form",),
    "diagram": ("enumerate_valid", "validate", "canonical_form", "are_isomorphic"),
    "labeling": ("parse_annulus", "validate_labels", "derived_facts", "symmetry_bounds",
                 "label_catalog", "labeled_isomorphic"),
}

COUNTED = (
    ("homology", "LaurentPoly", "__mul__", "homology.laurent_mul"),
    ("homology", "LaurentPoly", "__add__", "homology.laurent_add"),
    ("spatial", "SpatialGraphCode", "sign", "spatial.sign"),
    ("spatial", "SpatialGraphCode", "crossing_passes", "spatial.crossing_passes"),
)


def _alexander_dim(g) -> int:
    """Order of the minor whose determinant the Alexander polynomial is."""
    unders = sum(1 for p in g.edges[0].passes if p.position == "under") if g.edges else 0
    return max(unders - 1, 0)


SIZES = {
    "wirtinger.alexander_polynomial": _alexander_dim,
    "homology.smith_normal_form": lambda m: m.nrows * m.ncols,
}

# (metric, unit) in the order they are reported; see DESIGN.md for which
# end-to-end metric each should move.
LAYER_METRICS = (
    ("wirtinger.alexander_polynomial.calls", "count"),
    ("wirtinger.alexander_polynomial.ms", "ms"),
    ("wirtinger.alexander_polynomial.max_dim", "count"),
    ("homology.laurent_mul.calls", "count"),
    ("homology.laurent_add.calls", "count"),
    ("homology.smith_normal_form.calls", "count"),
    ("homology.smith_normal_form.ms", "ms"),
    ("homology.smith_normal_form.cells", "count"),
    ("wirtinger.h1_complement.calls", "count"),
    ("wirtinger.h1_complement.ms", "ms"),
    ("homology.self_ms", "ms"),
    *((f"spatial.{f}.{m}", u)
      for f in ("parse_code", "validate_code", "loop_at", "format_code", "constituent_links",
                "linking_number")
      for m, u in (("calls", "count"), ("ms", "ms"))),
    ("spatial.crossing_passes.calls", "count"),
    ("spatial.sign.calls", "count"),
    ("spatial.self_ms", "ms"),
    ("spatial.classify_atoroidal.ms", "ms"),
    ("spatial.predicted_annulus.ms", "ms"),
    ("wirtinger.attach_evidence.ms", "ms"),
    ("wirtinger.self_ms", "ms"),
    ("diagram.enumerate_valid.ms", "ms"),
    ("diagram.validate.calls", "count"),
    ("diagram.canonical_form.calls", "count"),
    ("diagram.are_isomorphic.calls", "count"),
    ("labeling.label_catalog.ms", "ms"),
    ("labeling.validate_labels.calls", "count"),
    ("labeling.labeled_isomorphic.calls", "count"),
    ("diagram.self_ms", "ms"),
    ("labeling.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Wraps the package from outside; install before a pass, uninstall after."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, request, size]
        self.counts: Counter[str] = Counter()
        self.request = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _spanned(self, name: str, fn):
        spans, stack, size_of = self.spans, self._stack, SIZES.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            size = size_of(*args) if size_of else 0
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.request, size])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"hkdiag.{m}") for m in MODULES}
        namespaces = [importlib.import_module("hkdiag"), *modules.values()]
        for module, names in SPANNED.items():
            for fn_name in names:
                original = getattr(modules[module], fn_name)
                wrapper = self._spanned(f"{module}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, attr, wrapper)
        for module, cls_name, method, name in COUNTED:
            cls = getattr(modules[module], cls_name)
            self._set(cls, method, self._counted(name, getattr(cls, method)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        """One tab-separated line per span: name, start, end, parent, request, size."""
        with path.open("w") as f:
            for span in self.spans:
                f.write("\t".join(map(str, span)) + "\n")

    def metrics(self, requests: int) -> dict[str, float]:
        """Per-layer metrics of the traced pass: counts are totals, times
        are self time per request in milliseconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter[str] = Counter()
        self_ns: defaultdict[str, int] = defaultdict(int)
        max_size: defaultdict[str, int] = defaultdict(int)
        sum_size: defaultdict[str, int] = defaultdict(int)
        for (name, start, end, _, _, size), children in zip(self.spans, child_ns):
            calls[name] += 1
            self_ns[name] += end - start - children
            self_ns[name.partition(".")[0]] += end - start - children
            max_size[name] = max(max_size[name], size)
            sum_size[name] += size

        def ms(key):
            return self_ns[key] / 1e6 / requests

        out = {}
        for metric, _ in LAYER_METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[base] + self.counts[base]
            elif kind in ("ms", "self_ms"):
                out[metric] = ms(base)
            elif kind == "max_dim":
                out[metric] = max_size[base]
            elif kind == "cells":
                out[metric] = sum_size[base]
        return out
