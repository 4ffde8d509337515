"""Per-layer tracing of paracurv from outside its source.

:func:`instrument` wraps the program's public functions at runtime, at
every name its modules call them by (``paracurv.manifest.identity_suite``
and ``paracurv.analysis.identity_suite`` are one wrapper), plus the
``PointGeometry`` cached properties and a few methods.  The program's
source is not edited.  Spans are kept in memory; a span opened directly
inside a span of the same key is folded into it, so a recursive function
(``eval_jet``) or a wrapper calling its base (the D-homothety) is one span.

Self time is a span's duration minus the durations of its direct children
(the run is single-threaded, so children never overlap).
"""

from __future__ import annotations

import sys
import time
from functools import cached_property

import numpy as np

ANALYSIS = (
    "check_axioms", "classify", "xi_sectional", "phsc", "space_form_fit",
    "eta_einstein_fit", "pc_bochner", "bochner_symmetries", "wpc",
    "bochner_pairing", "identity_suite",
)

# (module, function, span key)
FUNCTIONS = (
    ("manifest", "load_manifest", "manifest.load"),
    ("manifest", "build_structure", "manifest.build"),
    ("manifest", "run_checks", "manifest.run_checks"),
    ("manifest", "dumps_report", "manifest.serialize"),
    ("manifest", "write_report", "manifest.serialize"),
    ("exprlang", "eval_jet", "exprlang"),
    ("jetfields", "jt_einsum", "jetfields.einsum"),
    ("jetfields", "jt_metric_inverse", "jetfields.metric_inverse"),
    ("connection", "covariant", "connection.covariant"),
    ("connection", "parallel_check", "connection.parallel_check"),
    ("report", "nres", "report.nres"),
) + tuple(("analysis", fn, f"analysis.{fn}") for fn in ANALYSIS)

# (module, class, method, span key)
METHODS = (
    ("exprlang", "ScalarField", "__call__", "exprlang"),
    ("geometry", "ExprTableComponents", "at", "geometry.structure_jets"),
    ("geometry", "InducedComponents", "at", "geometry.structure_jets"),
    ("geometry", "HomotheticComponents", "at", "geometry.structure_jets"),
    ("sampling", "Sampler", "point", "sampling"),
    ("sampling", "Sampler", "horizontal_unit", "sampling"),
    ("sampling", "Sampler", "section_vector", "sampling"),
)

# PointGeometry cached property -> span key
PROPERTIES = {
    "gamma": "connection.gamma",
    "riem_up": "connection.riemann",
    "riem_down": "connection.riemann",
    "ricci": "connection.riemann",
    "scalar": "connection.riemann",
    "gamma_tilde": "connection.gamma_tilde",
    "riem_tilde_up": "connection.riemann_tilde",
    "riem_tilde_down": "connection.riemann_tilde",
    "ricci_tilde": "connection.riemann_tilde",
    "scalar_tilde": "connection.riemann_tilde",
}

# count-only hooks, too frequent and too cheap for a span:
# (module, class or None, function, counter, whether to record the point)
COUNTERS = (
    ("geometry", "CharteredStructure", "at", "geometry.at", True),
    ("connection", None, "get_frame", "connection.frame_requests", True),
    ("connection", "PointGeometry", "__init__", "connection.frames_built", False),
)

KEY, PARENT, START, END = range(4)


class Tracer:
    """Spans ``[key, parent index, start, end]`` and named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counts = {}
        self.points = {}  # counter -> point keys seen in the current operation
        self.distinct = {}  # counter -> distinct points summed over operations

    def open(self, key):
        index = len(self.spans)
        self.spans.append([key, self.stack[-1] if self.stack else -1,
                           self.clock(), None])
        self.stack.append(index)
        return index

    def close(self, index):
        self.stack.pop()
        self.spans[index][END] = self.clock()

    def wrap(self, fn, key):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][KEY] == key:
                return fn(*args, **kwargs)
            index = self.open(key)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn, name, with_point):
        counts = self.counts
        counts.setdefault(name, 0)
        seen = self.points.setdefault(name, set()) if with_point else None

        def counter(*args, **kwargs):
            counts[name] += 1
            if seen is not None:
                point = args[1] if len(args) > 1 else kwargs["point"]
                seen.add(np.asarray(point, dtype=float).tobytes())
            return fn(*args, **kwargs)

        counter.__wrapped__ = fn
        return counter

    def end_operation(self):
        """Fold the points of the finished operation into the distinct totals."""
        for name, seen in self.points.items():
            self.distinct[name] = self.distinct.get(name, 0) + len(seen)
            seen.clear()

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        for name in self.counts:
            self.counts[name] = 0
        for seen in self.points.values():
            seen.clear()
        self.distinct.clear()


def summarize(spans):
    """Per key: number of spans, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a key on each path, so
    a key is never counted twice for one interval; self time is summed over
    every span of the key.
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[END] - span[START]
    out = {}
    for i, span in enumerate(spans):
        key = span[KEY]
        entry = out.setdefault(key, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        duration = span[END] - span[START]
        entry["count"] += 1
        entry["self_s"] += duration - children[i]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][KEY] != key:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["total_s"] += duration
    return out


def instrument(tracer):
    """Install the tracer's hooks into the loaded paracurv modules.

    Returns a function that removes them again.
    """
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "paracurv" or name.startswith("paracurv.")}
    undo = []

    def rebind(original, replacement):
        # every module-level name bound to the function, so callers that
        # imported it by name see the wrapper too
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    undo.append((mod, attr, original))

    def patch(owner, attr, replacement):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for module, fn, key in FUNCTIONS:
        original = getattr(modules[f"paracurv.{module}"], fn)
        rebind(original, tracer.wrap(original, key))
    for module, cls, method, key in METHODS:
        owner = getattr(modules[f"paracurv.{module}"], cls)
        patch(owner, method, tracer.wrap(owner.__dict__[method], key))
    point_geometry = modules["paracurv.connection"].PointGeometry
    for prop, key in PROPERTIES.items():
        traced = cached_property(tracer.wrap(point_geometry.__dict__[prop].func, key))
        traced.__set_name__(point_geometry, prop)
        patch(point_geometry, prop, traced)
    for module, cls, fn, name, with_point in COUNTERS:
        mod = modules[f"paracurv.{module}"]
        if cls is None:
            original = getattr(mod, fn)
            rebind(original, tracer.counted(original, name, with_point))
        else:
            owner = getattr(mod, cls)
            patch(owner, fn, tracer.counted(owner.__dict__[fn], name, with_point))

    def remove():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return remove


def layer_metrics(tracer):
    """The per-layer metrics of everything traced since the last reset."""
    table = summarize(tracer.spans)
    counts, distinct = tracer.counts, tracer.distinct

    def entry(key):
        return table.get(key, {"count": 0, "total_s": 0.0, "self_s": 0.0})

    def ratio(num, den):
        return num / den if den else 0.0

    field_evals = sum(
        1 for span in tracer.spans
        if span[KEY] == "exprlang" and span[PARENT] >= 0
        and tracer.spans[span[PARENT]][KEY] == "geometry.structure_jets")
    jets = entry("geometry.structure_jets")["count"]
    frames = counts.get("connection.frames_built", 0)
    m = {
        "manifest.load_s": entry("manifest.load")["total_s"],
        "manifest.build_s": entry("manifest.build")["total_s"],
        "manifest.run_checks_s": entry("manifest.run_checks")["total_s"],
        "manifest.serialize_s": entry("manifest.serialize")["total_s"],
        "exprlang.field_evals": field_evals,
        "exprlang.eval_s": entry("exprlang")["total_s"],
        "geometry.at_calls": counts.get("geometry.at", 0),
        "geometry.structure_jets": jets,
        "geometry.structure_jets_per_point": ratio(
            jets, distinct.get("geometry.at", 0)),
        "geometry.self_s": sum(v["self_s"] for k, v in table.items()
                               if k.startswith("geometry.")),
        "jetfields.einsum_calls": entry("jetfields.einsum")["count"],
        "jetfields.einsum_s": entry("jetfields.einsum")["total_s"],
        "jetfields.metric_inverse_s": entry("jetfields.metric_inverse")["total_s"],
        "connection.frame_requests": counts.get("connection.frame_requests", 0),
        "connection.frames_built": frames,
        "connection.frames_per_point": ratio(
            frames, distinct.get("connection.frame_requests", 0)),
    }
    for part in ("gamma", "riemann", "gamma_tilde", "riemann_tilde",
                 "covariant", "parallel_check"):
        m[f"connection.{part}_s"] = entry(f"connection.{part}")["total_s"]
    for fn in ANALYSIS:
        m[f"analysis.{fn}_s"] = entry(f"analysis.{fn}")["total_s"]
        m[f"analysis.{fn}.self_s"] = entry(f"analysis.{fn}")["self_s"]
    m["sampling.draws"] = entry("sampling")["count"]
    m["sampling.s"] = entry("sampling")["total_s"]
    m["report.nres_calls"] = entry("report.nres")["count"]
    m["report.nres_s"] = entry("report.nres")["total_s"]
    m["cli.self_s"] = entry("cli")["self_s"]
    return m
