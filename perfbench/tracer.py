"""Per-layer tracing from outside the library.

`Tracer.install()` replaces each layer's public functions, and the
methods named in `_METHODS`, with wrappers that count calls and keep self
time per layer.  A wrapper is installed at every module binding of the
function, because `from .theta import compose_cellular` copies the name
into `cellset`, `boxprod` and the scripts; methods are patched on their
class.  Leaf calls only add to call counts and per-layer self time;
spans (name, start, end, parent, item) are kept only at the coarse
boundaries named in `_SPANS`.
Everything stays in memory until `write()`.

Cache hit ratios come from the `cache_info()` of the original
`lru_cache` objects, which stay in place underneath the wrappers.  The
work counts that need the library's enumerators (hyperfaces per cell,
faces per pullback) are tallied by shape during the run and resolved in
`metrics()` only after the counters and cache statistics are read, so
the tracer's own lookups show in neither.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "delta",
    "theta",
    "sset",
    "cellset",
    "boxprod",
    "twocat",
    "anodyne.gluing",
    "anodyne.scripts",
    "anodyne.claims",
    "anodyne.lifting",
)

# methods wrapped besides module-level functions: value types (shapes,
# operators, labels) stay unwrapped and their cost lands in the caller
_METHODS = {
    "cellset": {
        "TruncatedCellularSet": ("cells", "act", "nd_decompose", "nd_cells", "is_nondegenerate"),
        "Representable": ("_act", "nd_decompose", "_compute_cells"),
        "FromSimplicial": ("_act", "_compute_cells"),
        "ProductCellSet": ("_act", "_compute_cells"),
        "Subobject": (
            "generated", "contains", "union", "intersection", "issubset",
            "restricted", "equals_up_to", "pullback_along", "full",
        ),
    },
    "boxprod": {"BoxCellSet": ("_act", "_compute_cells")},
    "sset": {
        "SimplicialSet": ("act",),
        "StandardSimplex": ("level", "contains"),
        "BoundarySimplex": ("level", "contains"),
        "HornSimplex": ("level", "contains"),
        "Interval": ("level", "contains"),
        "DiamondPoint": ("level", "contains"),
        "EmptySSet": ("level", "contains"),
    },
    "twocat": {"Nerve": ("_act", "_compute_cells", "_paths")},
}

# functions whose calls are counted and timed as one group (inclusive time)
_GROUPS = {
    "boxprod.subobject": (
        "boundary", "horn_h", "horn_v", "horn_h_alt", "spine_subobject", "spine",
        "sigma_subobject", "spine_s", "upsilon_subobject", "upsilon_s",
        "lambda_subobject", "lambda_s", "equiv_vert", "equiv_horiz", "theta_corner",
        "leibniz_box", "boundary_leibniz", "horn_h_leibniz", "horn_v_leibniz",
    ),
    "anodyne.scripts.build": (
        "spine_anodyne", "sigma_s", "upsilon_vertical", "upsilon_full",
        "oury_from_alt", "alt_trivial", "vert_equiv", "horiz_equiv",
    ),
}

# key -> span name recorded for every call (coarse boundaries only)
_SPANS = {
    "cellset.Subobject.generated": "closure",
    "cellset.Subobject.pullback_along": "pullback",
    "anodyne.gluing.verify_gluing_square": "square",
    "anodyne.scripts.build": "build",
    "anodyne.scripts.replay": "replay",
    "anodyne.lifting.lift_check": "lift_check",
}

# keys whose inclusive time is reported (outermost call only)
_TIMED = {
    "cellset.Subobject.generated",
    "cellset.Subobject.pullback_along",
    "cellset.TruncatedCellularSet.nd_cells",
    "boxprod.subobject",
    "twocat.Nerve._compute_cells",
    "anodyne.gluing.verify_gluing_square",
    "anodyne.gluing.image_subobject",
    "anodyne.scripts.build",
    "anodyne.scripts.replay",
    "anodyne.lifting.subobject_maps",
    "anodyne.lifting.find_filler",
    "anodyne.claims.check_claim0",
    "anodyne.claims.check_claim1",
    "anodyne.claims.check_claim2",
    "anodyne.claims.check_claim3",
    "anodyne.claims.check_claim4",
    "anodyne.claims.check_claim5",
}

_THETA_CACHES = (
    "shapes_upto", "hyperfaces", "cellular_ops", "faces_between", "faces_into",
    "degeneracies_between", "elementary_degeneracies",
)


def _is_lru(obj):
    return hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.derived = defaultdict(int)
        self.spans = []
        self.item = None
        self._depth = defaultdict(int)
        self._stack = [[0.0]]  # child time of the open frames
        self._span_stack = [-1]
        self._caches = {}
        self._generated_by_shape = defaultdict(int)
        self._pullbacks_by_shape = defaultdict(int)

    # -- installation ------------------------------------------------------

    def install(self, also):
        """Wrap every layer's functions at every binding in the loaded theta2
        modules and in the modules passed as `also` (the benchmark's own)."""
        mods = [importlib.import_module(f"theta2.{name}") for name in LAYERS]
        bindings = [m for name, m in sys.modules.items() if name.split(".")[0] == "theta2"]
        bindings += list(also)
        group_of = {
            (f"theta2.{group.rsplit('.', 1)[0]}", fn): group
            for group, fns in _GROUPS.items()
            for fn in fns
        }
        for layer, mod in zip(LAYERS, mods):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or inspect.isclass(obj):
                    continue
                lru = _is_lru(obj)
                if not (inspect.isfunction(obj) or lru) or obj.__module__ != mod.__name__:
                    continue
                if lru:
                    self._caches[f"{layer}.{name}"] = obj
                key = f"{layer}.{name}"
                group = group_of.get((mod.__name__, name))
                wrapper = self._wrap(obj, layer, key, group or key, self._post_for(key))
                for other in bindings:
                    for attr, val in list(vars(other).items()):
                        if val is obj:
                            setattr(other, attr, wrapper)
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    key = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        wrapped = self._wrap(raw.__func__, layer, key, key, self._post_for(key))
                        setattr(cls, meth, classmethod(wrapped))
                    else:
                        setattr(cls, meth, self._wrap(raw, layer, key, key, self._post_for(key)))

    def _wrap(self, fn, layer, key, time_key, post):
        clock = time.perf_counter
        calls, self_s, stack = self.calls, self.self_s, self._stack
        span = _SPANS.get(time_key) or _SPANS.get(key)
        if time_key not in _TIMED and span is None and post is None:

            def leaf(*args, **kwargs):
                calls[key] += 1
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    self_s[layer] += dt - frame[0]
                    stack[-1][0] += dt

            return leaf

        depth, incl, spans, span_stack = self._depth, self.incl, self.spans, self._span_stack

        def timed(*args, **kwargs):
            calls[key] += 1
            frame = [0.0]
            stack.append(frame)
            depth[time_key] += 1
            if span:
                span_stack.append(len(spans))
                spans.append([span, 0.0, 0.0, span_stack[-2], self.item])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                stack[-1][0] += dt
                depth[time_key] -= 1
                if not depth[time_key]:
                    incl[time_key] += dt
                if span:
                    rec = spans[span_stack.pop()]
                    rec[1], rec[2] = t0, t1
            if post is not None:
                post(args, result)
            return result

        return timed

    # -- work counts derived from arguments and results -----------------------

    def _post_for(self, key):
        return {
            "cellset.Subobject.generated": self._post_generated,
            "cellset.Subobject.pullback_along": self._post_pullback,
            "anodyne.scripts.replay": self._post_replay,
            "anodyne.lifting.subobject_maps": self._post_maps,
            "anodyne.lifting.find_filler": self._post_filler,
        }.get(key)

    def _post_generated(self, args, sub):
        # every lookup (a generator, or a hyperface image of a popped cell)
        # either adds a new nondegenerate cell or finds one already present
        self.derived["generated.generators"] += len(args[2]) if hasattr(args[2], "__len__") else 0
        for shape, cells in sub.nd.items():
            self._generated_by_shape[shape] += len(cells)

    def _post_pullback(self, args, sub):
        self._pullbacks_by_shape[args[1].shape] += 1
        self.derived["pullback.hits"] += sub.nd_count()

    def _post_replay(self, args, rep):
        steps = len(rep["steps"]) + sum(len(f["steps"]) for f in rep.get("forks", {}).values())
        self.derived["replay.steps"] += steps

    def _post_maps(self, args, result):
        self.derived["lifting.maps"] += len(result[1])

    def _post_filler(self, args, result):
        self.derived["lifting.filled"] += result is not None

    # -- spans and output --------------------------------------------------

    def begin_item(self, label):
        self.item = label
        self._span_stack.append(len(self.spans))
        self.spans.append(["item", time.perf_counter(), 0.0, self._span_stack[-2], label])

    def end_item(self):
        self.spans[self._span_stack.pop()][2] = time.perf_counter()
        self.item = None

    def metrics(self):
        """Per-layer metrics by the names listed in BENCHMARK.json.

        Counters and cache statistics are read first; resolving the
        shape tallies afterwards calls the library again.
        """
        c, s = defaultdict(int, self.calls), defaultdict(float, self.incl)
        self_s = defaultdict(float, self.self_s)
        info = {key: cache.cache_info() for key, cache in self._caches.items()}
        d = self._resolve_derived()

        def ratio(a, b):
            return a / b if b else 0.0

        def hit_ratio(key):
            return ratio(info[key].hits, info[key].hits + info[key].misses)

        claims = [f"anodyne.claims.check_claim{i}" for i in range(6)]
        out = {
            "theta.reedy_factor.calls": c["theta.reedy_factor"],
            "theta.compose_cellular.calls": c["theta.compose_cellular"],
            "delta.compose_simplicial.calls": c["delta.compose_simplicial"],
            "cellset.generated.calls": c["cellset.Subobject.generated"],
            "cellset.generated.s": s["cellset.Subobject.generated"],
            "cellset.generated.cells": d["generated.cells"],
            "cellset.generated.useful_ratio": ratio(d["generated.cells"], d["generated.lookups"]),
            "cellset.pullback_along.calls": c["cellset.Subobject.pullback_along"],
            "cellset.pullback_along.s": s["cellset.Subobject.pullback_along"],
            "cellset.pullback_along.faces_scanned": d["pullback.faces_scanned"],
            "cellset.pullback_along.hit_ratio": ratio(
                d["pullback.hits"], d["pullback.faces_scanned"]
            ),
            "cellset.nd_cells.s": s["cellset.TruncatedCellularSet.nd_cells"],
            "cellset.nd_decompose.calls": c["cellset.TruncatedCellularSet.nd_decompose"]
            + c["cellset.Representable.nd_decompose"],
            "cellset.act.calls": c["cellset.TruncatedCellularSet.act"],
            "boxprod.subobject.calls": sum(
                c[f"boxprod.{fn}"] for fn in _GROUPS["boxprod.subobject"]
            ),
            "boxprod.subobject.s": s["boxprod.subobject"],
            "boxprod.upsilon_subobject.calls": c["boxprod.upsilon_subobject"],
            "boxprod.box_act.calls": c["boxprod.BoxCellSet._act"],
            "sset.act.calls": c["sset.SimplicialSet.act"],
            "twocat.nerve_act.calls": c["twocat.Nerve._act"],
            "twocat.nerve_cells.s": s["twocat.Nerve._compute_cells"],
            "anodyne.gluing.squares": c["anodyne.gluing.verify_gluing_square"],
            "anodyne.gluing.square.s": s["anodyne.gluing.verify_gluing_square"],
            "anodyne.gluing.image.s": s["anodyne.gluing.image_subobject"],
            "anodyne.scripts.build.s": s["anodyne.scripts.build"],
            "anodyne.scripts.replay.s": s["anodyne.scripts.replay"],
            "anodyne.scripts.steps": d["replay.steps"],
            "anodyne.claims.checks": sum(c[k] for k in claims),
            "anodyne.lifting.maps": d["lifting.maps"],
            "anodyne.lifting.subobject_maps.s": s["anodyne.lifting.subobject_maps"],
            "anodyne.lifting.find_filler.s": s["anodyne.lifting.find_filler"],
            "anodyne.lifting.fill_ratio": ratio(
                d["lifting.filled"], c["anodyne.lifting.find_filler"]
            ),
            "theta.faces_between.hit_ratio": hit_ratio("theta.faces_between"),
            "theta.hyperfaces.hit_ratio": hit_ratio("theta.hyperfaces"),
            "theta.cellular_ops.hit_ratio": hit_ratio("theta.cellular_ops"),
            "theta.cache_entries": sum(info[f"theta.{n}"].currsize for n in _THETA_CACHES),
            "anodyne.claims.label_closure.hit_ratio": hit_ratio("anodyne.claims.label_closure"),
        }
        for i, key in enumerate(claims):
            out[f"anodyne.claims.check_claim{i}.s"] = s[key]
        for layer in ("theta", "delta", "cellset", "boxprod", "sset", "twocat"):
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def _resolve_derived(self):
        """The run's work counts, with the shape tallies turned into lookups.

        Uses the undecorated enumerators, so no `lru_cache` is consulted.
        """
        hyperfaces = self._caches["theta.hyperfaces"].__wrapped__
        faces_between = self._caches["theta.faces_between"].__wrapped__
        shapes_upto = self._caches["theta.shapes_upto"].__wrapped__
        d = defaultdict(int, self.derived)
        # a popped cell's hyperface images: what `generated` examines
        d["generated.cells"] = sum(self._generated_by_shape.values())
        d["generated.lookups"] = d["generated.generators"] + sum(
            n * len(hyperfaces(shape)) for shape, n in self._generated_by_shape.items()
        )
        # faces into the shape from every lower shape: what `pullback_along` scans
        d["pullback.faces_scanned"] = sum(
            n * sum(len(faces_between(src, shape)) for src in shapes_upto(shape.dim))
            for shape, n in self._pullbacks_by_shape.items()
        )
        return d

    def write(self, path, header):
        """Write counters and spans as one JSON document."""
        doc = dict(header)
        doc["calls"] = {k: v for k, v in sorted(self.calls.items()) if v}
        doc["self_s"] = dict(sorted(self.self_s.items()))
        doc["spans"] = {
            "fields": ["name", "start", "end", "parent", "item"],
            "rows": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
