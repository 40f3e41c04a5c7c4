"""Per-layer tracing installed around wyinfo from outside.

``install`` wraps every public function of every wyinfo module and rebinds
the name wherever wyinfo holds it (module globals, the package namespace and
module-level dispatch tables such as ``suites.SUITES``).  A wrapped call
records a span -- name, start, end, parent -- kept in memory until the run
ends.  Hot leaf calls get counts and time but no span: ``numpy.linalg.eigh``
and ``eigvalsh`` (LAPACK), the catalog entries' kernels ``c`` and ``dc_dx``,
and the sampler that ``wy_geodesic`` returns.

Spans and leaf calls are timed with the tracer's clock; the benchmark's
worker passes a clock that leaves out its own probe samples, so they land in
no layer.  A span's self time is its duration minus the time its child spans
and leaf calls cover, and is summed per module.  Group times (generators, validators,
distances, ``path_length``, ``matio`` loads) count only the outermost call of
the group, so nested calls are not counted twice.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict

MODULES = ("linalg", "monotone", "curvature", "geometry", "divergence", "classical",
           "suites", "matio", "cli")
GENERATORS = ("random_density", "random_tangent", "random_unitary", "random_kraus_channel",
              "haar_unitary")
GROUPS = {
    **{f"linalg.{g}": "generator" for g in GENERATORS},
    **{f"linalg.assert_{v}": "validator" for v in ("hermitian", "density", "tangent")},
    "geometry.wy_distance": "distance",
    "geometry.wy_distance_audit": "distance",
    "geometry.path_length": "path_length",
    **{f"matio.load_{k}": "matio_load" for k in ("hermitian", "density", "tangent")},
}


class Tracer:
    """Spans, counts and times of one process; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list = []          # [span index, time covered by children]
        self._depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.group_s: defaultdict = defaultdict(float)
        self.leaf_calls: Counter = Counter()
        self.leaf_s: defaultdict = defaultdict(float)
        self.import_s = 0.0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def spanned(self, name: str, fn, module: str = "bench"):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        name_id = self._name_id(name)
        group = GROUPS.get(name)
        clock, stack, depth = self.clock, self._stack, self._depth
        calls, self_s, group_s = self.calls, self.self_s, self.group_s
        s_name, s_start, s_end, s_parent = (self.span_name, self.span_start,
                                            self.span_end, self.span_parent)

        def wrapper(*args, **kwargs):
            idx = len(s_start)
            s_name.append(name_id)
            s_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            if group:
                depth[group] += 1
            t0 = clock()
            s_start.append(t0)
            s_end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                s_end[idx] = t1
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_s[module] += dur - frame[1]
                if group:
                    depth[group] -= 1
                    if depth[group] == 0:
                        group_s[group] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a hot leaf call: counted and timed, no span."""
        clock, stack, leaf_calls, leaf_s = self.clock, self._stack, self.leaf_calls, self.leaf_s

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                leaf_calls[name] += 1
                leaf_s[name] += dur
                if stack:
                    stack[-1][1] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    # -- totals ---------------------------------------------------------------

    def totals(self) -> dict:
        """Plain-data snapshot of every counter and timer."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "group_s": dict(self.group_s), "leaf_calls": dict(self.leaf_calls),
                "leaf_s": dict(self.leaf_s), "import_s": self.import_s}

    def add_totals(self, other: dict) -> None:
        """Fold in another process's totals (a traced CLI child)."""
        for key in ("calls", "self_s", "group_s", "leaf_calls", "leaf_s"):
            mine = getattr(self, key)
            for k, v in other[key].items():
                mine[k] += v
        self.import_s += other["import_s"]

    def spans(self) -> dict:
        return {"names": self.names, "name": self.span_name.tolist(),
                "start": self.span_start.tolist(), "end": self.span_end.tolist(),
                "parent": self.span_parent.tolist()}

    def dump(self, path: str, extra=None) -> None:
        """Write totals and spans as gzip-compressed JSON."""
        obj = {"totals": self.totals(), "spans": self.spans(), **(extra or {})}
        with gzip.open(path, "wt") as fh:
            json.dump(obj, fh)


def diff_totals(after: dict, before: dict) -> dict:
    out = {"import_s": after["import_s"] - before["import_s"]}
    for key in ("calls", "self_s", "group_s", "leaf_calls", "leaf_s"):
        out[key] = {k: v - before[key].get(k, 0) for k, v in after[key].items()}
    return out


def layer_metrics(t: dict) -> dict:
    """The per-layer metrics of one pass from its totals."""
    calls, leaf_calls, leaf_s = t["calls"], t["leaf_calls"], t["leaf_s"]
    self_s, group_s = t["self_s"], t["group_s"]

    def mod_calls(mod):
        return sum(v for k, v in calls.items() if k.startswith(mod + "."))

    return {
        "lapack.eigh_calls": leaf_calls.get("lapack.eigh", 0) + leaf_calls.get("lapack.eigvalsh", 0),
        "lapack.eigh_s": leaf_s.get("lapack.eigh", 0.0) + leaf_s.get("lapack.eigvalsh", 0.0),
        "linalg.spectral_decompose_calls": calls.get("linalg.spectral_decompose", 0),
        "linalg.self_s": self_s.get("linalg", 0.0),
        "linalg.generator_calls": sum(calls.get(f"linalg.{g}", 0) for g in GENERATORS),
        "linalg.generator_s": group_s.get("generator", 0.0),
        "linalg.validator_s": group_s.get("validator", 0.0),
        "monotone.kernel_calls": leaf_calls.get("monotone.c", 0) + leaf_calls.get("monotone.dc_dx", 0),
        "monotone.kernel_s": leaf_s.get("monotone.c", 0.0) + leaf_s.get("monotone.dc_dx", 0.0),
        "monotone.self_s": self_s.get("monotone", 0.0),
        "curvature.triples": calls.get("curvature.scal_aux_terms", 0),
        "curvature.self_s": self_s.get("curvature", 0.0),
        "geometry.path_length_s": group_s.get("path_length", 0.0),
        "geometry.sampler_calls": leaf_calls.get("geometry.sampler", 0),
        "geometry.self_s": self_s.get("geometry", 0.0),
        "geometry.distance_s": group_s.get("distance", 0.0),
        "divergence.calls": mod_calls("divergence"),
        "divergence.self_s": self_s.get("divergence", 0.0),
        "classical.self_s": self_s.get("classical", 0.0),
        "suites.self_s": self_s.get("suites", 0.0),
        "matio.load_s": group_s.get("matio_load", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.import_s": t["import_s"],
    }


def is_count(metric: str) -> bool:
    """Counts (unit ``count``) repeat exactly; every other layer metric is seconds."""
    return metric.endswith(("calls", "triples"))


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------

def install(tracer: Tracer):
    """Wrap wyinfo's public functions and the leaf calls; return an undo callable."""
    import numpy as np

    import wyinfo
    from wyinfo import monotone

    modules = {m: importlib.import_module(f"wyinfo.{m}") for m in MODULES}
    wrapped = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = tracer.spanned(f"{short}.{attr}", obj, short)
    geodesic = modules["geometry"].wy_geodesic
    traced_geodesic = wrapped[geodesic]

    def wy_geodesic(*args, **kwargs):
        path = traced_geodesic(*args, **kwargs)
        path.sampler = tracer.leaf("geometry.sampler", path.sampler)
        return path

    wrapped[geodesic] = wy_geodesic

    undo = []

    def rebind(container, key, value, setter):
        undo.append((setter, container, key, value))
        setter(container, key, wrapped[value])

    def set_item(d, k, v):
        d[k] = v

    for mod in (wyinfo, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                rebind(mod, attr, obj, setattr)
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for k, v in list(obj.items()):
                    if inspect.isfunction(v) and v in wrapped:
                        rebind(obj, k, v, set_item)
    for entry in monotone.catalog():
        for field in ("c", "dc_dx"):
            fn = getattr(entry, field)
            undo.append((object.__setattr__, entry, field, fn))
            object.__setattr__(entry, field, tracer.leaf(f"monotone.{field}", fn))
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        undo.append((setattr, np.linalg, name, fn))
        setattr(np.linalg, name, tracer.leaf(f"lapack.{name}", fn))

    def restore():
        for setter, container, key, value in reversed(undo):
            setter(container, key, value)

    return restore
