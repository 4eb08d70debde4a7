"""Spans recorded from outside extgeo, and the per-layer metrics made from them.

The traced child wraps the public functions listed in ``TARGETS`` and
rebinds every name in the ``extgeo.*`` module namespaces that holds the same
object, because modules import each other's functions by name (``cli``
imports ``build_mesh``, ``mesh`` imports ``grid_geometry``, ...).  Each call
becomes one span: name, start, end, parent id, run id and a few counts.
Spans stay in memory and are written out once, when the child ends.

``grid_geometry`` fans chunks out to a thread pool, so every thread keeps
its own span stack, and a span opened on a worker thread with an empty stack
takes the span open on the main thread as its parent.  Times are unions of
intervals, never sums, so two chunks running at once count once.

This module imports nothing from extgeo at import time: the parent process
uses the analysis half without loading the program.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import threading
import time

# (module, attribute path, span name)
TARGETS = [
    ("extgeo.cli", "main", "cli.main"),
    ("extgeo.exprchart", "parse_chart", "exprchart.parse_chart"),
    ("extgeo.exprchart", "ChartSpec.eval_jets", "exprchart.eval_jets"),
    ("extgeo.catalog", "RotationChart.eval_jets", "exprchart.eval_jets"),
    ("extgeo.immersion", "grid_geometry", "immersion.grid_geometry"),
    ("extgeo.immersion", "point_geometry", "immersion.point_geometry"),
    ("extgeo.immersion", "extrinsic_sphere_curvature",
     "immersion.extrinsic_sphere_curvature"),
    ("extgeo.mesh", "build_mesh", "mesh.build_mesh"),
    ("extgeo.mesh", "intrinsic_distances", "mesh.intrinsic_distances"),
    ("extgeo.mesh", "count_ends", "mesh.count_ends"),
    ("extgeo.mesh", "ends_stability", "mesh.ends_stability"),
    ("extgeo.invariants", "invariant_tails", "invariants.invariant_tails"),
    ("extgeo.volumetrics", "volume_curve", "volumetrics.volume_curve"),
    ("extgeo.volumetrics", "gap_ratio", "volumetrics.gap_ratio"),
    ("extgeo.volumetrics", "verify_growth_bounds",
     "volumetrics.verify_growth_bounds"),
    ("extgeo.spaceform", "model_volumes", "spaceform.model_volumes"),
    ("extgeo.reporting", "write_csv", "reporting.write_csv"),
    ("extgeo.reporting", "write_json", "reporting.write_json"),
    ("extgeo.reporting", "dumps_json", "reporting.dumps_json"),
]


def _counts(name, args, kwargs, result) -> dict:
    """Work done by one call, read at the layer boundary."""
    if name == "exprchart.eval_jets":
        us = args[1] if len(args) > 1 else kwargs["us"]
        return {"points": math.prod(us[0].value.shape)}
    if name == "immersion.grid_geometry":
        import numpy as np
        pts = args[1] if len(args) > 1 else kwargs["points"]
        return {"points": math.prod(np.shape(pts)[:-1])}
    if name == "mesh.build_mesh" and result is not None:
        return {"vertices": int(result.n_vertices),
                "edges": int(result.edges.shape[0])}
    if name in ("reporting.write_csv", "reporting.write_json"):
        path = args[0] if args else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return {}


class Tracer:
    """In-memory span recorder for one traced run of the CLI."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if stack is self._main_stack:
            return None
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": sid, "name": name, "start": start, "end": end,
                        "parent": parent, "run": self.run_id, "ok": ok}
                if ok:
                    span.update(_counts(name, args, kwargs, result))
                self.spans.append(span)

        return traced

    def install(self, modules):
        """Wrap every target and rebind each name holding the original.

        ``modules`` maps module names to loaded modules.  A target that no
        longer exists is recorded in ``missing`` and skipped, so its metrics
        read zero calls.
        """
        scope = [mod for key, mod in modules.items()
                 if key == "extgeo" or key.startswith("extgeo.")]
        for modname, attr, name in TARGETS:
            owner, leaf, original = _lookup(modules, modname, attr)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self.wrap(name, original)
            if "." in attr:             # a method: the class holds it
                setattr(owner, leaf, wrapped)
                continue
            for mod in scope:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _lookup(modules, modname, attr):
    """(owner, leaf name, callable or None) for one target."""
    owner = modules.get(modname)
    head, _, leaf = attr.rpartition(".")
    if owner is not None and head:
        owner = getattr(owner, head, None)
    found = None if owner is None else vars(owner).get(leaf)
    return owner, leaf, found if callable(found) else None


def resolve_targets(modules) -> list:
    """Targets that do not resolve in the loaded modules (empty when all do)."""
    return [f"{modname}.{attr}" for modname, attr, _ in TARGETS
            if _lookup(modules, modname, attr)[2] is None]


# ---------------------------------------------------------------------------
# analysis (parent side)

def read_spans(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _union(intervals) -> list:
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return merged


def _measure(merged) -> float:
    return sum(hi - lo for lo, hi in merged)


def _overlap(a, b) -> float:
    """Measure of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def span_stats(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and count sums.

    Inclusive time is the union of the name's intervals; self time removes
    the part of that union covered by the union of its direct children.
    """
    by_name, children = {}, {}
    for sp in spans:
        by_name.setdefault(sp["name"], []).append(sp)
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append(sp)
    stats = {}
    for name, group in by_name.items():
        own = _union([(sp["start"], sp["end"]) for sp in group])
        kids = _union([(c["start"], c["end"]) for sp in group
                       for c in children.get(sp["id"], ())])
        incl = _measure(own)
        entry = {"calls": len(group), "s": incl,
                 "self_s": incl - _overlap(own, kids)}
        for key in ("points", "vertices", "edges", "bytes"):
            entry[key] = sum(sp.get(key, 0) for sp in group)
        stats[name] = entry
    return stats


_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0, "vertices": 0,
          "edges": 0, "bytes": 0}


def layer_metrics(spans) -> dict:
    """The per-layer metrics of one traced run, keyed by metric name."""
    st = span_stats(spans)

    def get(name):
        return st.get(name, _EMPTY)

    jets = get("exprchart.eval_jets")
    grid = get("immersion.grid_geometry")
    point = get("immersion.point_geometry")
    sphere = get("immersion.extrinsic_sphere_curvature")
    build = get("mesh.build_mesh")
    ends = get("mesh.count_ends")
    models = get("spaceform.model_volumes")
    main = get("cli.main")
    evaluated = grid["points"] + point["calls"]
    return {
        "exprchart.parse_chart.s": get("exprchart.parse_chart")["s"],
        "exprchart.eval_jets.s": jets["self_s"],
        "exprchart.eval_jets.calls": jets["calls"],
        "exprchart.eval_jets.points": jets["points"],
        "exprchart.evals_per_point": (jets["points"] / evaluated
                                      if evaluated else 0.0),
        "immersion.grid_geometry.s": grid["self_s"],
        "immersion.grid_geometry.points": grid["points"],
        "immersion.grid_geometry.points_per_s": (grid["points"] / grid["s"]
                                                 if grid["s"] else 0.0),
        "immersion.points_per_vertex": (grid["points"] / build["vertices"]
                                        if build["vertices"] else 0.0),
        "immersion.point_geometry.calls": point["calls"],
        "immersion.point_geometry.s": point["s"],
        "immersion.extrinsic_sphere_curvature.calls": sphere["calls"],
        "immersion.extrinsic_sphere_curvature.s": sphere["s"],
        "mesh.build_mesh.self_s": build["self_s"],
        "mesh.vertices": build["vertices"],
        "mesh.edges": build["edges"],
        "mesh.intrinsic_distances.s": get("mesh.intrinsic_distances")["s"],
        "mesh.count_ends.calls": ends["calls"],
        "mesh.count_ends.s": ends["s"],
        "mesh.ends_stability.s": get("mesh.ends_stability")["s"],
        "invariants.invariant_tails.s": get("invariants.invariant_tails")["s"],
        "volumetrics.volume_curve.s": get("volumetrics.volume_curve")["s"],
        "volumetrics.gap_ratio.s": get("volumetrics.gap_ratio")["self_s"],
        "volumetrics.verify_growth_bounds.s":
            get("volumetrics.verify_growth_bounds")["s"],
        "spaceform.model_volumes.calls": models["calls"],
        "spaceform.model_volumes.s": models["s"],
        "reporting.write_csv.s": get("reporting.write_csv")["s"],
        "reporting.write_json.s": get("reporting.write_json")["s"],
        "reporting.dumps_json.s": get("reporting.dumps_json")["s"],
        "reporting.bytes_written": (get("reporting.write_csv")["bytes"]
                                    + get("reporting.write_json")["bytes"]),
        "trace.cli_main_s": main["s"],
        "trace.uncovered_s": main["self_s"],
    }


# ---------------------------------------------------------------------------
# import attribution from ``python -X importtime``

IMPORT_GROUPS = [
    ("setup.numpy_s", "numpy"),
    ("setup.scipy_sparse_s", "scipy.sparse"),
    ("setup.scipy_integrate_s", "scipy.integrate"),
    ("setup.scipy_optimize_s", "scipy.optimize"),
    ("setup.extgeo_s", "extgeo"),
]


def _group_of(module: str):
    for metric, package in IMPORT_GROUPS:
        if module == package or module.startswith(package + "."):
            return metric
    return None


def import_attribution(stderr_text: str) -> dict:
    """Seconds per package from ``-X importtime`` output.

    Each module's self time goes to the innermost listed package on its
    import path, so the five values partition the import of extgeo.cli:
    scipy.sparse imported from inside scipy.integrate counts as sparse, and
    argparse imported by extgeo counts as extgeo.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(fields[0])))
    totals = {metric: 0.0 for metric, _ in IMPORT_GROUPS}
    # importtime prints a module after its children, so walk backwards to
    # meet each parent before the modules it imported
    enclosing = []          # (depth, group) of the open ancestors
    for depth, name, self_us in reversed(rows):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        group = _group_of(name)
        if group is None and enclosing:
            group = enclosing[-1][1]
        enclosing.append((depth, group))
        if group is not None:
            totals[group] += self_us * 1e-6
    return totals
