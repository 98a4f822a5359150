"""Per-layer tracing of mmspace from outside, by rebinding module attributes.

The tracer never edits the package.  For each traced function it finds every
``mmspace`` module attribute bound to that function object (``k_means_exact``
lives in ``space`` and is imported into ``experiment``, ``wasserstein``,
``fpp``, ``cli`` and the package itself) and points each at one wrapper;
``uninstall`` restores the originals.  The scipy kernels are traced the same
way at their ``mmspace`` bindings, so calls scipy makes internally are not.

A span records name, start, end, parent span id, thread id, whether it
failed, and work counts computed from its arguments and result.  Spans stay
in memory; ``metrics`` and ``dump`` read them once at the end.  A span opened
on a pool worker thread with nothing open on that thread takes as parent the
innermost open span of the client thread, which is the call that started the
pool, so self time and busy ratios stay right across ``MM_THREADS`` workers.
Span times are plain ``perf_counter`` readings: steal is only known to 10 ms,
too coarse to take out of short spans.
"""
from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import sys
import threading
import time

import numpy as np


def _shape0(a) -> int:
    return int(np.shape(a)[0])


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _floyd_counts(args, kwargs, result):
    m = _shape0(_arg(args, kwargs, 0, "csgraph"))
    return {"kernel.floyd_warshall.ops": m**3, "kernel.floyd_warshall.bytes": 16 * m * m}


def _dijkstra_counts(args, kwargs, result):
    nodes = _shape0(_arg(args, kwargs, 0, "csgraph"))
    indices = _arg(args, kwargs, 2, "indices")
    sources = nodes if indices is None else int(np.size(indices))
    return {"kernel.dijkstra.sources": sources, "kernel.dijkstra.out_bytes": 8 * sources * nodes}


def _linprog_counts(args, kwargs, result):
    return {"kernel.linprog.vars": int(np.size(_arg(args, kwargs, 0, "c")))}


def _exact_counts(args, kwargs, result):
    n = _arg(args, kwargs, 0, "space").n
    k = int(_arg(args, kwargs, 1, "k"))
    return {"space.k_means_exact.subsets": sum(math.comb(n, j) for j in range(1, min(k, n) + 1))}


def _validate_counts(args, kwargs, result):
    return {"space.metric_validate.triples": _shape0(_arg(args, kwargs, 0, "matrix")) ** 3}


def _family_size(family) -> int:
    return sum(len(members) for members in family)


def _cluster_pairs(args, kwargs, result):
    # dist_fn runs once per (empirical point, limit point) pair
    pairs = _family_size(_arg(args, kwargs, 0, "cells_n")) * _family_size(_arg(args, kwargs, 1, "cells_lim"))
    return {"voronoi.cluster_deviation.pairs": pairs}


def _center_pairs(args, kwargs, result):
    # each Hausdorff distance walks its pair of sets in both directions
    pairs = 2 * _family_size(_arg(args, kwargs, 0, "family_n")) * _family_size(_arg(args, kwargs, 1, "family_lim"))
    return {"space.one_sided_center_deviation.pairs": pairs}


def _ball_counts(args, kwargs, result):
    return {"fpp.passage_time_ball.vertices": len(result)}


def _read_counts(args, kwargs, result):
    return {"io.bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _write_counts(args, kwargs, result):
    return {"io.bytes_written": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# metric prefix -> (defining module, attribute, work counter or None)
TRACED = {
    "cli.main": ("mmspace.cli", "main", None),
    "experiment.run_experiment": ("mmspace.experiment", "run_experiment", None),
    "samplers.sample": ("mmspace.samplers", "sample", None),
    "samplers.covering_radius": ("mmspace.samplers", "covering_radius", None),
    "samplers.true_distance_matrix": ("mmspace.samplers", "true_distance_matrix", None),
    "geodesic.fermat_distance_matrix": ("mmspace.geodesic", "fermat_distance_matrix", None),
    "geodesic.isomap_distance_matrix": ("mmspace.geodesic", "isomap_distance_matrix", None),
    "diffusion.spectral_decomposition": ("mmspace.diffusion", "spectral_decomposition", None),
    "wasserstein.build_ground_metric": ("mmspace.wasserstein", "build_ground_metric", None),
    "wasserstein.wasserstein_space": ("mmspace.wasserstein", "wasserstein_space", None),
    "wasserstein.wasserstein_distance": ("mmspace.wasserstein", "wasserstein_distance", None),
    "space.FiniteMetricMeasureSpace": ("mmspace.space", "FiniteMetricMeasureSpace", None),
    "space.metric_validate": ("mmspace.space", "metric_validate", _validate_counts),
    "space.k_means_exact": ("mmspace.space", "k_means_exact", _exact_counts),
    "space.k_means_pam": ("mmspace.space", "k_means_pam", None),
    "space.one_sided_center_deviation": ("mmspace.space", "one_sided_center_deviation", _center_pairs),
    "voronoi.voronoi_cells": ("mmspace.voronoi", "voronoi_cells", None),
    "voronoi.cluster_deviation": ("mmspace.voronoi", "cluster_deviation", _cluster_pairs),
    "voronoi.enlarged_cell": ("mmspace.voronoi", "enlarged_cell", None),
    "voronoi.enlargement_threshold": ("mmspace.voronoi", "enlargement_threshold", None),
    "quantize.quantize": ("mmspace.quantize", "quantize", None),
    "fpp.fpp_barycenter_track": ("mmspace.fpp", "fpp_barycenter_track", None),
    "fpp.passage_time_ball": ("mmspace.fpp", "passage_time_ball", _ball_counts),
    "fpp.shape_defect": ("mmspace.fpp", "shape_defect", None),
    "io.read_matrix": ("mmspace.io", "read_matrix", _read_counts),
    "io.write_matrix_csv": ("mmspace.io", "write_matrix_csv", _write_counts),
    "io.write_matrix_bin": ("mmspace.io", "write_matrix_bin", _write_counts),
    "io.read_cloud_csv": ("mmspace.io", "read_cloud_csv", _read_counts),
    "io.write_cloud_csv": ("mmspace.io", "write_cloud_csv", _write_counts),
    "io.dump_json": ("mmspace.io", "dump_json", _write_counts),
    "kernel.floyd_warshall": ("scipy.sparse.csgraph", "floyd_warshall", _floyd_counts),
    "kernel.dijkstra": ("scipy.sparse.csgraph", "dijkstra", _dijkstra_counts),
    "kernel.linprog": ("scipy.optimize", "linprog", _linprog_counts),
    "kernel.eigh": ("scipy.linalg", "eigh", None),
}

COUNTS = [
    "kernel.floyd_warshall.ops",
    "kernel.floyd_warshall.bytes",
    "kernel.dijkstra.sources",
    "kernel.dijkstra.out_bytes",
    "kernel.linprog.vars",
    "space.k_means_exact.subsets",
    "space.metric_validate.triples",
    "voronoi.cluster_deviation.pairs",
    "space.one_sided_center_deviation.pairs",
    "fpp.passage_time_ball.vertices",
    "io.bytes_read",
    "io.bytes_written",
]

# spans whose direct children run on the MM_THREADS pool
POOLED = ["experiment.run_experiment", "wasserstein.wasserstein_space"]

LAYERS = sorted({name.split(".")[0] for name in TRACED})


def metric_names() -> list:
    """Every per-layer metric name, in the order the benchmark reports them."""
    names = []
    for name in TRACED:
        names += [f"{name}.calls", f"{name}.self_s"]
    names += [f"{layer}.failed" for layer in LAYERS]
    names += COUNTS
    names += [f"{name}.busy_ratio" for name in POOLED]
    names.append("trace.overhead_ratio")
    return names


def unit_of(name: str) -> str:
    quantity = name.rsplit(".", 1)[-1]
    if quantity.endswith("_s"):
        return "s"
    if quantity.endswith("ratio"):
        return "ratio"
    return "bytes" if "bytes" in quantity else "count"


def _mmspace_modules():
    return [m for key, m in list(sys.modules.items()) if m is not None and (key == "mmspace" or key.startswith("mmspace."))]


class Tracer:
    """Collects spans from the traced functions while installed."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread, failed, counts)
        self._ids = itertools.count(1)
        self._stacks = {}
        self._client = threading.get_ident()
        self._patches = []  # (owner, attribute, original)
        self.bindings = {}  # traced name -> number of attributes rebound

    def install(self) -> None:
        for name, (module, attr, counter) in TRACED.items():
            original = getattr(importlib.import_module(module), attr)
            if isinstance(original, type):
                # construction time: the class object stays, its __init__ is wrapped
                init = original.__dict__["__init__"]
                self._patch(original, "__init__", self._wrap(name, init, counter))
                self.bindings[name] = 1
                continue
            wrapper = self._wrap(name, original, counter)
            sites = [(m, key) for m in _mmspace_modules() for key, val in vars(m).items() if val is original]
            for owner, key in sites:
                self._patch(owner, key, wrapper)
            self.bindings[name] = len(sites)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, counter):
        spans, stacks, ids, client = self.spans, self._stacks, self._ids, self._client
        is_cli = name == "cli.main"

        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                client_stack = stacks.get(client) if tid != client else None
                parent = client_stack[-1] if client_stack else 0
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, tid, True, None))
                raise
            end = time.perf_counter()
            stack.pop()
            counts = counter(args, kwargs, result) if counter else None
            spans.append((sid, name, start, end, parent, tid, is_cli and result != 0, counts))
            return result

        return traced

    def metrics(self, jobs: int, threads: int) -> dict:
        """Per-layer metrics per traced job (every name, zero when not hit)."""
        children = {}
        for sid, _, start, end, parent, _, _, _ in self.spans:
            children.setdefault(parent, []).append((start, end))
        out = {name: 0.0 for name in metric_names()}
        pooled = {name: [0.0, 0.0] for name in POOLED}  # child busy, span x threads
        for sid, name, start, end, parent, _, failed, counts in self.spans:
            kids = children.get(sid, [])
            covered = _union_length(kids, start, end)
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - covered
            out[f"{name.split('.')[0]}.failed"] += int(failed)
            for key, value in (counts or {}).items():
                out[key] += value
            if name in pooled:
                pooled[name][0] += sum(e - s for s, e in kids)
                pooled[name][1] += (end - start) * threads
        result = {key: value / jobs for key, value in out.items()}
        for name, (busy, capacity) in pooled.items():
            result[f"{name}.busy_ratio"] = busy / capacity if capacity else 0.0
        return result

    def dump(self, path) -> None:
        fields = ("id", "name", "start", "end", "parent", "thread", "failed", "counts")
        with open(path, "w") as fh:
            json.dump({"bindings": self.bindings, "spans": [dict(zip(fields, s)) for s in self.spans]}, fh)


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
