"""Spans around the calls into each hdgwg layer, recorded from outside.

``Tracer.installed()`` replaces the public functions that callers look up
(``hdgwg.cli.run_*``, the names ``hdgwg.experiments`` imported, and
``hdgwg.basis.eval_*``) with wrappers that record a span per call: name,
start, end, parent span and pass id.  Spans stay in memory until
``write_spans``.  Leaving the ``with`` block restores the originals, so an
untraced pass runs the program's own functions.

A layer's self time is the length of its spans minus the part covered by
their child spans.  Layers are named after the modules.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import statistics
import time

import numpy as np

# (module, attribute) -> layer metric prefix
_WRAPPED = {
    ("cli", "run_convergence_study"): "experiments",
    ("cli", "run_rho_limit_study"): "experiments",
    ("cli", "run_infsup_study"): "experiments",
    ("experiments", "build_structured_mesh"): "mesh.build",
    ("experiments", "build_space_triple"): "spaces.dofmap",
    ("experiments", "ElementTables"): "assembly.system",
    ("experiments", "assemble_hdg"): "assembly.system",
    ("experiments", "assemble_wg"): "assembly.system",
    ("experiments", "assemble_primal_conforming"): "assembly.conforming",
    ("experiments", "assemble_mixed_conforming"): "assembly.conforming",
    ("experiments", "assemble_norm_gram"): "assembly.gram",
    ("experiments", "solve_symmetric_indefinite"): "linalg.solve",
    ("experiments", "min_generalized_singular_value"): "linalg.eig",
    ("experiments", "compute_error_norm"): "norms.error",
    ("experiments", "broken_h1_distance"): "norms.distance",
    ("experiments", "flux_distance"): "norms.distance",
    ("experiments", "scalar_l2_distance"): "norms.distance",
    ("basis", "eval_scalar_basis"): "basis.eval",
    ("basis", "eval_rt_basis"): "basis.eval",
    ("basis", "eval_edge_basis"): "basis.eval",
}

# the benchmark's own calls: the cli entry point, and the backward-error
# evaluation that runs inside traced passes but is not program work
CLI = "cli"
CHECK = "trace.check"

LAYERS = ("mesh.build", "spaces.dofmap", "basis.eval", "assembly.system",
          "assembly.conforming", "assembly.gram", "linalg.solve", "linalg.eig",
          "norms.error", "norms.distance")

# name -> unit, for every metric ``layer_metrics`` returns
PER_LAYER_UNITS = {
    "mesh.build_s": "s", "mesh.cells": "count",
    "spaces.dofmap_s": "s", "spaces.dofs": "count",
    "basis.eval_s": "s", "basis.eval_calls": "count",
    "assembly.system_s": "s", "assembly.system_us_per_cell": "us/cell",
    "assembly.nnz": "count",
    "assembly.conforming_s": "s",
    "assembly.gram_s": "s",
    "linalg.solve_s": "s", "linalg.solve_calls": "count",
    "linalg.solve_backward_error_max": "ratio",
    "linalg.eig_s": "s", "linalg.eig_n_max": "count",
    "norms.error_s": "s", "norms.error_us_per_cell": "us/cell",
    "norms.distance_s": "s",
    "experiments.self_s": "s", "cli.self_s": "s",
    "trace.check_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
}


def backward_error(matrix, rhs, x):
    """||b - A x|| / (||A||_F ||x|| + ||b||)."""
    r = rhs - matrix @ x
    anorm = np.sqrt(np.sum(matrix.data**2))
    bnorm = np.linalg.norm(rhs)
    return float(np.linalg.norm(r) / (anorm * np.linalg.norm(x) + bnorm))


class Tracer:
    """Span recorder for one benchmark run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, pass id]
        self._stack = []
        self.pass_id = -1
        self.counts = []  # per traced pass: dict of layer counters

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, time.perf_counter(), 0.0, parent, self.pass_id]
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _count(self, key, amount=1):
        counts = self.counts[-1]
        counts[key] = counts.get(key, 0) + amount

    def _max(self, key, value):
        counts = self.counts[-1]
        counts[key] = max(counts.get(key, 0), value)

    def _note(self, name, args, out):
        """Counters read from a call's arguments and result."""
        if name == "build_structured_mesh":
            self._count("mesh.cells", out.num_cells)
        elif name == "build_space_triple":
            self._count("spaces.dofs", out.total)
        elif name in ("assemble_hdg", "assemble_wg"):
            self._count("assembly.cells", args[0].num_cells)
            self._count("assembly.nnz", out.matrix.nnz)
        elif name == "compute_error_norm":
            self._count("norms.cells", args[0].num_cells)
        elif name == "min_generalized_singular_value":
            self._max("linalg.eig_n_max", args[0].shape[0])
        elif name == "solve_symmetric_indefinite":
            self._count("linalg.solve_calls")
            span = self._open(CHECK)
            try:
                err = backward_error(args[0], args[1], out)
            finally:
                self._close(span)
            self._max("linalg.solve_backward_error_max", err)
        elif name.startswith("eval_"):
            self._count("basis.eval_calls")

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            self._note(name, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, hdgwg_modules):
        """Wrap the layer entry points for one traced pass."""
        self.pass_id += 1
        self.counts.append({})
        saved = []
        try:
            for module_name, attr in _WRAPPED:
                module = hdgwg_modules[module_name]
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(attr, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self, pass_id):
        """Self time per layer prefix (plus ``cli`` and ``trace.check``)."""
        names = {attr: layer for (_, attr), layer in _WRAPPED.items()}
        names[CLI] = CLI
        names[CHECK] = CHECK
        totals = {}
        child_time = {}
        spans = [s for s in enumerate(self.spans) if s[1][4] == pass_id]
        for _, (_, start, end, parent, _) in spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        for index, (name, start, end, _, _) in spans:
            layer = names[name]
            own = end - start - child_time.get(index, 0.0)
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def layer_metrics(self, pass_id, wall):
        """Per-layer metrics of one traced pass of ``wall`` seconds."""
        selfs = self.self_times(pass_id)
        counts = self.counts[pass_id]
        m = {layer + "_s": selfs.get(layer, 0.0) for layer in LAYERS}
        m["experiments.self_s"] = selfs.get("experiments", 0.0)
        m["cli.self_s"] = selfs.get(CLI, 0.0)
        m["trace.check_s"] = selfs.get(CHECK, 0.0)
        m["trace.wall_s"] = wall
        for key in ("mesh.cells", "spaces.dofs", "basis.eval_calls",
                    "assembly.nnz", "linalg.solve_calls",
                    "linalg.solve_backward_error_max", "linalg.eig_n_max"):
            m[key] = counts.get(key, 0)
        m["assembly.system_us_per_cell"] = _per_cell(
            m["assembly.system_s"], counts.get("assembly.cells", 0))
        m["norms.error_us_per_cell"] = _per_cell(
            m["norms.error_s"], counts.get("norms.cells", 0))
        return m

    def write_spans(self, path):
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id}))
                fh.write("\n")


def _per_cell(seconds, cells):
    return 1e6 * seconds / cells if cells else 0.0


def median_metrics(per_pass):
    """Median of each metric over a list of per-pass metric dicts."""
    return {key: statistics.median(m[key] for m in per_pass)
            for key in per_pass[0]}
