"""Outside-in layer trace of a meyers_lab run.

The tracer wraps the public functions of each module in a timing span and
rebinds every wrapper in every ``meyers_lab`` module that holds the
original by name (``from .graph import distances_from`` and the like), so
calls are caught whichever module makes them. At the scipy boundary it only
counts: LU factorizations, Dijkstra source rows and dense eigensolves.
Nothing under ``src/`` is edited, and leaving the ``with`` block restores
every binding.

Hot inner helpers (``WeightedGraph.neighbors`` and other private functions)
are deliberately not wrapped: their time lands in the self time of the
public function that calls them, and wrapping them would inflate the run.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time

import numpy as np

# layer metric -> the public functions (module, qualified name) whose self
# time it sums
SPANS = {
    "mesh.build_s": [("mesh", "triangulate"), ("mesh", "refine_red"),
                     ("mesh", "red_prolong")],
    "graph.build_s": [("graph", "from_triangulation"), ("graph", "lattice_box"),
                      ("graph", "rescale")],
    "graph.dijkstra_s": [("graph", "distances_from"), ("graph", "distances_all")],
    "graph.geometry_s": [("graph", "geometry_report")],
    "spaces.embedding_s": [("spaces", "embedding_report")],
    "spaces.norm_s": [("spaces", name) for name in
                      ("lp_norm", "w1p_norm", "holder_norm", "holder_seminorm",
                       "gradient_length")],
    "fem.assemble_s": [("fem", "assemble"), ("fem", "load")],
    "fem.solve_s": [("fem", "solve")],
    "fem.field_s": [("fem", "reconstruct"), ("fem", "apply_Lh"), ("fem", "f_h")]
    + [("fem", f"P1Field.{name}") for name in
       ("lp_norm", "grad_lp_norm", "w1p_norm", "lp_error", "grad_lp_error",
        "w1p_error", "holder_seminorm", "holder_norm", "__call__")],
    "operators.build_s": [("operators", "build_operator"),
                          ("operators", "uniform_coefficients"),
                          ("operators", "perturbed_coefficients")],
    "operators.semigroup_s": [("operators", "semigroup_apply")],
    "operators.oracle_s": [("operators", "expm_oracle")],
    "operators.kernel_s": [("operators", "kernel_column"),
                           ("operators", "kernel_bound_check"),
                           ("operators", "kernel_holder_fit")],
    "operators.resolvent_s": [("operators", "resolvent_bound_sweep"),
                              ("operators", "resolvent_solve")],
    "reference.torsion_s": [("reference", "torsion_value"),
                            ("reference", "torsion_gradient"),
                            ("reference", "torsion_center_value")],
    "fitting.fit_s": [("fitting", "fit_loglog")],
    "experiments.csv_s": [("experiments", "write_csv")],
    # run() is the root span: its self time is the harness's own share
    "experiments.self_s": [("experiments", "run")],
}

# count metric -> the traced function whose calls it counts
CALL_COUNTS = {
    "mesh.refine_calls": "mesh.refine_red",
    "fem.solve_calls": "fem.solve",
    "operators.resolvent_solves": "operators.resolvent_solve",
}


def _dijkstra_rows(args, kwargs) -> int:
    """Source rows one ``csgraph.dijkstra`` call computes."""
    indices = kwargs.get("indices", args[2] if len(args) > 2 else None)
    if indices is None:
        return int(args[0].shape[0])
    return int(np.size(indices))


# count metric -> scipy function counted at the boundary, and what one call adds
BOUNDARY = {
    "operators.splu_calls": ("scipy.sparse.linalg", "splu", lambda a, k: 1),
    "graph.dijkstra_rows": ("scipy.sparse.csgraph", "dijkstra", _dijkstra_rows),
    "graph.eigh_calls": ("scipy.linalg", "eigh", lambda a, k: 1),
}

# per-layer metrics that the span and count tables above produce, in order
LAYER_METRICS = (
    [(name, "s") for name in SPANS]
    + [(name, "count") for name in CALL_COUNTS]
    + [(name, "count") for name in BOUNDARY]
    + [("operators.contour_nodes", "count"), ("experiments.csv_bytes", "bytes")]
)


class Tracer:
    """Context manager: while active, the program's public functions record
    self time per layer metric and the scipy boundary records counts."""

    def __init__(self):
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.counts = dict.fromkeys(
            list(BOUNDARY) + ["operators.contour_nodes", "experiments.csv_bytes"], 0)
        self.calls: dict[str, int] = {}
        self.root_s = 0.0
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _span(self, metric: str, qualname: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[qualname] = self.calls.get(qualname, 0) + 1
            stack.append([clock(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                start, child = stack.pop()
                dur = clock() - start
                self.self_s[metric] += dur - child
                if stack:
                    stack[-1][1] += dur
                else:
                    self.root_s += dur
        return traced

    def _counter(self, metric: str, amount, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[metric] += amount(args, kwargs)
            return fn(*args, **kwargs)
        return counted

    # -- installation -------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` in every meyers_lab module that binds it."""
        for modname, mod in list(sys.modules.items()):
            if modname != "meyers_lab" and not modname.startswith("meyers_lab."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def _wrap_program(self) -> None:
        for metric, targets in SPANS.items():
            for modname, qualname in targets:
                mod = importlib.import_module(f"meyers_lab.{modname}")
                label = f"{modname}.{qualname}"
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    cls = getattr(mod, cls_name)
                    self._set(cls, meth, self._span(metric, label, vars(cls)[meth]))
                    continue
                original = getattr(mod, qualname)
                self._rebind(original, self._span(metric, label, original))
        exp = importlib.import_module("meyers_lab.experiments")
        self._rebind(exp.write_csv, self._count_bytes(exp.write_csv))
        ops = importlib.import_module("meyers_lab.operators")
        self._rebind(ops.contour_nodes, self._count_nodes(ops.contour_nodes))

    def _count_bytes(self, write_csv):
        @functools.wraps(write_csv)
        def counted(path, *args, **kwargs):
            write_csv(path, *args, **kwargs)
            self.counts["experiments.csv_bytes"] += os.path.getsize(path)
        return counted

    def _count_nodes(self, contour_nodes):
        @functools.wraps(contour_nodes)
        def counted(*args, **kwargs):
            lams, weights = contour_nodes(*args, **kwargs)
            self.counts["operators.contour_nodes"] += len(lams)
            return lams, weights
        return counted

    def _wrap_boundary(self) -> None:
        for metric, (modname, name, amount) in BOUNDARY.items():
            mod = importlib.import_module(modname)
            self._set(mod, name, self._counter(metric, amount, getattr(mod, name)))

    def __enter__(self) -> "Tracer":
        importlib.import_module("meyers_lab")
        try:
            self._wrap_program()
            self._wrap_boundary()
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __exit__(self, *exc) -> None:
        self._restore()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.self_s)
        out.update({metric: self.calls.get(qualname, 0)
                    for metric, qualname in CALL_COUNTS.items()})
        out.update(self.counts)
        return out
