"""Spans around calls into plapeig's public functions, from outside it.

`Tracer.install()` replaces each wrapped function by a recording wrapper
in every plapeig module that holds it (the defining module and every
module that bound it with `from ... import`), and wraps the methods of
the two classes in place.  Spans stay in memory; `write()` dumps them as
JSON lines at the end of a run.

A span's self time is its duration minus the durations of the spans
opened directly inside it, so the self times of all spans of a window add
up to the summed durations of its outermost spans.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

#: (span name, module, attribute) of every wrapped function.
FUNCTIONS = (
    ("mesh.refine", "plapeig.mesh", "refine"),
    ("mesh.edge_table", "plapeig.mesh", "edge_table"),
    ("mesh.prolong_vertex_values", "plapeig.mesh", "prolong_vertex_values"),
    ("mesh.generate", "plapeig.mesh", "generate_unit_square"),
    ("mesh.generate", "plapeig.mesh", "generate_lshape"),
    ("mesh.generate", "plapeig.mesh", "generate_disk"),
    ("fem.assemble_stiffness", "plapeig.fem", "assemble_stiffness"),
    ("fem.grad", "plapeig.fem", "grad"),
    ("fem.assemble_rhs", "plapeig.fem", "assemble_rhs"),
    ("fem.p_flux", "plapeig.fem", "p_flux"),
    ("fem.rayleigh", "plapeig.fem", "rayleigh"),
    ("plap.dc_solve", "plapeig.plap", "dc_solve"),
    ("plap.nu_update", "plapeig.plap", "nu_update"),
    ("plap.resolvent_many", "plapeig.plap", "resolvent_many"),
    ("eigen.iiss", "plapeig.eigen", "iiss"),
    ("estimator.estimate_all", "plapeig.estimator", "estimate_all"),
    ("estimator.dorfler_mark", "plapeig.estimator", "dorfler_mark"),
    ("driver.run_afem", "plapeig.driver", "run_afem"),
    ("io.write_vtk", "plapeig.io", "write_vtk"),
    ("io.write_convergence_csv", "plapeig.io", "write_convergence_csv"),
    ("cli.main", "plapeig.cli", "main"),
)

#: (span name, module, class, method) of every wrapped method.  Patching
#: the class reaches every module that imported it by name.
METHODS = (
    ("fem.DirichletFactor.factor", "plapeig.fem", "DirichletFactor",
     "__init__"),
    ("fem.DirichletFactor.solve", "plapeig.fem", "DirichletFactor", "solve"),
    ("plap.DCWorkspace", "plapeig.plap", "DCWorkspace", "__init__"),
)

#: Bindings made by `from ... import` that the patch must reach, beyond
#: the defining modules.  Checked by the tests.
IMPORTED_BINDINGS = (
    ("plapeig.driver", "refine"), ("plapeig.driver", "edge_table"),
    ("plapeig.driver", "prolong_vertex_values"),
    ("plapeig.cli", "edge_table"),
)

#: Time metric name of each span name.
TIME_METRIC = {name: f"{name}.self_s" for name, *_ in FUNCTIONS + METHODS}
TIME_METRIC["fem.DirichletFactor.factor"] = "fem.DirichletFactor.factor_s"
TIME_METRIC["fem.DirichletFactor.solve"] = "fem.DirichletFactor.solve_s"

COUNT_METRICS = ("mesh.refine.calls", "fem.DirichletFactor.unknowns",
                 "fem.DirichletFactor.solves", "fem.grad.calls",
                 "plap.dc_solve.calls", "plap.dc_solve.sweeps",
                 "plap.dc_solve.unconverged", "plap.resolvent_many.entries",
                 "eigen.iiss.sweeps", "eigen.iiss.unconverged",
                 "driver.levels", "io.write_vtk.bytes")


def _count(counts, name, args, kwargs, result, error):
    """Work counters of one finished call."""
    if name in ("mesh.refine", "fem.grad", "plap.dc_solve"):
        counts[f"{name}.calls"] += 1
    if name == "fem.DirichletFactor.factor" and error is None:
        counts["fem.DirichletFactor.unknowns"] += len(args[0].idx)
    elif name == "fem.DirichletFactor.solve":
        counts["fem.DirichletFactor.solves"] += 1
    elif name == "plap.dc_solve" and error is None:
        report = result[1]
        counts["plap.dc_solve.sweeps"] += report.iterations
        counts["plap.dc_solve.unconverged"] += not report.converged
    elif name == "plap.resolvent_many":
        counts["plap.resolvent_many.entries"] += len(args[0])
    elif name == "eigen.iiss":
        if error is None:
            counts["eigen.iiss.sweeps"] += result.iiss_iterations
        counts["eigen.iiss.unconverged"] += error is not None or not (
            result.converged)
    elif name == "driver.run_afem" and error is None:
        counts["driver.levels"] += len(result.rows)
    elif name == "io.write_vtk" and error is None:
        path = args[2] if len(args) > 2 else kwargs["path"]
        counts["io.write_vtk.bytes"] += os.path.getsize(path)


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, t0, t1, parent
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, counts, stack = self.spans, self.counts, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (name, t0, t1, parent)
                _count(counts, name, args, kwargs, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "plapeig" or key.startswith("plapeig.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for name, module, cls_name, method in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def mark(self) -> tuple[int, dict[str, int]]:
        """Position to summarize from: (span count, counter snapshot)."""
        return len(self.spans), dict(self.counts)

    def summary(self, since: tuple[int, dict[str, int]]) -> dict[str, float]:
        """Self time per span name and counter deltas since `mark()`, plus
        `outer_s`, the summed duration of the outermost spans."""
        first, counts0 = since
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for _, t0, t1, parent in spans:
            if parent >= first:
                child_time[parent] += t1 - t0
        out = {metric: 0.0 for metric in TIME_METRIC.values()}
        outer = 0.0
        for i, (name, t0, t1, parent) in enumerate(spans, start=first):
            out[TIME_METRIC[name]] += (t1 - t0) - child_time[i]
            if parent < first:
                outer += t1 - t0
        for metric in COUNT_METRICS:
            out[metric] = self.counts.get(metric, 0) - counts0.get(metric, 0)
        out["outer_s"] = outer
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fp:
            for name, t0, t1, parent in self.spans:
                fp.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")
