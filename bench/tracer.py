"""Per-layer tracing of one CLI solve, from outside the program.

The tracer wraps the public functions of each ``hybridfdm`` module in the
namespace of the module that calls them (``hybridfdm.assembly.irregular_jets``,
``hybridfdm.stencil_regular.build_reduction_table``, ...) plus the callables
of the loaded ``ProblemSpec``, records one span per call in memory, and
reduces the spans to the per-layer metrics when the solve ends.  No file of
the program changes.  A target that no longer exists raises ``TraceError``
at install time, so a renamed function cannot silently drop a layer.

With ``--threads > 1`` the assembly forks a process pool.  The per-chunk
worker entry points are wrapped too: inside a worker they return their spans
with the result, and the timed stand-in for the pool executor merges them
under the parent's pool-wait span.  Layer times of a pool run are therefore
summed over the workers.

Run as a script, from the root of a checkout, it solves once under tracing
and writes the metrics as JSON:

    PYTHONPATH=src python3 bench/tracer.py --metrics m.json -- \
        --problem p.ini --J 5 --out u.csv
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np


class TraceError(RuntimeError):
    """A wrap target is missing from the program."""


class _Shipped:
    """A worker's chunk result together with the spans recorded for it."""

    def __init__(self, result, spans):
        self.result = result
        self.spans = spans


def _rows(args, kwargs, out):
    a_jet = args[0]
    return {"rows": int(np.prod(a_jet.c.shape[:-2]))}


def _fit_bytes(args, kwargs, out):
    prob = args[0]
    samples = np.asarray(prob.samples)
    k = samples.shape[0]
    d = prob.degree
    n_basis = d + 1 if samples.ndim == 1 else (d + 1) * (d + 2) // 2
    return {"bytes": k * n_basis * 8}


def _iface_nodes(args, kwargs, out):
    from hybridfdm.geometry import LABEL_IRREGULAR

    return {"nodes": int(np.count_nonzero(out.labels == LABEL_IRREGULAR))}


def _under_resolved(args, kwargs, out):
    from hybridfdm.stencil_irregular import KAPPA_CRIT

    h = kwargs.get("h", args[1] if len(args) > 1 else None)
    curve = args[0].model.curve
    speed2 = curve.r[1] ** 2 + curve.s[1] ** 2
    under = False
    if h is not None and speed2 > 0:
        kappa = abs(curve.r[1] * curve.s[2] - curve.r[2] * curve.s[1]) \
            / speed2**1.5
        under = bool(kappa * h > KAPPA_CRIT)
    return {"rows": 1, "under": int(under)}


def _nnz(args, kwargs, out):
    return {"nnz": int(out.matrix.nnz)}


def _one_row(args, kwargs, out):
    return {"rows": 1}


def _batch_rows(args, kwargs, out):
    return {"rows": int(np.asarray(out.coeffs).shape[0])}


def _points(args, kwargs, out):
    return {"points": int(np.size(out))}


# (module, attribute path, span name, measure).  The attribute is looked up
# in the namespace of the module that calls it.
TARGETS = (
    ("hybridfdm.cli", "load_config", "problems.load", None),
    ("hybridfdm.cli", "assemble", "assembly.assemble", _nnz),
    ("hybridfdm.cli", "solve", "assembly.solve", None),
    ("hybridfdm.cli", "write_solution_csv", "cli.write_csv", None),
    ("hybridfdm.assembly", "classify_grid", "geometry.classify", _iface_nodes),
    ("hybridfdm.geometry", "LevelSetInterface.locate_base",
     "geometry.base_chart", None),
    ("hybridfdm.geometry", "LevelSetInterface.chart", "geometry.base_chart",
     None),
    ("hybridfdm.assembly", "regular_jets", "fieldjets.regular", None),
    ("hybridfdm.assembly", "edge_jets", "fieldjets.boundary", None),
    ("hybridfdm.assembly", "corner_jets", "fieldjets.boundary", None),
    ("hybridfdm.assembly", "irregular_jets", "fieldjets.irregular", None),
    ("hybridfdm.fieldjets", "mls_operator", "mls.operator", _fit_bytes),
    ("hybridfdm.transmission", "mls_operator", "mls.operator", _fit_bytes),
    ("hybridfdm.stencil_regular", "build_reduction_table", "reduction.table",
     None),
    ("hybridfdm.stencil_boundary", "build_reduction_table", "reduction.table",
     None),
    ("hybridfdm.transmission", "build_reduction_table", "reduction.table",
     None),
    ("hybridfdm.assembly", "curve_jet_from_chart", "transmission.curve", None),
    ("hybridfdm.assembly", "build_transmission", "transmission.build", None),
    ("hybridfdm.stencil_irregular", "run_basic_recursion",
     "stencil_core.recursion", None),
    ("hybridfdm.assembly", "build_regular_batch", "stencil_regular.batch",
     _rows),
    ("hybridfdm.assembly", "regular_rhs_weights", "stencil_regular.rhs", None),
    ("hybridfdm.assembly", "solve_edge_stencil", "stencil_boundary.edge",
     _batch_rows),
    ("hybridfdm.assembly", "build_corner_reduction", "stencil_boundary.corner",
     None),
    ("hybridfdm.assembly", "solve_corner_stencil", "stencil_boundary.corner",
     _one_row),
    ("hybridfdm.assembly", "assemble_irregular_system", "stencil_irregular",
     None),
    ("hybridfdm.assembly", "solve_irregular_stencil", "stencil_irregular",
     _under_resolved),
    ("hybridfdm.assembly", "irregular_rhs_weights", "stencil_irregular", None),
    ("hybridfdm.assembly", "irregular_rhs_value", "stencil_irregular", None),
    ("hybridfdm.assembly", "_irregular_one", "assembly.iface_row", None),
)

# Worker entry points handed to the pool; wrapped so that a worker ships its
# spans back with the chunk result.
CHUNK_TARGETS = ("_regular_chunk", "_irregular_chunk")

PROBLEM_FIELDS = ("a_plus", "a_minus", "f_plus", "f_minus")
INTERFACE_FIELDS = ("psi", "jump_g", "jump_ggamma")
BOUNDARY_FIELDS = ("data", "alpha")


def _resolve(module_name: str, path: str):
    """(owner, attribute name) of a dotted attribute path, or TraceError."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceError(f"trace target module {module_name} is missing") \
            from exc
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or not callable(getattr(owner, parts[-1], None)):
        raise TraceError(f"trace target {module_name}.{path} no longer exists")
    return owner, parts[-1]


class Tracer:
    """In-memory spans: [name, parent index, start, end, counts or None]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._pid = os.getpid()

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        rec = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if measure is not None:
                rec[4] = measure(args, kwargs, out)
            return out
        return wrapper

    def wrap_chunk(self, fn):
        traced = self.wrap("assembly.chunk", fn)

        # functools.wraps keeps the module and name, so the pool pickles this
        # wrapper by reference and a forked worker resolves it again.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self._pid:
                return traced(*args, **kwargs)
            self.spans, self._stack = [], []
            out = traced(*args, **kwargs)
            return _Shipped(out, self.spans)
        return wrapper

    def _merge(self, result, parent: int):
        if not isinstance(result, _Shipped):
            return result
        base = len(self.spans)
        for name, par, t0, t1, info in result.spans:
            self.spans.append([name, parent if par < 0 else par + base,
                               t0, t1, info])
        return result.result

    def timed_pool(self, executor_cls):
        tracer = self

        class TimedPool(executor_cls):
            """Pool stand-in: times the parent's waits, merges worker spans."""

            def map(self, fn, *iterables, **kwargs):
                index = len(tracer.spans)
                rec = tracer._open("assembly.pool_wait")
                try:
                    parts = list(super().map(fn, *iterables, **kwargs))
                finally:
                    tracer._close(rec)
                return iter([tracer._merge(p, index) for p in parts])

            def shutdown(self, *args, **kwargs):
                rec = tracer._open("assembly.pool_wait")
                try:
                    return super().shutdown(*args, **kwargs)
                finally:
                    tracer._close(rec)

        return TimedPool

    def wrap_problem(self, problem):
        """Wrap the field, interface and boundary callables of a ProblemSpec."""
        for key in PROBLEM_FIELDS:
            setattr(problem, key,
                    self.wrap(f"expressions.{key}", getattr(problem, key),
                              _points))
        if problem.interface is not None:
            for key in INTERFACE_FIELDS:
                fn = getattr(problem.interface, key, None)
                if fn is not None:
                    setattr(problem.interface, key,
                            self.wrap(f"expressions.{key}", fn, _points))
        for bc in problem.boundary.values():
            for key in BOUNDARY_FIELDS:
                fn = getattr(bc, key, None)
                if fn is not None:
                    setattr(bc, key,
                            self.wrap(f"expressions.boundary_{key}", fn,
                                      _points))
        return problem

    def install(self, targets=TARGETS):
        """Replace every target by its traced wrapper; returns an undo list.

        All targets are resolved before any is replaced, so a missing one
        leaves the program untouched.
        """
        plan = []
        for module_name, path, name, measure in targets:
            owner, attr = _resolve(module_name, path)
            fn = getattr(owner, attr)
            if (module_name, path) == ("hybridfdm.cli", "load_config"):
                fn = self._problem_loader(fn)
            plan.append((owner, attr, self.wrap(name, fn, measure)))
        for path in CHUNK_TARGETS:
            owner, attr = _resolve("hybridfdm.assembly", path)
            plan.append((owner, attr, self.wrap_chunk(getattr(owner, attr))))
        owner, attr = _resolve("hybridfdm.assembly", "ProcessPoolExecutor")
        plan.append((owner, attr, self.timed_pool(getattr(owner, attr))))

        undo = []
        for owner, attr, new in plan:
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        return undo

    def _problem_loader(self, load):
        @functools.wraps(load)
        def loader(*args, **kwargs):
            return self.wrap_problem(load(*args, **kwargs))
        return loader

    @staticmethod
    def uninstall(undo):
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """The per-layer metrics as {name: (value, unit)}."""
        spans = self.spans
        dur = np.array([s[3] - s[2] for s in spans])
        child_time = np.zeros(len(spans))
        for s, d in zip(spans, dur):
            if s[1] >= 0:
                child_time[s[1]] += d
        self_time = dur - child_time
        names = np.array([s[0] for s in spans], dtype=object)

        def pick(*wanted):
            return np.isin(names, wanted)

        def total(*wanted):
            return float(dur[pick(*wanted)].sum())

        def self_total(*wanted):
            return float(self_time[pick(*wanted)].sum())

        def info_sum(key, *wanted):
            return int(sum(s[4][key] for s, m in zip(spans, pick(*wanted))
                           if m and s[4] is not None))

        def count(*wanted):
            return int(pick(*wanted).sum())

        def share(num, den):
            return num / den if den else 0.0

        expr = np.array([str(n).startswith("expressions.") for n in names],
                        dtype=bool)
        # irregular_jets widens its lattice when the first attempt fails: psi
        # is then evaluated again for the 2h lattice
        jets_idx = np.nonzero(pick("fieldjets.irregular"))[0]
        psi_calls = {}
        for s in spans:
            if s[0] == "expressions.psi" and s[1] >= 0:
                psi_calls[s[1]] = psi_calls.get(s[1], 0) + 1
        widened = sum(1 for i in jets_idx if psi_calls.get(i, 0) > 1)
        row_ms = 1e3 * dur[pick("assembly.iface_row")]
        p50, p90 = (np.percentile(row_ms, [50, 90]) if len(row_ms)
                    else (0.0, 0.0))
        irr_rows = info_sum("rows", "stencil_irregular")

        return {
            "geometry.classify_s": (total("geometry.classify"), "s"),
            "geometry.base_chart_s": (total("geometry.base_chart"), "s"),
            "geometry.iface_nodes": (info_sum("nodes", "geometry.classify"),
                                     "count"),
            "expressions.field_points": (
                int(sum(s[4]["points"] for s, m in zip(spans, expr)
                        if m and s[4] is not None)), "count"),
            "expressions.eval_s": (float(dur[expr].sum()), "s"),
            "mls.operator_calls": (count("mls.operator"), "count"),
            "mls.operator_s": (total("mls.operator"), "s"),
            "mls.fit_bytes": (info_sum("bytes", "mls.operator"),
                              "bytes-computed"),
            "fieldjets.regular_s": (total("fieldjets.regular"), "s"),
            "fieldjets.boundary_s": (total("fieldjets.boundary"), "s"),
            "fieldjets.irregular_s": (self_total("fieldjets.irregular"), "s"),
            "fieldjets.widened_share": (share(widened, len(jets_idx)),
                                        "ratio"),
            "reduction.table_calls": (count("reduction.table"), "count"),
            "reduction.table_s": (total("reduction.table"), "s"),
            "transmission.curve_s": (total("transmission.curve"), "s"),
            "transmission.build_s": (self_total("transmission.build"), "s"),
            "stencil_core.recursion_s": (total("stencil_core.recursion"), "s"),
            "stencil_regular.rows": (info_sum("rows", "stencil_regular.batch"),
                                     "count"),
            "stencil_regular.batch_s": (total("stencil_regular.batch"), "s"),
            "stencil_regular.rhs_s": (total("stencil_regular.rhs"), "s"),
            "stencil_boundary.rows": (
                info_sum("rows", "stencil_boundary.edge",
                         "stencil_boundary.corner"), "count"),
            "stencil_boundary.s": (
                total("stencil_boundary.edge", "stencil_boundary.corner"),
                "s"),
            "stencil_irregular.rows": (irr_rows, "count"),
            "stencil_irregular.s": (total("stencil_irregular"), "s"),
            "stencil_irregular.under_resolved_share": (
                share(info_sum("under", "stencil_irregular"), irr_rows),
                "ratio"),
            "assembly.self_s": (self_total("assembly.assemble"), "s"),
            "assembly.nnz": (info_sum("nnz", "assembly.assemble"), "count"),
            "assembly.iface_row_ms_p50": (float(p50), "ms"),
            "assembly.iface_row_ms_p90": (float(p90), "ms"),
            "assembly.pool_wait_s": (total("assembly.pool_wait"), "s"),
            "assembly.solve_s": (total("assembly.solve"), "s"),
            "problems.load_s": (total("problems.load"), "s"),
            "cli.write_csv_s": (total("cli.write_csv"), "s"),
        }


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--metrics" or argv[2] != "--":
        sys.stderr.write("usage: tracer.py --metrics OUT.json -- CLI-ARGS...\n")
        return 1
    out_path, cli_args = argv[1], argv[3:]
    from hybridfdm import cli

    tracer = Tracer()
    undo = tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall(undo)
    metrics = {k: {"value": v, "unit": u}
               for k, (v, u) in tracer.layer_metrics().items()}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=1)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
