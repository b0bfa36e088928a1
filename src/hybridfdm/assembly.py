"""Assemble and solve the global sparse system.

Every grid node owns exactly one row, and rows come in blocks of one stencil
family (``RowBlock``): Dirichlet identities, 4-point Robin corner and 6-point
Robin edge rows at scale h^-1, 9-point regular rows at scale h^-2 and
13-point interface rows at scale h^-1 (no equilibration).  Each row's rhs
is one weight vector against one data vector of estimated derivatives (f,
the Robin data, the jumps), contracted by ``stencil_core.contract``.  The
sparse matrix, the rhs and the M-matrix audit all read the same blocks,
one block per task, kept as the tasks return them: the CSR arrays are
written straight from them (``_csr``), with no triplets and no joined
family, and once they are written the matrix and the rhs need no block,
so a caller may drop the blocks before the solve (the CLI does).

Every row comes from a task: a corner node, the inner nodes of one side, a
chunk of ``CHUNK`` (1,024) regular nodes of one side or a chunk of
``IFACE_CHUNK`` (64) interface nodes.  A task is plain data (node indices,
and an interface chunk's footprint masks), and every task function takes
one frozen ``Context`` (the problem, h and the grid origin) as its first
argument, so the module holds no state of an assembly and two ``assemble``
calls may run at once.  The tasks are fixed, so the chunks can fan out over
a fork pool with results identical to the serial path.
A regular chunk estimates its own jets (``regular_jets``), builds the u
rows of its reduction table and its packed G h-expansions, drops the u
rows, runs the recursion, drops the expansions, and only then builds the
table's f rows for its source weights; at its peak it holds about 7.1 KiB a
node.  An interface chunk shares one base-point and chart search, one field
lattice for its one-sided MLS fits, one transmission build and one
expansion of its 13-point degree systems.  No row depends on the chunk
size: a regular chunk estimates each node's jets by a product of its own
and otherwise contracts only elementwise along its batch axis
(``stencil_core._dot``), and every interface sample keeps the coordinates
of its node's own window.
Each ``assemble`` logs one INFO record on ``hybridfdm.assembly`` with the
task times summed per family, the row count of every family and, as
``widened``, the number of interface nodes whose field jets took the
widened MLS lattice.

This module imports no scipy: ``assemble`` loads LAPACK (``mls._lapack``,
from ``scipy.linalg``) before any fit and any fork, so pool workers inherit
it, and imports ``scipy.sparse`` where it builds the CSR matrix; ``solve``
imports ``scipy.sparse.linalg``.  Importing the package and loading a
problem need numpy only.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

import multiprocessing
import numpy as np

from .errors import AssemblyError, HybridFdmError, per_node
from .fieldjets import corner_jets, edge_jets, irregular_jets, regular_jets
from .geometry import (
    IRREGULAR_OFFSETS,
    LABEL_IRREGULAR,
    LABEL_REGULAR_MINUS,
    LABEL_REGULAR_PLUS,
    classify_grid,
)
from .mls import _lapack
from .problems import ProblemSpec
from .stencil_boundary import (
    CORNER_FRAMES,
    SIDE_FRAMES,
    build_corner_reduction,
    map_by_reflection,
    solve_corner_stencil,
    solve_edge_stencil,
)
from .stencil_core import check_sign_sum, contract, stencil_values
from .stencil_irregular import (
    assemble_irregular_system,
    irregular_rhs_value,
    irregular_rhs_weights,
    solve_irregular_stencil,
)
from .stencil_regular import OFFSETS9, build_regular_batch, regular_rhs_weights
from .transmission import build_transmission, curve_jet_from_chart

if TYPE_CHECKING:
    import scipy.sparse as sp

log = logging.getLogger(__name__)

CHUNK = 1024           # interior nodes per regular-row batch
IFACE_CHUNK = 64       # interface nodes per transmission batch
AUDIT_TOL = 1e-10      # sign tolerance of the M-matrix audit


@dataclass
class RowBlock:
    """Rows of one stencil family, one per grid node (ii[r], jj[r]).

    Every family has the same record: h-polynomial stencil coefficients,
    a row scale h^-scale and the rhs.  Whether the rows claim the M-matrix
    property follows from the family (``claims``).  A Dirichlet row is the
    constant polynomial one at scale 0.
    """

    family: str          # dirichlet, corner, edge1..edge4, regular+/-, interface
    ii: np.ndarray
    jj: np.ndarray
    offsets: tuple       # k grid offsets shared by all rows
    coeffs: np.ndarray   # (n, k, D+1)
    scale: int           # the rows are scaled by h^-scale
    rhs: np.ndarray      # (n,)

    @property
    def claims(self) -> bool:
        """Audited as an M-matrix row family: corner, edge and regular rows."""
        return self.family.startswith(("corner", "edge", "regular"))

    def values(self, h: float) -> np.ndarray:
        """(n, k) matrix entries at mesh size h, row scale applied."""
        return stencil_values(self.coeffs, h) / h**self.scale

    def columns(self, ny: int):
        """Flat row (n,) and column (n, k) indices, ``ny`` nodes along y."""
        offs = np.asarray(self.offsets, dtype=np.int64)
        rows = self.ii * ny + self.jj
        cols = (self.ii[:, None] + offs[:, 0]) * ny + self.jj[:, None] + offs[:, 1]
        return rows, cols


@dataclass
class GlobalSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    labels: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    h: float
    blocks: list                  # one RowBlock per task; each node in one
    timings: dict

    @property
    def shape(self):
        return (len(self.xs), len(self.ys))

    @property
    def family_rows(self) -> dict:
        """Row count per stencil family, in block order."""
        rows = {}
        for block in self.blocks:
            rows[block.family] = rows.get(block.family, 0) + len(block.ii)
        return rows


@dataclass
class SolveResult:
    u: np.ndarray                 # (N1+1, N2+1) grid values
    residual: float               # relative linear-system residual
    wall_solve: float


@dataclass(frozen=True)
class Context:
    """What every task of one ``assemble`` reads: its first argument."""

    problem: ProblemSpec
    h: float
    origin: tuple                 # coordinates of grid node (0, 0)


# A pool worker's context, set by the pool's initializer only.  The pool
# pickles tasks and results, but a problem's fields (compiled expressions,
# closures) do not pickle; a fork pool's initializer arguments are inherited.
_WORKER: Context | None = None


def _start_worker(ctx: Context):
    global _WORKER
    _WORKER = ctx


def _pooled(task):
    return _task(_WORKER, task)


def _task(ctx: Context, task):
    """Run one task, ``(kind, ...)``: its rows as a RowBlock, the seconds it
    took and how many of its interface nodes took the widened MLS lattice.

    A failure of any family is named here, by its family and its node: the
    node a batched step pinned it to (its ``index``), or a one-node task's
    node.  The error keeps its type."""
    # looked up at call time, so a replaced task function is the one that runs
    run = {"boundary": _boundary_rows, "regular": _regular_chunk,
           "irregular": _irregular_chunk}[task[0]]
    try:
        return run(ctx, task)
    except HybridFdmError as exc:
        family, ii, jj = _rows(ctx, task)
        if exc.index is None and len(ii) != 1:
            raise
        k = exc.index or 0
        x, y = ctx.origin[0] + ii[k] * ctx.h, ctx.origin[1] + jj[k] * ctx.h
        raise type(exc)(f"{family} node ({x:.6g}, {y:.6g}): {exc}") from exc


def _rows(ctx: Context, task):
    """(family, ii, jj): the stencil family of a task's rows and their grid
    nodes, in row order."""
    if task[0] == "regular":
        return (f"regular{task[1]}", *task[2].T)
    if task[0] == "irregular":
        return ("interface", *task[1].T)
    _, sides, ii, jj = task
    if any(ctx.problem.boundary[side].kind == "dirichlet" for side in sides):
        return "dirichlet", ii, jj
    return ("corner" if len(sides) == 2 else f"edge{sides[0]}"), ii, jj


def _boundary_rows(ctx: Context, task):
    """Rows of ("boundary", sides, ii, jj): a corner node (on two sides) or
    the inner nodes of one side.  A corner with a Dirichlet side is a
    Dirichlet row; a Robin row is its canonical-frame stencil mapped onto
    its side or corner (an unbatched corner stencil gives one row)."""
    t0 = time.perf_counter()
    family, ii, jj = _rows(ctx, task)
    sides = task[1]
    problem, h = ctx.problem, ctx.h
    x, y = ctx.origin[0] + ii * h, ctx.origin[1] + jj * h
    bcs = [problem.boundary[side] for side in sides]
    if family == "dirichlet":
        bc = next(bc for bc in bcs if bc.kind == "dirichlet")
        data = np.asarray(bc.data(x, y), dtype=float)
        block = RowBlock(family, ii, jj, ((0, 0),),
                         np.ones((len(ii), 1, 1)), scale=0,
                         rhs=np.broadcast_to(data, ii.shape))
        return block, time.perf_counter() - t0, 0
    if family == "corner":
        frame = CORNER_FRAMES[sides]
        jet, a_der, f_der, g1_der, b_der, g3_der = corner_jets(
            problem.a_plus, problem.f_plus, bcs[0].alpha, bcs[0].data,
            bcs[1].alpha, bcs[1].data, (x[0], y[0]), frame, h)
        st = solve_corner_stencil(build_corner_reduction(jet, a_der, b_der))
        data = np.concatenate([f_der, g1_der, g3_der])
    else:
        frame = SIDE_FRAMES[sides[0]]
        jet, a_der, f_der, g_der = edge_jets(
            problem.a_plus, problem.f_plus, bcs[0].alpha, bcs[0].data,
            np.column_stack([x, y]), frame, h)
        st = solve_edge_stencil(jet, a_der)
        data = np.hstack([f_der, g_der])
    n, k = len(ii), len(st.offsets)
    block = RowBlock(family, ii, jj, map_by_reflection(st, frame),
                     np.reshape(st.coeffs, (n, k, -1)), scale=1,
                     rhs=np.reshape(contract(st.weights(h), data) / h, n))
    return block, time.perf_counter() - t0, 0


def _regular_chunk(ctx: Context, task):
    """Rows of ("regular", side, nodes): a chunk of (n, 2) grid indices of
    interior nodes of one side ("+" or "-"), with jets of its own estimated
    from that side's fields."""
    t0 = time.perf_counter()
    _, side, nodes = task
    problem, h = ctx.problem, ctx.h
    a_field, f_field = ((problem.a_plus, problem.f_plus) if side == "+"
                        else (problem.a_minus, problem.f_minus))
    a_jet, f_der = regular_jets(a_field, f_field, nodes, ctx.origin, h)
    coeffs, table = build_regular_batch(a_jet)
    weights = regular_rhs_weights(coeffs, table, h)
    block = RowBlock(f"regular{side}", *nodes.T, OFFSETS9, coeffs, scale=2,
                     rhs=contract(weights, f_der) / h**2)
    return block, time.perf_counter() - t0, 0


def _irregular_one(bp, chart, h):
    """Per-node front half of an interface row: the curve jet at its base
    point, from its chart."""
    return curve_jet_from_chart(chart, bp.v0, bp.w0, h)


def _irregular_row(system, fp, fm, h):
    """Per-node back half of an interface row: its stencil coefficients and
    its rhs from the one-sided source jets ``fp`` and ``fm``."""
    coeffs = solve_irregular_stencil(system, h)
    weights = irregular_rhs_weights(coeffs, system, h)
    return coeffs, irregular_rhs_value(weights, fp, fm, system.model.curve)


def _irregular_chunk(ctx: Context, task):
    """Rows of ("irregular", nodes, minus): a chunk of (n, 2) grid indices
    of interface nodes and their (n, 13) minus-side footprint masks.

    Base points and charts are located for the whole chunk at once, the
    curve jets node by node; the one-sided field jets, the transmission and
    the 13-point degree systems are built once for the chunk, and the
    stencil and its rhs are then solved node by node.  A failure pinned to
    one node (``per_node``, or a batched step's ``index``) carries the
    node's position in the chunk.
    """
    t0 = time.perf_counter()
    _, nodes, minus = task
    problem, h = ctx.problem, ctx.h
    points = [(float(x), float(y)) for x, y in ctx.origin + nodes * h]
    bases = problem.interface.locate_base(points, h)
    charts = problem.interface.chart(bases, h)
    curves = per_node(zip(bases, charts), lambda bc: _irregular_one(*bc, h))
    jp, jm, fpd, fmd, widened = irregular_jets(
        problem.a_plus, problem.a_minus, problem.f_plus, problem.f_minus,
        problem.psi, points, [bp.base for bp in bases], h)
    systems = assemble_irregular_system(
        build_transmission(curves, jp, jm), minus)
    rows = per_node(zip(systems, fpd, fmd),
                    lambda row: _irregular_row(*row, h))
    coeffs, rhs = zip(*rows)
    block = RowBlock("interface", *nodes.T, IRREGULAR_OFFSETS,
                     np.stack(coeffs), scale=1, rhs=np.array(rhs))
    return block, time.perf_counter() - t0, np.count_nonzero(widened)


def _grid(problem: ProblemSpec, J: int):
    l1, l2, l3, l4 = problem.domain
    if not (l1 < l2 and l3 < l4):
        raise AssemblyError(
            f"domain needs l1 < l2 and l3 < l4, got l1 = {l1:g}, l2 = {l2:g}, "
            f"l3 = {l3:g}, l4 = {l4:g}")
    width, height = l2 - l1, l4 - l3
    if J < 1:
        raise AssemblyError(f"J must be at least 1, got {J}")
    n0 = height / width
    if abs(n0 - round(n0)) > 1e-12 or round(n0) < 1:
        raise AssemblyError("domain height must be an integer multiple of width")
    n1 = 2**J
    n2 = int(round(n0)) * n1
    h = width / n1
    xs = l1 + np.arange(n1 + 1) * h
    ys = l3 + np.arange(n2 + 1) * h
    return xs, ys, h


def _csr(blocks, nx: int, ny: int, h: float):
    """The CSR matrix and the rhs of row blocks that cover the nx x ny grid
    once, written straight from the blocks: a row's entries are its
    block's, in column order.  Every row of a block has its columns in the
    order of its sorted offsets, (di, dj) by di and then dj, since the dj
    of a block span less than ny (4 for the 13-point rows, whose nodes lie
    two or more from the sides), so one ordering serves the block.  The
    arrays are those a COO to CSR conversion gives, canonical and with its
    index dtype, without the triplets."""
    import scipy.sparse as sp

    nn = nx * ny
    counts = np.zeros(nn + 1, dtype=np.int64)
    for block in blocks:
        counts[1 + block.ii * ny + block.jj] = len(block.offsets)
    nnz = int(counts.sum())
    index = np.int32 if max(nnz, nn) <= np.iinfo(np.int32).max else np.int64
    indptr = np.cumsum(counts, dtype=index)
    del counts
    indices, data = np.empty(nnz, dtype=index), np.empty(nnz)
    rhs = np.zeros(nn)
    for block in blocks:
        rows, cols = block.columns(ny)
        k = len(block.offsets)
        by_column = sorted(range(k), key=block.offsets.__getitem__)
        at = indptr[rows][:, None] + np.arange(k)
        indices[at] = cols[:, by_column]
        data[at] = block.values(h)[:, by_column]
        rhs[rows] = block.rhs
    matrix = sp.csr_matrix((data, indices, indptr), shape=(nn, nn))
    return matrix, rhs


def assemble(problem: ProblemSpec, J: int, threads: int = 1) -> GlobalSystem:
    """The global system of ``problem`` at level ``J``.

    With ``threads`` > 1 the chunks fan out over one fork pool of at most
    ``threads`` workers, and no more than there are chunks, while this
    process builds the boundary rows; the rows are the same as with one
    process.  ``timings`` holds each family's task times, summed over the
    workers in a pool run, and the wall time of the call as ``total``.
    """
    if threads < 1:
        raise AssemblyError(
            f"threads must be a positive worker count, got {threads}")
    t0 = time.perf_counter()
    xs, ys, h = _grid(problem, J)
    n1, n2 = len(xs) - 1, len(ys) - 1
    cls = classify_grid(xs, ys, problem.psi)
    iface = np.argwhere(cls.labels == LABEL_IRREGULAR)
    ii, jj = iface.T
    bad = (ii < 2) | (ii > n1 - 2) | (jj < 2) | (jj > n2 - 2)
    if bad.any():
        a, b = ii[bad][0], jj[bad][0]
        raise AssemblyError(
            f"13-point footprint of interface node ({xs[a]:.6g}, "
            f"{ys[b]:.6g}) leaves the grid; the interface runs too close "
            "to the boundary for this mesh")
    ctx = Context(problem, h, (xs[0], ys[0]))
    # load LAPACK (scipy.linalg) here, before any fit and any fork: pool
    # workers inherit it instead of each importing it for its first fit
    _lapack()

    # the corner nodes, then the inner nodes of each side, by their sides
    inner_i, inner_j = np.arange(1, n1), np.arange(1, n2)
    at = {(1, 3): ([0], [0]), (2, 3): ([n1], [0]), (1, 4): ([0], [n2]),
          (2, 4): ([n1], [n2]), (1,): (np.full_like(inner_j, 0), inner_j),
          (2,): (np.full_like(inner_j, n1), inner_j),
          (3,): (inner_i, np.full_like(inner_i, 0)),
          (4,): (inner_i, np.full_like(inner_i, n2))}
    boundary = [("boundary", sides, np.asarray(i), np.asarray(j))
                for sides, (i, j) in at.items()]
    offs = np.asarray(IRREGULAR_OFFSETS)
    minus = cls.psi[ii[:, None] + offs[:, 0], jj[:, None] + offs[:, 1]] <= 0.0
    # the costliest first: an interface node costs far more than a regular one
    interior = [("irregular", iface[k: k + IFACE_CHUNK],
                 minus[k: k + IFACE_CHUNK])
                for k in range(0, len(iface), IFACE_CHUNK)]
    for side, label in (("+", LABEL_REGULAR_PLUS), ("-", LABEL_REGULAR_MINUS)):
        nodes = np.argwhere(cls.labels == label)
        interior += [("regular", side, nodes[k: k + CHUNK])
                     for k in range(0, len(nodes), CHUNK)]
    if threads > 1 and interior:
        # a fork pool starts all its workers at its first task
        pool = ProcessPoolExecutor(
            max_workers=min(threads, len(interior)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(ctx,))
        try:
            pooled = pool.map(_pooled, interior)
            parts = [_task(ctx, task) for task in boundary] + list(pooled)
        finally:
            pool.shutdown()
    else:
        parts = list(map(partial(_task, ctx), boundary + interior))

    timings = dict.fromkeys(("boundary", "regular", "irregular"), 0.0)
    blocks, widened = [], 0
    for (kind, *_), (block, seconds, wide) in zip(boundary + interior, parts):
        timings[kind] += seconds
        widened += wide
        blocks.append(block)
    # the boundary blocks, then each family's chunks in chunk order
    rank = {"regular+": 1, "regular-": 2, "interface": 3}
    blocks.sort(key=lambda block: rank.get(block.family, 0))
    matrix, rhs = _csr(blocks, n1 + 1, n2 + 1, h)
    timings["total"] = time.perf_counter() - t0
    system = GlobalSystem(matrix=matrix, rhs=rhs, labels=cls.labels, xs=xs,
                          ys=ys, h=h, blocks=blocks, timings=timings)
    rows = system.family_rows
    log.info("assembled %d rows at J=%d in %.3fs (boundary %.3fs, regular "
             "%.3fs, interface %.3fs); rows per family: %s", len(rhs), J,
             timings["total"], timings["boundary"], timings["regular"],
             timings["irregular"],
             ", ".join(f"{family} {n}" for family, n in rows.items()),
             extra={"timings": timings, "rows": rows, "widened": widened})
    return system


def solve(system: GlobalSystem) -> SolveResult:
    import scipy.sparse.linalg as spla

    t0 = time.perf_counter()
    u = spla.spsolve(system.matrix, system.rhs)
    wall = time.perf_counter() - t0
    if not np.all(np.isfinite(u)):
        raise AssemblyError("direct solve produced non-finite values "
                            "(singular or near-singular factorization)")
    num = np.linalg.norm(system.matrix @ u - system.rhs)
    den = np.linalg.norm(system.rhs)
    residual = float(num / den) if den > 0 else float(num)
    n1, n2 = system.shape
    return SolveResult(u=u.reshape(n1, n2), residual=residual,
                       wall_solve=wall)


class Violation(NamedTuple):
    """One audited row that breaks the M-matrix conditions."""

    family: str
    node: tuple                   # grid indices (i, j)
    what: str                     # the failing entry and its value


@dataclass
class MMatrixAudit:
    """Outcome of the M-matrix audit over the assembled row blocks."""

    rows: dict                    # family -> row count
    failed: dict                  # family -> failing rows, claiming families only
    violations: list              # Violation: the first failing entry per row

    @property
    def passed(self):
        return not any(self.failed.values())


def audit_m_matrix(system: GlobalSystem) -> MMatrixAudit:
    """Audit the rows of every block that claims the M-matrix property.

    A row fails if its coefficients break a per-degree sign/sum condition
    (``check_sign_sum``) or if a matrix entry at mesh size h has the wrong
    sign: a diagonal <= 0, or an off-diagonal entry above
    ``AUDIT_TOL`` * max(1, diagonal); the coefficient checks take the same
    tolerance.  A failing row is named by its first coefficient violation
    (a sign before a sum), else by its first wrong entry in column order.
    """
    failed, violations = {}, []
    for block in system.blocks:
        if not block.claims:
            continue
        center = block.offsets.index((0, 0))
        report = check_sign_sum(block.coeffs, center, AUDIT_TOL)
        found = {}
        for b, o, p, v in report.sign_violations:
            found.setdefault(b, f"degree-{p} coefficient at offset "
                                f"{block.offsets[o]} is {v:.6g}")
        for b, p, v in report.sum_violations:
            found.setdefault(b, f"degree-{p} coefficient sum is {v:.6g}")
        values = block.values(system.h)
        diag = values[:, center]
        wrong = values > AUDIT_TOL * np.maximum(1.0, diag)[:, None]
        wrong[:, center] = diag <= 0.0
        for di, dj in sorted(block.offsets):        # column order
            o = block.offsets.index((di, dj))
            for b in np.flatnonzero(wrong[:, o]):
                col = (int(block.ii[b] + di), int(block.jj[b] + dj))
                found.setdefault(int(b), f"matrix entry in the column of node "
                                         f"{col} is {values[b, o]:.6g}")
        failed[block.family] = failed.get(block.family, 0) + len(found)
        violations += [Violation(block.family,
                                 (int(block.ii[b]), int(block.jj[b])), found[b])
                       for b in sorted(found)]
    return MMatrixAudit(rows=system.family_rows, failed=failed,
                        violations=violations)
