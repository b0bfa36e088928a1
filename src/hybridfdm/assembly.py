"""Assemble and solve the global sparse system.

Every grid node owns exactly one row, and rows come in blocks of one stencil
family (``RowBlock``): Dirichlet identities, 4-point Robin corner and 6-point
Robin edge rows at scale h^-1, 9-point regular rows at scale h^-2 and
13-point interface rows at scale h^-1 (no equilibration).  Each row's rhs
is one weight vector against one data vector of estimated derivatives (f,
the Robin data, the jumps), contracted by ``stencil_core.contract``.  The
sparse matrix, the rhs and the M-matrix audit all read the same blocks.
Assembly is deterministic (fixed chunking, fixed orders).
The nodes of each regular family go in chunks of ``CHUNK`` (1,024), and a
chunk starts from its nodes' grid indices: it estimates its own jets
(``regular_jets``), builds the u rows of its reduction table and its
packed G h-expansions, drops the u rows, runs the recursion, drops the
expansions, and only then builds the table's f rows for its source
weights.  At its peak, in the expansion or the recursion, a chunk holds
its jets, the packed expansions and the u rows or the recursion's own
arrays, about 7.1 KiB a node.  Interface nodes go in chunks of
``IFACE_CHUNK``, each chunk sharing one base-point and chart search, one
field lattice for its one-sided MLS fits, one transmission build and one
expansion of its 13-point degree systems.  No row depends on the chunk
size: a regular chunk estimates each node's jets by a product of its own
and otherwise contracts only elementwise along its batch axis
(``stencil_core._dot``), and every interface sample keeps the coordinates
of its node's own window, so every regular and interface row is the same,
bit for bit, whatever ``CHUNK`` and ``IFACE_CHUNK`` are.  The chunks are fixed, so they can fan out over a
process pool with results identical to the serial path; a regular task is
its side and node indices, not its jets.
Each ``assemble`` logs one INFO record on ``hybridfdm.assembly`` with its
phase timings, the row count of every family and, as ``widened``, the number
of interface nodes whose field jets took the widened MLS lattice.

This module imports no scipy: ``assemble`` loads LAPACK (``mls._lapack``,
from ``scipy.linalg``) before its boundary rows and before any fork, so pool
workers inherit it, and imports ``scipy.sparse`` where it builds the CSR
matrix; ``solve`` imports ``scipy.sparse.linalg``.  Importing the package
and loading a problem therefore need numpy only, and the first
``assemble`` pays for the scipy import (its ``timings["total"]`` includes
it).
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
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


@dataclass
class RowBlock:
    """Rows of one stencil family, one per grid node (ii[r], jj[r]).

    Every family has the same record: h-polynomial stencil coefficients,
    a row scale h^-scale, the rhs, and whether the family claims the
    M-matrix property (corner, edge and regular rows).  A Dirichlet row is
    the constant polynomial one at scale 0.
    """

    family: str          # dirichlet, corner, edge1..edge4, regular+/-, interface
    ii: np.ndarray
    jj: np.ndarray
    offsets: tuple       # k grid offsets shared by all rows
    coeffs: np.ndarray   # (n, k, D+1)
    scale: int           # the rows are scaled by h^-scale
    rhs: np.ndarray      # (n,)
    claims: bool         # audited as an M-matrix row family

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
    blocks: list                  # RowBlock, together covering every node once
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
    wall_assemble: float
    wall_solve: float


# ---------------------------------------------------------------------------
# worker-side state (inherited through fork when a pool is used)
# ---------------------------------------------------------------------------

# The problem and h of the current assembly.  The pool pickles every task and
# its result, and a problem's fields are compiled expressions or manufactured
# closures, which do not pickle; so a task carries only its nodes (and, for
# an interface chunk, their footprint masks), and the workers inherit the
# problem, h and the grid origin through fork from this dict.  A pool
# initializer would only set the same module-level state in each worker, and
# the serial path reads it in-process, so the dict stays.
_CTX: dict = {}


def _set_context(problem: ProblemSpec, h: float, origin):
    _CTX["problem"] = problem
    _CTX["h"] = h
    _CTX["origin"] = origin         # grid node (0, 0)


def _regular_chunk(args):
    """Stencil coefficients and rhs of a chunk of interior nodes.

    ``args`` is the side ("+" or "-") and the (n, 2) grid indices of the
    nodes; the chunk estimates its own jets from that side's fields.
    """
    side, nodes = args
    problem, h = _CTX["problem"], _CTX["h"]
    a_field, f_field = ((problem.a_plus, problem.f_plus) if side == "+"
                        else (problem.a_minus, problem.f_minus))
    a_jet, f_der = regular_jets(a_field, f_field, nodes, _CTX["origin"], h)
    coeffs, table = build_regular_batch(a_jet)
    weights = regular_rhs_weights(coeffs, table, h)
    return coeffs, contract(weights, f_der) / h**2


def _named(exc, point):
    """The same error type, with the interface node and row family named."""
    return type(exc)(f"interface node ({point[0]:.6g}, {point[1]:.6g}): {exc}")


@contextmanager
def _in_batch(points):
    """Name the node of a batched step's failure, found by its ``index``."""
    try:
        yield
    except HybridFdmError as exc:
        if exc.index is None:
            raise
        raise _named(exc, points[exc.index]) from exc


def _irregular_one(bp, chart):
    """Per-node front half of an interface row: the curve jet at its base
    point, from its chart."""
    return curve_jet_from_chart(chart, bp.v0, bp.w0, _CTX["h"])


def _irregular_row(system, fp, fm, wide):
    """Per-node back half of an interface row: its stencil coefficients,
    its rhs from the one-sided source jets ``fp`` and ``fm``, and whether
    its field jets took the widened MLS lattice."""
    h = _CTX["h"]
    coeffs = solve_irregular_stencil(system, h)
    weights = irregular_rhs_weights(coeffs, system, h)
    rhs = irregular_rhs_value(weights, fp, fm, system.model.curve)
    return coeffs, rhs, bool(wide)


def _irregular_chunk(args):
    """Row data for one chunk of interface nodes.

    ``args`` holds the nodes and their (n, 13) minus-side footprint masks.
    Base points and charts are located for the whole chunk at once, the
    curve jets node by node; the one-sided field jets, the transmission and
    the 13-point degree systems are built once for the chunk, and the
    stencil and its rhs are then solved node by node.  Returns one
    ``_irregular_row`` triple per node.  A failure pinned to one node
    (``per_node``, or a batched step's ``index``) names that node.
    """
    points, minus = args
    problem, h = _CTX["problem"], _CTX["h"]
    with _in_batch(points):
        bases = problem.interface.locate_base(points, h)
        charts = problem.interface.chart(bases, h)
        curves = per_node(zip(bases, charts), lambda bc: _irregular_one(*bc))
        jp, jm, fpd, fmd, widened = irregular_jets(
            problem.a_plus, problem.a_minus, problem.f_plus, problem.f_minus,
            problem.psi, points, [bp.base for bp in bases], h)
        systems = assemble_irregular_system(
            build_transmission(curves, jp, jm), minus)
        return per_node(zip(systems, fpd, fmd, widened),
                        lambda row: _irregular_row(*row))


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


def _dirichlet_block(ii, jj, data) -> RowBlock:
    return RowBlock("dirichlet", ii, jj, ((0, 0),), np.ones((len(ii), 1, 1)),
                    scale=0, claims=False, rhs=np.broadcast_to(
                        np.asarray(data, dtype=float), ii.shape))


def _boundary_block(family, ii, jj, stencil, frame, data, h) -> RowBlock:
    """Rows of a canonical-frame Robin stencil, mapped onto its side or
    corner, with their rhs from the stencil's data vector; an unbatched
    (corner) stencil gives a block of one row."""
    n, k = len(ii), len(stencil.offsets)
    return RowBlock(family, ii, jj, map_by_reflection(stencil, frame),
                    np.reshape(stencil.coeffs, (n, k, -1)), scale=1,
                    claims=True,
                    rhs=np.reshape(contract(stencil.weights(h), data) / h, n))


def assemble(problem: ProblemSpec, J: int, threads: int = 1) -> GlobalSystem:
    """The global system of ``problem`` at level ``J``.

    With ``threads`` > 1 the regular and interface chunks fan out over a
    fork pool of at most ``threads`` workers, and no more than the largest
    chunk count of one family; the rows are the same as with one process.
    """
    if threads < 1:
        raise AssemblyError(
            f"threads must be a positive worker count, got {threads}")
    t0 = time.perf_counter()
    xs, ys, h = _grid(problem, J)
    n1, n2 = len(xs) - 1, len(ys) - 1
    cls = classify_grid(xs, ys, problem.psi)
    iface_nodes = np.nonzero(cls.labels == LABEL_IRREGULAR)
    ii, jj = iface_nodes
    bad = (ii < 2) | (ii > n1 - 2) | (jj < 2) | (jj > n2 - 2)
    if bad.any():
        a, b = ii[bad][0], jj[bad][0]
        raise AssemblyError(
            f"13-point footprint of interface node ({xs[a]:.6g}, "
            f"{ys[b]:.6g}) leaves the grid; the interface runs too close "
            "to the boundary for this mesh")
    timings = {}
    _set_context(problem, h, (xs[0], ys[0]))
    # load LAPACK (scipy.linalg) here, before any fit and any fork: pool
    # workers inherit it instead of each importing it for its first fit
    _lapack()

    # ---- boundary rows -----------------------------------------------------
    tb = time.perf_counter()
    blocks = []
    corner_nodes = {(0, 0): (1, 3), (n1, 0): (2, 3), (0, n2): (1, 4),
                    (n1, n2): (2, 4)}
    for (i, j), (sx, sy) in corner_nodes.items():
        bcx, bcy = problem.boundary[sx], problem.boundary[sy]
        x, y = xs[i], ys[j]
        ii, jj = np.array([i]), np.array([j])
        if bcx.kind == "dirichlet" or bcy.kind == "dirichlet":
            bc = bcx if bcx.kind == "dirichlet" else bcy
            blocks.append(_dirichlet_block(ii, jj, bc.data(x, y)))
            continue
        frame = CORNER_FRAMES[(sx, sy)]
        jet, a_der, f_der, g1_der, b_der, g3_der = corner_jets(
            problem.a_plus, problem.f_plus, bcx.alpha, bcx.data,
            bcy.alpha, bcy.data, (x, y), frame, h)
        st = solve_corner_stencil(build_corner_reduction(jet, a_der, b_der))
        blocks.append(_boundary_block("corner", ii, jj, st, frame,
                                      np.concatenate([f_der, g1_der, g3_der]),
                                      h))

    for side in (1, 2, 3, 4):
        bc = problem.boundary[side]
        if side in (1, 2):
            i0 = 0 if side == 1 else n1
            anchors = np.column_stack([np.full(n2 - 1, xs[i0]), ys[1:-1]])
            ii, jj = np.full(n2 - 1, i0), np.arange(1, n2)
        else:
            j0 = 0 if side == 3 else n2
            anchors = np.column_stack([xs[1:-1], np.full(n1 - 1, ys[j0])])
            ii, jj = np.arange(1, n1), np.full(n1 - 1, j0)
        if bc.kind == "dirichlet":
            blocks.append(_dirichlet_block(
                ii, jj, bc.data(anchors[:, 0], anchors[:, 1])))
            continue
        frame = SIDE_FRAMES[side]
        jet, a_der, f_der, g_der = edge_jets(
            problem.a_plus, problem.f_plus, bc.alpha, bc.data,
            anchors, frame, h)
        st = solve_edge_stencil(jet, a_der)
        blocks.append(_boundary_block(f"edge{side}", ii, jj, st, frame,
                                      np.hstack([f_der, g_der]), h))
    timings["boundary"] = time.perf_counter() - tb

    # ---- regular interior rows --------------------------------------------
    tr = time.perf_counter()
    regular = []
    for side, label in (("+", LABEL_REGULAR_PLUS), ("-", LABEL_REGULAR_MINUS)):
        ii, jj = np.nonzero(cls.labels == label)
        if len(ii) == 0:
            continue
        nodes = np.column_stack([ii, jj])
        regular.append((side, ii, jj, [(side, nodes[k: k + CHUNK])
                                       for k in range(0, len(ii), CHUNK)]))
    ii, jj = iface_nodes
    offs = np.asarray(IRREGULAR_OFFSETS)
    minus = cls.psi[ii[:, None] + offs[:, 0], jj[:, None] + offs[:, 1]] <= 0.0
    points = [(float(xs[a]), float(ys[b])) for a, b in zip(ii, jj)]
    iface_chunks = [(points[k: k + IFACE_CHUNK], minus[k: k + IFACE_CHUNK])
                    for k in range(0, len(points), IFACE_CHUNK)]
    pool = None
    if threads > 1:
        # a fork pool starts all its workers at the first submit: start no
        # more than the largest map can keep busy
        workers = min(threads, max([len(iface_chunks)]
                                   + [len(chunks) for *_, chunks in regular]))
        ctx = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
    run = map if pool is None else pool.map
    try:
        for side, ii, jj, chunks in regular:
            coeffs, rhs = (np.concatenate(part)
                           for part in zip(*run(_regular_chunk, chunks)))
            blocks.append(RowBlock(f"regular{side}", ii, jj, OFFSETS9,
                                   coeffs, scale=2, claims=True, rhs=rhs))
        timings["regular"] = time.perf_counter() - tr

        # ---- interface rows -------------------------------------------------
        ti = time.perf_counter()
        widened = 0
        if iface_chunks:
            coeffs, rhs, wide = zip(*(r for part in run(_irregular_chunk,
                                                        iface_chunks)
                                      for r in part))
            blocks.append(RowBlock("interface", *iface_nodes,
                                   IRREGULAR_OFFSETS, np.stack(coeffs),
                                   scale=1, claims=False, rhs=np.array(rhs)))
            widened = sum(wide)
        timings["irregular"] = time.perf_counter() - ti
    finally:
        if pool is not None:
            pool.shutdown()

    import scipy.sparse as sp

    nn = (n1 + 1) * (n2 + 1)
    rhs = np.zeros(nn)
    rows, cols, vals = [], [], []
    for block in blocks:
        r, c = block.columns(n2 + 1)
        rhs[r] = block.rhs
        rows.append(np.repeat(r, c.shape[1]))
        cols.append(c.ravel())
        vals.append(block.values(h).ravel())
    matrix = sp.csr_matrix(sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nn, nn)))
    timings["total"] = time.perf_counter() - t0
    system = GlobalSystem(matrix=matrix, rhs=rhs, labels=cls.labels, xs=xs,
                          ys=ys, h=h, blocks=blocks, timings=timings)
    rows = system.family_rows
    log.info("assembled %d rows at J=%d in %.3fs (boundary %.3fs, regular "
             "%.3fs, interface %.3fs); rows per family: %s", nn, J,
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
                       wall_assemble=system.timings.get("total", 0.0),
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


def audit_m_matrix(system: GlobalSystem, tol: float = 1e-10) -> MMatrixAudit:
    """Audit the rows of every block that claims the M-matrix property.

    A row fails if its coefficients break a per-degree sign/sum condition
    (``check_sign_sum``) or if a matrix entry at mesh size h has the wrong
    sign: a diagonal <= 0, or an off-diagonal entry above
    tol * max(1, diagonal).  A failing row is named by its first coefficient
    violation (a sign before a sum), else by its first wrong entry in column
    order.
    """
    failed, violations = {}, []
    for block in system.blocks:
        if not block.claims:
            continue
        center = block.offsets.index((0, 0))
        report = check_sign_sum(block.coeffs, center, tol)
        found = {}
        for b, o, p, v in report.sign_violations:
            found.setdefault(b, f"degree-{p} coefficient at offset "
                                f"{block.offsets[o]} is {v:.6g}")
        for b, p, v in report.sum_violations:
            found.setdefault(b, f"degree-{p} coefficient sum is {v:.6g}")
        values = block.values(system.h)
        diag = values[:, center]
        wrong = values > tol * np.maximum(1.0, diag)[:, None]
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
