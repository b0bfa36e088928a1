"""Assemble and solve the global sparse system.

Every grid node owns exactly one row: Dirichlet rows are identities, regular
interior rows carry the 9-point stencil at scale h^-2, boundary Robin rows
the 6-point/4-point stencils at scale h^-1, and interface rows the 13-point
stencil at scale h^-1, each with its matching data weights on the right.
Rows keep these natural scales (no equilibration).  Assembly is deterministic
(fixed chunking, fixed orders): interior nodes go in chunks of ``CHUNK`` and
interface nodes in chunks of ``IFACE_CHUNK``, each chunk sharing one
transmission build.  The chunks can fan out over a process pool, with results
identical to the serial path.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import multiprocessing
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AssemblyError, GeometryError, MlsError, StencilError
from .fieldjets import corner_jets, edge_jets, irregular_jets, regular_jets
from .geometry import (
    IRREGULAR_OFFSETS,
    LABEL_IRREGULAR,
    LABEL_REGULAR_MINUS,
    LABEL_REGULAR_PLUS,
    classify_grid,
)
from .jets import Jet2
from .problems import ProblemSpec
from .stencil_boundary import (
    CORNER_FRAMES,
    CORNER_OFFSETS,
    EDGE_OFFSETS,
    SIDE_FRAMES,
    build_corner_reduction,
    solve_corner_stencil,
    solve_edge_stencil,
)
from .stencil_irregular import (
    assemble_irregular_system,
    irregular_rhs_value,
    irregular_rhs_weights,
    solve_irregular_stencil,
)
from .stencil_regular import OFFSETS9, build_regular_batch, regular_rhs_weights
from .transmission import build_transmission, curve_jet_from_chart

CHUNK = 2048           # interior nodes per regular-row batch
IFACE_CHUNK = 64       # interface nodes per transmission batch


@dataclass
class AssemblyAudit:
    """Raw stencil coefficients kept for the sign/sum audit."""

    regular_ij: np.ndarray = None        # (Nr, 2)
    regular_coeffs: np.ndarray = None    # (Nr, 9, 8)
    regular_monotone: np.ndarray = None
    edge_rows: list = field(default_factory=list)    # (side, j/i, coeffs, monotone)
    corner_rows: list = field(default_factory=list)  # (corner, coeffs, monotone)
    irregular_ij: list = field(default_factory=list)
    dirichlet_count: int = 0


@dataclass
class GlobalSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    labels: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    h: float
    audit: AssemblyAudit
    timings: dict

    @property
    def shape(self):
        return (len(self.xs), len(self.ys))

    def index(self, i, j):
        return i * len(self.ys) + j


@dataclass
class SolveResult:
    u: np.ndarray                 # (N1+1, N2+1) grid values
    residual: float               # relative linear-system residual
    wall_assemble: float
    wall_solve: float


# ---------------------------------------------------------------------------
# worker-side state (inherited through fork when a pool is used)
# ---------------------------------------------------------------------------

_CTX: dict = {}


def _set_context(problem: ProblemSpec, h: float):
    _CTX["problem"] = problem
    _CTX["h"] = h


def _regular_chunk(args):
    """Stencil coefficients and rhs weights for one chunk of interior nodes."""
    pts, side = args
    problem, h = _CTX["problem"], _CTX["h"]
    a_field = problem.a_plus if side == "+" else problem.a_minus
    f_field = problem.f_plus if side == "+" else problem.f_minus
    jet, f_der = regular_jets(a_field, f_field, pts, h)
    stencil, monotone, h_polys = build_regular_batch(jet)
    weights = regular_rhs_weights(stencil, h_polys, h)
    rhs = np.einsum("bk,bk->b", weights, f_der) / h**2
    return stencil.coeffs, monotone, rhs


def _named(exc, point):
    """The same error type, with the interface node and row family named."""
    return type(exc)(f"interface node ({point[0]:.6g}, {point[1]:.6g}): {exc}")


@contextmanager
def _at_node(point):
    try:
        yield
    except (GeometryError, MlsError, StencilError) as exc:
        raise _named(exc, point) from exc


def _irregular_one(point):
    """Per-node front half of an interface row: base point, chart, curve jet
    and one-sided field jets."""
    problem, h = _CTX["problem"], _CTX["h"]
    iface = problem.interface
    bp = iface.locate_base(point, h)
    chart = iface.chart(bp, h)
    curve = curve_jet_from_chart(chart, bp.base, bp.v0, bp.w0, h)
    jp, jm, fpd, fmd = irregular_jets(
        problem.a_plus, problem.a_minus, problem.f_plus, problem.f_minus,
        problem.psi, point, bp.base, h)
    return curve, jp, jm, fpd, fmd


_KO = np.array([o[0] for o in IRREGULAR_OFFSETS], dtype=float)
_LO = np.array([o[1] for o in IRREGULAR_OFFSETS], dtype=float)


def _irregular_chunk(points):
    """Row data for one chunk of interface nodes.

    The per-node front half feeds one transmission build for the whole
    chunk; the 13-point stencil and its rhs are then solved node by node.
    """
    problem, h = _CTX["problem"], _CTX["h"]
    front = []
    for point in points:
        with _at_node(point):
            front.append(_irregular_one(point))
    curves, jp, jm, fpd, fmd = zip(*front)
    order = jp[0].order
    try:
        models = build_transmission(list(curves),
                                    Jet2(np.stack([j.c for j in jp]), order),
                                    Jet2(np.stack([j.c for j in jm]), order))
    except StencilError as exc:
        if exc.index is None:
            raise
        raise _named(exc, points[exc.index]) from exc
    out = []
    for point, model, fp, fm in zip(points, models, fpd, fmd):
        with _at_node(point):
            psi_vals = np.asarray(problem.psi(point[0] + h * _KO,
                                              point[1] + h * _LO))
            system = assemble_irregular_system(model, psi_vals <= 0.0)
            stencil = solve_irregular_stencil(system, h=h)
            weights = irregular_rhs_weights(stencil, system, h)
            rhs = irregular_rhs_value(weights, fp, fm, model.curve)
        out.append((stencil.values(h) / h, rhs))
    return out


def _grid(problem: ProblemSpec, J: int):
    l1, l2, l3, l4 = problem.domain
    width, height = l2 - l1, l4 - l3
    n0 = height / width
    if abs(n0 - round(n0)) > 1e-12 or round(n0) < 1:
        raise AssemblyError("domain height must be an integer multiple of width")
    n1 = 2**J
    n2 = int(round(n0)) * n1
    h = width / n1
    xs = l1 + np.arange(n1 + 1) * h
    ys = l3 + np.arange(n2 + 1) * h
    return xs, ys, h


def assemble(problem: ProblemSpec, J: int, threads: int = 1) -> GlobalSystem:
    t0 = time.perf_counter()
    xs, ys, h = _grid(problem, J)
    n1, n2 = len(xs) - 1, len(ys) - 1
    nn = (n1 + 1) * (n2 + 1)
    cls = classify_grid(xs, ys, problem.psi)
    labels = cls.labels

    parts = []          # per row batch: (rows (n,), cols (n, k), vals (n, k))
    rhs = np.zeros(nn)
    audit = AssemblyAudit()
    timings = {}

    def put_rows(ii, jj, offsets, coeffs, values):
        """Rows of the nodes (ii, jj): coefficients (n, k) or a scalar on the
        k offsets, right-hand sides (n,) or a scalar."""
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        offs = np.asarray(offsets, dtype=np.int64)
        base = ii * (n2 + 1) + jj
        cols = (ii[:, None] + offs[:, 0]) * (n2 + 1) + jj[:, None] + offs[:, 1]
        parts.append((base, cols, np.broadcast_to(coeffs, cols.shape)))
        rhs[base] = values

    _set_context(problem, h)

    # ---- boundary rows -----------------------------------------------------
    tb = time.perf_counter()
    corner_nodes = {(0, 0): (1, 3), (n1, 0): (2, 3), (0, n2): (1, 4),
                    (n1, n2): (2, 4)}
    for (i, j), (sx, sy) in corner_nodes.items():
        bcx, bcy = problem.boundary[sx], problem.boundary[sy]
        x, y = xs[i], ys[j]
        if bcx.kind == "dirichlet":
            put_rows([i], [j], ((0, 0),), 1.0, float(bcx.data(x, y)))
            audit.dirichlet_count += 1
        elif bcy.kind == "dirichlet":
            put_rows([i], [j], ((0, 0),), 1.0, float(bcy.data(x, y)))
            audit.dirichlet_count += 1
        else:
            frame = CORNER_FRAMES[(sx, sy)]
            jet, a_der, f_der, g1_der, b_der, g3_der = corner_jets(
                problem.a_plus, problem.f_plus, bcx.alpha, bcx.data,
                bcy.alpha, bcy.data, (x, y), frame, h)
            st = solve_corner_stencil(build_corner_reduction(jet, a_der, b_der))
            value = (st.f_weights(h) @ f_der + st.g1_weights(h) @ g1_der
                     + st.g3_weights(h) @ g3_der) / h
            offs = [frame.offset(k, ell) for (k, ell) in CORNER_OFFSETS]
            put_rows([i], [j], offs, st.values(h) / h, float(value))
            audit.corner_rows.append(((i, j), st.coeffs, st.monotone))

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
            data = np.asarray(bc.data(anchors[:, 0], anchors[:, 1]), dtype=float)
            put_rows(ii, jj, ((0, 0),), 1.0, data)
            audit.dirichlet_count += len(ii)
        else:
            frame = SIDE_FRAMES[side]
            jet, a_der, f_der, g_der = edge_jets(
                problem.a_plus, problem.f_plus, bc.alpha, bc.data,
                anchors, frame, h)
            st = solve_edge_stencil(jet, a_der)
            fw = st.f_weights(h)
            gw = st.g1_weights(h)
            values = (np.einsum("bk,bk->b", fw, f_der)
                      + np.einsum("bk,bk->b", gw, g_der)) / h
            offs = [frame.offset(k, ell) for (k, ell) in EDGE_OFFSETS]
            put_rows(ii, jj, offs, st.values(h) / h, values)
            node_ids = list(zip(ii.tolist(), jj.tolist()))
            audit.edge_rows.append((side, node_ids, st.coeffs, st.monotone))
    timings["boundary"] = time.perf_counter() - tb

    # ---- regular interior rows --------------------------------------------
    tr = time.perf_counter()
    pool = None
    if threads > 1:
        ctx = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(max_workers=threads, mp_context=ctx)
    run = map if pool is None else pool.map
    try:
        all_ij = []
        all_coeffs = []
        all_mono = []
        hp = h ** np.arange(8)
        for side, label in (("+", LABEL_REGULAR_PLUS), ("-", LABEL_REGULAR_MINUS)):
            ii, jj = np.nonzero(labels == label)
            if len(ii) == 0:
                continue
            pts = np.column_stack([xs[ii], ys[jj]])
            chunks = [(pts[k: k + CHUNK], side) for k in range(0, len(pts), CHUNK)]
            out = list(run(_regular_chunk, chunks))
            coeffs = np.concatenate([o[0] for o in out])
            put_rows(ii, jj, OFFSETS9, (coeffs @ hp) / h**2,
                     np.concatenate([o[2] for o in out]))
            all_ij.append(np.column_stack([ii, jj]))
            all_coeffs.append(coeffs)
            all_mono.append(np.concatenate([o[1] for o in out]))
        if all_ij:
            audit.regular_ij = np.concatenate(all_ij)
            audit.regular_coeffs = np.concatenate(all_coeffs)
            audit.regular_monotone = np.concatenate(all_mono)
        timings["regular"] = time.perf_counter() - tr

        # ---- interface rows -------------------------------------------------
        ti = time.perf_counter()
        ii, jj = np.nonzero(labels == LABEL_IRREGULAR)
        bad = (ii < 2) | (ii > n1 - 2) | (jj < 2) | (jj > n2 - 2)
        if bad.any():
            a, b = ii[bad][0], jj[bad][0]
            raise AssemblyError(
                f"13-point footprint of interface node ({xs[a]:.6g}, "
                f"{ys[b]:.6g}) leaves the grid; the interface runs too close "
                "to the boundary for this mesh")
        if len(ii):
            ir_points = [(float(xs[a]), float(ys[b])) for a, b in zip(ii, jj)]
            chunks = [ir_points[k: k + IFACE_CHUNK]
                      for k in range(0, len(ir_points), IFACE_CHUNK)]
            results = [r for part in run(_irregular_chunk, chunks) for r in part]
            put_rows(ii, jj, IRREGULAR_OFFSETS, np.stack([r[0] for r in results]),
                     [r[1] for r in results])
            audit.irregular_ij.extend(zip(ii.tolist(), jj.tolist()))
        timings["irregular"] = time.perf_counter() - ti
    finally:
        if pool is not None:
            pool.shutdown()

    rows = np.concatenate([np.repeat(base, c.shape[1]) for base, c, _ in parts])
    cols = np.concatenate([c.ravel() for _, c, _ in parts])
    vals = np.concatenate([v.ravel() for _, _, v in parts])
    matrix = sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(nn, nn)))
    timings["total"] = time.perf_counter() - t0
    return GlobalSystem(matrix=matrix, rhs=rhs, labels=labels, xs=xs, ys=ys,
                        h=h, audit=audit, timings=timings)


def solve(system: GlobalSystem) -> SolveResult:
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


@dataclass
class MMatrixAudit:
    """Outcome of the per-degree sign/sum audit over all assembled rows."""

    regular_ok: bool
    edge_ok: bool
    corner_ok: bool
    matrix_signs_ok: bool
    violations: list
    n_regular: int
    n_irregular: int

    @property
    def passed(self):
        return self.regular_ok and self.edge_ok and self.corner_ok


def audit_m_matrix(system: GlobalSystem, tol: float = 1e-10) -> MMatrixAudit:
    """Per-degree sign/sum conditions for regular, edge and corner rows,
    plus a direct sign check of the assembled non-interface matrix rows."""
    violations = []
    regular_ok = True
    a = system.audit
    if a.regular_coeffs is not None:
        c = a.regular_coeffs
        center = OFFSETS9.index((0, 0))
        off = [k for k in range(9) if k != center]
        bad = (c[:, center, 0] <= tol) | (c[:, center, 1:] < -tol).any(axis=1) \
            | (c[:, off, :] > tol).any(axis=(1, 2)) \
            | (c.sum(axis=1) < -tol).any(axis=1)
        regular_ok = not bad.any()
        for b in np.nonzero(bad)[0][:20]:
            violations.append(("regular", tuple(a.regular_ij[b])))

    edge_ok = True
    for side, node_ids, coeffs, monotone in a.edge_rows:
        center = EDGE_OFFSETS.index((0, 0))
        off = [k for k in range(6) if k != center]
        bad = (coeffs[:, center, 0] <= tol) \
            | (coeffs[:, center, 1:] < -tol).any(axis=1) \
            | (coeffs[:, off, :] > tol).any(axis=(1, 2)) \
            | (coeffs.sum(axis=1) < -tol).any(axis=1)
        if bad.any():
            edge_ok = False
            for b in np.nonzero(bad)[0][:10]:
                violations.append((f"edge{side}", node_ids[b]))

    corner_ok = True
    for node, coeffs, monotone in a.corner_rows:
        center = 0
        bad = (coeffs[center, 0] <= tol or (coeffs[center, 1:] < -tol).any()
               or (coeffs[1:, :] > tol).any()
               or (coeffs.sum(axis=0) < -tol).any())
        if bad:
            corner_ok = False
            violations.append(("corner", node))

    # direct audit of the assembled matrix on non-interface rows
    mat = system.matrix.tocsr()
    n2p = len(system.ys)
    irregular = {i * n2p + j for (i, j) in a.irregular_ij}
    signs_ok = True
    diag = mat.diagonal()
    for r in range(mat.shape[0]):
        if r in irregular:
            continue
        if diag[r] <= 0:
            signs_ok = False
            violations.append(("diag", r))
            continue
        lo, hi_ = mat.indptr[r], mat.indptr[r + 1]
        for c, v in zip(mat.indices[lo:hi_], mat.data[lo:hi_]):
            if c != r and v > tol * max(1.0, diag[r]):
                signs_ok = False
                violations.append(("offdiag", r))
                break

    n_reg = 0 if a.regular_coeffs is None else len(a.regular_coeffs)
    return MMatrixAudit(regular_ok=regular_ok, edge_ok=edge_ok,
                        corner_ok=corner_ok, matrix_signs_ok=signs_ok,
                        violations=violations, n_regular=n_reg,
                        n_irregular=len(a.irregular_ij))
