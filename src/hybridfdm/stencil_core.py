"""Shared machinery for the recursive stencil solves.

Every stencil family in this package (9-point interior, 6-point edge, 4-point
corner, 13-point interface) is determined by the same kind of constraint: a
set of "row" polynomials Phi_r whose weighted offset sums must vanish through
a target order,

    sum_o C_o(h) * Phi_r(offset_o * h) = O(h^{T+1}),   C_o(h) = sum_p c_{o,p} h^p.

Expanding Phi_r(offset*h) in powers of h and collecting h^{lead_r + d} yields
one small linear system per degree d: the coefficient of the current degree
against the constant leading (homogeneous) parts of Phi_r, with all lower
degrees feeding the right-hand side.

This module holds the solve of the fixed-offset families (9-point, edge,
corner).  Their leading parts are offset-geometry constants, so each degree
has a fixed matrix A_d; uniqueness is restored by tying designated free
coefficients together and either pinning the remaining one to ``PIN0`` (at
degree 0) or maximizing it subject to the per-degree sign conditions
(center >= 0, off-center <= 0) and the next degree's row sum being
nonnegative.  The maximization reads only the upper bounds these conditions
put on the free value; when no value meets every condition, the stencil is
still produced, it breaks one, and ``check_sign_sum`` (the M-matrix audit)
reports it.

The constant systems are reduced once in exact rational arithmetic, giving a
per-degree solution operator that is then applied to batches of points with
plain matrix products.

The fixed-offset families take their Phi_r as packed coefficient blocks
(``reduction.gh_blocks``), and one cached operator per offset set, (36, 9, 8)
for the 9-point offsets, turns a block into h-expansions or values at the
offsets.  The 13-point interface rows share only the h-expansion
(``expand_poly_in_h``), the residual gate (``check_residual``),
``stencil_values`` and the rhs contraction (``contract``) with them; their
solve, both the full recursion and the leading-degree fallback, lives in
``stencil_irregular``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

import numpy as np

from .errors import StencilError
from .indexsets import lambda_full, packed_size

RESID_TOL = 1e-9
PIN0 = -1.0         # the pinned free coefficient of every degree-0 solve
_TINY = 1e-11


def expand_poly_in_h(c: np.ndarray, offsets: np.ndarray, nterms: int) -> np.ndarray:
    """phi[..., o, t] = coefficient of h^t in P(vx_o * h, vy_o * h) for the
    polynomials P of a (..., k, k) coefficient table c.

    ``offsets`` is (O, 2), shared by every table of the batch, or (B, O, 2),
    one offset set per entry of the leading batch axis of ``c``
    (B, ..., k, k).  The power table vx^p vy^q of all offsets is built at
    once, and each degree t is one masked ``einsum`` over the table
    entries with p + q = t.  The batch only adds outer loops to it: the
    inner sum over a table's entries is the same, so a node's expansion is
    the same, bit for bit, alone or in a chunk (the tests hold it to the
    per-node loop this replaced).

    Only the 13-point interface rows use it.  Their offsets (v0 + k, w0 + l)
    move with the base point of every node, so no operator can be cached for
    them, and they amplify rounding by about 1e7: ``expand_at_offsets``
    adds the terms in another order than the per-degree masked sums here,
    and routing the interface rows through it (then a matrix product)
    moved them by up to 1.1e-8 row-relative on a generated interface
    problem at J=5.  The 9-point, edge and corner families have fixed
    offsets and go through ``offset_operator``; the edge and corner
    stencils are built on canonical offsets, and only their output offsets
    are reflected onto a side (``map_by_reflection``).
    """
    offsets = np.asarray(offsets, dtype=float)
    k = c.shape[-1]
    powers = offsets[..., None] ** np.arange(k)          # (..., O, 2, k)
    mon = powers[..., 0, :, None] * powers[..., 1, None, :]
    batch = c.shape[:-2]
    lead = offsets.shape[:-2]
    # per-node offsets meet the tables' leading axis, shared ones broadcast
    mon = mon.reshape(lead + (1,) * (len(batch) - len(lead)) + mon.shape[-3:])
    out = np.zeros(batch + (offsets.shape[-2], nterms))
    mm, nn = np.indices((k, k))
    for t in range(min(nterms, 2 * k - 1)):
        mask = (mm + nn) == t
        out[..., t] = np.einsum("...pq,...opq->...o",
                                np.where(mask, c, 0.0), mon)
    return out


@lru_cache(maxsize=None)
def offset_operator(offsets: tuple, size: int) -> np.ndarray:
    """Constant map from packed size x size coefficient tables to h-expansions.

    A packed table holds the E = k (k + 1) / 2 entries (p, q) with p + q < k
    of a k x k table, in Lambda_{k-1} order.  ``op[e, o, t]`` is
    vx_o^p vy_o^q for the packed entry e = (p, q) when t == p + q and 0
    otherwise, so ``c @ op.reshape(E, -1)`` expands packed tables c like
    ``expand_poly_in_h``, and ``op @ h**arange(size)`` evaluates them at the
    points h * offsets.  (36, 9, 8) for OFFSETS9; cached, read-only.
    """
    v = np.asarray(offsets, dtype=float)
    p, q = (np.array(ix) for ix in zip(*lambda_full(size - 1)))
    op = np.zeros((len(p), len(v), size))
    op[np.arange(len(p)), :, p + q] = v[:, 0] ** p[:, None] * v[:, 1] ** q[:, None]
    op.flags.writeable = False
    return op


def _dot(pairs):
    """sum_i a_i * b_i over the (a_i, b_i) pairs, added left to right.

    Elementwise operations round each entry of a batch the same way for any
    batch size; a BLAS product does not (numpy sends one row through gemv,
    and OpenBLAS picks kernels by the row count).  The fixed-offset stencils
    contract through this, so a row does not depend on its batch.
    """
    acc = None
    for a, b in pairs:
        term = a * b
        acc = term if acc is None else acc + term
    return acc


def contract(weights: np.ndarray, data: np.ndarray) -> np.ndarray:
    """sum_i weights[..., i] data[..., i], the rhs of every family, added
    left to right through ``_dot``, so no rhs depends on its batch."""
    return _dot(zip(np.moveaxis(weights, -1, 0), np.moveaxis(data, -1, 0)))


def expand_at_offsets(blocks: np.ndarray, offsets: tuple) -> np.ndarray:
    """h-expansions at fixed offsets of a (K, ..., E) block of packed tables.

    Returns (K, ..., n_off, k) for tables of size k (E = k (k + 1) / 2):
    entry [i, ..., o, t] is the coefficient of h^t in P_i(vx_o h, vy_o h),
    the nonzero terms of the cached ``offset_operator`` added in entry
    order, as a matrix product with it would, but elementwise.  The result
    is a view of (n_off, k, K, ...) memory.
    """
    n = blocks.shape[-1]
    size = packed_size(n)
    op = offset_operator(offsets, size)
    tables = np.moveaxis(blocks, -1, 0)
    out = np.zeros((len(offsets), size) + blocks.shape[:-1])
    for o, t, e in zip(*np.nonzero(np.transpose(op, (1, 2, 0)))):
        w, acc = op[e, o, t], out[o, t]
        if abs(w) == 1.0:       # offsets in {-1, 0, 1}: add or subtract in place
            (np.add if w > 0 else np.subtract)(acc, tables[e], out=acc)
        else:
            acc += tables[e] * w
    return np.moveaxis(out, (0, 1), (-2, -1))


def weights_at_offsets(blocks: np.ndarray, offsets: tuple,
                       coeffs: np.ndarray, h: float) -> np.ndarray:
    """sum_o C_o(h) P_i(h * offset_o) for each table P_i of a block.

    ``blocks`` is (K, ..., E) packed tables and ``coeffs`` the
    (..., n_off, D+1) stencil; returns the (..., K) weights
    sum_e P_i[e] w_e, w_e = sum_o C_o(h) vx_o^p vy_o^q h^(p+q).
    """
    n = blocks.shape[-1]
    size = packed_size(n)
    at_offsets = offset_operator(offsets, size) @ (h ** np.arange(size))
    values = np.moveaxis(stencil_values(coeffs, h), -1, 0)
    tables = np.moveaxis(blocks, -1, 0)
    out = _dot((tables[e], _dot((values[o], w) for o, w in enumerate(row)))
               for e, row in enumerate(at_offsets))
    return np.moveaxis(out, 0, -1)


def frac_leading_g(m: int, n: int, k: int, ell: int) -> Fraction:
    """Exact value of the homogeneous polynomial G_{m,n} at integer offsets:
    sum_j (-1)^j C(m+n, m+2j) k^(m+2j) ell^(n-2j), over (m+n)!."""
    return Fraction(sum((-1) ** j * comb(m + n, m + 2 * j)
                        * k ** (m + 2 * j) * ell ** (n - 2 * j)
                        for j in range(n // 2 + 1)), factorial(m + n))


def _solution_operator(rows: list[list[Fraction]]) -> np.ndarray:
    """Exact left-solve of a full-column-rank stacked system.

    Returns L (n_cols x n_rows) with x = L @ rhs; rows beyond the rank act as
    consistency conditions and are verified at runtime through residuals.

    Gauss-Jordan elimination of [A | I] on integer rows: each row is scaled
    by the common denominator of its entries, a pivot step cross-multiplies
    (row_i <- pivot * row_i - f * row_p) and divides the result by its gcd.
    With the pivots taken in the rational order (first nonzero in the
    column), every integer row stays a nonzero multiple of the row a rational
    elimination would hold, so entry (i, j) of L is exactly num / pivot.
    Python's int true division rounds that correctly, as ``float(Fraction)``
    does; a zero numerator maps to 0.0, where 0 / -k would give -0.0.
    """
    n_rows, n_cols = len(rows), len(rows[0])
    aug = []
    for i, r in enumerate(rows):
        den = lcm(*(v.denominator for v in r))
        aug.append([v.numerator * (den // v.denominator) for v in r]
                   + [den if j == i else 0 for j in range(n_rows)])
    for c in range(n_cols):
        pr = next((i for i in range(c, n_rows) if aug[i][c] != 0), None)
        if pr is None:
            raise StencilError("constant stencil system is rank deficient")
        aug[c], aug[pr] = aug[pr], aug[c]
        prow = aug[c]
        piv = prow[c]
        for i in range(n_rows):
            f = aug[i][c]
            if i != c and f != 0:
                row = [piv * vi - f * vp for vi, vp in zip(aug[i], prow)]
                g = gcd(*row)
                aug[i] = [v // g for v in row]
    return np.array(
        [[aug[i][n_cols + j] / aug[i][i] if aug[i][n_cols + j] else 0.0
          for j in range(n_rows)] for i in range(n_cols)]
    )


def tie_row(size: int, *terms) -> list[Fraction]:
    """Exact constraint row of ``size`` columns: the sum of ``weight`` at
    ``column`` over the (column, weight) ``terms``; ties the free
    coefficients of a constant stencil system."""
    row = [Fraction(0)] * size
    for col, w in terms:
        row[col] += Fraction(w)
    return row


@dataclass
class DegreeSolver:
    """Affine solution map C_d = Sb @ b_d + t * St for one degree."""

    Sb: np.ndarray           # (n_cols, n_rows_d)
    St: np.ndarray           # (n_cols,)


def build_degree_solvers(a0: list[list[Fraction]], lead, T: int,
                         ties_for_degree, pin_col: int,
                         zero_degrees=()) -> list:
    """Exact per-degree solvers for a constant-matrix family.

    ``a0`` holds the leading values Phi_r(offset) as Fractions, ``lead`` the
    leading degree of each row.  ``ties_for_degree(d)`` returns extra exact
    constraint rows; the pin column is appended as the last stacked row.
    Degrees in ``zero_degrees`` get no solver (coefficients stay zero).
    """
    solvers: list = []
    for d in range(T + 1):
        if d in zero_degrees:
            solvers.append(None)
            continue
        rows_d = [r for r in range(len(a0)) if lead[r] + d <= T]
        stacked = [a0[r] for r in rows_d]
        stacked += [list(t) for t in ties_for_degree(d)]
        stacked.append(tie_row(len(a0[0]), (pin_col, 1)))
        L = _solution_operator(stacked)
        solvers.append(DegreeSolver(Sb=L[:, : len(rows_d)], St=L[:, -1]))
    return solvers


def check_residual(worst: float) -> None:
    """The gate of every recursion: its worst relative residual must not
    exceed ``RESID_TOL``."""
    if worst > RESID_TOL:
        raise StencilError(f"stencil recursion residual {worst:.3e} exceeds {RESID_TOL}")


@dataclass
class RecursionResult:
    coeffs: np.ndarray        # (..., n_off, T+1) displayed stencil coefficients
    raw: np.ndarray           # (..., n_cols, T+1) solver unknowns (hat/tilde split)
    residual: float           # worst linear-system residual encountered


def run_constant_recursion(expansions: np.ndarray, lead, T: int, solvers,
                           combine: np.ndarray | None = None,
                           center: int = 0) -> RecursionResult:
    """Recursive degree-by-degree solve against precomputed exact operators.

    ``expansions`` has shape (..., R, O, T+1); ``combine`` maps raw unknowns
    to displayed stencil coefficients (corner hat+tilde), identity if None.
    The free parameter is ``PIN0`` at degree 0.  At every later degree it is
    chosen as the largest value keeping center coefficients >= 0,
    off-center <= 0, and the next degree's row sum >= 0 (the greedy
    selection that makes the scheme an M-matrix candidate for every h), or
    zero when nothing bounds it from above.  Only these upper bounds are
    read: where the lower bounds exceed them, no value meets every
    condition, the chosen one breaks some, and the audit ``check_sign_sum``
    reports it.  Every contraction runs through ``_dot`` on vectors along
    the batch axis, so each stencil is the same whatever batch it is solved
    in.
    """
    exp = expansions
    squeeze = exp.ndim == 3
    if squeeze:
        exp = exp[None]
    B, R, O, _ = exp.shape
    X = np.moveaxis(exp, 0, -1)           # X[r, o, t] is a batch vector
    lead = np.asarray(lead)
    ncols = next(s for s in solvers if s is not None).Sb.shape[0]
    K = np.eye(ncols) if combine is None else np.asarray(combine, dtype=float)
    n_disp = K.shape[0]

    def rows(c, r, t):
        """sum_o c[o] X[r, o, t], one batch vector per row r (with its t)."""
        terms = X[r, :, t]
        return _dot((c[o], terms[..., o, :]) for o in range(O))

    coeffs = np.zeros((ncols, T + 1, B))
    worst = 0.0
    sum_row = next((r for r in range(R) if lead[r] == 0), None)

    for d in range(T + 1):
        rows_d = np.flatnonzero(lead + d <= T)
        b = np.zeros((len(rows_d), B))
        for s in range(d):
            b = b - rows(coeffs[:, s], rows_d, lead[rows_d] + d - s)
        scale = max(1.0, float(np.abs(b).max(initial=0.0)))
        solver = solvers[d]
        if solver is None:
            # top degree left zero; rows must already balance
            worst = max(worst, float(np.abs(b).max(initial=0.0)))
            continue

        P = _dot((w[:, None], b_i) for w, b_i in zip(solver.Sb.T, b))
        V = solver.St
        if d == 0:
            c_star = np.full(B, PIN0)
        else:
            Vc = K @ V
            Pc = K @ P          # at most two unit entries a row: exact
            upper = np.full(B, np.inf)
            for o in range(n_disp):
                sgn = 1.0 if o == center else -1.0
                a = sgn * Vc[o]
                if a < -_TINY:
                    upper = np.minimum(upper, -sgn * Pc[o] / a)
            if d + 1 <= T and sum_row is not None:
                i0 = np.zeros(B)
                for s in range(d):
                    i0 = i0 - rows(coeffs[:, s], sum_row, d + 1 - s)
                i0 = i0 - rows(P, sum_row, 1)
                slope = -rows(V, sum_row, 1)
                neg = slope < -_TINY
                upper = np.minimum(
                    upper, np.where(neg, i0 / np.where(neg, -slope, 1.0), np.inf))
            c_star = np.where(np.isfinite(upper), upper, 0.0)

        coeffs[:, d] = P + c_star * V[:, None]

        # residual of A_d C_d = b_d (includes stacked-row consistency)
        resid = rows(coeffs[:, d], rows_d, lead[rows_d]) - b
        worst = max(worst, float(np.abs(resid).max(initial=0.0)) / scale)

    check_residual(worst)

    disp, coeffs = (np.ascontiguousarray(np.moveaxis(c, -1, 0))
                    for c in (np.tensordot(K, coeffs, 1), coeffs))
    if squeeze:
        return RecursionResult(disp[0], coeffs[0], worst)
    return RecursionResult(disp, coeffs, worst)


# ----------------------------------------------------------------------------
# sign / sum audit
# ----------------------------------------------------------------------------

@dataclass
class MMatrixReport:
    """Outcome of the per-degree sign and sum audit of stencil coefficients;
    each violation starts with the batch index of its stencil."""

    passed: np.ndarray         # (...,) per stencil; a bool when unbatched
    sign_violations: list      # (..., offset index, degree, value)
    sum_violations: list       # (..., degree, value)


def check_sign_sum(coeffs: np.ndarray, center: int, tol: float = 1e-12) -> MMatrixReport:
    """Audit c[..., o, p]: center >= 0 (> 0 at p=0), off-center <= 0, sums >= 0.

    Leading axes are batch axes.
    """
    coeffs = np.asarray(coeffs)
    # off-center entries must not exceed tol; the center is tested negated
    signed = np.where(np.arange(coeffs.shape[-2])[:, None] == center,
                      -coeffs, coeffs)
    sign_bad = signed > tol
    sign_bad[..., center, 0] = signed[..., center, 0] >= -tol
    sums = coeffs.sum(axis=-2)
    sum_bad = sums < -tol
    passed = ~(sign_bad.any(axis=(-2, -1)) | sum_bad.any(axis=-1))

    def entries(bad, values):
        return [tuple(int(k) for k in idx) + (float(values[tuple(idx)]),)
                for idx in np.argwhere(bad)]

    return MMatrixReport(passed if passed.ndim else bool(passed),
                         entries(sign_bad, coeffs), entries(sum_bad, sums))


def stencil_values(coeffs: np.ndarray, h: float) -> np.ndarray:
    """Evaluate C_o(h) = sum_p c[o, p] h^p (batched over leading axes)."""
    nterms = coeffs.shape[-1]
    return coeffs @ (h ** np.arange(nterms))
