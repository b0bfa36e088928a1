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
coefficients together (each family's tie table, read by
``build_degree_solvers``) and either pinning the remaining one to ``PIN0`` (at
degree 0) or maximizing it subject to the per-degree sign conditions
(center >= 0, off-center <= 0) and the next degree's row sum being
nonnegative.  The maximization reads only the upper bounds these conditions
put on the free value; when no value meets every condition, the stencil is
still produced, it breaks one, and ``check_sign_sum`` (the M-matrix audit)
reports it.  The solve returns its unknowns alone, batch-major: the 9-point
and edge stencils' coefficients at their offsets, and a corner's hat and
tilde blocks side by side, whose sum is its stencil.

The constant systems are reduced once in exact rational arithmetic, giving a
per-degree solution operator that is then applied to batches of points with
plain matrix products.

The fixed-offset families take their Phi_r as packed coefficient tables,
read entry by entry from blocks (``reduction.gh_blocks``) or gathered from
a reduction table one entry at a time (``reduction.packed_entries``, the
9-point G and H polynomials), and one cached operator per offset set,
(36, 9, 8) for the 9-point offsets, turns them into h-expansions or values
at the offsets.  An h-expansion keeps only the (row, degree) pairs at or
above each row's leading degree (``packed_positions``), the pairs the
recursion reads.
The 13-point interface rows share only the h-expansion
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
from .indexsets import lambda_full

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
    acc = term = None
    for a, b in pairs:
        if acc is None:
            acc = a * b
        elif acc.ndim:          # in place, one product buffer: same bits
            term = np.multiply(a, b, out=term)
            acc += term
        else:
            acc = acc + a * b
    return acc


def contract(weights: np.ndarray, data: np.ndarray) -> np.ndarray:
    """sum_i weights[..., i] data[..., i], the rhs of every family, added
    left to right through ``_dot``, so no rhs depends on its batch."""
    return _dot(zip(np.moveaxis(weights, -1, 0), np.moveaxis(data, -1, 0)))


@lru_cache(maxsize=None)
def packed_positions(lead: tuple, size: int) -> np.ndarray:
    """(R, size) position of each (row, degree) pair of a packed expansion.

    A packed expansion stores, for rows of leading degree ``lead[r]``, only
    the degrees t >= lead[r]: degree-major, and within a degree the rows in
    order, so the rows of degree t are one contiguous range.  Pairs below a
    row's lead are -1.  For LEAD9 that is 64 of 15 x 8 pairs.  Cached,
    read-only.
    """
    lead = np.asarray(lead)
    pos = np.full((len(lead), size), -1)
    start = 0
    for t in range(size):
        rows = np.flatnonzero(lead <= t)
        pos[rows, t] = start + np.arange(len(rows))
        start += len(rows)
    pos.flags.writeable = False
    return pos


def expand_at_offsets(entries, offsets: tuple, size: int,
                      lead) -> list:
    """Packed h-expansions at fixed offsets of K packed tables of ``size``.

    ``entries`` holds the E = size (size + 1) / 2 packed entries (K, ...) in
    entry order: a block's ``np.moveaxis(block, -1, 0)``, or the entries
    of a reduction table gathered one at a time
    (``reduction.packed_entries``), whose block is then never built.
    Table i has no terms below degree ``lead[i]``, so only its degrees
    t >= lead[i] are kept: entry [packed_positions(lead, size)[i, t], ...]
    of the o-th array is the coefficient of h^t in P_i(vx_o h, vy_o h); one
    (P, ...) array per offset, n_off in all, so that no array holds every
    offset (512 KiB each for the 9-point offsets and a 1,024-node chunk).
    Each entry is read once, and its rows of lead <= t, times the
    operator's weight (exact for the unit ones), are added into every
    (offset, degree) sum of the cached ``offset_operator`` that reads it;
    so every kept sum adds its terms in entry order, as a matrix product
    with the operator would, but elementwise.
    """
    op = offset_operator(offsets, size)
    pos = packed_positions(tuple(lead), size)
    rows = [np.flatnonzero(pos[:, t] >= 0) for t in range(size)]
    out = None
    for e, table in enumerate(entries):
        if out is None:
            out = [np.zeros((pos.max() + 1,) + table.shape[1:])
                   for _ in offsets]
        parts = {}
        for o, t in zip(*np.nonzero(op[e])):
            if t not in parts:      # the rows of degree t, in order
                parts[t] = table if len(rows[t]) == len(table) \
                    else table[rows[t]]
            first = pos[rows[t][0], t]
            out[o][first: first + len(rows[t])] += parts[t] * op[e, o, t]
    return out


def weights_at_offsets(entries, offsets: tuple, coeffs: np.ndarray,
                       h: float) -> np.ndarray:
    """sum_o C_o(h) P_i(h * offset_o) for each of K packed tables P_i.

    ``coeffs`` is the (..., n_off, size) stencil, and ``entries`` holds the
    tables' E = size (size + 1) / 2 packed entries (K, ...) in entry order,
    as for ``expand_at_offsets``; returns the (..., K) weights
    sum_e P_i[e] w_e, w_e = sum_o C_o(h) vx_o^p vy_o^q h^(p+q), each entry
    read once, in turn.
    """
    size = coeffs.shape[-1]
    at_offsets = offset_operator(offsets, size) @ (h ** np.arange(size))
    values = np.moveaxis(stencil_values(coeffs, h), -1, 0)
    # every w_e at once, each still summed over the offsets in order
    lift = (1,) * np.ndim(values[0])
    w = _dot((column.reshape(column.shape + lift), v)
             for column, v in zip(at_offsets.T, values))
    out = _dot(zip(entries, w))
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


def build_degree_solvers(a0: list[list[Fraction]], lead, unknowns: tuple,
                         ties: dict, pin) -> list:
    """Exact per-degree solvers for a constant-matrix family.

    ``a0`` holds the leading values Phi_r(offset) as Fractions, one column
    per name of ``unknowns``, and ``lead`` the leading degree of each row;
    the top degree T is max(lead).  ``ties`` is the family's tie table:
    ``ties[d]`` lists the tie rows of degree d, each a list of
    (unknown, weight) terms whose weighted sum of the degree-d coefficients
    vanishes, every unknown named as in ``unknowns``.  A degree absent from
    the table has no ties; one mapped to None is not solved, and its
    coefficients stay zero.  Degree d stacks the rows r of a0 with
    lead_r + d <= T, then its tie rows in table order, then the pin row
    (the unknown ``pin`` alone).  Its solver is the pair (Sb, St) of the
    affine solution map C_d = Sb @ b_d + t * St, Sb (n_cols, n_rows_d) and
    St (n_cols,), both read-only, since every chunk shares the cache.
    """
    col = {name: j for j, name in enumerate(unknowns)}
    T = max(lead)
    solvers: list = []
    for d in range(T + 1):
        degree_ties = ties.get(d, [])
        if degree_ties is None:
            solvers.append(None)
            continue
        rows_d = [r for r in range(len(a0)) if lead[r] + d <= T]
        stacked = [a0[r] for r in rows_d]
        for terms in degree_ties + [[(pin, 1)]]:
            row = [Fraction(0)] * len(unknowns)
            for name, weight in terms:
                row[col[name]] += weight
            stacked.append(row)
        L = _solution_operator(stacked)
        L.flags.writeable = False
        solvers.append((L[:, : len(rows_d)], L[:, -1]))
    return solvers


def check_residual(worst: float) -> None:
    """The gate of every recursion: its worst relative residual must not
    exceed ``RESID_TOL``."""
    if worst > RESID_TOL:
        raise StencilError(f"stencil recursion residual {worst:.3e} exceeds {RESID_TOL}")


def run_constant_recursion(expansions: list, lead, solvers,
                           combine: np.ndarray | None = None,
                           center: int = 0) -> np.ndarray:
    """Recursive degree-by-degree solve against precomputed exact operators.

    ``expansions`` is the output of ``expand_at_offsets``, one packed
    (P, ...) array per offset, for rows of leading degree ``lead`` and one
    degree per solver, read through ``packed_positions``.  Returns the
    (..., n_cols, T+1) solver unknowns, batch-major: the stencil coefficients at each offset, or at a
    corner the hat and the tilde block, 4 + 4 unknowns.  ``combine`` maps
    the unknowns to the stencil's offsets (the corner's hat + tilde) where
    the sign conditions bound the free parameter; identity if None.
    The free parameter is ``PIN0`` at degree 0.  At every later degree it is
    chosen as the largest value keeping center coefficients >= 0,
    off-center <= 0, and the next degree's row sum >= 0 (the greedy
    selection that makes the scheme an M-matrix candidate for every h), or
    zero when nothing bounds it from above.  Only these upper bounds are
    read: where the lower bounds exceed them, no value meets every
    condition, the chosen one breaks some, and the audit ``check_sign_sum``
    reports it.  Every contraction runs through ``_dot`` on vectors along
    the batch axis, so each stencil is the same whatever batch it is solved
    in.  The couplings of all lower degrees into one degree's rhs (and into
    the sum-row bound) are gathered at once, one gather per offset; each
    coupling is still its own left-to-right sum over the offsets, and the
    rhs subtracts them one by one, lowest degree first.
    """
    O = len(expansions)
    batch = expansions[0].shape[1:]
    X = [x.reshape(len(x), -1) for x in expansions]  # X[o][i]: batch vector
    B = X[0].shape[-1]
    T = len(solvers) - 1
    pos = packed_positions(tuple(lead), T + 1)
    lead = np.asarray(lead)

    def rows(c, at):
        """sum_o c[o] X[o][at], one batch vector per packed position."""
        return _dot((c[o], X[o][at]) for o in range(O))

    def minus_each(start, terms):
        """start - terms[0] - terms[1] - ..., subtracted in order."""
        for term in terms:
            start = start - term
        return start

    coeffs = np.zeros((len(solvers[0][0]), T + 1, B))
    worst = 0.0
    sum_row = lead.tolist().index(0)

    for d in range(T + 1):
        rows_d = np.flatnonzero(lead + d <= T)
        lower = np.arange(d)
        couplings = pos[rows_d, lead[rows_d] + d - lower[:, None]]
        b = minus_each(np.zeros((len(rows_d), B)),
                       rows(coeffs[:, :d, None], couplings))
        scale = max(1.0, float(np.abs(b).max(initial=0.0)))
        solver = solvers[d]
        if solver is None:
            # top degree left zero; rows must already balance
            worst = max(worst, float(np.abs(b).max(initial=0.0)))
            continue

        Sb, V = solver
        P = _dot((w[:, None], b_i) for w, b_i in zip(Sb.T, b))
        if d == 0:
            c_star = np.full(B, PIN0)
        else:
            # at most two unit entries a row in ``combine``: exact
            Vc, Pc = (V, P) if combine is None else (combine @ V, combine @ P)
            upper = np.full(B, np.inf)
            for o in range(len(Vc)):
                sgn = 1.0 if o == center else -1.0
                a = sgn * Vc[o]
                if a < -_TINY:
                    upper = np.minimum(upper, -sgn * Pc[o] / a)
            if d + 1 <= T:
                i0 = minus_each(np.zeros(B), rows(
                    coeffs[:, :d], pos[sum_row, d + 1 - lower]))
                i0 = i0 - rows(P, pos[sum_row, 1])
                slope = -rows(V, pos[sum_row, 1])
                neg = slope < -_TINY
                upper = np.minimum(
                    upper, np.where(neg, i0 / np.where(neg, -slope, 1.0), np.inf))
            c_star = np.where(np.isfinite(upper), upper, 0.0)

        coeffs[:, d] = P + c_star * V[:, None]

        # residual of A_d C_d = b_d (includes stacked-row consistency)
        resid = rows(coeffs[:, d], pos[rows_d, lead[rows_d]]) - b
        worst = max(worst, float(np.abs(resid).max(initial=0.0)) / scale)

    check_residual(worst)
    return np.ascontiguousarray(
        np.moveaxis(coeffs, -1, 0).reshape(batch + coeffs.shape[:2]))


# ----------------------------------------------------------------------------
# sign / sum audit
# ----------------------------------------------------------------------------

@dataclass
class MMatrixReport:
    """Outcome of the per-degree sign and sum audit of stencil coefficients;
    each violation starts with the batch index of its stencil."""

    passed: np.ndarray         # (...,) per stencil
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

    return MMatrixReport(np.asarray(passed), entries(sign_bad, coeffs),
                         entries(sum_bad, sums))


def stencil_values(coeffs: np.ndarray, h: float) -> np.ndarray:
    """Evaluate C_o(h) = sum_p c[o, p] h^p (batched over leading axes)."""
    nterms = coeffs.shape[-1]
    return coeffs @ (h ** np.arange(nterms))
