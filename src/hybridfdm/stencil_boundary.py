"""Sixth-order boundary stencils: 6-point Robin edges and 4-point Robin corners.

Everything is built in a canonical inward frame modeled on the left side
(x = l1) and the lower-left corner: the normal derivative points out of the
domain, so the Robin condition reads -u_x + alpha u = g there, which lets
u^(1,n) be eliminated in favor of the tangential derivatives u^(0,n).  The
resulting basis polynomials

    E_n = G_{6,0,n} + sum_i binom(i,n) alpha^(i-n) G_{6,1,i}

drive the same recursive degree-by-degree solve as the interior stencil, with
the free-parameter ties

    c_{1,0,3} = c_{1,1,3},  c_{1,-1,4} = c_{1,0,4} = c_{1,1,4},
    c_{0,1,5} = c_{1,-1,5} = c_{1,0,5} = c_{1,1,5},
    c_{0,1,6} = c_{1,-1,6} = c_{1,0,6} = 0,  c_{0,0,6} = -2 c_{1,1,6},

and the remaining free parameter maximized under the sign conditions plus the
next degree's row sum (which equals 6 alpha at degree one, so alpha >= 0 is
necessary for monotonicity; with alpha < 0 the consistent stencil is still
produced, and the audit reports it).

Corners eliminate through both conditions: x-derivatives reduce to the
tangential band via the reduction table (u^(m,0) = sum lambda u^(0,n) + sum
mu u^(1,n) + source terms), the alpha condition folds mu into p_{m,n}, and the
transposed basis E~_m absorbs beta.  Hat and tilde coefficient blocks are kept
separate (8 unknowns) exactly as in the reference construction; the stencil
is their sum.

Every polynomial family is a packed coefficient block of
``reduction.gh_blocks`` (one row of the 28 coefficients with p + q <= 6 per
polynomial on the leading axis).  E_n, E~_m and the tilde combinations
through p, nu and mu are matrix products over that axis, and the canonical
offsets are fixed, so the h-expansions and the
right-hand-side weights go through the cached offset operators of
EDGE_OFFSETS and CORNER_OFFSETS (``stencil_core.expand_at_offsets`` and
``weights_at_offsets``), as for the 9-point stencil.

Both families return one record, ``RobinStencil``: its offsets and its
parts, each a coefficient block with the rhs polynomial block it weighs,
one part at an edge and a hat and a tilde part at a corner.  Its
``coeffs`` and its one ``weights(h)`` vector, over one data vector, [f, g1]
at an edge and [f, g1, g3] at a corner, are sums over the parts.  The
Robin data enter with a minus sign, so their polynomial blocks are stored
negated (an exact operation) under the H block.

The other three sides and corners reuse the same construction through frame
maps: field values are sampled at reflected points, so all jets are estimated
directly at the target anchor, and only the grid offsets are mapped back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb

import numpy as np

from .indexsets import lambda_band, lambda_full
from .jets import Jet2
from .reduction import build_reduction_table, gh_blocks, transpose_blocks
from .stencil_core import (
    build_degree_solvers,
    expand_at_offsets,
    frac_leading_g,
    run_constant_recursion,
    tie_row,
    weights_at_offsets,
)

EDGE_OFFSETS = ((0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1))
EDGE_CENTER = EDGE_OFFSETS.index((0, 0))
CORNER_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))
F_INDICES_B = lambda_full(4)      # f^(m,n) weights at boundary points
M_EDGE = 6
# rows of an order-6 G block holding G_{0,n} (n = 0..6) and G_{1,n}
# (n = 0..5); in the transposed blocks the same rows hold G~_{n,0}, G~_{n,1}
G0_ROWS = [lambda_band(M_EDGE).index((0, n)) for n in range(M_EDGE + 1)]
G1_ROWS = [lambda_band(M_EDGE).index((1, n)) for n in range(M_EDGE)]
LEAD_E = tuple(range(M_EDGE + 1))   # leading h-degree of E_n and E~_m: n


@lru_cache(maxsize=1)
def _edge_solvers():
    a0 = [[frac_leading_g(0, n, k, ell) for (k, ell) in EDGE_OFFSETS]
          for n in range(7)]
    c11 = EDGE_OFFSETS.index((1, 1))

    def ties(d):
        pairs = {
            3: [((1, 0), (1, 1))],
            4: [((1, -1), (1, 1)), ((1, 0), (1, 1))],
            5: [((0, 1), (1, 1)), ((1, -1), (1, 1)), ((1, 0), (1, 1))],
        }
        if d in pairs:
            return [tie_row(6, (EDGE_OFFSETS.index(a), 1), (EDGE_OFFSETS.index(b), -1))
                    for a, b in pairs[d]]
        if d == 6:
            rows = [tie_row(6, (EDGE_OFFSETS.index(o), 1))
                    for o in ((0, 1), (1, -1), (1, 0))]
            rows.append(tie_row(6, (EDGE_OFFSETS.index((0, 0)), 1), (c11, 2)))
            return rows
        return []

    return build_degree_solvers(a0, LEAD_E, T=6, ties_for_degree=ties,
                                pin_col=c11)


@lru_cache(maxsize=1)
def _corner_solvers():
    a0 = []
    for n in range(7):
        hat = [frac_leading_g(0, n, k, ell) for (k, ell) in CORNER_OFFSETS]
        lam = Fraction((-1) ** (n // 2)) if n % 2 == 0 else Fraction(0)
        til = [lam * frac_leading_g(0, n, ell, k) for (k, ell) in CORNER_OFFSETS]
        a0.append(hat + til)
    H00, H01, H10, H11, T00, T01, T10, T11 = range(8)

    def ties(d):
        zero_rows = [tie_row(8, (T00, 1)), tie_row(8, (T10, 1))]
        if d <= 2:
            return zero_rows
        if d == 3:
            return [tie_row(8, (T01, 1), (T11, -1))] + zero_rows
        if d == 4:
            return [tie_row(8, (H11, 1), (T11, -1)),
                    tie_row(8, (T01, 1), (T11, -2))] + zero_rows
        if d == 5:
            return [tie_row(8, (H10, 1), (T11, -1)),
                    tie_row(8, (H11, 1), (T11, -1)),
                    tie_row(8, (T10, 1), (T11, -1)),
                    tie_row(8, (T01, 1), (T11, -3)),
                    tie_row(8, (T00, 1))]
        # d == 6, the top degree
        return [tie_row(8, (H01, 1), (T11, -1)),
                tie_row(8, (H10, 1), (T11, -1)),
                tie_row(8, (H11, 1), (T11, -1)),
                tie_row(8, (T01, 1), (T11, -1)),
                tie_row(8, (T10, 1), (T11, -1)),
                tie_row(8, (T00, 1))]

    return build_degree_solvers(a0, LEAD_E, T=6, ties_for_degree=ties,
                                pin_col=T11)


_CORNER_COMBINE = np.hstack([np.eye(4), np.eye(4)])


def _robin_weights(alpha: np.ndarray) -> np.ndarray:
    """(..., 7, 6) matrix W with W[n, i] = binom(i, n) alpha^(i-n) for i >= n."""
    alpha = np.asarray(alpha, dtype=float)
    w = np.zeros(alpha.shape[:-1] + (M_EDGE + 1, M_EDGE))
    for n in range(M_EDGE):
        for i in range(n, M_EDGE):
            w[..., n, i] = comb(i, n) * alpha[..., i - n]
    return w


def robin_basis(g: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """E_n = G_{6,0,n} + sum_i binom(i,n) alpha^(i-n) G_{6,1,i}, n = 0..6.

    ``g`` is the packed (13, ..., 28) G block of an order-6 table and
    ``alpha`` (..., 6) holds d^n alpha/dy^n; returns the (7, ..., 28) block.
    The transposed block (``reduction.transpose_blocks``) with beta gives
    E~_m.
    """
    return g[G0_ROWS] + np.einsum("...ni,i...e->n...e",
                                  _robin_weights(alpha), g[G1_ROWS])


@dataclass
class RobinStencil:
    """A Robin edge or corner stencil in the canonical inward frame.  Each
    part pairs (..., k, 7) coefficients with the packed (K, ..., 28) rhs
    block they weigh; the stencil and its weights are sums over the parts,
    with no zero added, so an edge's are its one part's own."""

    offsets: tuple
    parts: tuple                  # ((coefficients, rhs block), ...)

    @property
    def coeffs(self) -> np.ndarray:
        return reduce(np.add, (c for c, _ in self.parts))

    def weights(self, h: float) -> np.ndarray:
        """(..., K) weights of the data vector, each part's block against
        its own coefficients (h^-1 applied by the assembler)."""
        return reduce(np.add, (
            weights_at_offsets(np.moveaxis(polys, -1, 0), self.offsets, c, h)
            for c, polys in self.parts))


def solve_edge_stencil(a_jet: Jet2, alpha: np.ndarray) -> RobinStencil:
    """Canonical-frame edge stencil, (..., 6, 7) coefficients against
    H_{6,m,n} and -G_{6,1,n}; alpha holds d^n alpha/dy^n, n = 0..5."""
    g, h = gh_blocks(build_reduction_table(a_jet, M_EDGE))
    exp = expand_at_offsets(np.moveaxis(robin_basis(g, alpha), -1, 0),
                            EDGE_OFFSETS, M_EDGE + 1, LEAD_E)
    coeffs = run_constant_recursion(exp, LEAD_E, _edge_solvers(),
                                    center=EDGE_CENTER)
    return RobinStencil(EDGE_OFFSETS,
                        ((coeffs, np.concatenate([h, -g[G1_ROWS]])),))


@dataclass
class CornerReduction:
    """Coefficient tables and polynomial blocks feeding the 4-point corner
    solve; each block holds one packed row of 28 coefficients per
    polynomial.  The rhs blocks hold one polynomial per entry of the data
    vector [f^(i,j) over Lambda_4, g1^(n), g3^(m)], n, m = 0..5.
    """

    lam: np.ndarray               # (7, 7) lambda_{m,n}
    mu: np.ndarray                # (7, 6) mu_{m,n}
    nu: np.ndarray                # (15, 7) nu_{m,i,j}, rows (i, j) in Lambda_4
    p: np.ndarray                 # (7, 7) p_{m,n}
    e_polys: np.ndarray           # E_n, n = 0..6
    et_polys: np.ndarray          # E~_m, m = 0..6
    hat_polys: np.ndarray         # (27, 28) H_{6,i,j}, -G_{6,1,n}, 0
    tilde_polys: np.ndarray       # (27, 28) H~ + nu E~, -mu E~, -G~_{6,m,1}


def build_corner_reduction(a_jet: Jet2, alpha: np.ndarray,
                           beta: np.ndarray) -> CornerReduction:
    table = build_reduction_table(a_jet, M_EDGE)
    g, h = gh_blocks(table)
    gt, ht = transpose_blocks(*gh_blocks(
        build_reduction_table(a_jet.transposed(), M_EDGE)))
    M = M_EDGE
    lam = np.array([[table.u_value(m, 0, 0, n) for n in range(M + 1)]
                    for m in range(M + 1)])
    mu = np.array([[table.u_value(m, 0, 1, n) for n in range(M)]
                   for m in range(M + 1)])
    nu = np.array([[table.f_value(m, 0, *ij) for m in range(M + 1)]
                   for ij in F_INDICES_B])
    et = robin_basis(gt, beta)
    g1 = g[G1_ROWS]
    return CornerReduction(
        lam=lam, mu=mu, nu=nu, p=lam + mu @ _robin_weights(alpha).T,
        e_polys=robin_basis(g, alpha), et_polys=et,
        hat_polys=np.concatenate([h, -g1, np.zeros_like(g1)]),
        tilde_polys=np.concatenate([ht + np.tensordot(nu, et, 1),
                                    -np.tensordot(mu.T, et, 1),
                                    -gt[G1_ROWS]]))


def solve_corner_stencil(reduction: CornerReduction) -> RobinStencil:
    """Canonical-frame 4-point corner stencil: a hat part against
    ``reduction.hat_polys`` and a tilde part against its ``tilde_polys``,
    (..., 4, 7) coefficients each."""
    til_polys = np.tensordot(reduction.p.T, reduction.et_polys, 1)
    hat, til = (expand_at_offsets(np.moveaxis(polys, -1, 0), CORNER_OFFSETS,
                                  M_EDGE + 1, LEAD_E)
                for polys in (reduction.e_polys, til_polys))
    exp = hat + til         # 8 columns, 28 (row, degree) pairs each
    raw = run_constant_recursion(exp, LEAD_E, _corner_solvers(),
                                 combine=_CORNER_COMBINE, center=0)
    return RobinStencil(CORNER_OFFSETS,
                        ((raw[..., :4, :], reduction.hat_polys),
                         (raw[..., 4:, :], reduction.tilde_polys)))


# ----------------------------------------------------------------------------
# frame maps: reuse the canonical construction on any side or corner
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryFrame:
    """Maps the canonical inward frame onto a concrete side or corner.

    ``point(anchor, xhat, yhat)`` sends canonical coordinates to physical
    points (for sampling field values at the target anchor; the alpha/g
    side is x-hat = 0, a corner's beta/g side y-hat = 0), and
    ``offset(k, l)`` sends canonical stencil offsets to grid index offsets.
    """

    sx: int                       # physical x = anchor_x + [sx * xhat | yhat]
    sy: int
    swap: bool

    def point(self, anchor, xhat, yhat):
        if self.swap:
            return anchor[0] + self.sy * yhat, anchor[1] + self.sx * xhat
        return anchor[0] + self.sx * xhat, anchor[1] + self.sy * yhat

    def offset(self, k, ell):
        if self.swap:
            return self.sy * ell, self.sx * k
        return self.sx * k, self.sy * ell


SIDE_FRAMES = {
    1: BoundaryFrame(+1, +1, False),
    2: BoundaryFrame(-1, +1, False),
    3: BoundaryFrame(+1, +1, True),
    4: BoundaryFrame(-1, +1, True),
}

# corner (sx side id, sy side id): canonical alpha-side is the x-side
CORNER_FRAMES = {
    (1, 3): BoundaryFrame(+1, +1, False),
    (2, 3): BoundaryFrame(-1, +1, False),
    (1, 4): BoundaryFrame(+1, -1, False),
    (2, 4): BoundaryFrame(-1, -1, False),
}


def map_by_reflection(stencil, frame: BoundaryFrame):
    """Grid-index offsets of a canonical stencil under the given frame."""
    return tuple(frame.offset(k, ell) for (k, ell) in stencil.offsets)
