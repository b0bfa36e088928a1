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
produced and flagged).

Corners eliminate through both conditions: x-derivatives reduce to the
tangential band via the reduction table (u^(m,0) = sum lambda u^(0,n) + sum
mu u^(1,n) + source terms), the alpha condition folds mu into p_{m,n}, and the
transposed basis E~_m absorbs beta.  Hat and tilde coefficient blocks are kept
separate (8 unknowns) exactly as in the reference construction; the displayed
stencil is their sum.

The other three sides and corners reuse the same construction through frame
maps: field values are sampled at reflected points, so all jets are estimated
directly at the target anchor, and only the grid offsets are mapped back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .indexsets import lambda_full
from .jets import Jet2, Poly2
from .reduction import (
    build_gh_polynomials,
    build_reduction_table,
    transpose_reduction_table,
)
from .stencil_core import (
    build_degree_solvers,
    expand_poly_in_h,
    frac_leading_g,
    run_constant_recursion,
    stencil_values,
)

EDGE_OFFSETS = ((0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1))
EDGE_CENTER = EDGE_OFFSETS.index((0, 0))
CORNER_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))
F_INDICES_B = lambda_full(4)      # f^(m,n) weights at boundary points
M_EDGE = 6


def _frac_row(size, *terms):
    row = [Fraction(0)] * size
    for col, w in terms:
        row[col] += Fraction(w)
    return row


@lru_cache(maxsize=1)
def _edge_solvers():
    a0 = [[frac_leading_g(0, n, k, ell) for (k, ell) in EDGE_OFFSETS]
          for n in range(7)]
    lead = list(range(7))
    c11 = EDGE_OFFSETS.index((1, 1))

    def ties(d):
        pairs = {
            3: [((1, 0), (1, 1))],
            4: [((1, -1), (1, 1)), ((1, 0), (1, 1))],
            5: [((0, 1), (1, 1)), ((1, -1), (1, 1)), ((1, 0), (1, 1))],
        }
        if d in pairs:
            return [_frac_row(6, (EDGE_OFFSETS.index(a), 1), (EDGE_OFFSETS.index(b), -1))
                    for a, b in pairs[d]]
        if d == 6:
            rows = [_frac_row(6, (EDGE_OFFSETS.index(o), 1))
                    for o in ((0, 1), (1, -1), (1, 0))]
            rows.append(_frac_row(6, (EDGE_OFFSETS.index((0, 0)), 1), (c11, 2)))
            return rows
        return []

    return build_degree_solvers(a0, lead, T=6, ties_for_degree=ties,
                                pin_col=c11, fixed_values={0: -1.0})


@lru_cache(maxsize=1)
def _corner_solvers():
    a0 = []
    for n in range(7):
        hat = [frac_leading_g(0, n, k, ell) for (k, ell) in CORNER_OFFSETS]
        lam = Fraction((-1) ** (n // 2)) if n % 2 == 0 else Fraction(0)
        til = [lam * frac_leading_g(0, n, ell, k) for (k, ell) in CORNER_OFFSETS]
        a0.append(hat + til)
    lead = list(range(7))
    H00, H01, H10, H11, T00, T01, T10, T11 = range(8)

    def ties(d):
        zero_rows = [_frac_row(8, (T00, 1)), _frac_row(8, (T10, 1))]
        if d <= 2:
            return zero_rows
        if d == 3:
            return [_frac_row(8, (T01, 1), (T11, -1))] + zero_rows
        if d == 4:
            return [_frac_row(8, (H11, 1), (T11, -1)),
                    _frac_row(8, (T01, 1), (T11, -2))] + zero_rows
        if d == 5:
            return [_frac_row(8, (H10, 1), (T11, -1)),
                    _frac_row(8, (H11, 1), (T11, -1)),
                    _frac_row(8, (T10, 1), (T11, -1)),
                    _frac_row(8, (T01, 1), (T11, -3)),
                    _frac_row(8, (T00, 1))]
        if d == 6:
            return [_frac_row(8, (H01, 1), (T11, -1)),
                    _frac_row(8, (H10, 1), (T11, -1)),
                    _frac_row(8, (H11, 1), (T11, -1)),
                    _frac_row(8, (T01, 1), (T11, -1)),
                    _frac_row(8, (T10, 1), (T11, -1)),
                    _frac_row(8, (T00, 1))]
        return []

    return build_degree_solvers(a0, lead, T=6, ties_for_degree=ties,
                                pin_col=T11, fixed_values={0: -1.0})


_CORNER_COMBINE = np.hstack([np.eye(4), np.eye(4)])


def build_edge_basis(a_jet: Jet2, alpha: np.ndarray):
    """E_n polynomials (n = 0..6) plus the G/H families they came from."""
    table = build_reduction_table(a_jet, M_EDGE)
    g, h = build_gh_polynomials(table)
    alpha = np.asarray(alpha, dtype=float)
    e = []
    for n in range(M_EDGE + 1):
        en = g[(0, n)]
        if n < M_EDGE:
            for i in range(n, M_EDGE):
                en = en + g[(1, i)].scaled(comb(i, n) * alpha[..., i - n])
        e.append(en)
    return e, g, h


@dataclass
class EdgeStencil:
    """6-point Robin/Neumann edge stencil in the canonical inward frame."""

    coeffs: np.ndarray            # (..., 6, 7)
    monotone: np.ndarray
    g_polys: dict
    h_polys: dict
    offsets: tuple = EDGE_OFFSETS

    def values(self, h: float) -> np.ndarray:
        return stencil_values(self.coeffs, h)

    def f_weights(self, h: float) -> np.ndarray:
        """Weights of f^(m,n), (m,n) in Lambda_4 (h^-1 applied by assembler)."""
        return _weights(self.coeffs, [self.h_polys[mn] for mn in F_INDICES_B],
                        EDGE_OFFSETS, h)

    def g1_weights(self, h: float) -> np.ndarray:
        """Weights of the boundary-data derivatives g1^(n), n = 0..5."""
        return -_weights(self.coeffs, [self.g_polys[(1, n)] for n in range(6)],
                         EDGE_OFFSETS, h)


def _weights(coeffs: np.ndarray, polys, offsets, h: float) -> np.ndarray:
    ch = stencil_values(coeffs, h)
    xo = h * np.array([o[0] for o in offsets], dtype=float)
    yo = h * np.array([o[1] for o in offsets], dtype=float)
    return np.stack([np.sum(ch * p.eval(xo, yo), axis=-1) for p in polys], axis=-1)


def solve_edge_stencil(a_jet: Jet2, alpha: np.ndarray) -> EdgeStencil:
    """Canonical-frame edge stencil; alpha holds d^n alpha/dy^n, n = 0..5."""
    e_polys, g, h = build_edge_basis(a_jet, alpha)
    exp = np.stack([expand_poly_in_h(en, EDGE_OFFSETS, 7) for en in e_polys],
                   axis=-3)
    res = run_constant_recursion(exp, list(range(7)), 6, _edge_solvers(),
                                 center=EDGE_CENTER)
    return EdgeStencil(coeffs=res.coeffs, monotone=res.monotone,
                       g_polys=g, h_polys=h)


@dataclass
class CornerReduction:
    """Coefficient tables feeding the 4-point corner solve."""

    lam: np.ndarray               # (7, 7) lambda_{m,n}
    mu: np.ndarray                # (7, 6) mu_{m,n}
    nu: dict                      # (i, j) in Lambda_4 -> (7,) nu_{m,i,j}
    p: np.ndarray                 # (7, 7) p_{m,n}
    e_polys: list                 # E_n, n = 0..6
    et_polys: list                # E~_m, m = 0..6
    g_polys: dict
    h_polys: dict
    gt_polys: dict
    ht_polys: dict


def build_corner_reduction(a_jet: Jet2, alpha: np.ndarray,
                           beta: np.ndarray) -> CornerReduction:
    table = build_reduction_table(a_jet, M_EDGE)
    ttable = transpose_reduction_table(a_jet, M_EDGE)
    g, h = build_gh_polynomials(table)
    gt, ht = build_gh_polynomials(ttable)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    M = M_EDGE

    lam = np.zeros((M + 1, M + 1))
    mu = np.zeros((M + 1, M))
    for m in range(M + 1):
        for n in range(M + 1):
            lam[m, n] = table.u_value(m, 0, 0, n)
        for n in range(M):
            mu[m, n] = table.u_value(m, 0, 1, n)
    nu = {ij: np.array([table.f_value(m, 0, *ij) for m in range(M + 1)])
          for ij in F_INDICES_B}

    p = lam.copy()
    for m in range(M + 1):
        for n in range(M):
            p[m, n] += sum(comb(i, n) * alpha[i - n] * mu[m, i]
                           for i in range(n, M))

    e_polys, _, _ = build_edge_basis(a_jet, alpha)
    et_polys = []
    for m in range(M + 1):
        em = gt[(m, 0)]
        if m < M:
            for i in range(m, M):
                em = em + gt[(i, 1)].scaled(comb(i, m) * beta[i - m])
        et_polys.append(em)

    return CornerReduction(lam=lam, mu=mu, nu=nu, p=p, e_polys=e_polys,
                           et_polys=et_polys, g_polys=g, h_polys=h,
                           gt_polys=gt, ht_polys=ht)


@dataclass
class CornerStencil:
    """4-point corner stencil; hat and tilde blocks kept separate."""

    chat: np.ndarray              # (4, 7)
    ctilde: np.ndarray            # (4, 7)
    monotone: bool
    reduction: CornerReduction
    offsets: tuple = CORNER_OFFSETS

    @property
    def coeffs(self) -> np.ndarray:
        return self.chat + self.ctilde

    def values(self, h: float) -> np.ndarray:
        return stencil_values(self.coeffs, h)

    def f_weights(self, h: float) -> np.ndarray:
        red = self.reduction
        hat = [red.h_polys[mn] for mn in F_INDICES_B]
        til = []
        for mn in F_INDICES_B:
            poly = red.ht_polys[mn]
            for i in range(M_EDGE + 1):
                poly = poly + red.et_polys[i].scaled(red.nu[mn][i])
            til.append(poly)
        return (_weights(self.chat, hat, CORNER_OFFSETS, h)
                + _weights(self.ctilde, til, CORNER_OFFSETS, h))

    def g1_weights(self, h: float) -> np.ndarray:
        red = self.reduction
        hat = [red.g_polys[(1, n)] for n in range(6)]
        til = []
        for n in range(6):
            poly = Poly2.zero(red.et_polys[0].size)
            for m in range(M_EDGE + 1):
                poly = poly + red.et_polys[m].scaled(red.mu[m, n])
            til.append(poly)
        return -(_weights(self.chat, hat, CORNER_OFFSETS, h)
                 + _weights(self.ctilde, til, CORNER_OFFSETS, h))

    def g3_weights(self, h: float) -> np.ndarray:
        red = self.reduction
        return -_weights(self.ctilde, [red.gt_polys[(m, 1)] for m in range(6)],
                         CORNER_OFFSETS, h)


def solve_corner_stencil(reduction: CornerReduction) -> CornerStencil:
    rows = []
    for n in range(M_EDGE + 1):
        hat = expand_poly_in_h(reduction.e_polys[n], CORNER_OFFSETS, 7)
        til_poly = Poly2.zero(reduction.et_polys[0].size)
        for m in range(M_EDGE + 1):
            til_poly = til_poly + reduction.et_polys[m].scaled(reduction.p[m, n])
        til = expand_poly_in_h(til_poly, CORNER_OFFSETS, 7)
        rows.append(np.concatenate([hat, til], axis=0))
    exp = np.stack(rows, axis=0)           # (7 rows, 8 cols, 7 terms)
    res = run_constant_recursion(exp, list(range(7)), 6, _corner_solvers(),
                                 combine=_CORNER_COMBINE, center=0)
    return CornerStencil(chat=res.raw[:4], ctilde=res.raw[4:],
                         monotone=bool(res.monotone), reduction=reduction)


# ----------------------------------------------------------------------------
# frame maps: reuse the canonical construction on any side or corner
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryFrame:
    """Maps the canonical inward frame onto a concrete side or corner.

    ``point(anchor, xhat, yhat)`` sends canonical coordinates to physical
    points (for sampling field values at the target anchor), ``offset(k, l)``
    sends canonical stencil offsets to grid index offsets, and
    ``line(anchor, that)`` parametrizes the alpha/g side (``line2`` the beta/g
    side at corners).
    """

    name: str
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

    def line(self, anchor, that):
        """Physical point along the canonical x-hat = 0 side."""
        return self.point(anchor, 0.0, that)

    def line2(self, anchor, that):
        """Physical point along the canonical y-hat = 0 side (corners)."""
        return self.point(anchor, that, 0.0)


SIDE_FRAMES = {
    1: BoundaryFrame("gamma1", +1, +1, False),
    2: BoundaryFrame("gamma2", -1, +1, False),
    3: BoundaryFrame("gamma3", +1, +1, True),
    4: BoundaryFrame("gamma4", -1, +1, True),
}

# corner (sx side id, sy side id): canonical alpha-side is the x-side
CORNER_FRAMES = {
    (1, 3): BoundaryFrame("corner13", +1, +1, False),
    (2, 3): BoundaryFrame("corner23", -1, +1, False),
    (1, 4): BoundaryFrame("corner14", +1, -1, False),
    (2, 4): BoundaryFrame("corner24", -1, -1, False),
}


def map_by_reflection(stencil, frame: BoundaryFrame):
    """Grid-index offsets of a canonical stencil under the given frame."""
    return tuple(frame.offset(k, ell) for (k, ell) in stencil.offsets)
