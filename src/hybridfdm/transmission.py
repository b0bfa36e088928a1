"""Transmission relations across the interface.

At a base point on the curve, every minus-side band derivative u-^(m',n')
is a linear functional of the plus-side band derivatives, the one-sided
source derivatives, and the jump data:

    u-^(m',n') = sum T_u+ u+^(m,n) + sum (T+ f+ + T- f-) + sum T_g g^(p)
                 + sum T_gG gGamma^(p)

The coefficients come from expanding the two matching conditions [u] = g and
[a grad u . (s', -r')] = gGamma * sqrt(r'^2 + s'^2) in powers of the curve
parameter and solving the resulting 2x2 systems recursively in the order
p = 1..5, carrying lower orders forward.  The 2x2 determinant at step p
equals a-^(0,0) p ((r')^2 + (s')^2)^p / (p!)^2 up to sign, which is asserted
at runtime.

Each model's ``table`` is the (11, 42) matrix of these functionals, one row
per u-^(m',n') in BAND5 order, read by column slices: ``UPLUS`` transports
the minus polynomials, and ``DATA`` spans the data vector every 13-point
rhs is written over.

Everything here works on the eleven-sample local charts produced by the
geometry module; the curve, jump and coefficient jets are estimated from
point values by MLS, never differentiated symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import StencilError
from .geometry import LocalChart
from .indexsets import lambda_band, lambda_full
from .jets import (
    Jet2,
    monomial_series_table,
    poly2_compose_series,
    poly_dx,
    poly_dy,
    series_deriv,
    series_mul,
    series_sqrt,
)
from .mls import mls_operator, sampling_recipe
from .reduction import build_reduction_table, dense_tables, gh_blocks

M_IRR = 5                      # expansion order of the interface stencils
BAND5 = lambda_band(5)         # 11 entries
F3 = lambda_full(3)            # 10 entries

# symbol layout of the transmission functionals: u+ over BAND5, then the
# data f+ and f- over F3, g^(p) and gGamma^(p)
N_UP = len(BAND5)
N_F = len(F3)
COL_UP = {mn: i for i, mn in enumerate(BAND5)}
COL_G = {p: N_UP + 2 * N_F + p for p in range(6)}
COL_GG = {p: N_UP + 2 * N_F + 6 + p for p in range(5)}
N_SYMBOLS = N_UP + 2 * N_F + 6 + 5
UPLUS = slice(0, N_UP)
FPLUS = slice(N_UP, N_UP + N_F)
FMINUS = slice(N_UP + N_F, N_UP + 2 * N_F)
DATA = slice(N_UP, N_SYMBOLS)


@dataclass
class CurveJet:
    """Local curve and jump-data derivatives at a base point.

    ``r``/``s`` hold raw derivatives d^p r/dt^p for p = 0..5; ``g`` holds the
    Taylor coefficients (1/p!) d^p g/dt^p; ``gg`` the Taylor coefficients of
    g_Gamma(t) sqrt(r'(t)^2 + s'(t)^2), arclength factor included.
    """

    v0: float
    w0: float
    r: np.ndarray               # (6,)
    s: np.ndarray               # (6,)
    g: np.ndarray               # (6,)
    gg: np.ndarray              # (5,)


@lru_cache(maxsize=32)
def _curve_operators(h: float):
    rec = sampling_recipe("curve", h)
    op6 = mls_operator(rec.problem(6), list(range(6)))
    op5 = mls_operator(rec.problem(5), list(range(5)))
    for op in (op6, op5):           # shared by every caller of the cache
        op.flags.writeable = False
    return op6, op5


def curve_jet_from_chart(chart: LocalChart, v0: float, w0: float,
                         h: float) -> CurveJet:
    """Estimate the curve/jump jets from the eleven chart samples by MLS.

    A graph chart's abscissa (xs of a "graph-x" chart, ys of a "graph-y"
    one) is exactly linear in t, so its jet is set, not fitted."""
    fact = np.array([factorial(p) for p in range(6)])
    op6, op5 = _curve_operators(float(h))
    if chart.kind == "graph-x":
        r = np.zeros(6)
        r[0], r[1] = chart.xs[5], np.sign(chart.xs[6] - chart.xs[5])
    else:
        r = op6 @ chart.xs
    if chart.kind == "graph-y":
        s = np.zeros(6)
        s[0], s[1] = chart.ys[5], np.sign(chart.ys[6] - chart.ys[5])
    else:
        s = op6 @ chart.ys
    g = (op6 @ chart.g_vals) / fact

    rp = series_deriv(r / fact)
    sp = series_deriv(s / fact)
    speed2 = series_mul(rp, rp, 5) + series_mul(sp, sp, 5)
    arc = series_sqrt(speed2, 5)
    gg_plain = (op5 @ chart.gg_vals) / fact[:5]
    gg = series_mul(gg_plain, arc, 5)
    return CurveJet(v0=v0, w0=w0, r=r, s=s, g=g, gg=gg)


@dataclass
class InterfaceLocalModel:
    """Everything the 13-point stencil needs at one base point.

    The G/H families of the order-5 expansion are coefficient blocks, one
    square (6, 6) table per polynomial (``reduction.dense_tables`` of the
    packed blocks): G over BAND5, H over F3.
    """

    curve: CurveJet
    table: np.ndarray           # (11, 42): rows BAND5, columns the symbols
    g_plus: np.ndarray          # (11, 6, 6)
    g_minus: np.ndarray
    h_plus: np.ndarray          # (10, 6, 6)
    h_minus: np.ndarray


def _flux_series(block, a_c, r_t, s_t, nterms: int, mono) -> np.ndarray:
    """Series of grad(P)(r, s) . (s', -r') * a(r, s) for each polynomial P
    of a (K, ..., k, k) block, with a the polynomial of the table a_c;
    returns (K, ..., nterms)."""
    rp = series_deriv(r_t)
    sp = series_deriv(s_t)
    a_series = poly2_compose_series(a_c, r_t, s_t, nterms, mono)
    px = poly2_compose_series(poly_dx(block), r_t, s_t, nterms, mono)
    py = poly2_compose_series(poly_dy(block), r_t, s_t, nterms, mono)
    flux = series_mul(px, sp, nterms) - series_mul(py, rp, nterms)
    return series_mul(flux, a_series, nterms)


def build_transmission(curves, a_plus_jet: Jet2,
                       a_minus_jet: Jet2) -> list[InterfaceLocalModel]:
    """Solve the matching conditions recursively in the order p = 1..5.

    Works on a chunk of B base points at once: ``curves`` holds one CurveJet
    per point and the coefficient jets are stacked on a leading axis of
    length B.  Every step (reduction table, G/H polynomials, series
    compositions, the 2x2 solves) runs once for the whole chunk and treats
    each point exactly as a chunk of one would.  Returns one model per point.
    A failed determinant check raises ``StencilError`` with ``index`` set to
    the offending point.
    """
    stacked = Jet2(np.stack([a_plus_jet.c, a_minus_jet.c]), a_plus_jet.order)
    # G over BAND5 and H over F3, each (n, side, B, 6, 6): the series
    # compositions and the 13-point rows read square tables
    g_all, h_all = (dense_tables(block) for block in
                    gh_blocks(build_reduction_table(stacked, M_IRR)))

    fact = np.array([factorial(p) for p in range(6)], dtype=float)
    r = np.stack([curve.r for curve in curves])
    s = np.stack([curve.s for curve in curves])
    r_t, s_t = r / fact, s / fact
    r_t[:, 0] = 0.0
    s_t[:, 0] = 0.0
    mono = monomial_series_table(r_t, s_t, M_IRR + 1, 6)

    # series of each side's G (rows in BAND5 = COL_UP order) and H (rows in
    # F3 order) polynomials along the curve, and of their fluxes
    gu_p, gu_m, hu_p, hu_m = (
        poly2_compose_series(block, r_t, s_t, 6, mono)
        for block in (g_all[:, 0], g_all[:, 1], h_all[:, 0], h_all[:, 1]))
    mono5 = mono[..., :5]
    a_p, a_m = a_plus_jet.c, a_minus_jet.c
    fg_p, fg_m, fh_p, fh_m = (
        _flux_series(block, a_c, r_t, s_t, 5, mono5)
        for block, a_c in ((g_all[:, 0], a_p), (g_all[:, 1], a_m),
                           (h_all[:, 0], a_p), (h_all[:, 1], a_m)))

    B = len(curves)
    rows = np.zeros((B, N_UP, N_SYMBOLS))
    rows[:, COL_UP[(0, 0)], COL_UP[(0, 0)]] = 1.0
    rows[:, COL_UP[(0, 0)], COL_G[0]] = -1.0

    speed2 = r[:, 1] ** 2 + s[:, 1] ** 2
    am0 = a_minus_jet.value

    for p in range(1, M_IRR + 1):
        mat = np.empty((B, 2, 2))
        mat[:, 0, 0] = fg_m[COL_UP[(0, p)], :, p - 1]
        mat[:, 0, 1] = fg_m[COL_UP[(1, p - 1)], :, p - 1]
        mat[:, 1, 0] = gu_m[COL_UP[(0, p)], :, p]
        mat[:, 1, 1] = gu_m[COL_UP[(1, p - 1)], :, p]
        det = mat[:, 0, 0] * mat[:, 1, 1] - mat[:, 0, 1] * mat[:, 1, 0]
        expected = am0 * p * speed2**p / factorial(p) ** 2
        ok = np.isclose(np.abs(det), expected, rtol=1e-8, atol=1e-300)
        if not ok.all():
            b = int(np.flatnonzero(~ok)[0])
            err = StencilError(
                f"transmission determinant at order {p} deviates from the "
                f"structural value ({det[b]:.6e} vs +-{expected[b]:.6e})")
            err.index = b
            raise err

        rhs = np.zeros((B, 2, N_SYMBOLS))
        rhs_flux, rhs_jump = rhs[:, 0], rhs[:, 1]
        rhs_flux[:, :N_UP] += fg_p[..., p - 1].T
        rhs_jump[:, :N_UP] += gu_p[..., p].T
        rhs_flux[:, FPLUS] += fh_p[..., p - 1].T
        rhs_flux[:, FMINUS] -= fh_m[..., p - 1].T
        rhs_jump[:, FPLUS] += hu_p[..., p].T
        rhs_jump[:, FMINUS] -= hu_m[..., p].T
        rhs_flux[:, COL_GG[p - 1]] -= 1.0
        rhs_jump[:, COL_G[p]] -= 1.0
        for mn in BAND5:
            if sum(mn) <= p - 1:
                known = rows[:, COL_UP[mn]]
                rhs_flux -= fg_m[COL_UP[mn], :, p - 1, None] * known
                rhs_jump -= gu_m[COL_UP[mn], :, p, None] * known

        sol = np.linalg.solve(mat, rhs)
        rows[:, COL_UP[(0, p)]] = sol[:, 0]
        rows[:, COL_UP[(1, p - 1)]] = sol[:, 1]

    return [
        InterfaceLocalModel(
            curve=curve, table=rows[b],
            g_plus=g_all[:, 0, b], g_minus=g_all[:, 1, b],
            h_plus=h_all[:, 0, b], h_minus=h_all[:, 1, b])
        for b, curve in enumerate(curves)]
