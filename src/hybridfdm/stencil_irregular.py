"""Fifth-order 13-point stencil at interface points.

Offsets on the plus side contribute through their own expansion polynomials;
offsets on the minus side are first transported to plus-side band derivatives
through the transmission table, so each constraint row pairs the plus
polynomial G+_{m,n} against the T-weighted combination of minus polynomials.
Degrees are solved recursively with the center coefficient normalized to one
at degree zero, the remaining freedom spent on minimum-norm solutions (or on
damping the minus-side transported weights where the curve is
under-resolved), and the top degree left empty.

The source and jump weights on the right-hand side follow the same split:
direct H-polynomial sums per side plus transmission-transported terms
through the minus-side band values I-.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import IRREGULAR_OFFSETS
from .jets import Poly2
from .stencil_core import expand_poly_in_h, run_basic_recursion
from .stencil_regular import StencilPoly
from .transmission import BAND5, InterfaceLocalModel

CENTER13 = IRREGULAR_OFFSETS.index((0, 0))
LEAD13 = tuple(sum(mn) for mn in BAND5)     # leading h-degree of each row


@dataclass
class IrregularSystem:
    expansions: np.ndarray       # (11, 13, 6)
    lead: tuple
    minus_mask: np.ndarray       # (13,) True where the offset sits in minus
    model: InterfaceLocalModel
    offsets: np.ndarray          # (13, 2) the offsets (v0 + k, w0 + l)


def assemble_irregular_system(models, minus_masks) -> list[IrregularSystem]:
    """Degree systems of a chunk of 13-point rows, one per node.

    ``models`` holds one ``InterfaceLocalModel`` per node and
    ``minus_masks`` (B, 13) marks the offsets in minus.  The chunk's offsets
    (v0 + k, w0 + l) are stacked to (B, 13, 2); the minus polynomials are
    transported by one stacked ``u_block`` . G- product, each side is
    expanded once for the whole chunk (``expand_poly_in_h``) and one
    masked select picks each offset's side.  Every step adds only outer
    loops over the chunk to what a chunk of one does, so a node's system
    is the same, bit for bit, in any chunk.  The returned systems hold
    views of the chunk arrays; the stencil solve and the rhs stay per node
    (a batched form of their sums rounds differently).
    """
    minus_masks = np.asarray(minus_masks, dtype=bool)
    bases = np.array([(m.curve.v0, m.curve.w0) for m in models])
    vw = bases[:, None, :] + np.asarray(IRREGULAR_OFFSETS)
    ublock = np.stack([m.table.u_block() for m in models])
    g_plus = np.stack([m.g_plus for m in models])
    g_minus = np.stack([m.g_minus for m in models])
    phi_minus = np.einsum("bij,bipq->bjpq", ublock, g_minus)
    exp_p = expand_poly_in_h(Poly2(g_plus), vw, 6)
    exp_m = expand_poly_in_h(Poly2(phi_minus), vw, 6)
    exp = np.where(minus_masks[:, None, :, None], exp_m, exp_p)
    return [IrregularSystem(expansions=e, lead=LEAD13, minus_mask=mask,
                            model=model, offsets=v)
            for e, mask, model, v in zip(exp, minus_masks, models, vw)]


KAPPA_CRIT = 0.75


def solve_irregular_stencil(system: IrregularSystem,
                            h: float | None = None) -> StencilPoly:
    """13-point stencil coefficients from the recursive solves.

    Resolved geometry gets the full fifth-order recursion with minimum-norm
    free parameters (the unique minimizer is basis independent, so the result
    is deterministic and chart independent).  Where the curve is
    under-resolved -- curvature radius below ``h / KAPPA_CRIT`` -- the
    transmission blocks grow like powers of kappa and every correction degree
    injects more pollution than it removes; those rows are reduced to the
    leading-degree stencil whose remaining freedom minimizes the minus-side
    transported band weights, which is the best bounded row available at that
    mesh.  Passing ``h`` enables this detection plus a growth cap backstop.
    """
    model = system.model
    curve = model.curve

    under_resolved = False
    if h is not None:
        speed2 = curve.r[1] ** 2 + curve.s[1] ** 2
        if speed2 > 0:
            kappa = abs(curve.r[1] * curve.s[2] - curve.r[2] * curve.s[1]) \
                / speed2**1.5
            under_resolved = kappa * h > KAPPA_CRIT

    if under_resolved:
        vw = system.offsets
        gvals = Poly2(model.g_minus).eval(vw[:, 0] * h, vw[:, 1] * h)
        penalty = np.where(system.minus_mask[None, :], gvals, 0.0)
        coeffs, _ = run_basic_recursion(
            system.expansions, system.lead, 5, normalize_col=CENTER13,
            penalty=penalty, max_degree=0)
        return StencilPoly(IRREGULAR_OFFSETS, coeffs)

    coeffs, _ = run_basic_recursion(system.expansions, system.lead, 5,
                                    normalize_col=CENTER13, zero_degrees=(5,),
                                    h=h)
    return StencilPoly(IRREGULAR_OFFSETS, coeffs)


@dataclass
class IrregularWeights:
    """Right-hand-side weights of the 13-point row (h^-1 already applied)."""

    j_plus: np.ndarray          # (10,) weights of f+^(m,n), Lambda_3
    j_minus: np.ndarray
    j_g: np.ndarray             # (6,) weights of g^(p)
    j_gg: np.ndarray            # (5,) weights of gGamma^(p)


def irregular_rhs_weights(stencil: StencilPoly, system: IrregularSystem,
                          h: float) -> IrregularWeights:
    model = system.model
    ch = stencil.values(h)
    vw = system.offsets
    xo, yo = vw[:, 0] * h, vw[:, 1] * h
    minus = system.minus_mask
    plus = ~minus

    i_minus = Poly2(model.g_minus).eval(xo[minus], yo[minus]) @ ch[minus]
    j_plus = Poly2(model.h_plus).eval(xo[plus], yo[plus]) @ ch[plus]
    j_minus = Poly2(model.h_minus).eval(xo[minus], yo[minus]) @ ch[minus]
    j_plus = j_plus + i_minus @ model.table.f_block("+")
    j_minus = j_minus + i_minus @ model.table.f_block("-")
    j_g = i_minus @ model.table.g_block()
    j_gg = i_minus @ model.table.gg_block()
    return IrregularWeights(j_plus=j_plus / h, j_minus=j_minus / h,
                            j_g=j_g / h, j_gg=j_gg / h)


def irregular_rhs_value(weights: IrregularWeights, f_plus_der: np.ndarray,
                        f_minus_der: np.ndarray, curve) -> float:
    """Contract the weights with the estimated data derivatives."""
    return float(
        weights.j_plus @ f_plus_der + weights.j_minus @ f_minus_der
        + weights.j_g @ curve.g + weights.j_gg @ curve.gg
    )
