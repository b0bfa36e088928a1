"""Fifth-order 13-point stencil at interface points.

Offsets on the plus side contribute through their own expansion polynomials;
offsets on the minus side are first transported to plus-side band derivatives
through the transmission table, so each constraint row pairs the plus
polynomial G+_{m,n} against the T-weighted combination of minus polynomials.

The stencil has two paths, both here with their constants.  The full path
(``run_basic_recursion``) solves the degrees recursively: degree 0 with the
center coefficient fixed to one, degrees 1 to 4 by minimum-norm solutions
until one stops contracting (``GROWTH_CAP``), and the top degree left empty.
Where the curve is under-resolved (``KAPPA_CRIT``), the row falls back to
the leading degree alone, its remaining freedom spent on damping the
minus-side transported weights (``_leading_degree`` with a penalty).

The right-hand side is one (31,) weight vector over the data vector of the
transmission's symbol order, f+ and f- over F3, g and gGamma
(``irregular_rhs_weights``), contracted like every family's rhs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import IRREGULAR_OFFSETS
from .jets import poly_eval
from .stencil_core import (
    check_residual,
    contract,
    expand_poly_in_h,
    stencil_values,
)
from .transmission import (
    BAND5,
    DATA,
    FMINUS,
    FPLUS,
    UPLUS,
    InterfaceLocalModel,
)

CENTER13 = IRREGULAR_OFFSETS.index((0, 0))
LEAD13 = tuple(sum(mn) for mn in BAND5)     # leading h-degree of each row
KAPPA_CRIT = 0.75
GROWTH_CAP = 2.0


@dataclass
class IrregularSystem:
    expansions: np.ndarray       # (11, 13, 6), rows of leading degree LEAD13
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
    ublock = np.stack([m.table[:, UPLUS] for m in models])
    g_plus = np.stack([m.g_plus for m in models])
    g_minus = np.stack([m.g_minus for m in models])
    phi_minus = np.einsum("bij,bipq->bjpq", ublock, g_minus)
    exp_p = expand_poly_in_h(g_plus, vw, 6)
    exp_m = expand_poly_in_h(phi_minus, vw, 6)
    exp = np.where(minus_masks[:, None, :, None], exp_m, exp_p)
    return [IrregularSystem(expansions=e, minus_mask=mask, model=model,
                            offsets=v)
            for e, mask, model, v in zip(exp, minus_masks, models, vw)]


def _damped_solution(A: np.ndarray, b: np.ndarray,
                     penalty: np.ndarray | None) -> np.ndarray:
    """Solution of A x = b minimizing |penalty @ x| over the solution set.

    Falls back to the plain minimum-norm solution without a penalty.  The
    minimizer over the affine solution set is basis independent, which keeps
    the stencil deterministic and chart independent.
    """
    x = np.linalg.lstsq(A, b, rcond=1e-11)[0]
    if penalty is not None:
        from scipy.linalg import null_space

        N = null_space(A, rcond=1e-11)
        if N.size:
            t = np.linalg.lstsq(penalty @ N, -penalty @ x, rcond=1e-10)[0]
            x = x + N @ t
    return x


def _leading_degree(expansions: np.ndarray,
                    penalty: np.ndarray | None) -> tuple[np.ndarray, float]:
    """Degree-0 coefficients of a 13-point row and their residual.

    The center coefficient is fixed to one and the other twelve solve the
    leading system of all eleven rows, minimizing ``penalty @ C_0`` over its
    solution set (minimum norm without a penalty).
    """
    A = np.stack([expansions[r, :, t] for r, t in enumerate(LEAD13)])
    b = np.zeros(len(LEAD13))
    keep = [o for o in range(len(IRREGULAR_OFFSETS)) if o != CENTER13]
    pen = None if penalty is None else penalty[:, keep]
    x = np.zeros(len(IRREGULAR_OFFSETS))
    x[CENTER13] = 1.0
    x[keep] = _damped_solution(A[:, keep], -A[:, CENTER13], pen)
    return x, max(0.0, float(np.abs(A @ x - b).max(initial=0.0)))


def run_basic_recursion(expansions: np.ndarray,
                        h: float) -> tuple[np.ndarray, float]:
    """The full fifth-order recursion of a 13-point row: (coeffs, residual).

    Degree 0 comes from ``_leading_degree``.  Degrees 1 to 4 take the
    minimum-norm solution of their system, whose right-hand side collects
    the lower degrees.  The expansion is truncated as soon as a degree stops
    contracting (|C_d| h^d beyond ``GROWTH_CAP`` times the leading term):
    with the interface curvature under-resolved the corrections grow like
    kappa^d and the h-polynomial diverges, so keeping the degrees that still
    contract preserves a bounded, lower-order row instead of an exploding
    one.  A few rows of resolved curves trip it too (README, Notes): one
    row of ``ex32`` at J=9, and 23 rows of 16 of the seeds 0..39 of the
    benchmark family at J=5.  Degree 5 is left empty; its rows must balance.
    """
    R, O, nterms = expansions.shape
    T = nterms - 1
    coeffs = np.zeros((O, nterms))
    coeffs[:, 0], worst = _leading_degree(expansions, None)
    for d in range(1, T + 1):
        rows_d = [r for r in range(R) if LEAD13[r] + d <= T]
        b = np.zeros(len(rows_d))
        for i, r in enumerate(rows_d):
            for s in range(d):
                b[i] -= coeffs[:, s] @ expansions[r, :, LEAD13[r] + d - s]
        if d == T:
            worst = max(worst, float(np.abs(b).max(initial=0.0)))
            break
        A = np.stack([expansions[r, :, LEAD13[r]] for r in rows_d])
        x = np.linalg.lstsq(A, b, rcond=1e-11)[0]
        lead_scale = max(float(np.abs(coeffs[:, 0]).max()), 1e-300)
        if float(np.abs(x).max()) * h**d > GROWTH_CAP * lead_scale:
            break
        coeffs[:, d] = x
        scale = max(1.0, float(np.abs(b).max(initial=0.0)))
        worst = max(worst, float(np.abs(A @ x - b).max(initial=0.0)) / scale)
    check_residual(worst)
    return coeffs, worst


def solve_irregular_stencil(system: IrregularSystem, h: float) -> np.ndarray:
    """(13, 6) coefficients of the 13-point stencil at mesh size ``h``.

    Resolved geometry gets the full fifth-order recursion with minimum-norm
    free parameters (the unique minimizer is basis independent, so the result
    is deterministic and chart independent).  Where the curve is
    under-resolved -- curvature radius below ``h / KAPPA_CRIT`` -- the
    transmission blocks grow like powers of kappa and every correction degree
    injects more pollution than it removes; those rows are reduced to the
    leading-degree stencil whose remaining freedom minimizes the minus-side
    transported band weights, which is the best bounded row available at that
    mesh.
    """
    model = system.model
    curve = model.curve
    under_resolved = False
    speed2 = curve.r[1] ** 2 + curve.s[1] ** 2
    if speed2 > 0:
        kappa = abs(curve.r[1] * curve.s[2] - curve.r[2] * curve.s[1]) \
            / speed2**1.5
        under_resolved = kappa * h > KAPPA_CRIT
    if not under_resolved:
        return run_basic_recursion(system.expansions, h)[0]

    vw = system.offsets
    gvals = poly_eval(model.g_minus, vw[:, 0] * h, vw[:, 1] * h)
    penalty = np.where(system.minus_mask[None, :], gvals, 0.0)
    x, worst = _leading_degree(system.expansions, penalty)
    check_residual(worst)
    coeffs = np.zeros(system.expansions.shape[1:])
    coeffs[:, 0] = x
    return coeffs


def irregular_rhs_weights(coeffs: np.ndarray, system: IrregularSystem,
                          h: float) -> np.ndarray:
    """(31,) weights of the row's data vector, h^-1 applied: the minus
    offsets' band values I- carry every data symbol through the table, and
    each side's H polynomials add their f terms over its own offsets."""
    model = system.model
    ch = stencil_values(coeffs, h)
    vw = system.offsets
    xo, yo = vw[:, 0] * h, vw[:, 1] * h
    minus = system.minus_mask
    plus = ~minus

    i_minus = poly_eval(model.g_minus, xo[minus], yo[minus]) @ ch[minus]
    weights = i_minus @ model.table
    weights[FPLUS] += poly_eval(model.h_plus, xo[plus], yo[plus]) @ ch[plus]
    weights[FMINUS] += (poly_eval(model.h_minus, xo[minus], yo[minus])
                        @ ch[minus])
    return weights[DATA] / h


def irregular_rhs_value(weights: np.ndarray, f_plus_der: np.ndarray,
                        f_minus_der: np.ndarray, curve) -> float:
    """Contract the weights with the data vector [f+, f-, g, gGamma]."""
    return float(contract(weights, np.concatenate(
        [f_plus_der, f_minus_der, curve.g, curve.gg])))
