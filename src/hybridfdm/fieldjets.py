"""Estimate the jets a stencil needs from point values of the data fields.

These helpers bind the sampling recipes to the MLS estimator.  All sample
lattices are anchor-relative and translation-invariant, so one operator
matrix per mesh size serves every anchor of a class; estimating the jets for
a whole batch of points is then one product of that matrix with the
sampled values: one matrix product at the Robin sides and corners, and one
vector-matrix product per node for the regular rows, whose jets must not
depend on the chunk.  The two fits of a family (a and f, one degree apart)
are one ``mls_operators`` call on the shared lattice.  A Robin side (B
anchors) and a corner (one anchor) share one routine for that a/f fit and
the degree-5 operator of their data lines; they differ only in the recipe
names and in where the lines lie.

Each batch (a chunk of regular nodes, a Robin side, a corner, an interface
chunk) evaluates every field once, through ``mls.lattice_values``, and the
fields that share their points (a and f, a side's alpha and g, the five
interface fields) in one call that sorts the coordinates once.
Interface fits differ per node (side mask and base point), so they are
made node by node, sharing the weights of a node and one Vandermonde per
lattice and basis scale across the chunk.
"""

from __future__ import annotations

import numpy as np

from .errors import MlsError
from .indexsets import lambda_full
from .jets import Jet2
from .mls import (
    MlsProblem,
    lattice_values,
    mls_operator,
    mls_operators,
    sampling_recipe,
)
from .stencil_boundary import BoundaryFrame


def regular_jets(a_field, f_field, nodes: np.ndarray, origin, h: float):
    """Interior jets of a chunk of nodes: a-jet of order 6 and f derivatives
    on Lambda_5, one row per node of the (N, 2) integer grid indices
    ``nodes``.

    Node (i, j) sits at ``origin + (i, j) * h``, so sample (k, l) of its
    ``"regular-interior"`` lattice is ``origin + (4 i + k, 4 j + l) * h/4``,
    whatever nodes share the chunk.  Each field is evaluated once for the
    chunk, and each node's 81 window values go through the MLS operator in
    a product of their own (a stacked ``np.matmul``, one vector-matrix
    product per node), so a node's jets are the same, bit for bit, in any
    chunk; one matrix product for the whole chunk would not be, since BLAS
    picks its kernel by the row count.
    """
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1, 2)
    rec = sampling_recipe("regular-interior", h)
    [(op_a, op_f)] = mls_operators(
        rec.problem(6), [(6, lambda_full(6)), (5, lambda_full(5))])
    ratio = round(h / rec.step)
    x, y = (origin[d] + (ratio * nodes[:, d, None]
                         + np.rint(axis / rec.step).astype(np.int64))
            * rec.step for d, axis in enumerate(rec.axes))
    # one (1, 81) x (81, K) product per node: the stacked matmul makes the
    # same call for every node, whatever the chunk holds
    a_v, f_v = lattice_values((a_field, f_field), x[:, :, None],
                              y[:, None, :])
    a_der, f_der = (np.matmul(v.reshape(len(nodes), 1, -1), op.T)[:, 0]
                    for v, op in ((a_v, op_a), (f_v, op_f)))
    jet = Jet2.from_derivatives(
        {mn: a_der[:, i] for i, mn in enumerate(lambda_full(6))}, 6)
    return jet, f_der


def _robin_fit(a_field, f_field, anchor, frame: BoundaryFrame, h: float,
               kind: str):
    """The a/f fit and the data line of a Robin side or corner.

    ``kind`` is ``"edge"`` or ``"corner"``: its ``-boundary`` lattice is
    fitted around ``anchor`` (a point, or B of them as a (2, B, 1) array),
    the a-jet of order 5 and the f derivatives on Lambda_4 batched like the
    anchor.  Returns (a-jet, f derivatives, abscissae of the ``-line``
    recipe, its degree-5 operator for the derivatives 0..5).
    """
    rec = sampling_recipe(f"{kind}-boundary", h)
    [(op_a, op_f)] = mls_operators(
        rec.problem(5), [(5, lambda_full(5)), (4, lambda_full(4))])
    px, py = frame.point(anchor, rec.samples[:, 0], rec.samples[:, 1])
    a_v, f_v = lattice_values((a_field, f_field), px, py)
    a_der, f_der = a_v @ op_a.T, f_v @ op_f.T
    jet = Jet2.from_derivatives(
        {mn: a_der[..., i] for i, mn in enumerate(lambda_full(5))}, 5)
    line = sampling_recipe(f"{kind}-line", h)
    return jet, f_der, line.samples, mls_operator(line.problem(5),
                                                  list(range(6)))


def edge_jets(a_field, f_field, alpha_field, g_field, anchors: np.ndarray,
              frame: BoundaryFrame, h: float):
    """Batched canonical-frame jets for a Robin side.

    Returns (a-jet order 5, alpha derivatives (B, 6), f derivatives (B, 15),
    g1 derivatives (B, 6)).  ``alpha_field`` and ``g_field`` take physical
    (x, y) points on the side, the canonical x-hat = 0 line.  Each field is
    evaluated once for the B anchors.
    """
    anchor = np.atleast_2d(np.asarray(anchors, dtype=float)).T[:, :, None]
    jet, f_der, ts, op1 = _robin_fit(a_field, f_field, anchor, frame, h,
                                     "edge")
    lx, ly = frame.point(anchor, 0.0, ts)
    alpha_v, g_v = lattice_values((alpha_field, g_field), lx, ly)
    return jet, alpha_v @ op1.T, f_der, g_v @ op1.T


def irregular_jets(a_plus, a_minus, f_plus, f_minus, psi, anchors, bases,
                   h: float):
    """One-sided jets at the interface base points of a chunk of nodes.

    Node k samples the ``"irregular-interface"`` lattice around its grid
    node ``anchors[k]`` (17x17 at spacing h/8, half-width h), splits it by
    the sign of psi (points on the curve go minus), and fits each side
    separately with the basis centered on the node and derivatives taken at
    its base point ``bases[k]``.  With fewer than 30 samples on a side (at
    42-50% of the nodes of ex31 and ex33, at every J), or a rank-deficient
    fit, the node takes the recipe's widened lattice (33x33, half-width 2h),
    within the enlarged-box contract of the field callables.  The side with
    fewer samples is fitted first, so a failing side costs no other fit.

    psi, a+, a-, f+ and f- are each evaluated once for the whole chunk
    (``lattice_values``) on every node's widened window, at the coordinates
    ``anchor + offset`` that the node would sample alone; the standard
    window is the middle 17x17 of the widened one, and a one-sided field's
    values on the other side are dropped by the mask.  The fits of a node
    share its weights, and the fits of the chunk share one Vandermonde per
    lattice and basis scale (``mls_operators``).

    Returns (a+ jet, a- jet, f+ derivatives, f- derivatives, widened) for
    the n nodes: the jets of order 4 batched over the nodes, the (n, 10)
    source derivatives over Lambda_3, and the (n,) flags of the nodes that
    took the widened lattice.  A node whose fits fail on both lattices
    raises ``MlsError`` with its position in ``index``.
    """
    anchors = np.asarray(anchors, dtype=float).reshape(-1, 2)
    targets = np.asarray(bases, dtype=float).reshape(-1, 2) - anchors
    n = len(anchors)
    recipes = [sampling_recipe("irregular-interface", h, widened=w)
               for w in (False, True)]
    # positions of the standard lattice's offsets among the widened ones
    cut = (len(recipes[1].axes[0]) - len(recipes[0].axes[0])) // 2
    windows = (slice(cut, -cut), slice(None))

    x, y = (anchors[:, d, None] + recipes[1].axes[d] for d in (0, 1))
    psi_v, ap_v, am_v, fp_v, fm_v = lattice_values(
        (psi, a_plus, a_minus, f_plus, f_minus), x[:, :, None], y[:, None, :])
    values = {"+": (ap_v, fp_v), "-": (am_v, fm_v)}
    fits = ((4, lambda_full(4)), (3, lambda_full(3)))
    vandermondes = ({}, {})        # per lattice: full-window E per scale

    a_der = {sd: np.empty((n, len(fits[0][1]))) for sd in "+-"}
    f_der = {sd: np.empty((n, len(fits[1][1]))) for sd in "+-"}
    widened = np.zeros(n, dtype=bool)
    for k in range(n):
        last_exc = None
        for wide in (False, True):
            at = (k, windows[wide], windows[wide])
            side = psi_v[at].ravel()
            masks = {"+": side > 0.0, "-": side <= 0.0}
            if min(masks["+"].sum(), masks["-"].sum()) < 30 and not wide:
                continue
            rec = recipes[wide]
            order = sorted("+-", key=lambda sd: masks[sd].sum())
            try:
                ops = mls_operators(
                    MlsProblem(rec.samples, targets[k], 4, h),
                    fits, [masks[sd] for sd in order], vandermondes[wide])
            except MlsError as exc:
                last_exc = exc
                continue
            for sd, (op_a, op_f) in zip(order, ops):
                a_v, f_v = values[sd]
                a_der[sd][k] = op_a @ a_v[at].ravel()[masks[sd]]
                f_der[sd][k] = op_f @ f_v[at].ravel()[masks[sd]]
            widened[k] = wide
            break
        else:
            exc = MlsError(
                f"one-sided sample set near {tuple(np.round(anchors[k], 6))} "
                f"stays degenerate after widening: {last_exc}")
            exc.index = k
            raise exc
    jet_p, jet_m = (Jet2.from_derivatives(
        {mn: a_der[sd][:, i] for i, mn in enumerate(fits[0][1])}, 4)
        for sd in "+-")
    return jet_p, jet_m, f_der["+"], f_der["-"], widened


def corner_jets(a_field, f_field, alpha_field, g1_field, beta_field, g3_field,
                anchor, frame: BoundaryFrame, h: float):
    """Canonical-frame jets for a Robin-Robin corner (single anchor).

    The alpha and g1 data live on the canonical x-hat = 0 side, beta and g3
    on the y-hat = 0 side; each field is evaluated once.
    """
    anchor = np.asarray(anchor, dtype=float)
    jet, f_der, ts, op1 = _robin_fit(a_field, f_field, anchor, frame, h,
                                     "corner")
    ax, ay = frame.point(anchor, 0.0, ts)
    alpha_v, g1_v = lattice_values((alpha_field, g1_field), ax, ay)
    bx, by = frame.point(anchor, ts, 0.0)
    beta_v, g3_v = lattice_values((beta_field, g3_field), bx, by)
    alpha_der, g1_der, beta_der, g3_der = (op1 @ v for v in
                                           (alpha_v, g1_v, beta_v, g3_v))
    return jet, alpha_der, f_der, g1_der, beta_der, g3_der
