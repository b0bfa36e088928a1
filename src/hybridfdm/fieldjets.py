"""Estimate the jets a stencil needs from point values of the data fields.

These helpers bind the sampling recipes to the MLS estimator.  All sample
lattices are anchor-relative and translation-invariant, so one operator
matrix per mesh size serves every anchor of a class; estimating the jets for
a whole batch of interior points is then a single matrix product against the
sampled values.  The two fits of a family (a and f, one degree apart) are
one ``mls_operators`` call on the shared lattice.

Each batch evaluates every field once: a regular family on the axes of one
lattice over its nodes, an interface chunk on the axes holding every
coordinate of its nodes' windows.  Interface fits differ per node (side
mask and base point), so they are made node by node, sharing the weights
of a node and one Vandermonde per lattice and basis scale across the chunk.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import MlsError
from .indexsets import lambda_full
from .jets import Jet2
from .mls import (
    MlsProblem,
    distinct_values,
    mls_operator,
    mls_operators,
    sampling_recipe,
)
from .stencil_boundary import BoundaryFrame


def _sample(field, x, y) -> np.ndarray:
    """Values of ``field`` at (x, y), broadcast to the shape of x and y.

    A field callable may return a scalar or any shape that broadcasts
    against its arguments (a one-variable expression on a tensor lattice
    keeps its own axis).  The result is C-contiguous, copied only when the
    callable returned a smaller shape, so the matrix products that read it
    take the same BLAS path whatever the callable returned.
    """
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    return np.ascontiguousarray(
        np.broadcast_to(np.asarray(field(x, y), dtype=float), shape))


def regular_jets(a_field, f_field, nodes: np.ndarray, origin, h: float):
    """Interior jets of a row family: a-jet of order 6 and f derivatives on
    Lambda_5, one row per node of the (N, 2) integer grid indices ``nodes``.

    Node (i, j) sits at ``origin + (i, j) * h``, so the ``"regular-interior"``
    lattices of all nodes are windows of one lattice of spacing h/4.  Each
    field is evaluated once, through ``_sample``, on the two axes of that
    lattice over the family's bounding box; each node's window is gathered
    by integer index, and each MLS product runs once for the whole family.
    """
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1, 2)
    rec = sampling_recipe("regular-interior", h)
    [(op_a, op_f)] = mls_operators(
        rec.problem(6), [(6, lambda_full(6)), (5, lambda_full(5))])
    # lattice indices (in steps of h/4) of each node's first window point
    first = [round(axis[0] / rec.step) for axis in rec.axes]
    window = [len(axis) for axis in rec.axes]
    start = round(h / rec.step) * nodes + first
    box = start.min(axis=0)
    ax, ay = (origin[d] + np.arange(box[d], start[:, d].max() + window[d])
              * rec.step for d in (0, 1))

    def windows(field):
        values = _sample(field, ax[:, None], ay[None, :])
        return sliding_window_view(values, window)[tuple((start - box).T)] \
            .reshape(len(nodes), -1)

    a_der = windows(a_field) @ op_a.T
    f_der = windows(f_field) @ op_f.T
    jet = Jet2.from_derivatives(
        {mn: a_der[:, i] for i, mn in enumerate(lambda_full(6))}, 6)
    return jet, f_der


def edge_jets(a_field, f_field, alpha_field, g_field, anchors: np.ndarray,
              frame: BoundaryFrame, h: float):
    """Batched canonical-frame jets for a Robin side.

    Returns (a-jet order 5, alpha derivatives (B, 6), f derivatives (B, 15),
    g1 derivatives (B, 6)).  ``alpha_field`` and ``g_field`` take physical
    (x, y) points on the side.  Every lattice is evaluated through
    ``_sample``: the side lines pass the fixed coordinate as a (B, 1) column,
    and whatever shape the callables return is broadcast to (B, 17).
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    rec = sampling_recipe("edge-boundary", h)
    [(op_a, op_f)] = mls_operators(
        rec.problem(5), [(5, lambda_full(5)), (4, lambda_full(4))])
    xh, yh = rec.samples[:, 0], rec.samples[:, 1]
    px, py = frame.point((anchors[:, 0:1], anchors[:, 1:2]), xh[None, :], yh[None, :])
    a_der = _sample(a_field, px, py) @ op_a.T
    f_der = _sample(f_field, px, py) @ op_f.T
    jet = Jet2.from_derivatives(
        {mn: a_der[:, i] for i, mn in enumerate(lambda_full(5))}, 5)

    line = sampling_recipe("edge-line", h)
    op1 = mls_operator(line.problem(5), list(range(6)))
    lx, ly = frame.line((anchors[:, 0:1], anchors[:, 1:2]),
                        line.samples[None, :])
    alpha_der = _sample(alpha_field, lx, ly) @ op1.T
    g_der = _sample(g_field, lx, ly) @ op1.T
    return jet, alpha_der, f_der, g_der


def irregular_jets(a_plus, a_minus, f_plus, f_minus, psi, anchors, bases,
                   h: float):
    """One-sided jets at the interface base points of a chunk of nodes.

    Node k samples the ``"irregular-interface"`` lattice around its grid
    node ``anchors[k]`` (17x17 at spacing h/8, half-width h), splits it by
    the sign of psi (points on the curve go minus), and fits each side
    separately with the basis centered on the node and derivatives taken at
    its base point ``bases[k]``.  On coarse grids one side can clip the
    standard lattice in a thin sliver: with fewer than 30 samples on a side,
    or a rank-deficient fit, the node tries the recipe's widened lattice
    (33x33, half-width 2h), which stays within the enlarged-box contract of
    the field callables.  The side with fewer samples is fitted first, so a
    failing sliver costs no fit of the other side.

    The fields are sampled once for the whole chunk.  Its lattice axes are
    the distinct values, bit for bit, of every node's widened-window
    coordinates ``anchor + offset``, so each sample keeps the coordinates it
    would have on its node's own window.  psi, a+, a-, f+ and f- are each
    called once, through ``_sample``, on the (nx, 1) column and the (1, ny)
    row of those axes; every node gathers its windows by index, and a
    one-sided field's values on the other side are dropped by the mask.  The
    fits of a node share its weights, and the fits of the chunk share one
    Vandermonde per lattice and basis scale (``mls_operators``).

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

    axes, index = [], []
    for d in (0, 1):
        coords, inverse = distinct_values(
            (anchors[:, d, None] + recipes[1].axes[d]).ravel())
        axes.append(coords)
        index.append(inverse.reshape(n, -1))
    psi_v, ap_v, am_v, fp_v, fm_v = (
        _sample(field, axes[0][:, None], axes[1][None, :])
        for field in (psi, a_plus, a_minus, f_plus, f_minus))
    values = {"+": (ap_v, fp_v), "-": (am_v, fm_v)}
    fits = ((4, lambda_full(4)), (3, lambda_full(3)))
    vandermondes = ({}, {})        # per lattice: full-window E per scale

    a_der = {sd: np.empty((n, len(fits[0][1]))) for sd in "+-"}
    f_der = {sd: np.empty((n, len(fits[1][1]))) for sd in "+-"}
    widened = np.zeros(n, dtype=bool)
    for k in range(n):
        last_exc = None
        for wide in (False, True):
            window = windows[wide]
            at = (index[0][k, window][:, None], index[1][k, window][None, :])
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

    Every lattice is evaluated through ``_sample``, so a callable may return
    a scalar (constant Robin data) on the 17-point side lines.
    """
    anchor = np.asarray(anchor, dtype=float)
    rec = sampling_recipe("corner-boundary", h)
    [(op_a, op_f)] = mls_operators(
        rec.problem(5), [(5, lambda_full(5)), (4, lambda_full(4))])
    px, py = frame.point(anchor, rec.samples[:, 0], rec.samples[:, 1])
    a_der = _sample(a_field, px, py) @ op_a.T
    f_der = _sample(f_field, px, py) @ op_f.T
    jet = Jet2.from_derivatives(
        {mn: a_der[i] for i, mn in enumerate(lambda_full(5))}, 5)

    line = sampling_recipe("corner-line", h)
    op1 = mls_operator(line.problem(5), list(range(6)))
    ts = line.samples
    ax, ay = frame.line(anchor, ts)
    alpha_der = op1 @ _sample(alpha_field, ax, ay)
    g1_der = op1 @ _sample(g1_field, ax, ay)
    bx, by = frame.line2(anchor, ts)
    beta_der = op1 @ _sample(beta_field, bx, by)
    g3_der = op1 @ _sample(g3_field, bx, by)
    return jet, alpha_der, f_der, g1_der, beta_der, g3_der
