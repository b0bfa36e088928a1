"""Interface geometry: grid classification, base points, local curve charts.

The interface is the zero set of a level function psi; the closed side
(psi <= 0) is the minus region.  A grid node is regular when its 3x3
neighborhood lies on a single side and irregular otherwise; irregular nodes
also own the four distance-2 offsets of the 13-point stencil.  Every
irregular node gets a base point: the closest point of an h/16 discretization
of the curve inside the open 3x3 box, together with a local parametrization
(the problem's own angle chart, or a graph over the dominant coordinate for
level-set curves) oriented so the left normal (s', -r') points into the plus
region, by one probe of psi h/16 to either side of the chart's middle: a
chart whose probe is negative has its samples reversed.  An angle chart
starts from the sweep angle of its base point, so it is centered on it; one
whose center lies more than ``CENTER_TOL`` h away raises ``GeometryError``.
Its curve and jump data are evaluated once, on theta* + t; the reversed
samples are those of theta* - t, bit for bit.

Base points and charts are built for a batch of nodes at once (one chunk of
interface rows): ``locate_base(points, h)`` returns one ``BasePoint`` per
node and ``chart(bases, h)`` one ``LocalChart`` per base point.  On the
grid-anchored lattices (the grid, and a batch's base-point scans) psi is
evaluated once, through ``mls.lattice_values``.  For a level set, every
node still finds the root brackets of its own lines, but base points and
charts share one root solve (``LevelSetInterface._solve``): the brackets of
the whole batch go through one bisection per line direction, so each
bisection step calls psi once for the batch, and the roots come back split
per node.  Bisection is elementwise, so a node's result does not depend on
the batch it came in.  The pointwise probes (the gradient that picks the
chart kind, the orientation test) stay calls on scalars: scalar and array
evaluations of psi can differ in the last bit, which could flip a chart
kind in a tie.  A ``GeometryError`` raised for
one node of a batch carries the node's position in ``index``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, per_node
from .mls import lattice_values, sampling_recipe

IRREGULAR_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
                     (1, -1), (1, 0), (1, 1), (-2, 0), (2, 0), (0, -2), (0, 2))

LABEL_REGULAR_PLUS = 0
LABEL_REGULAR_MINUS = 1
LABEL_IRREGULAR = 2
LABEL_BOUNDARY = 3

_GRAPH_ALONG = {"graph-x": "y", "graph-y": "x"}   # chart kind -> root line
# how far an angle chart's center may lie from its base point, in units of h
CENTER_TOL = 1e-9


@dataclass
class GridClassification:
    labels: np.ndarray          # (N1+1, N2+1) int8
    psi: np.ndarray             # psi at the grid nodes


def classify_grid(xs: np.ndarray, ys: np.ndarray, psi_fn) -> GridClassification:
    """Label every node of the tensor grid xs x ys.

    Boundary nodes take the boundary label regardless of the interface;
    interior nodes are regular (plus/minus per the side holding all nine
    stencil points, with points exactly on the curve counting as minus) or
    irregular.  psi is evaluated once, on the grid (``lattice_values``).
    """
    (psi,) = lattice_values((psi_fn,), xs[:, None], ys[None, :])
    n1, n2 = psi.shape
    pos = psi > 0.0

    any_pos = np.zeros((n1, n2), dtype=bool)
    any_neg = np.zeros((n1, n2), dtype=bool)
    interior = np.s_[1:-1, 1:-1]
    for k in (-1, 0, 1):
        for ell in (-1, 0, 1):
            sl = pos[1 + k: n1 - 1 + k, 1 + ell: n2 - 1 + ell]
            any_pos[interior] |= sl
            any_neg[interior] |= ~sl

    labels = np.full((n1, n2), LABEL_BOUNDARY, dtype=np.int8)
    lab_int = np.where(any_pos[interior] & any_neg[interior], LABEL_IRREGULAR,
                       np.where(any_pos[interior], LABEL_REGULAR_PLUS,
                                LABEL_REGULAR_MINUS))
    labels[interior] = lab_int
    return GridClassification(labels=labels, psi=psi)


@dataclass
class LocalChart:
    """Samples of a local parametrization t -> Gamma and the jump data on it.

    The samples sit at the eleven parameter offsets of the ``"curve"``
    sampling recipe (t* = 0 in the middle), oriented so that
    (s'(0), -r'(0)) points into the plus region.
    """

    kind: str                  # "angle" | "graph-x" | "graph-y"
    xs: np.ndarray             # curve x(t)
    ys: np.ndarray             # curve y(t)
    g_vals: np.ndarray         # jump [u] samples
    gg_vals: np.ndarray        # flux jump [a grad u . n] samples


@dataclass
class BasePoint:
    base: tuple                # (x*, y*) on Gamma
    v0: float                  # x* = x_i - v0 h
    w0: float
    aux: object                # parametric: theta*, its angle chart's center;
                               # level set: candidate index, no chart reads it


def _bisect(f, lo, hi):
    """Vectorized bisection; assumes a sign change on [lo, hi].

    Stops early at its fixed point: once a step changes none of lo, hi and
    f(lo), bit for bit, every later step would repeat it, so the roots are
    the same as after all 60 steps.  NaN compares unequal, so a NaN
    keeps the loop going to the end.
    """
    state = np.array(np.broadcast_arrays(lo, hi, f(lo)), dtype=float)
    for _ in range(60):
        lo, hi, flo = state
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        step = np.where(flo * fm > 0, (mid, hi, fm), (lo, mid, flo))
        if np.array_equal(step, state) and np.array_equal(
                step.view(np.int64), state.view(np.int64)):
            break
        state = step
    lo, hi, _ = state
    return 0.5 * (lo + hi)


def _line_brackets(fixed, scan, vals):
    """(fixed, lo, hi) of every sign change of ``vals``, whose rows are the
    lines through ``fixed`` sampled at ``scan``."""
    li, si = np.nonzero(vals[:, :-1] * vals[:, 1:] <= 0.0)
    return fixed[li], scan[si], scan[si + 1]


def _select_base(cands: np.ndarray, point, h: float) -> BasePoint:
    """Closest candidate inside the open unit box around the grid node.

    Tangency can leave the box empty (the curve touching the node's 3x3
    square only at a corner); the closest candidate overall is used then,
    still within sqrt(2) h of the node.  ``aux`` is the chosen candidate's
    index in ``cands``.
    """
    if cands.size == 0:
        raise GeometryError(f"no interface sample near irregular node {point}")
    v = (point[0] - cands[:, 0]) / h
    w = (point[1] - cands[:, 1]) / h
    box = np.maximum(np.abs(v), np.abs(w))
    inside = box < 1.0 - 1e-9
    d2 = (cands[:, 0] - point[0]) ** 2 + (cands[:, 1] - point[1]) ** 2
    if inside.any():
        idx = np.flatnonzero(inside)
        k = int(idx[np.argmin(d2[idx])])
    else:
        # tangency sliver: stay as close to the expansion box as possible,
        # since base points far outside it degenerate the recursive solves
        k = int(np.lexsort((d2, np.round(box / 1e-9)))[0])
    if np.sqrt(d2[k]) > np.sqrt(2.0) * h * (1 + 1.0 / 8.0):
        raise GeometryError(
            f"closest interface sample to {point} lies beyond sqrt(2) h")
    return BasePoint(base=(float(cands[k, 0]), float(cands[k, 1])),
                     v0=float(v[k]), w0=float(w[k]),
                     aux=k)


def _plus_probe(psi, xs, ys, h: float):
    """psi h/16 ahead of a chart's middle sample along its left normal
    (s', -r') minus psi h/16 behind it: positive when that normal points
    into the plus region.  The probe scales with h, so it stays between
    neighbouring branches of a resolved curve."""
    c = len(xs) // 2
    tx, ty = xs[c + 1] - xs[c - 1], ys[c + 1] - ys[c - 1]
    nx, ny = ty, -tx
    d = np.hypot(nx, ny)
    eps = h / 16.0
    x0, y0 = xs[c], ys[c]
    return (psi(x0 + eps * nx / d, y0 + eps * ny / d)
            - psi(x0 - eps * nx / d, y0 - eps * ny / d))


class LevelSetInterface:
    """Interface given by psi(x, y) = 0; jump data as point functions."""

    def __init__(self, psi, jump_g=None, jump_ggamma=None):
        self.psi = psi
        self.jump_g = jump_g
        self.jump_ggamma = jump_ggamma

    def locate_base(self, points, h: float) -> list:
        """One base point per node of ``points``.

        The candidates are curve points from 1D root solves along the
        coordinate lines at h/16 through each node's box, the middle 33 rows
        and columns of its 49x49 scan lattice, on which psi is evaluated once
        for the batch.  Every node finds the brackets of its own lines; the
        brackets of all nodes are then refined together, one bisection per
        line direction.
        """
        scan = np.arange(-24, 25) * (h / 16.0)
        lines = slice(8, -8)             # the 33 line offsets among the scan
        at = np.asarray(points, dtype=float).reshape(-1, 2)[:, :, None] + scan
        (vals,) = lattice_values((self.psi,), at[:, 0, :, None],
                                 at[:, 1, None, :])
        brackets = ([], [])
        for (sx, sy), box in zip(at, vals):
            # lines of constant x scanning y, and of constant y scanning x
            brackets[0].append(_line_brackets(sx[lines], sy, box[lines]))
            brackets[1].append(_line_brackets(sy[lines], sx, box[:, lines].T))
        found_at = []
        for along, parts in zip("yx", brackets):
            roots = self._solve(parts, along)
            found_at.append([
                np.column_stack([f, r] if along == "y" else [r, f])
                for (f, _, _), r in zip(parts, roots)])
        return per_node(
            zip(points, *found_at),
            lambda item: _select_base(np.vstack(item[1:]), item[0], h))

    def _solve(self, parts, along):
        """Roots of psi on each node's lines x = fixed (``along="y"``) or
        y = fixed, bracketed by [lo, hi], from its ``(fixed, lo, hi)`` in
        ``parts``: one bisection for the lines of all nodes, whose roots
        come back split per node."""
        if not parts:
            return []
        fixed, lo, hi = (np.concatenate(col) for col in zip(*parts))
        if len(fixed) == 0:
            roots = np.empty(0)
        elif along == "y":
            roots = _bisect(lambda y: self.psi(fixed, y), lo, hi)
        else:
            roots = _bisect(lambda x: self.psi(x, fixed), lo, hi)
        ends = np.cumsum([len(part[0]) for part in parts])[:-1]
        return np.split(roots, ends)

    def chart(self, bases, h: float) -> list:
        """One graph chart per base point of ``bases``.

        Each chart is a graph over the coordinate along which psi varies
        least at its base point.  The eleven curve points of every chart
        are bracketed line by line and then bisected together, one
        bisection per graph direction.
        """
        ts = sampling_recipe("curve", h).samples
        eps = h / 64.0

        def bracket(bp):
            """Chart kind, abscissae and root brackets of one chart."""
            x0, y0 = bp.base
            gx = (self.psi(x0 + eps, y0) - self.psi(x0 - eps, y0)) / (2 * eps)
            gy = (self.psi(x0, y0 + eps) - self.psi(x0, y0 - eps)) / (2 * eps)
            kd = "graph-x" if abs(gy) >= abs(gx) else "graph-y"
            absc, start = (x0 + ts, y0) if kd == "graph-x" else (y0 + ts, x0)
            return (kd, absc) + self._brackets(absc, start, h, _GRAPH_ALONG[kd])

        lines = per_node(bases, bracket)
        roots = [None] * len(lines)
        for kd, along in _GRAPH_ALONG.items():
            sel = [k for k, line in enumerate(lines) if line[0] == kd]
            for k, r in zip(sel, self._solve([lines[k][1:] for k in sel],
                                             along)):
                roots[k] = r

        charts = []
        ones = np.ones(len(ts))
        for (kd, absc, _, _), r in zip(lines, roots):
            xs, ys = (absc, r) if kd == "graph-x" else (r, absc)
            if _plus_probe(self.psi, xs, ys, h) < 0:
                xs, ys = xs[::-1].copy(), ys[::-1].copy()
            charts.append(LocalChart(
                kind=kd, xs=xs, ys=ys,
                g_vals=np.asarray(self.jump_g(xs, ys), dtype=float) * ones,
                gg_vals=np.asarray(self.jump_ggamma(xs, ys), dtype=float) * ones))
        return charts

    def _brackets(self, abscissae, start, h, along):
        """Root brackets of psi along each line, taking the root nearest the
        last.

        Brackets are picked from one vectorized window scan, in two walks
        outwards from the middle line, to follow the branch through multiple
        crossings: each line takes the crossing nearest the root of the line
        before it (the middle one, the one nearest ``start``).
        """
        n = len(abscissae)
        window = start + np.arange(-24, 25) * (h / 32.0)
        if along == "y":
            vals = self.psi(abscissae[:, None], window[None, :])
        else:
            vals = self.psi(window[None, :], abscissae[:, None])
        # a psi that ignores one coordinate returns a row or a column
        vals = np.broadcast_to(vals, (n, len(window)))
        sign_change = vals[:, :-1] * vals[:, 1:] <= 0.0

        lo, hi = np.empty((2, n))
        for walk in (range(n // 2, -1, -1), range(n // 2, n)):
            near = start
            for idx in walk:
                sc = np.nonzero(sign_change[idx])[0]
                if len(sc) == 0:
                    raise GeometryError(
                        "lost the interface while building a chart")
                mid = 0.5 * (window[sc] + window[sc + 1])
                pick = sc[int(np.argmin(np.abs(mid - near)))]
                lo[idx], hi[idx] = window[pick], window[pick + 1]
                near = 0.5 * (lo[idx] + hi[idx])
        return lo, hi


class ParametricInterface:
    """Closed curve (r(theta), s(theta)); jump data as functions of theta."""

    def __init__(self, r, s, psi, jump_g=None, jump_ggamma=None,
                 period=2 * np.pi):
        self.r = r
        self.s = s
        self.psi = psi
        self.jump_g = jump_g
        self.jump_ggamma = jump_ggamma
        self.period = period
        self._sweep_cache: dict = {}

    def _sweep(self, h: float):
        key = round(np.log2(h), 9)
        if key not in self._sweep_cache:
            coarse = np.linspace(0.0, self.period, 4097)
            cx = np.asarray(self.r(coarse), dtype=float)
            cy = np.asarray(self.s(coarse), dtype=float)
            seg = np.hypot(np.diff(cx), np.diff(cy))
            length = float(seg.sum())
            n = max(4096, int(np.ceil(length / (h / 16.0))))
            thetas = np.linspace(0.0, self.period, n, endpoint=False)
            xs = np.asarray(self.r(thetas), dtype=float)
            ys = np.asarray(self.s(thetas), dtype=float)
            self._sweep_cache[key] = (thetas, xs, ys)
        return self._sweep_cache[key]

    def locate_base(self, points, h: float) -> list:
        """One base point per node of ``points``, from the cached sweep."""
        thetas, xs, ys = self._sweep(h)
        # candidates from the slightly closed box: corner-clipping curves can
        # keep every curve point at box distance >= h from the node
        reach = h * (1.0 + 1.0 / 8.0)

        def one(point):
            near = ((np.abs(xs - point[0]) <= reach)
                    & (np.abs(ys - point[1]) <= reach))
            cands = np.column_stack([xs[near], ys[near]])
            bp = _select_base(cands, point, h)
            bp.aux = float(thetas[np.nonzero(near)[0][bp.aux]])
            return bp
        return per_node(points, one)

    def chart(self, bases, h: float) -> list:
        """One angle chart per base point of ``bases``."""
        return per_node(bases, lambda bp: self._angle_chart(bp, h))

    def _angle_chart(self, bp: BasePoint, h: float) -> LocalChart:
        """The chart t -> (r, s)(theta* + t), centered on the base point,
        its samples reversed (theta* - t) when the probe is negative."""
        th = bp.aux + sampling_recipe("curve", h).samples
        xs, ys = (np.asarray(fn(th), dtype=float) for fn in (self.r, self.s))
        c = 5
        off = np.hypot(xs[c] - bp.base[0], ys[c] - bp.base[1])
        if not off <= CENTER_TOL * h:
            node = (bp.base[0] + bp.v0 * h, bp.base[1] + bp.w0 * h)
            raise GeometryError(
                f"angle chart of irregular node ({node[0]:.6g}, "
                f"{node[1]:.6g}) is centered {off / h:.3g} h from its "
                "base point")
        probe = _plus_probe(self.psi, xs, ys, h)
        if not (probe > 0 or probe < 0):
            raise GeometryError("could not orient the angle chart")
        g_vals, gg_vals = (np.asarray(fn(th), dtype=float) * np.ones(11)
                           for fn in (self.jump_g, self.jump_ggamma))
        if probe < 0:
            xs, ys, g_vals, gg_vals = (v[::-1].copy()
                                       for v in (xs, ys, g_vals, gg_vals))
        return LocalChart(kind="angle", xs=xs, ys=ys,
                          g_vals=g_vals, gg_vals=gg_vals)
