"""Interface geometry: grid classification, base points, local curve charts.

The interface is the zero set of a level function psi; the closed side
(psi <= 0) is the minus region.  A grid node is regular when its 3x3
neighborhood lies on a single side and irregular otherwise; irregular nodes
also own the four distance-2 offsets of the 13-point stencil.  Every
irregular node gets a base point: the closest point of an h/16 discretization
of the curve inside the open 3x3 box, together with a local parametrization
(the problem's own angle chart, or a graph over the dominant coordinate for
level-set curves) oriented so the left normal (s', -r') points into the plus
region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

IRREGULAR_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
                     (1, -1), (1, 0), (1, 1), (-2, 0), (2, 0), (0, -2), (0, 2))

LABEL_REGULAR_PLUS = 0
LABEL_REGULAR_MINUS = 1
LABEL_IRREGULAR = 2
LABEL_BOUNDARY = 3


@dataclass
class GridClassification:
    labels: np.ndarray          # (N1+1, N2+1) int8
    psi: np.ndarray             # psi at the grid nodes


def classify_grid(xs: np.ndarray, ys: np.ndarray, psi_fn) -> GridClassification:
    """Label every node of the tensor grid xs x ys.

    Boundary nodes take the boundary label regardless of the interface;
    interior nodes are regular (plus/minus per the side holding all nine
    stencil points, with points exactly on the curve counting as minus) or
    irregular.
    """
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    psi = np.asarray(psi_fn(gx, gy), dtype=float)
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

    ``ts`` are the eleven parameter offsets (t* = 0 in the middle), already
    oriented so that (s'(0), -r'(0)) points into the plus region.
    """

    kind: str                  # "angle" | "graph-x" | "graph-y"
    ts: np.ndarray             # (11,)
    xs: np.ndarray             # curve x(t)
    ys: np.ndarray             # curve y(t)
    g_vals: np.ndarray         # jump [u] samples
    gg_vals: np.ndarray        # flux jump [a grad u . n] samples
    exact_x_line: bool = False  # xs is exactly linear in t (graph-x chart)
    exact_y_line: bool = False


@dataclass
class BasePoint:
    base: tuple                # (x*, y*) on Gamma
    v0: float                  # x* = x_i - v0 h
    w0: float
    aux: object                # chart seed (theta* or preferred axis)


def _bisect(f, lo, hi, iters: int = 60):
    """Vectorized bisection; assumes a sign change on [lo, hi]."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        towards_hi = flo * fm > 0
        lo = np.where(towards_hi, mid, lo)
        flo = np.where(towards_hi, fm, flo)
        hi = np.where(towards_hi, hi, mid)
    return 0.5 * (lo + hi)


def _select_base(cands: np.ndarray, point, h: float) -> BasePoint:
    """Closest candidate inside the open unit box around the grid node.

    Tangency can leave the box empty (the curve touching the node's 3x3
    square only at a corner); the closest candidate overall is used then,
    still within sqrt(2) h of the node.
    """
    if cands.size == 0:
        raise GeometryError(f"no interface sample near irregular node {point}")
    v = (point[0] - cands[:, 0]) / h
    w = (point[1] - cands[:, 1]) / h
    box = np.maximum(np.abs(v), np.abs(w))
    inside = box < 1.0 - 1e-9
    if inside.any():
        cands, v, w = cands[inside], v[inside], w[inside]
        d2 = (cands[:, 0] - point[0]) ** 2 + (cands[:, 1] - point[1]) ** 2
        k = int(np.argmin(d2))
    else:
        # tangency sliver: stay as close to the expansion box as possible,
        # since base points far outside it degenerate the recursive solves
        d2 = (cands[:, 0] - point[0]) ** 2 + (cands[:, 1] - point[1]) ** 2
        k = int(np.lexsort((d2, np.round(box / 1e-9)))[0])
    if np.sqrt(d2[k]) > np.sqrt(2.0) * h * (1 + 1.0 / 8.0):
        raise GeometryError(
            f"closest interface sample to {point} lies beyond sqrt(2) h")
    return BasePoint(base=(float(cands[k, 0]), float(cands[k, 1])),
                     v0=float(v[k]), w0=float(w[k]),
                     aux=k)


class LevelSetInterface:
    """Interface given by psi(x, y) = 0; jump data as point functions."""

    def __init__(self, psi, jump_g=None, jump_ggamma=None):
        self.psi = psi
        self.jump_g = jump_g
        self.jump_ggamma = jump_ggamma

    def locate_base(self, point, h: float) -> BasePoint:
        """Curve points from 1D root solves along coordinate lines at h/16."""
        step = h / 16.0
        offs = np.arange(-16, 17) * step
        scan = np.arange(-24, 25) * step
        pts = []
        # lines of constant x, scanning y
        fx = point[0] + offs
        sy = point[1] + scan
        vals = np.asarray(self.psi(fx[:, None], sy[None, :]), dtype=float)
        pts.append(self._roots_on_lines(fx, sy, vals, axis=0))
        # lines of constant y, scanning x
        fy = point[1] + offs
        sx = point[0] + scan
        vals = np.asarray(self.psi(sx[None, :], fy[:, None]), dtype=float)
        pts.append(self._roots_on_lines(fy, sx, vals, axis=1))
        cands = np.vstack([p for p in pts if len(p)]) if any(len(p) for p in pts) \
            else np.empty((0, 2))
        return _select_base(cands, point, h)

    def _roots_on_lines(self, fixed, scan, vals, axis) -> np.ndarray:
        sign_change = vals[:, :-1] * vals[:, 1:] <= 0.0
        li, si = np.nonzero(sign_change)
        if len(li) == 0:
            return np.empty((0, 2))
        lo, hi = scan[si], scan[si + 1]
        fix = fixed[li]
        if axis == 0:
            f = lambda y: self.psi(fix, y)
        else:
            f = lambda x: self.psi(x, fix)
        roots = _bisect(f, lo, hi)
        return np.column_stack([fix, roots] if axis == 0 else [roots, fix])

    def chart(self, bp: BasePoint, h: float, kind: str | None = None) -> LocalChart:
        x0, y0 = bp.base
        eps = h / 64.0
        gx = (self.psi(x0 + eps, y0) - self.psi(x0 - eps, y0)) / (2 * eps)
        gy = (self.psi(x0, y0 + eps) - self.psi(x0, y0 - eps)) / (2 * eps)
        if kind is None:
            kind = "graph-x" if abs(gy) >= abs(gx) else "graph-y"
        ts = np.arange(-5, 6) * (h / 16.0)
        if kind == "graph-x":
            xs = x0 + ts
            ys = self._trace(xs, y0, h, along="y")
        elif kind == "graph-y":
            ys = y0 + ts
            xs = self._trace(ys, x0, h, along="x")
        else:
            raise ValueError(f"level-set interface cannot build chart {kind!r}")
        xs, ys = self._orient(xs, ys, kind == "graph-x")
        g_vals = np.asarray(self.jump_g(xs, ys), dtype=float) * np.ones(len(ts))
        gg_vals = np.asarray(self.jump_ggamma(xs, ys), dtype=float) * np.ones(len(ts))
        return LocalChart(kind=kind, ts=ts, xs=xs, ys=ys,
                          g_vals=g_vals, gg_vals=gg_vals,
                          exact_x_line=(kind == "graph-x"),
                          exact_y_line=(kind == "graph-y"))

    def _trace(self, abscissae, start, h, along):
        """Solve psi = 0 along each line, taking the root nearest the last.

        Brackets are picked from one vectorized window scan (walking outwards
        from the center to follow the branch through multiple crossings) and
        refined with a single vectorized bisection.
        """
        n = len(abscissae)
        window = start + np.arange(-24, 25) * (h / 32.0)
        if along == "y":
            vals = np.asarray(self.psi(abscissae[:, None], window[None, :]))
        else:
            vals = np.asarray(self.psi(window[None, :], abscissae[:, None]))
        sign_change = vals[:, :-1] * vals[:, 1:] <= 0.0

        lo = np.empty(n)
        hi = np.empty(n)
        center = n // 2
        seq = [center]
        for d in range(1, center + 1):
            seq += [center - d, center + d]
        near = np.full(n, start)
        for idx in seq:
            sc = np.nonzero(sign_change[idx])[0]
            if len(sc) == 0:
                raise GeometryError("lost the interface while building a chart")
            mid = 0.5 * (window[sc] + window[sc + 1])
            pick = sc[int(np.argmin(np.abs(mid - near[idx])))]
            lo[idx], hi[idx] = window[pick], window[pick + 1]
            root_guess = 0.5 * (lo[idx] + hi[idx])
            for j in (idx - 1, idx + 1):
                if 0 <= j < n and j not in seq[: seq.index(idx) + 1]:
                    near[j] = root_guess
        if along == "y":
            f = lambda y: self.psi(abscissae, y)
        else:
            f = lambda x: self.psi(x, abscissae)
        return _bisect(f, lo, hi)

    def _orient(self, xs, ys, graph_x: bool):
        c = len(xs) // 2
        tx, ty = xs[c + 1] - xs[c - 1], ys[c + 1] - ys[c - 1]
        nx, ny = ty, -tx
        eps = 0.25
        x0, y0 = xs[c], ys[c]
        d = np.hypot(nx, ny)
        probe = (self.psi(x0 + eps * nx / d, y0 + eps * ny / d)
                 - self.psi(x0 - eps * nx / d, y0 - eps * ny / d))
        if probe < 0:
            return xs[::-1].copy(), ys[::-1].copy()
        return xs, ys


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

    def locate_base(self, point, h: float) -> BasePoint:
        # candidates from the slightly closed box: corner-clipping curves can
        # keep every curve point at box distance >= h from the node
        thetas, xs, ys = self._sweep(h)
        reach = h * (1.0 + 1.0 / 8.0)
        near = (np.abs(xs - point[0]) <= reach) & (np.abs(ys - point[1]) <= reach)
        cands = np.column_stack([xs[near], ys[near]])
        bp = _select_base(cands, point, h)
        bp.aux = float(thetas[np.nonzero(near)[0][bp.aux]])
        return bp

    def chart(self, bp: BasePoint, h: float, kind: str = "angle") -> LocalChart:
        if kind != "angle":
            raise ValueError("parametric interfaces build angle charts")
        theta0 = bp.aux
        ts = np.arange(-5, 6) * (h / 16.0)
        for flip in (1.0, -1.0):
            th = theta0 + flip * ts
            xs = np.asarray(self.r(th), dtype=float)
            ys = np.asarray(self.s(th), dtype=float)
            c = 5
            tx, ty = xs[c + 1] - xs[c - 1], ys[c + 1] - ys[c - 1]
            nx, ny = ty, -tx
            d = np.hypot(nx, ny)
            eps = h / 16.0
            x0, y0 = xs[c], ys[c]
            probe = (self.psi(x0 + eps * nx / d, y0 + eps * ny / d)
                     - self.psi(x0 - eps * nx / d, y0 - eps * ny / d))
            if probe > 0:
                g_vals = np.asarray(self.jump_g(th), dtype=float) * np.ones(11)
                gg_vals = np.asarray(self.jump_ggamma(th), dtype=float) * np.ones(11)
                return LocalChart(kind="angle", ts=ts, xs=xs, ys=ys,
                                  g_vals=g_vals, gg_vals=gg_vals)
        raise GeometryError("could not orient the angle chart")
