"""Interface geometry, transmission tables, and the 13-point stencil."""

import importlib.util
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import hybridfdm.assembly as assembly
from hybridfdm.errors import StencilError
from hybridfdm.fieldjets import irregular_jets
from hybridfdm.geometry import (
    IRREGULAR_OFFSETS,
    LABEL_IRREGULAR,
    LABEL_REGULAR_MINUS,
    LABEL_REGULAR_PLUS,
    LevelSetInterface,
    ParametricInterface,
    classify_grid,
)
from hybridfdm.indexsets import lambda_full
from hybridfdm.jets import (
    Jet2,
    monomial_series_table,
    poly2_compose_series,
    poly_dx,
    poly_dy,
    poly_eval,
    series_deriv,
    series_mul,
)
from hybridfdm.problems import builtin, load_config
from hybridfdm.reduction import build_reduction_table, dense_tables, gh_blocks
from hybridfdm.stencil_core import RESID_TOL, expand_poly_in_h, stencil_values
from hybridfdm.stencil_irregular import (
    CENTER13,
    GROWTH_CAP,
    KAPPA_CRIT,
    LEAD13,
    assemble_irregular_system,
    irregular_rhs_value,
    irregular_rhs_weights,
    solve_irregular_stencil,
)
from hybridfdm.transmission import (
    BAND5,
    M_IRR,
    CurveJet,
    COL_UP,
    FMINUS,
    FPLUS,
    UPLUS,
    InterfaceLocalModel,
    _flux_series,
    build_transmission,
    curve_jet_from_chart,
)

from manufactured import pde_source, random_poly
from test_jets_reduction import (
    constant_jet,
    deriv_at,
    poly_jet,
    random_a_jets,
    same_bits,
)
from test_stencil_regular import system_rows


def circle_psi(x, y):
    return np.asarray(x) ** 2 + np.asarray(y) ** 2 - 1.0


class TestClassification:
    def test_circle_counts_match_bruteforce(self):
        n = 16
        xs = np.linspace(-2, 2, n + 1)
        ys = np.linspace(-2, 2, n + 1)
        cls = classify_grid(xs, ys, circle_psi)
        # brute force
        for i in range(1, n):
            for j in range(1, n):
                signs = [circle_psi(xs[i + k], ys[j + l]) > 0
                         for k in (-1, 0, 1) for l in (-1, 0, 1)]
                if any(signs) and not all(signs):
                    expect = LABEL_IRREGULAR
                elif all(signs):
                    expect = LABEL_REGULAR_PLUS
                else:
                    expect = LABEL_REGULAR_MINUS
                assert cls.labels[i, j] == expect
        assert (cls.labels == LABEL_IRREGULAR).sum() > 0

    def test_no_interface_all_regular(self):
        xs = np.linspace(0, 1, 9)
        cls = classify_grid(xs, xs, lambda x, y: np.ones_like(np.asarray(x)))
        assert not (cls.labels == LABEL_IRREGULAR).any()

    def test_points_on_curve_belong_to_minus(self):
        # psi <= 0 on the whole 3x3 block -> regular minus even with zeros
        xs = np.linspace(-1, 1, 9)
        cls = classify_grid(xs, xs, lambda x, y: -np.abs(np.asarray(x)) * 0.0)
        assert (cls.labels[1:-1, 1:-1] == LABEL_REGULAR_MINUS).all()


class TestProjection:
    def test_circle_levelset_projection(self):
        h = 0.125
        iface = LevelSetInterface(circle_psi, jump_g=lambda x, y: 0.0 * x,
                                  jump_ggamma=lambda x, y: 0.0 * x)
        (bp,) = iface.locate_base([(12 * h / 16 + 1.0 - 12 * h / 16 + 0.3 * h, 0.0)], h)
        (bp,) = iface.locate_base([(1.0 + 0.3 * h, 0.0)], h)
        assert bp.base[0] == pytest.approx(1.0, abs=h / 16)
        assert bp.base[1] == pytest.approx(0.0, abs=h / 16)
        assert bp.v0 == pytest.approx(0.3, abs=0.08)
        assert abs(bp.w0) <= 0.07

    def test_point_on_curve_projects_to_itself(self):
        h = 0.125
        iface = LevelSetInterface(circle_psi, jump_g=lambda x, y: 0.0 * x,
                                  jump_ggamma=lambda x, y: 0.0 * x)
        (bp,) = iface.locate_base([(1.0, 0.0)], h)
        assert bp.v0 == pytest.approx(0.0, abs=1e-9)
        assert bp.w0 == pytest.approx(0.0, abs=1e-9)

    def test_ellipse_parametric_projection_matches_sweep(self):
        h = 0.125
        iface = ParametricInterface(
            r=np.cos, s=lambda t: 0.5 * np.sin(t),
            psi=lambda x, y: np.asarray(x) ** 2 + 4.0 * np.asarray(y) ** 2 - 1.0,
            jump_g=lambda t: 0.0 * t, jump_ggamma=lambda t: 0.0 * t)
        pt = (0.875, 0.25)
        (bp,) = iface.locate_base([pt], h)
        dense = np.linspace(0, 2 * np.pi, 400001)
        dd = (np.cos(dense) - pt[0]) ** 2 + (0.5 * np.sin(dense) - pt[1]) ** 2
        best = dense[np.argmin(dd)]
        foot = (np.cos(best), 0.5 * np.sin(best))
        assert np.hypot(bp.base[0] - foot[0], bp.base[1] - foot[1]) <= h / 16


class TestCharts:
    def test_levelset_chart_points_lie_on_curve(self):
        h = 0.125
        iface = LevelSetInterface(circle_psi, jump_g=lambda x, y: 0.0 * x,
                                  jump_ggamma=lambda x, y: 0.0 * x)
        (bp,) = iface.locate_base([(0.6, 0.82)], h)
        (chart,) = iface.chart([bp], h)
        assert np.max(np.abs(circle_psi(chart.xs, chart.ys))) <= 1e-12
        # orientation: left normal points to psi > 0
        c = 5
        tx, ty = chart.xs[c + 1] - chart.xs[c - 1], chart.ys[c + 1] - chart.ys[c - 1]
        probe = circle_psi(chart.xs[c] + 0.01 * ty, chart.ys[c] - 0.01 * tx)
        assert probe > circle_psi(chart.xs[c], chart.ys[c])

    def test_angle_chart_orientation(self):
        h = 0.125
        iface = ParametricInterface(
            r=np.cos, s=np.sin, psi=circle_psi,
            jump_g=lambda t: np.cos(t), jump_ggamma=lambda t: 0.0 * t)
        (bp,) = iface.locate_base([(0.95, 0.2)], h)
        (chart,) = iface.chart([bp], h)
        c = 5
        tx, ty = chart.xs[c + 1] - chart.xs[c - 1], chart.ys[c + 1] - chart.ys[c - 1]
        nx, ny = ty, -tx
        # outward normal of the unit circle ~ radial direction
        assert nx * chart.xs[c] + ny * chart.ys[c] > 0


def assert_same_geometry(batch, single):
    """Base points or charts equal field by field, bit for bit."""
    assert len(batch) == len(single)
    for got, want in zip(batch, single):
        assert vars(got).keys() == vars(want).keys()
        for key, value in vars(want).items():
            assert np.array_equal(getattr(got, key), value), key


class TestBatchedGeometry:
    """A chunk of nodes gives the same base points and charts as the nodes
    one at a time."""

    def nodes(self, problem, J):
        from hybridfdm.assembly import _grid

        xs, ys, h = _grid(problem, J)
        cls = classify_grid(xs, ys, problem.psi)
        ii, jj = np.nonzero(cls.labels == LABEL_IRREGULAR)
        return [(float(xs[a]), float(ys[b])) for a, b in zip(ii, jj)], h

    def check(self, iface, points, h):
        bases = iface.locate_base(points, h)
        assert_same_geometry(
            bases, [iface.locate_base([p], h)[0] for p in points])
        charts = iface.chart(bases, h)
        assert_same_geometry(charts, [iface.chart([bp], h)[0] for bp in bases])
        return charts

    def test_ex31_level_set(self):
        from hybridfdm.problems import builtin

        problem = builtin("ex31")
        points, h = self.nodes(problem, 5)
        charts = self.check(problem.interface, points, h)
        # both graph directions go through the batched bisection
        assert {c.kind for c in charts} == {"graph-x", "graph-y"}

    def test_parametric_ellipse(self):
        iface = ParametricInterface(
            r=lambda t: 1.2 * np.cos(t), s=lambda t: 0.7 * np.sin(t),
            psi=lambda x, y: (np.asarray(x) / 1.2) ** 2
            + (np.asarray(y) / 0.7) ** 2 - 1.0,
            jump_g=np.cos, jump_ggamma=np.sin)
        xs = np.linspace(-2.0, 2.0, 33)
        h = xs[1] - xs[0]
        cls = classify_grid(xs, xs, iface.psi)
        ii, jj = np.nonzero(cls.labels == LABEL_IRREGULAR)
        points = [(float(xs[a]), float(xs[b])) for a, b in zip(ii, jj)]
        charts = self.check(iface, points, h)
        assert len(charts) > 20
        assert {c.kind for c in charts} == {"angle"}


def bisect_full(f, lo, hi, iters=60):
    """The bisection loop run for all its steps, with no early stop."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        towards_hi = flo * fm > 0
        lo = np.where(towards_hi, mid, lo)
        flo = np.where(towards_hi, fm, flo)
        hi = np.where(towards_hi, hi, mid)
    return 0.5 * (lo + hi)


class TestBisection:
    def test_roots_match_the_full_loop_bit_for_bit(self):
        """Stopping at the fixed point gives the 60-step roots, in fewer
        calls of psi."""
        from hybridfdm.geometry import _bisect

        calls = []

        def psi(y):
            calls.append(None)
            return (0.3 + np.sin(2.0 * y)) * (1.0 + y) - 0.7 * y**3

        lo = np.linspace(-0.9, 0.3, 41)
        hi = lo + 0.25
        keep = psi(lo) * psi(hi) <= 0.0
        lo, hi = lo[keep], hi[keep]
        calls.clear()
        got = _bisect(psi, lo, hi)
        assert len(lo) > 0 and len(calls) < 61
        assert same_bits(got, bisect_full(psi, lo, hi))

    def test_nan_keeps_the_full_loop(self):
        """A NaN f(lo) never compares equal, so the loop runs all 60 steps,
        though hi reaches lo long before."""
        from hybridfdm.geometry import _bisect

        calls = []

        def psi(x):
            calls.append(None)
            return np.where(x > 0.9, np.nan, x - 0.5)

        lo, hi = np.array([0.0, 0.95]), np.array([1.0, 1.0])
        got = _bisect(psi, lo, hi)
        assert len(calls) == 61
        assert same_bits(got, bisect_full(psi, lo, hi))

    def test_ex31_base_points_and_charts_unchanged(self, monkeypatch):
        import hybridfdm.geometry as geometry
        from hybridfdm.problems import builtin

        problem = builtin("ex31")
        points, h = TestBatchedGeometry().nodes(problem, 5)
        iface = problem.interface
        got = iface.locate_base(points, h)
        got_charts = iface.chart(got, h)
        monkeypatch.setattr(geometry, "_bisect", bisect_full)
        want = iface.locate_base(points, h)
        for batch, single in ((got, want),
                              (got_charts, iface.chart(want, h))):
            for a, b in zip(batch, single):
                for key, value in vars(b).items():
                    if isinstance(value, str):
                        assert getattr(a, key) == value
                    else:
                        assert same_bits(getattr(a, key), value), key


def exact_circle_curvejet(theta0, radius=1.0, u_plus=None, u_minus=None,
                          a_plus=None, a_minus=None):
    """CurveJet with analytically exact circle and jump derivatives."""
    base = (radius * np.cos(theta0), radius * np.sin(theta0))
    r = np.array([radius * np.cos(theta0), -radius * np.sin(theta0),
                  -radius * np.cos(theta0), radius * np.sin(theta0),
                  radius * np.cos(theta0), -radius * np.sin(theta0)])
    s = np.array([radius * np.sin(theta0), radius * np.cos(theta0),
                  -radius * np.sin(theta0), -radius * np.cos(theta0),
                  radius * np.sin(theta0), radius * np.cos(theta0)])
    fact = np.array([1, 1, 2, 6, 24, 120], dtype=float)
    rt = (r / fact).copy()
    st = (s / fact).copy()
    rt[0] = st[0] = 0.0
    g = np.zeros(6)
    gg = np.zeros(5)
    if u_plus is not None:
        up = poly_jet(u_plus, 7, base).c
        um = poly_jet(u_minus, 7, base).c
        apc = poly_jet(a_plus, 6, base).c
        amc = poly_jet(a_minus, 6, base).c
        g = poly2_compose_series(up - um, rt, st, 6)
        sp = np.array([st[p + 1] * (p + 1) for p in range(5)])
        rp = np.array([rt[p + 1] * (p + 1) for p in range(5)])

        def flux(u, a):
            px = poly2_compose_series(poly_dx(u), rt, st, 5)
            py = poly2_compose_series(poly_dy(u), rt, st, 5)
            av = poly2_compose_series(a, rt, st, 5)
            return series_mul(series_mul(px, sp, 5) - series_mul(py, rp, 5), av, 5)

        gg = flux(up, apc) - flux(um, amc)
    return CurveJet(v0=0.0, w0=0.0, r=r, s=s, g=g, gg=gg)


def one_node(jet):
    """A single jet as a chunk of one, the way build_transmission takes it."""
    return Jet2(jet.c[None], jet.order)


def transported(model, mp, np_, m, n):
    """The table entry that carries u+^(m,n) into u-^(m',n')."""
    return model.table[COL_UP[(mp, np_)], COL_UP[(m, n)]]


class TestTransmission:
    def test_vertical_line_closed_form(self):
        """On x = 0 with plus side x > 0: T_{1,0,1,0} = a+/a-, T_{0,1,0,1} = 1."""
        curve = CurveJet(v0=0.0, w0=0.0, r=np.zeros(6),
                         s=np.array([0.0, 1, 0, 0, 0, 0]),
                         g=np.zeros(6), gg=np.zeros(5))
        ap, am = 3.0, 7.0
        (model,) = build_transmission([curve], one_node(constant_jet(ap, 4)),
                                      one_node(constant_jet(am, 4)))
        assert transported(model, 1, 0, 1, 0) == pytest.approx(ap / am)
        assert transported(model, 0, 1, 0, 1) == pytest.approx(1.0)
        assert transported(model, 0, 1, 1, 0) == pytest.approx(0.0, abs=1e-14)

    def test_t0000_pattern(self):
        curve = exact_circle_curvejet(0.3)
        rng = np.random.default_rng(0)
        a = random_poly(rng, 3, scale=0.1)
        a[0, 0] = 2.0
        jet = one_node(poly_jet(a, 4, (curve.r[0], curve.s[0])))
        (model,) = build_transmission([curve], jet, jet)
        assert transported(model, 0, 0, 0, 0) == 1.0
        for mn in BAND5:
            if mn != (0, 0):
                assert transported(model, *mn, 0, 0) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_piecewise_polynomial_exactness(self, seed):
        """The table reconstructs u- band derivatives for compliant pairs."""
        rng = np.random.default_rng(seed)
        theta0 = rng.uniform(0, 2 * np.pi)
        u_p, u_m = random_poly(rng, 5), random_poly(rng, 5)
        a_p = random_poly(rng, 3, scale=0.15)
        a_p[0, 0] = 1.8
        a_m = random_poly(rng, 3, scale=0.15)
        a_m[0, 0] = 0.9
        f_p, f_m = pde_source(a_p, u_p), pde_source(a_m, u_m)
        curve = exact_circle_curvejet(theta0, 1.0, u_p, u_m, a_p, a_m)
        base = (curve.r[0], curve.s[0])
        (model,) = build_transmission([curve], one_node(poly_jet(a_p, 4, base)),
                                      one_node(poly_jet(a_m, 4, base)))
        symbols = np.zeros(model.table.shape[1])
        from hybridfdm.transmission import COL_G, COL_GG

        for mn in BAND5:
            symbols[COL_UP[mn]] = deriv_at(u_p, *mn, *base)
        symbols[FPLUS] = [deriv_at(f_p, *mn, *base) for mn in lambda_full(3)]
        symbols[FMINUS] = [deriv_at(f_m, *mn, *base) for mn in lambda_full(3)]
        for p in range(6):
            symbols[COL_G[p]] = curve.g[p]
        for p in range(5):
            symbols[COL_GG[p]] = curve.gg[p]
        got = model.table @ symbols
        for i, mn in enumerate(BAND5):
            want = deriv_at(u_m, *mn, *base)
            assert got[i] == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_smooth_solution_identity(self):
        """a and u smooth across the curve: the table acts as the identity."""
        rng = np.random.default_rng(7)
        u = random_poly(rng, 5)
        a = random_poly(rng, 3, scale=0.1)
        a[0, 0] = 1.4
        curve = exact_circle_curvejet(1.1, 1.0, u, u, a, a)
        assert np.allclose(curve.g, 0.0, atol=1e-13)
        assert np.allclose(curve.gg, 0.0, atol=1e-13)
        jet = one_node(poly_jet(a, 4, (curve.r[0], curve.s[0])))
        (model,) = build_transmission([curve], jet, jet)
        ub = model.table[:, UPLUS]
        assert np.allclose(ub, np.eye(len(BAND5)), atol=1e-9)
        fsum = model.table[:, FPLUS] + model.table[:, FMINUS]
        assert np.allclose(fsum, 0.0, atol=1e-9)

    def test_chunk_matches_single_nodes_bit_for_bit(self):
        """A chunk of B nodes gives exactly the models of B chunks of one."""
        rng = np.random.default_rng(11)
        curves, jps, jms = [], [], []
        for theta in (0.2, 1.3, 2.9, 4.4, 5.8):
            a_p = random_poly(rng, 3, scale=0.15)
            a_p[0, 0] = 1.8
            a_m = random_poly(rng, 3, scale=0.15)
            a_m[0, 0] = 0.7
            u_p, u_m = random_poly(rng, 5), random_poly(rng, 5)
            curve = exact_circle_curvejet(theta, 1.0, u_p, u_m, a_p, a_m)
            curves.append(curve)
            jps.append(poly_jet(a_p, 4, (curve.r[0], curve.s[0])))
            jms.append(poly_jet(a_m, 4, (curve.r[0], curve.s[0])))
        chunk = build_transmission(curves,
                                   Jet2(np.stack([j.c for j in jps]), 4),
                                   Jet2(np.stack([j.c for j in jms]), 4))
        assert len(chunk) == len(curves)
        for curve, jp, jm, got in zip(curves, jps, jms, chunk):
            (want,) = build_transmission([curve], one_node(jp), one_node(jm))
            assert got.curve is curve
            assert np.array_equal(got.table, want.table)
            for name in ("g_plus", "g_minus", "h_plus", "h_minus"):
                block, ref = getattr(got, name), getattr(want, name)
                assert block.shape == ref.shape
                assert np.array_equal(block, ref)

    def test_determinant_failure_names_the_chunk_entry(self):
        """One broken node in a chunk of three: the error points at it."""
        curves = [exact_circle_curvejet(t) for t in (0.3, 1.2, 2.1)]
        curves[1].s[1] = np.nan
        jet = Jet2(np.stack([constant_jet(2.0, 4).c] * 3), 4)
        with pytest.raises(StencilError, match="determinant") as info:
            build_transmission(curves, jet, jet)
        assert info.value.index == 1


def per_polynomial_flux(c, a_poly, r_t, s_t, nterms, mono):
    """Flux series of one polynomial, grad(P)(r, s) . (s', -r') a(r, s)."""
    px = poly2_compose_series(poly_dx(c), r_t, s_t, nterms, mono)
    py = poly2_compose_series(poly_dy(c), r_t, s_t, nterms, mono)
    flux = (series_mul(px, series_deriv(s_t), nterms)
            - series_mul(py, series_deriv(r_t), nterms))
    return series_mul(flux, poly2_compose_series(a_poly, r_t, s_t, nterms,
                                                 mono), nterms)


class TestBlockSeries:
    def test_block_calls_match_per_polynomial_calls_bit_for_bit(self):
        """One composition and one flux call per G or H block of a side give
        the bits of one call per polynomial, on a random 7-node chunk."""
        rng = np.random.default_rng(31)
        jp, jm = random_a_jets(32, 7, order=4), random_a_jets(33, 7, order=4)
        stacked = Jet2(np.stack([jp.c, jm.c]), 4)
        blocks = [dense_tables(b) for b in
                  gh_blocks(build_reduction_table(stacked, M_IRR))]
        r_t, s_t = rng.uniform(-1, 1, (2, 7, 6))
        r_t[:, 0] = s_t[:, 0] = 0.0
        mono = monomial_series_table(r_t, s_t, M_IRR + 1, 6)
        for side, a_jet in enumerate((jp, jm)):
            a_poly = a_jet.c
            for block in (b[:, side] for b in blocks):
                series = poly2_compose_series(block, r_t, s_t, 6, mono)
                flux = _flux_series(block, a_poly, r_t, s_t, 5, mono[..., :5])
                assert series.shape == flux.shape[:-1] + (6,) \
                    == (len(block), 7, 6)
                for k, c in enumerate(block):
                    assert same_bits(series[k], poly2_compose_series(
                        c, r_t, s_t, 6, mono))
                    assert same_bits(flux[k], per_polynomial_flux(
                        c, a_poly, r_t, s_t, 5, mono[..., :5]))


def make_circle_problem(rng):
    """Piecewise polynomial data with exact jumps across the unit circle."""
    u_p, u_m = random_poly(rng, 5), random_poly(rng, 5)
    a_p = random_poly(rng, 3, scale=0.1)
    a_p[0, 0] = 2.0
    a_m = random_poly(rng, 3, scale=0.1)
    a_m[0, 0] = 1.0
    f_p, f_m = pde_source(a_p, u_p), pde_source(a_m, u_m)

    def jump_g_pt(x, y):
        return poly_eval(u_p, x, y) - poly_eval(u_m, x, y)

    def jump_gg_pt(x, y):
        r = np.hypot(x, y)
        nx, ny = x / r, y / r
        fp = poly_eval(a_p, x, y) * (poly_eval(poly_dx(u_p), x, y) * nx
                                     + poly_eval(poly_dy(u_p), x, y) * ny)
        fm = poly_eval(a_m, x, y) * (poly_eval(poly_dx(u_m), x, y) * nx
                                     + poly_eval(poly_dy(u_m), x, y) * ny)
        return fp - fm

    return u_p, u_m, a_p, a_m, f_p, f_m, jump_g_pt, jump_gg_pt


def build_point_stencil(iface, a_p, a_m, f_p, f_m, point, h, chart_kind=None):
    (bp,) = iface.locate_base([point], h)
    (chart,) = iface.chart([bp], h) if chart_kind is None else \
        iface.chart([bp], h, chart_kind)
    curve = curve_jet_from_chart(chart, bp.v0, bp.w0, h)
    jp, jm, fpd, fmd, _ = irregular_jets(
        *(partial(poly_eval, c) for c in (a_p, a_m, f_p, f_m)),
        iface.psi, [point], [bp.base], h)
    (model,) = build_transmission([curve], jp, jm)
    psi_vals = iface.psi(point[0] + h * np.array([o[0] for o in IRREGULAR_OFFSETS]),
                         point[1] + h * np.array([o[1] for o in IRREGULAR_OFFSETS]))
    minus_mask = np.asarray(psi_vals) <= 0.0
    (system,) = assemble_irregular_system([model], [minus_mask])
    coeffs = solve_irregular_stencil(system, h)
    return coeffs, system, curve, fpd[0], fmd[0]


class TestIrregularStencil:
    def setup_method(self):
        rng = np.random.default_rng(3)
        (self.u_p, self.u_m, self.a_p, self.a_m, self.f_p, self.f_m,
         self.g_pt, self.gg_pt) = make_circle_problem(rng)
        self.iface = LevelSetInterface(circle_psi, jump_g=self.g_pt,
                                       jump_ggamma=self.gg_pt)

    def residual(self, point, h, chart_kind=None):
        coeffs, system, curve, fpd, fmd = build_point_stencil(
            self.iface, self.a_p, self.a_m, self.f_p, self.f_m, point, h,
            chart_kind)
        ch = stencil_values(coeffs, h)
        lhs = 0.0
        for i, (k, l) in enumerate(IRREGULAR_OFFSETS):
            x, y = point[0] + k * h, point[1] + l * h
            u = self.u_m if circle_psi(x, y) <= 0 else self.u_p
            lhs += ch[i] * poly_eval(u, x, y)
        w = irregular_rhs_weights(coeffs, system, h)
        rhs = irregular_rhs_value(w, fpd, fmd, curve)
        return lhs / h - rhs

    def test_row1_all_ones_and_sums_vanish(self):
        h = 0.125
        point = (1.0 + 0.3 * h, 0.0)
        coeffs, system, *_ = build_point_stencil(
            self.iface, self.a_p, self.a_m, self.f_p, self.f_m, point, h)
        assert np.allclose(system_rows(system, 5, 5, 5), 1.0)
        assert np.allclose(coeffs.sum(axis=0), 0.0, atol=1e-9)
        assert coeffs[CENTER13, 0] == 1.0

    def test_fifth_order_consistency(self):
        hs = [2.0**-k for k in range(3, 7)]
        errs = []
        for h in hs:
            point = (1.0 + 0.3 * h, 0.25 * h)
            errs.append(abs(self.residual(point, h)))
        slope = np.polyfit(np.log2(hs), np.log2(errs), 1)[0]
        assert slope >= 4.8

    def test_chart_independence(self):
        """Same base point, graph chart vs angle chart: same stencil."""
        h = 0.0625
        point = (0.64, 0.78)
        (bp,) = self.iface.locate_base([point], h)
        para = ParametricInterface(r=np.cos, s=np.sin, psi=circle_psi,
                                   jump_g=lambda t: self.g_pt(np.cos(t), np.sin(t)),
                                   jump_ggamma=lambda t: self.gg_pt(np.cos(t),
                                                                    np.sin(t)))
        charts = self.iface.chart([bp], h)
        from hybridfdm.geometry import BasePoint

        bp2 = BasePoint(base=bp.base, v0=bp.v0, w0=bp.w0,
                        aux=float(np.arctan2(bp.base[1], bp.base[0])))
        charts += para.chart([bp2], h)
        assert charts[0].kind != charts[1].kind

        jp, jm, *_ = irregular_jets(
            *(partial(poly_eval, c)
              for c in (self.a_p, self.a_m, self.f_p, self.f_m)),
            self.iface.psi, [point], [bp.base], h)
        psi_vals = circle_psi(
            point[0] + h * np.array([o[0] for o in IRREGULAR_OFFSETS]),
            point[1] + h * np.array([o[1] for o in IRREGULAR_OFFSETS]))
        minus_mask = psi_vals <= 0.0
        values = []
        for chart in charts:
            curve = curve_jet_from_chart(chart, bp.v0, bp.w0, h)
            (model,) = build_transmission([curve], jp, jm)
            (system,) = assemble_irregular_system([model], [minus_mask])
            values.append(stencil_values(solve_irregular_stencil(system, h),
                                         h))
        scale = np.max(np.abs(values[0]))
        assert np.allclose(values[0], values[1], atol=1e-8 * scale)

    def test_harmonic_exactness_decay(self):
        """a = 1 both sides, zero jumps, harmonic u: residual O(h^5)."""
        one = np.array([[1.0]])
        u = np.zeros((5, 5))
        u[2, 0], u[0, 2] = 1.0, -1.0    # x^2 - y^2
        u[1, 1] = 0.5
        iface = LevelSetInterface(circle_psi,
                                  jump_g=lambda x, y: 0.0 * np.asarray(x),
                                  jump_ggamma=lambda x, y: 0.0 * np.asarray(x))
        errs = []
        hs = [2.0**-k for k in range(3, 6)]
        zero = np.array([[0.0]])
        for h in hs:
            point = (1.0 + 0.4 * h, 0.2 * h)
            coeffs, system, curve, fpd, fmd = build_point_stencil(
                iface, one, one, zero, zero, point, h)
            ch = stencil_values(coeffs, h)
            lhs = sum(ch[i] * poly_eval(u, point[0] + k * h, point[1] + l * h)
                      for i, (k, l) in enumerate(IRREGULAR_OFFSETS))
            w = irregular_rhs_weights(coeffs, system, h)
            rhs = irregular_rhs_value(w, fpd, fmd, curve)
            errs.append(abs(lhs / h - rhs) + 1e-18)
        slope = np.polyfit(np.log2(hs), np.log2(errs), 1)[0]
        assert slope >= 4.5 or max(errs) < 1e-11


def generic_damped_solution(A, b, penalty):
    """The damped solve of ``generic_recursion``."""
    x = np.linalg.lstsq(A, b, rcond=1e-11)[0]
    if penalty is not None:
        from scipy.linalg import null_space

        N = null_space(A, rcond=1e-11)
        if N.size:
            t = np.linalg.lstsq(penalty @ N, -penalty @ x, rcond=1e-10)[0]
            x = x + N @ t
    return x


def generic_recursion(expansions, lead, T, normalize_col, zero_degrees=(),
                      h=None, penalty=None, max_degree=None):
    """One knob-driven recursion that runs both 13-point paths, as the
    interface solve did before each path got its own code."""
    R, O, _ = expansions.shape
    coeffs = np.zeros((O, T + 1))
    worst = 0.0
    for d in range(T + 1):
        if max_degree is not None and d > max_degree:
            break
        rows_d = [r for r in range(R) if lead[r] + d <= T]
        A = np.stack([expansions[r, :, lead[r]] for r in rows_d])
        b = np.zeros(len(rows_d))
        for i, r in enumerate(rows_d):
            for s in range(d):
                b[i] -= coeffs[:, s] @ expansions[r, :, lead[r] + d - s]
        if d in zero_degrees:
            worst = max(worst, float(np.abs(b).max(initial=0.0)))
            continue
        if d == 0:
            keep = [o for o in range(O) if o != normalize_col]
            pen = None if penalty is None else penalty[:, keep]
            x = np.zeros(O)
            x[normalize_col] = 1.0
            x[keep] = generic_damped_solution(A[:, keep], -A[:, normalize_col],
                                              pen)
        else:
            x = generic_damped_solution(A, b, penalty)
            if h is not None:
                lead_scale = max(float(np.abs(coeffs[:, 0]).max()), 1e-300)
                if float(np.abs(x).max()) * h**d > GROWTH_CAP * lead_scale:
                    break
        coeffs[:, d] = x
        scale = max(1.0, float(np.abs(b).max(initial=0.0)))
        worst = max(worst, float(np.abs(A @ x - b).max(initial=0.0)) / scale)
    if worst > RESID_TOL:
        raise StencilError(
            f"stencil recursion residual {worst:.3e} exceeds {RESID_TOL}")
    return coeffs


def generic_solve(system, h):
    """(coefficients, path) of a 13-point row through ``generic_recursion``,
    called its two ways: the full recursion, or degree 0 alone with the
    minus-side penalty where the curve is under-resolved."""
    curve = system.model.curve
    speed2 = curve.r[1] ** 2 + curve.s[1] ** 2
    kappa = abs(curve.r[1] * curve.s[2] - curve.r[2] * curve.s[1]) \
        / speed2**1.5
    if kappa * h > KAPPA_CRIT:
        vw = system.offsets
        gvals = poly_eval(system.model.g_minus, vw[:, 0] * h, vw[:, 1] * h)
        penalty = np.where(system.minus_mask[None, :], gvals, 0.0)
        return generic_recursion(system.expansions, LEAD13, 5, CENTER13,
                                 penalty=penalty, max_degree=0), "fallback"
    return generic_recursion(system.expansions, LEAD13, 5, CENTER13,
                             zero_degrees=(5,), h=h), "full"


@pytest.fixture(scope="module")
def star_systems():
    """(system, h) of every interface node of ex32 and ex34 at J=4, where
    both 13-point paths run and some rows of each fail."""
    nodes = []
    for name in ("ex32", "ex34"):
        found = []

        def record(system, fp, fm, wide, found=found):
            found.append(system)
            return np.zeros((len(IRREGULAR_OFFSETS), 6)), 0.0, False
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assembly, "_irregular_row", record)
            h = assembly.assemble(builtin(name), 4).h
        nodes += [(system, h) for system in found]
    return nodes


class TestBothPaths:
    def test_rows_and_failures_match_the_generic_recursion(self, star_systems):
        """Each 13-point path gives the rows, bit for bit, and the failures,
        word for word, of the generic recursion it replaces."""
        paths = {"full": 0, "fallback": 0, "failed": 0}
        for system, h in star_systems:
            try:
                want, path = generic_solve(system, h)
            except StencilError as exc:
                with pytest.raises(StencilError) as got:
                    solve_irregular_stencil(system, h)
                assert str(got.value) == str(exc)
                paths["failed"] += 1
                continue
            assert same_bits(solve_irregular_stencil(system, h), want)
            paths[path] += 1
        assert paths == {"full": 157, "fallback": 47, "failed": 14}


def expand_one(c, offsets, nterms):
    """Expansion of (..., k, k) tables at one node's (O, 2) offsets: the
    per-node body ``expand_poly_in_h`` had before it took a chunk."""
    k = c.shape[-1]
    mon = np.empty((len(offsets), k, k))
    for o, (vx, vy) in enumerate(offsets):
        mon[o] = np.outer(vx ** np.arange(k), vy ** np.arange(k))
    out = np.zeros(c.shape[:-2] + (len(offsets), nterms))
    mm, nn = np.indices((k, k))
    for t in range(min(nterms, 2 * k - 1)):
        out[..., t] = np.einsum("...pq,opq->...o",
                                np.where((mm + nn) == t, c, 0.0), mon)
    return out


def system_one(model, mask):
    """Expansions and offsets of one node's 13-point system, built node by
    node as ``assemble_irregular_system`` did before it took a chunk."""
    curve = model.curve
    vw = np.array([(curve.v0 + k, curve.w0 + ell)
                   for (k, ell) in IRREGULAR_OFFSETS])
    phi_minus = np.einsum("ij,ipq->jpq", model.table[:, UPLUS], model.g_minus)
    exp = np.where(mask[None, :, None], expand_one(phi_minus, vw, 6),
                   expand_one(model.g_plus, vw, 6))
    return exp, vw


def generated_interface_config(seed):
    """Config text of the benchmark's generated interface problem."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workload.py"
    spec = importlib.util.spec_from_file_location("workload", path)
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    return workload.generate(seed, "levelset")[0]


@pytest.fixture(scope="module")
def real_chunks(tmp_path_factory):
    """(models, minus masks) of every interface chunk that assembly builds
    for ex31 and for the generated interface problem of seed 1, at J=5."""
    path = tmp_path_factory.mktemp("generated") / "iface1.ini"
    path.write_text(generated_interface_config(1))
    chunks = {}
    for name, problem in (("ex31", builtin("ex31")),
                          ("generated-1", load_config(str(path)))):
        seen = chunks.setdefault(name, [])
        real = assembly.assemble_irregular_system

        def record(models, minus_masks, seen=seen, real=real):
            seen.append((models, np.asarray(minus_masks)))
            return real(models, minus_masks)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assembly, "assemble_irregular_system", record)
            assembly.assemble(problem, 5)
    return chunks


def random_models(rng, B):
    """B interface models laid out as ``build_transmission`` lays out a
    chunk: each G/H table a view of one (n, side, B, 6, 6) block."""
    g_all = rng.normal(size=(len(BAND5), 2, B, 6, 6)) \
        * 10.0 ** rng.uniform(-3, 3, (len(BAND5), 2, B, 1, 1))
    h_all = rng.normal(size=(10, 2, B, 6, 6))
    rows = rng.normal(size=(B, len(BAND5), 42))
    models = []
    for b in range(B):
        v0, w0 = rng.uniform(-1.0, 1.0, 2)
        curve = CurveJet(v0=float(v0), w0=float(w0), r=np.zeros(6),
                         s=np.zeros(6), g=np.zeros(6), gg=np.zeros(5))
        models.append(InterfaceLocalModel(
            curve=curve, table=rows[b],
            g_plus=g_all[:, 0, b], g_minus=g_all[:, 1, b],
            h_plus=h_all[:, 0, b], h_minus=h_all[:, 1, b]))
    return models


class TestBatchedIrregularSystem:
    """The chunk-wide expansion and degree systems equal the per-node
    computation they replace, bit for bit."""

    def check_chunk(self, models, masks):
        systems = assemble_irregular_system(models, masks)
        assert len(systems) == len(models)
        for system, model, mask in zip(systems, models, masks):
            exp, vw = system_one(model, mask)
            assert system.model is model
            assert np.array_equal(system.minus_mask, mask)
            assert same_bits(system.offsets, vw)
            assert same_bits(system.expansions, exp)
        # the plus side alone, through the expansion itself
        vw = np.stack([system.offsets for system in systems])
        got = expand_poly_in_h(np.stack([m.g_plus for m in models]), vw, 6)
        for g, model, offsets in zip(got, models, vw):
            assert same_bits(g, expand_one(model.g_plus, offsets, 6))

    @pytest.mark.parametrize("name", ["ex31", "generated-1"])
    def test_real_chunks(self, real_chunks, name):
        chunks = real_chunks[name]
        assert sum(len(models) for models, _ in chunks) > 64
        for models, masks in chunks:
            self.check_chunk(models, masks)

    @pytest.mark.parametrize("B", [1, 64])
    def test_random_chunks(self, B):
        rng = np.random.default_rng(B)
        masks = rng.uniform(size=(B, len(IRREGULAR_OFFSETS))) < 0.4
        self.check_chunk(random_models(rng, B), masks)

    @pytest.mark.parametrize("B", [1, 64])
    def test_shared_offsets_match_the_per_node_body(self, B):
        """Offsets without a batch axis serve every table of the batch."""
        rng = np.random.default_rng(100 + B)
        c = rng.normal(size=(B, 11, 6, 6))
        offsets = rng.uniform(-1.0, 1.0, 2) + np.asarray(IRREGULAR_OFFSETS)
        assert same_bits(expand_poly_in_h(c, offsets, 6),
                         expand_one(c, offsets, 6))
