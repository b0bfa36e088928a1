"""Edge and corner boundary stencils."""

from math import comb

import numpy as np
import pytest

from hybridfdm.fieldjets import corner_jets, edge_jets
from hybridfdm.indexsets import lambda_band, lambda_full
from hybridfdm.jets import Jet2, poly_dx, poly_eval
from hybridfdm.reduction import (
    build_reduction_table,
    dense_tables,
    gh_blocks,
    transpose_blocks,
)
from hybridfdm.stencil_boundary import (
    CORNER_FRAMES,
    CORNER_OFFSETS,
    EDGE_OFFSETS,
    F_INDICES_B,
    SIDE_FRAMES,
    build_corner_reduction,
    map_by_reflection,
    robin_basis,
    solve_corner_stencil,
    solve_edge_stencil,
    _corner_solvers,
    _edge_solvers,
)
from hybridfdm.stencil_core import (
    check_sign_sum,
    expand_at_offsets,
    stencil_values,
)

from manufactured import pde_source, random_poly
from test_jets_reduction import constant_jet, deriv_at, poly_jet
from test_stencil_regular import reference_weights

A0_GAMMA1 = np.array(
    [
        [1, 1, 1, 1, 1, 1],
        [-1, 0, 1, -1, 0, 1],
        [1 / 2, 0, 1 / 2, 0, -1 / 2, 0],
        [-1 / 6, 0, 1 / 6, 1 / 3, 0, -1 / 3],
        [1 / 24, 0, 1 / 24, -1 / 6, 1 / 24, -1 / 6],
        [-1 / 120, 0, 1 / 120, 1 / 30, 0, -1 / 30],
        [1 / 720, 0, 1 / 720, 0, -1 / 720, 0],
    ]
)

A0_CORNER1 = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [0, 1, 0, 1, 0, 0, 0, 0],
        [0, 1 / 2, -1 / 2, 0, 0, 1 / 2, -1 / 2, 0],
        [0, 1 / 6, 0, -1 / 3, 0, 0, 0, 0],
        [0, 1 / 24, 1 / 24, -1 / 6, 0, 1 / 24, 1 / 24, -1 / 6],
        [0, 1 / 120, 0, -1 / 30, 0, 0, 0, 0],
        [0, 1 / 720, -1 / 720, 0, 0, 1 / 720, -1 / 720, 0],
    ]
)

ZERO_ALPHA = np.zeros(6)
# entries of the boundary data vector [f over Lambda_4, g1, g3]
F_SLOT, G1_SLOT, G3_SLOT = slice(0, 15), slice(15, 21), slice(21, 27)


def edge_basis(jet, alpha):
    """The (7, ..., 7, 7) block of E_n of an edge stencil."""
    return robin_basis(gh_blocks(build_reduction_table(jet, 6))[0], alpha)


class TestEdgeStructure:
    def test_leading_expansions_match_a0(self):
        """Runtime A_0 of generic data still equals the constant matrix."""
        rng = np.random.default_rng(2)
        a = random_poly(rng, 3, scale=0.2)
        a[0, 0] = 2.0
        jet = poly_jet(a, 5, (0.0, 0.0))
        alpha = rng.uniform(-0.5, 0.5, size=6)
        exp = expand_at_offsets(edge_basis(jet, alpha), EDGE_OFFSETS)
        lead = np.array([exp[n, :, n] for n in range(7)])
        assert np.allclose(lead, A0_GAMMA1, atol=1e-12)

    def test_e0_row_is_all_ones(self):
        e = edge_basis(constant_jet(1.0, 5), ZERO_ALPHA)
        assert np.allclose([poly_eval(dense_tables(e[0]), k, l)
                            for k, l in EDGE_OFFSETS], 1.0)

    def test_e2_degree2_part(self):
        e = edge_basis(constant_jet(1.0, 5), ZERO_ALPHA)
        part = expand_at_offsets(e, EDGE_OFFSETS)[2, :, 2]
        assert np.allclose(part, [1 / 2, 0, 1 / 2, 0, -1 / 2, 0], atol=1e-14)

    def test_neumann_constant_stencil(self):
        st = solve_edge_stencil(constant_jet(1.0, 5), ZERO_ALPHA)
        assert np.allclose(st.coeffs[:, 0], [-2, 10, -2, -1, -4, -1], atol=1e-13)
        assert np.allclose(st.coeffs[:, 1:], 0.0, atol=1e-13)
        assert check_sign_sum(st.coeffs, st.offsets.index((0, 0))).passed

    def test_degree1_sum_is_6alpha(self):
        rng = np.random.default_rng(5)
        for alpha0 in (0.7, 2.3):
            alpha = np.concatenate([[alpha0], rng.uniform(-1, 1, 5)])
            a = random_poly(rng, 3, scale=0.2)
            a[0, 0] = 1.5
            st = solve_edge_stencil(poly_jet(a, 5, (0.0, 0.0)), alpha)
            assert st.coeffs[:, 1].sum() == pytest.approx(6 * alpha0, abs=1e-11)
            assert check_sign_sum(st.coeffs, st.offsets.index((0, 0)), tol=1e-10).passed
            assert check_sign_sum(st.coeffs, st.offsets.index((0, 0))).passed

    def test_pure_neumann_sums_vanish(self):
        rng = np.random.default_rng(15)
        a = random_poly(rng, 3, scale=0.2)
        a[0, 0] = 1.5
        st = solve_edge_stencil(poly_jet(a, 5, (0.0, 0.0)), ZERO_ALPHA)
        assert np.allclose(st.coeffs.sum(axis=0), 0.0, atol=1e-11)
        assert check_sign_sum(st.coeffs, st.offsets.index((0, 0))).passed

    def test_zero_alpha_value_with_varying_alpha_may_lose_sums(self):
        """alpha(y_j) = 0 with nonconstant alpha: consistent, but the audit fails.

        The boundary data of u == 1 is g1 = alpha(y), whose derivatives feed
        the row sums; they need not stay nonnegative when alpha vanishes at
        the anchor, so only the audit's failing verdict is guaranteed here.
        """
        rng = np.random.default_rng(5)
        alpha = np.concatenate([[0.0], rng.uniform(-1, 1, 5)])
        a = random_poly(rng, 3, scale=0.2)
        a[0, 0] = 1.5
        st = solve_edge_stencil(poly_jet(a, 5, (0.0, 0.0)), alpha)
        assert st.coeffs[:, 1].sum() == pytest.approx(0.0, abs=1e-11)
        assert not check_sign_sum(st.coeffs, st.offsets.index((0, 0))).passed
        # still consistent: u == 1 with g1 = alpha leaves an O(h^6) residual
        errs = []
        for h in (0.125, 0.0625, 0.03125):
            resid = (stencil_values(st.coeffs, h).sum()
                     - st.weights(h)[G1_SLOT] @ alpha) / h
            errs.append(abs(resid))
        slope = np.polyfit(np.log2([0.125, 0.0625, 0.03125]), np.log2(errs), 1)[0]
        assert slope >= 5.5

    def test_negative_alpha_flagged(self):
        st = solve_edge_stencil(constant_jet(1.0, 5), np.array([-1.0, 0, 0, 0, 0, 0]))
        assert not check_sign_sum(st.coeffs, st.offsets.index((0, 0))).passed


class TestCornerStructure:
    def test_exact_a0_matches_paper(self):
        solvers = _corner_solvers()
        # reconstruct A_0 from the degree-0 solver by feeding unit rhs? easier:
        # check the fractions directly through a fresh assembly
        from fractions import Fraction

        from hybridfdm.stencil_core import frac_leading_g

        a0 = []
        for n in range(7):
            hat = [frac_leading_g(0, n, k, l) for (k, l) in CORNER_OFFSETS]
            lam = Fraction((-1) ** (n // 2)) if n % 2 == 0 else Fraction(0)
            til = [lam * frac_leading_g(0, n, l, k) for (k, l) in CORNER_OFFSETS]
            a0.append([float(v) for v in hat + til])
        assert np.allclose(np.array(a0), A0_CORNER1, atol=1e-15)

    def test_runtime_leading_matches_a0(self):
        rng = np.random.default_rng(7)
        a = random_poly(rng, 3, scale=0.2)
        a[0, 0] = 2.0
        jet = poly_jet(a, 5, (0.0, 0.0))
        alpha = rng.uniform(0, 1, size=6)
        beta = rng.uniform(0, 1, size=6)
        red = build_corner_reduction(jet, alpha, beta)
        hat = expand_at_offsets(red.e_polys, CORNER_OFFSETS)
        til = expand_at_offsets(np.einsum("mn,me->ne", red.p, red.et_polys),
                                CORNER_OFFSETS)
        rows = [np.concatenate([hat[n], til[n]], axis=0)[:, n] for n in range(7)]
        assert np.allclose(np.array(rows), A0_CORNER1, atol=1e-11)

    def test_lambda_mu_are_reduction_entries(self):
        rng = np.random.default_rng(8)
        a = random_poly(rng, 3, scale=0.2)
        a[0, 0] = 2.0
        jet = poly_jet(a, 5, (0.0, 0.0))
        red = build_corner_reduction(jet, ZERO_ALPHA, ZERO_ALPHA)
        table = build_reduction_table(jet, 6)
        for m in range(7):
            for n in range(7):
                assert red.lam[m, n] == pytest.approx(table.u_value(m, 0, 0, n))
            for n in range(6):
                assert red.mu[m, n] == pytest.approx(table.u_value(m, 0, 1, n))
        # alpha = 0 collapses p to lambda
        assert np.allclose(red.p, red.lam)

    def test_x_derivative_reconstruction(self):
        """u^(m,0) from tangential data via p, mu, nu for a compliant u."""
        rng = np.random.default_rng(9)
        a = random_poly(rng, 3, scale=0.1)
        a[0, 0] = 1.5
        u = random_poly(rng, 6)
        f = pde_source(a, u)
        from math import factorial as _fact

        alpha_poly = [0.4, -0.2, 0.3, 0.1, -0.05, 0.02]  # alpha(y) coefficients
        alpha_der = np.array([alpha_poly[n] * _fact(n) for n in range(6)])
        jet = poly_jet(a, 5, (0.0, 0.0))
        red = build_corner_reduction(jet, alpha_der, ZERO_ALPHA)
        # g1(y) = -u_x(0,y) + alpha(y) u(0,y) as a 1D polynomial in y
        ux = poly_dx(u)
        g1 = np.zeros(16)
        for n in range(len(u)):
            g1[n] -= ux[0, n]
        for i, av in enumerate(alpha_poly):
            for n in range(len(u)):
                if i + n < 16:
                    g1[i + n] += av * u[0, n]
        from math import factorial

        g1_der = np.array([g1[n] * factorial(n) for n in range(6)])
        for m in (2, 3, 4):
            got = sum(red.p[m, n] * deriv_at(u, 0, n, 0.0, 0.0) for n in range(7))
            got -= sum(red.mu[m, n] * g1_der[n] for n in range(6))
            got += sum(red.nu[k][m] * deriv_at(f, *ij, 0.0, 0.0)
                       for k, ij in enumerate(lambda_full(4)))
            assert got == pytest.approx(deriv_at(u, m, 0, 0.0, 0.0), rel=1e-9, abs=1e-9)

    def test_monotone_flag_for_negative_alpha_plus_beta(self):
        jet = constant_jet(1.0, 5)
        st = solve_corner_stencil(
            build_corner_reduction(jet, np.array([-2.0, 0, 0, 0, 0, 0]), ZERO_ALPHA)
        )
        assert not check_sign_sum(st.coeffs, 0).passed

    def test_constant_neumann_corner_passes_audit(self):
        jet = constant_jet(2.0, 5)
        st = solve_corner_stencil(build_corner_reduction(jet, ZERO_ALPHA, ZERO_ALPHA))
        assert check_sign_sum(st.coeffs, st.offsets.index((0, 0)), tol=1e-11).passed
        assert np.allclose(st.coeffs, st.chat + st.ctilde)
        assert st.coeffs[:, 0].sum() == pytest.approx(0.0, abs=1e-12)


# manufactured boundary data: a = 2 + sin x sin y on the square [0, L]^2,
# u = sin(4x) cos(3y) + x, alpha = cos y + 2, beta = sin x + 2;
# g1, g3 are *defined* by the conditions, f = -div(a grad u) as usual
def a_fn(x, y):
    return 2.0 + np.sin(x) * np.sin(y)


def u_fn(x, y):
    return np.sin(4 * x) * np.cos(3 * y) + x


def ux_fn(x, y):
    return 4 * np.cos(4 * x) * np.cos(3 * y) + 1.0


def uy_fn(x, y):
    return -3 * np.sin(4 * x) * np.sin(3 * y)


def f_fn(x, y):
    ax = np.cos(x) * np.sin(y)
    ay = np.sin(x) * np.cos(y)
    lap = -25 * np.sin(4 * x) * np.cos(3 * y)
    return -(ax * ux_fn(x, y) + ay * uy_fn(x, y) + a_fn(x, y) * lap)


def alpha_fn(x, y):
    return np.cos(y) + 2.0


def beta_fn(x, y):
    return np.sin(x) + 2.0


def g1_fn(x, y):
    return -ux_fn(x, y) + alpha_fn(x, y) * u_fn(x, y)


def g3_fn(x, y):
    return -uy_fn(x, y) + beta_fn(x, y) * u_fn(x, y)


def edge_residual(anchor, h):
    frame = SIDE_FRAMES[1]
    jet, alpha_der, f_der, g_der = edge_jets(
        a_fn, f_fn, alpha_fn, g1_fn, np.array([anchor]), frame, h
    )
    st = solve_edge_stencil(jet, alpha_der[0])
    ch = stencil_values(st.coeffs, h)[0]
    lhs = sum(
        ch[i] * u_fn(anchor[0] + k * h, anchor[1] + l * h)
        for i, (k, l) in enumerate(EDGE_OFFSETS)
    )
    rhs = st.weights(h)[0] @ np.concatenate([f_der[0], g_der[0]])
    return (lhs - rhs) / h


def corner_residual(anchor, h):
    frame = CORNER_FRAMES[(1, 3)]
    jet, alpha_der, f_der, g1_der, beta_der, g3_der = corner_jets(
        a_fn, f_fn, alpha_fn, g1_fn, beta_fn, g3_fn, anchor, frame, h
    )
    st = solve_corner_stencil(build_corner_reduction(jet, alpha_der, beta_der))
    ch = stencil_values(st.coeffs, h)
    lhs = sum(
        ch[i] * u_fn(anchor[0] + k * h, anchor[1] + l * h)
        for i, (k, l) in enumerate(CORNER_OFFSETS)
    )
    rhs = st.weights(h) @ np.concatenate([f_der, g1_der, g3_der])
    return (lhs - rhs) / h


def reference_robin_basis(g, alpha):
    """E_n (or E~_m) as sums of scaled tables over a dict of G polynomials."""
    basis = []
    for n in range(7):
        en = g[(0, n)]
        for i in range(n, 6):
            en = en + g[(1, i)] * (comb(i, n) * alpha[i - n])
        basis.append(en)
    return basis


def gh_dicts(blocks, band=lambda_band(6)):
    """Order-6 G/H blocks as dicts of square tables, keyed in block order
    (the band keys of transposed blocks in their (n, m) form)."""
    g, h = map(dense_tables, blocks)
    return dict(zip(band, g)), dict(zip(lambda_full(4), h))


class TestRhsWeights:
    @pytest.mark.parametrize("h", [0.3, 1.0 / 64])
    def test_match_per_polynomial_eval(self, h):
        rng = np.random.default_rng(31)
        a = random_poly(rng, 3, scale=0.2)
        a[0, 0] = 2.0
        jet = poly_jet(a, 5, (0.0, 0.0))
        edge_jet = Jet2(np.stack([jet.c, jet.c * 1.1]), 5)
        alpha = rng.uniform(0, 1, size=(2, 6))
        beta = rng.uniform(0, 1, size=6)

        def assert_close(got, want):
            scale = np.abs(want).max(axis=-1, keepdims=True)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-14 * scale)

        st = solve_edge_stencil(edge_jet, alpha)
        g, hp = gh_dicts(gh_blocks(build_reduction_table(edge_jet, 6)))
        w = st.weights(h)
        assert w.shape == (2, 21)
        assert_close(w[:, F_SLOT], reference_weights(
            st.coeffs, [hp[mn] for mn in F_INDICES_B], EDGE_OFFSETS, h))
        assert_close(w[:, G1_SLOT], -reference_weights(
            st.coeffs, [g[(1, n)] for n in range(6)], EDGE_OFFSETS, h))

        red = build_corner_reduction(jet, alpha[0], beta)
        cst = solve_corner_stencil(red)
        g, hp = gh_dicts(gh_blocks(build_reduction_table(jet, 6)))
        gt, ht = gh_dicts(
            transpose_blocks(
                *gh_blocks(build_reduction_table(jet.transposed(), 6))),
            band=[(n, m) for (m, n) in lambda_band(6)])
        et = reference_robin_basis({(n, m): p for (m, n), p in gt.items()}, beta)
        f_til = []
        for k, mn in enumerate(F_INDICES_B):
            poly = ht[mn]
            for i in range(7):
                poly = poly + et[i] * red.nu[k][i]
            f_til.append(poly)
        g1_til = []
        for n in range(6):
            poly = np.zeros((7, 7))
            for m in range(7):
                poly = poly + et[m] * red.mu[m, n]
            g1_til.append(poly)
        chat, ctil = cst.chat, cst.ctilde
        w = cst.weights(h)
        assert w.shape == (27,)
        assert_close(w[F_SLOT], reference_weights(
            chat, [hp[mn] for mn in F_INDICES_B], CORNER_OFFSETS, h)
            + reference_weights(ctil, f_til, CORNER_OFFSETS, h))
        assert_close(w[G1_SLOT], -(reference_weights(
            chat, [g[(1, n)] for n in range(6)], CORNER_OFFSETS, h)
            + reference_weights(ctil, g1_til, CORNER_OFFSETS, h)))
        assert_close(w[G3_SLOT], -reference_weights(
            ctil, [gt[(m, 1)] for m in range(6)], CORNER_OFFSETS, h))


class TestConsistency:
    def test_edge_sixth_order(self):
        hs = [2.0**-k for k in range(3, 7)]
        errs = [abs(edge_residual((0.0, 0.37), h)) for h in hs]
        slope = np.polyfit(np.log2(hs), np.log2(errs), 1)[0]
        assert slope >= 5.8

    def test_corner_sixth_order(self):
        hs = [2.0**-k for k in range(3, 7)]
        errs = [abs(corner_residual((0.0, 0.0), h)) for h in hs]
        slope = np.polyfit(np.log2(hs), np.log2(errs), 1)[0]
        assert slope >= 5.8


class TestReflection:
    def test_offset_maps(self):
        st = solve_edge_stencil(constant_jet(1.0, 5), ZERO_ALPHA)
        assert map_by_reflection(st, SIDE_FRAMES[2]) == (
            (0, -1), (0, 0), (0, 1), (-1, -1), (-1, 0), (-1, 1))
        assert map_by_reflection(st, SIDE_FRAMES[3]) == (
            (-1, 0), (0, 0), (1, 0), (-1, 1), (0, 1), (1, 1))
        cst = solve_corner_stencil(
            build_corner_reduction(constant_jet(1.0, 5), ZERO_ALPHA, ZERO_ALPHA))
        assert map_by_reflection(cst, CORNER_FRAMES[(2, 4)]) == (
            (0, 0), (0, -1), (-1, 0), (-1, -1))

    def test_mirror_symmetric_problem(self):
        """a even in x about the domain center: G1 and G2 stencils mirror."""
        h = 1.0 / 8

        def a_even(x, y):
            return 2.0 + np.cos(x) + 0.3 * np.sin(y)

        def dummy(x, y):
            return np.sin(x + y)

        anchor1 = np.array([[-1.0, 0.3]])
        anchor2 = np.array([[1.0, 0.3]])
        jet1, al1, _, _ = edge_jets(a_even, dummy, alpha_fn, dummy,
                                    anchor1, SIDE_FRAMES[1], h)
        jet2, al2, _, _ = edge_jets(a_even, dummy, alpha_fn, dummy,
                                    anchor2, SIDE_FRAMES[2], h)
        st1 = solve_edge_stencil(jet1, al1[0])
        st2 = solve_edge_stencil(jet2, al2[0])
        assert np.allclose(st1.coeffs, st2.coeffs, atol=1e-12)

