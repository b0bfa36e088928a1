"""9-point interior stencil: exactness, closed forms, consistency order."""

import numpy as np
import pytest

from hybridfdm.indexsets import lambda_band, lambda_full
from hybridfdm.jets import Jet2, poly_eval
from hybridfdm.mls import mls_operator, sampling_recipe
from hybridfdm.reduction import build_reduction_table, dense_tables, gh_blocks
from hybridfdm.stencil_core import (
    check_sign_sum,
    expand_at_offsets,
    expand_poly_in_h,
    offset_operator,
    stencil_values,
)
from hybridfdm.stencil_irregular import LEAD13, IrregularSystem
from hybridfdm.stencil_boundary import CORNER_OFFSETS, EDGE_OFFSETS
from hybridfdm.stencil_regular import (
    CENTER9,
    OFFSETS9,
    assemble_regular_system,
    build_regular_batch,
    regular_rhs_weights,
)

from linear_coeff_reference import coefficients as reference_coefficients
from test_jets_reduction import A0_REGULAR, constant_jet


def system_rows(system, T, d, s):
    """The degree-s couplings into the degree-d system of a stencil with
    target order T: expansions[..., r, :, lead[r] + d - s] over the rows with
    lead[r] + d <= T.  s = d gives the constant leading matrix A_d."""
    lead = LEAD13 if isinstance(system, IrregularSystem) else system.lead
    rows = [r for r, t in enumerate(lead) if t + d <= T]
    return np.stack([system.expansions[..., r, :, lead[r] + d - s]
                     for r in rows], axis=-2)


def linear_a_jet(r1, r2):
    return Jet2.from_derivatives({(0, 0): 1.0, (1, 0): r1, (0, 1): r2}, 6)


class TestSystemStructure:
    def test_a0_matches_paper(self):
        system = assemble_regular_system(constant_jet(1.0, 6))
        assert np.allclose(system_rows(system, 7, 0, 0), A0_REGULAR, atol=1e-14)

    def test_a0_row_for_mixed_derivative(self):
        system = assemble_regular_system(constant_jet(1.0, 6))
        row = lambda_band(7).index((1, 1))
        assert np.allclose(system_rows(system, 7, 0, 0)[row],
                           [1, 0, -1, 0, 0, 0, -1, 0, 1])

    def test_a7_is_all_ones(self):
        system = assemble_regular_system(constant_jet(1.0, 6))
        a7 = system_rows(system, 7, 7, 7)
        assert a7.shape == (1, 9)
        assert np.allclose(a7, 1.0)

    def test_constant_a_has_zero_couplings(self):
        system = assemble_regular_system(constant_jet(2.0, 6))
        for d in range(1, 7):
            for s in range(d):
                assert np.allclose(system_rows(system, 7, d, s), 0.0, atol=1e-15)

    def test_submatrix_row_counts(self):
        system = assemble_regular_system(constant_jet(1.0, 6))
        for d, rows in zip(range(8), (15, 13, 11, 9, 7, 5, 3, 1)):
            assert system_rows(system, 7, d, d).shape[0] == rows


class TestConstantCoefficient:
    def test_exact_laplacian_stencil(self):
        coeffs, _ = build_regular_batch(constant_jet(3.0, 6))
        expect0 = {(0, 0): 20.0}
        for off in OFFSETS9:
            want = 20.0 if off == (0, 0) else (-4.0 if 0 in off else -1.0)
            i = OFFSETS9.index(off)
            assert abs(coeffs[i, 0] - want) <= 1e-14
            assert np.all(np.abs(coeffs[i, 1:]) <= 1e-14)
        assert check_sign_sum(coeffs, CENTER9).passed

    def test_mmatrix_report_passes(self):
        coeffs, _ = build_regular_batch(constant_jet(1.0, 6))
        assert check_sign_sum(coeffs, CENTER9).passed

    def test_injected_violation_detected(self):
        coeffs, _ = build_regular_batch(constant_jet(1.0, 6))
        coeffs[CENTER9, 0] = -1.0
        report = check_sign_sum(coeffs, CENTER9)
        assert not report.passed
        assert (CENTER9, 0, -1.0) in report.sign_violations


class TestLinearCoefficientClosedForms:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        r1, r2 = rng.uniform(-1, 1, size=2)
        coeffs, _ = build_regular_batch(linear_a_jet(r1, r2))
        ref = reference_coefficients(r1, r2)
        for i, off in enumerate(OFFSETS9):
            got, want = coeffs[i], ref[off]
            assert np.allclose(got, want, rtol=1e-11, atol=1e-13), (off, got, want)

    def test_degree_sums_vanish(self):
        rng = np.random.default_rng(17)
        r1, r2 = rng.uniform(-1, 1, size=2)
        coeffs, _ = build_regular_batch(linear_a_jet(r1, r2))
        assert np.allclose(coeffs.sum(axis=0), 0.0, atol=1e-11)
        assert check_sign_sum(coeffs, CENTER9, tol=1e-11).passed

    def test_bit_reproducible(self):
        jet = linear_a_jet(0.37, -0.81)
        c1 = build_regular_batch(jet)[0]
        c2 = build_regular_batch(jet)[0]
        assert np.array_equal(c1, c2)


# smooth manufactured data with enough high-derivative energy to keep the
# residual above the h^-2-amplified roundoff floor on the whole h range:
# a = 2 + sin x sin y, u = sin 4x cos 3y + x, f = -div(a grad u) by hand
def a_fn(x, y):
    return 2.0 + np.sin(x) * np.sin(y)


def u_fn(x, y):
    return np.sin(4 * x) * np.cos(3 * y) + x


def f_fn(x, y):
    ax = np.cos(x) * np.sin(y)
    ay = np.sin(x) * np.cos(y)
    ux = 4 * np.cos(4 * x) * np.cos(3 * y) + 1.0
    uy = -3 * np.sin(4 * x) * np.sin(3 * y)
    lap = -25 * np.sin(4 * x) * np.cos(3 * y)
    return -(ax * ux + ay * uy + a_fn(x, y) * lap)


def scheme_residual(x0, y0, h):
    """Practical-path residual: jets and source derivatives from MLS."""
    rec = sampling_recipe("regular-interior", h)
    pts = rec.samples + np.array([x0, y0])
    a_der = mls_operator(rec.problem(6), lambda_full(6)) @ a_fn(pts[:, 0], pts[:, 1])
    f_der = mls_operator(rec.problem(5), lambda_full(5)) @ f_fn(pts[:, 0], pts[:, 1])
    jet = Jet2.from_derivatives(dict(zip(lambda_full(6), a_der)), 6)
    coeffs, h_polys = build_regular_batch(jet)
    weights = regular_rhs_weights(coeffs, h_polys, h)
    lhs = sum(
        stencil_values(coeffs, h)[i] * u_fn(x0 + k * h, y0 + l * h)
        for i, (k, l) in enumerate(OFFSETS9)
    )
    rhs = sum(weights[i] * f_der[i] for i in range(len(f_der)))
    return (lhs - rhs) / h**2


class TestConsistency:
    def test_sixth_order_residual_decay(self):
        hs = [2.0**-k for k in range(3, 7)]
        errs = [abs(scheme_residual(0.41, -0.23, h)) for h in hs]
        slope = np.polyfit(np.log2(hs), np.log2(errs), 1)[0]
        assert slope >= 5.8

    def test_mmatrix_across_smooth_field(self):
        h = 1.0 / 16
        for x0 in (-1.2, 0.1, 0.9):
            for y0 in (-0.7, 0.4):
                rec = sampling_recipe("regular-interior", h)
                pts = rec.samples + np.array([x0, y0])
                a_der = (mls_operator(rec.problem(6), lambda_full(6))
                         @ a_fn(pts[:, 0], pts[:, 1]))
                jet = Jet2.from_derivatives(dict(zip(lambda_full(6), a_der)),
                                            6)
                coeffs, _ = build_regular_batch(jet)
                assert check_sign_sum(coeffs, CENTER9, tol=1e-10).passed
                assert check_sign_sum(coeffs, CENTER9).passed


class TestRhsWeights:
    def test_zero_source_zero_rhs(self):
        coeffs, h_polys = build_regular_batch(constant_jet(1.0, 6))
        w = regular_rhs_weights(coeffs, h_polys, 0.1)
        rhs = sum(w[i] * 0.0 for i in range(len(w)))
        assert rhs == 0.0

    def test_constant_a_leading_weight(self):
        """Weight of f^(0,0) is 6 h^2 + O(h^4) for a = 1.

        Oracle: u = -(x^2+y^2)/2 gives f = -lap(u) = 2 and the (20,-4,-1)
        pattern sums to 12 h^2 = 6 f h^2, so the weight is +6 h^2.
        """
        coeffs, h_polys = build_regular_batch(constant_jet(1.0, 6))
        for h in (0.1, 0.05):
            w00 = regular_rhs_weights(coeffs, h_polys, h)[0]
            assert w00 == pytest.approx(6.0 * h**2, rel=0.02)


def random_a_jet(rng, batch):
    """An order-6 coefficient jet near 2 with the given batch shape."""
    c = 0.3 * rng.standard_normal(batch + (7, 7))
    c[..., 0, 0] = 2.0
    return Jet2(c, 6)


def reference_weights(coeffs, polys, offsets, h):
    """The per-polynomial ``poly_eval`` loop the offset operators replaced."""
    ch = coeffs @ (h ** np.arange(coeffs.shape[-1]))
    kh = h * np.array([o[0] for o in offsets], dtype=float)
    lh = h * np.array([o[1] for o in offsets], dtype=float)
    return np.stack([np.sum(ch * poly_eval(p, kh, lh), axis=-1) for p in polys],
                    axis=-1)


class TestOffsetOperator:
    @pytest.mark.parametrize("offsets,size", [(OFFSETS9, 8), (EDGE_OFFSETS, 7),
                                              (CORNER_OFFSETS, 7)])
    @pytest.mark.parametrize("batch", [(), (1,), (5,), (3, 4)])
    def test_matches_expand_poly_in_h(self, batch, offsets, size):
        rng = np.random.default_rng(len(batch) + sum(batch))
        n = len(lambda_full(size - 1))
        c = rng.standard_normal(batch + (n,))
        op = offset_operator(offsets, size)
        k = len(offsets)
        assert op.shape == (n, k, size)
        got = (c @ op.reshape(n, -1)).reshape(batch + (k, size))
        want = expand_poly_in_h(dense_tables(c), offsets, size)
        scale = np.abs(c).max(axis=-1)[..., None, None]
        assert np.all(np.abs(got - want) <= 1e-15 * scale)

    @pytest.mark.parametrize("offsets,size", [
        (OFFSETS9, 8), (EDGE_OFFSETS, 7), (CORNER_OFFSETS, 7),
        (((2, -1), (0, 3), (-1, 1)), 5)])
    def test_expand_at_offsets_matches_expand_poly_in_h(self, offsets, size):
        """The elementwise term sums, also for offsets outside {-1, 0, 1}."""
        n = len(lambda_full(size - 1))
        blocks = np.random.default_rng(size).standard_normal((3, 4, n))
        got = expand_at_offsets(blocks, offsets)
        want = expand_poly_in_h(dense_tables(blocks), offsets, size)
        assert got.shape == (3, 4, len(offsets), size)
        bound = (np.abs(blocks) @ np.abs(offset_operator(offsets, size))
                 .reshape(n, -1)).reshape(got.shape)
        assert np.all(np.abs(got - want) <= 2e-15 * bound)

    def test_is_cached_and_read_only(self):
        op = offset_operator(OFFSETS9, 8)
        assert op.shape == (36, 9, 8)
        assert offset_operator(OFFSETS9, 8) is op
        with pytest.raises(ValueError):
            op[0, 0, 0] = 1.0

    @pytest.mark.parametrize("batch", [(), (1,), (6,)])
    def test_system_expansions_match_per_polynomial_path(self, batch):
        jet = random_a_jet(np.random.default_rng(3), batch)
        system = assemble_regular_system(jet)
        g = dense_tables(gh_blocks(build_reduction_table(jet, 7))[0])
        assert len(g) == len(lambda_band(7))
        want = np.stack([expand_poly_in_h(c, OFFSETS9, 8) for c in g],
                        axis=-3)
        assert system.expansions.shape == batch + (15, 9, 8)
        scale = np.stack([np.abs(c).max(axis=(-2, -1)) for c in g],
                         axis=-1)[..., None, None]
        assert np.all(np.abs(system.expansions - want) <= 1e-15 * scale)

    @pytest.mark.parametrize("batch", [(), (1,), (6,)])
    @pytest.mark.parametrize("h", [0.3, 1.0 / 64])
    def test_rhs_weights_match_per_polynomial_eval(self, batch, h):
        jet = random_a_jet(np.random.default_rng(4), batch)
        coeffs, h_polys = build_regular_batch(jet)
        got = regular_rhs_weights(coeffs, h_polys, h)
        want = reference_weights(coeffs, dense_tables(h_polys), OFFSETS9, h)
        assert got.shape == batch + (len(lambda_full(5)),)
        scale = np.abs(want).max(axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)
