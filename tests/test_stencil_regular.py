"""9-point interior stencil: exactness, closed forms, consistency order."""

import numpy as np
import pytest

from hybridfdm.indexsets import lambda_band, lambda_full
from hybridfdm.jets import Jet2, poly_eval
from hybridfdm.mls import mls_operator, sampling_recipe
from hybridfdm.reduction import (
    build_reduction_table,
    dense_tables,
    gh_blocks,
    packed_block,
)
from hybridfdm.stencil_core import (
    check_sign_sum,
    expand_at_offsets,
    expand_poly_in_h,
    offset_operator,
    packed_positions,
    stencil_values,
)
from hybridfdm.stencil_boundary import CORNER_OFFSETS, EDGE_OFFSETS
from hybridfdm.stencil_regular import (
    CENTER9,
    LEAD9,
    OFFSETS9,
    build_regular_batch,
    regular_expansions,
    regular_rhs_weights,
)

from linear_coeff_reference import coefficients as reference_coefficients
from test_jets_reduction import A0_REGULAR, constant_jet, same_bits


def system_rows(expansions, lead, T, d, s):
    """The degree-s couplings into the degree-d system of a stencil with
    target order T and row leads ``lead``: expansions[..., r, :,
    lead[r] + d - s] over the rows with lead[r] + d <= T.  s = d gives the
    constant leading matrix A_d."""
    rows = [r for r, t in enumerate(lead) if t + d <= T]
    return np.stack([expansions[..., r, :, lead[r] + d - s] for r in rows],
                    axis=-2)


def stacked(packed):
    """The (n_off, P, ...) stack of a packed expansion, which is a list of
    one (P, ...) array per offset, each an array of its own."""
    assert isinstance(packed, list)
    assert len({x.shape for x in packed}) == 1
    assert all(x.base is None for x in packed)
    return np.stack(packed)


def unpack(packed, lead, size):
    """The dense (K, ..., n_off, size) form of a packed expansion, zero
    below each row's lead."""
    packed = stacked(packed)
    pos = packed_positions(tuple(lead), size)
    out = np.zeros((len(lead),) + packed.shape[2:] + (len(packed), size))
    for r, t in zip(*np.nonzero(pos >= 0)):
        out[r, ..., t] = np.moveaxis(packed[:, pos[r, t]], 0, -1)
    return out


def dense_expand_at_offsets(entries, offsets, size):
    """Reference copy of ``expand_at_offsets`` before it packed: every
    (row, degree) sum of every table, (K, ..., n_off, size), each entry
    added into every sum that reads it, in entry order."""
    op = offset_operator(offsets, size)
    out = None
    for e, table in enumerate(entries):
        if out is None:
            out = np.zeros((len(offsets), size) + table.shape)
        for o, t in zip(*np.nonzero(op[e])):
            w, acc = op[e, o, t], out[o, t]
            if abs(w) == 1.0:
                (np.add if w > 0 else np.subtract)(acc, table, out=acc)
            else:
                acc += table * w
    return np.moveaxis(out, (0, 1), (-2, -1))


def assert_packed_is_dense(packed, dense, lead):
    """Every pair the recursion reads, (r, t) with t >= lead[r], has the
    bits of the dense expansion."""
    pos = packed_positions(tuple(lead), dense.shape[-1])
    packed = stacked(packed)
    assert packed.shape == (dense.shape[-2], np.count_nonzero(pos >= 0)) \
        + dense.shape[1:-2]
    for r, t in zip(*np.nonzero(pos >= 0)):
        assert same_bits(packed[:, pos[r, t]],
                         np.moveaxis(dense[r, ..., t], -1, 0)), (r, t)


def expansions9(jet):
    """The 9-point h-expansions of a coefficient jet, unpacked to the dense
    (..., 15, 9, 8) form."""
    return np.moveaxis(unpack(regular_expansions(build_reduction_table(jet, 7)),
                              LEAD9, 8), 0, -3)


def linear_a_jet(r1, r2):
    return Jet2.from_derivatives({(0, 0): 1.0, (1, 0): r1, (0, 1): r2}, 6)


class TestSystemStructure:
    def test_a0_matches_paper(self):
        exp = expansions9(constant_jet(1.0, 6))
        assert np.allclose(system_rows(exp, LEAD9, 7, 0, 0), A0_REGULAR,
                           atol=1e-14)

    def test_a0_row_for_mixed_derivative(self):
        exp = expansions9(constant_jet(1.0, 6))
        row = lambda_band(7).index((1, 1))
        assert np.allclose(system_rows(exp, LEAD9, 7, 0, 0)[row],
                           [1, 0, -1, 0, 0, 0, -1, 0, 1])

    def test_a7_is_all_ones(self):
        a7 = system_rows(expansions9(constant_jet(1.0, 6)), LEAD9, 7, 7, 7)
        assert a7.shape == (1, 9)
        assert np.allclose(a7, 1.0)

    def test_constant_a_has_zero_couplings(self):
        exp = expansions9(constant_jet(2.0, 6))
        for d in range(1, 7):
            for s in range(d):
                assert np.allclose(system_rows(exp, LEAD9, 7, d, s), 0.0,
                                   atol=1e-15)

    def test_submatrix_row_counts(self):
        exp = expansions9(constant_jet(1.0, 6))
        for d, rows in zip(range(8), (15, 13, 11, 9, 7, 5, 3, 1)):
            assert system_rows(exp, LEAD9, 7, d, d).shape[0] == rows


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
    coeffs, table = build_regular_batch(jet)
    weights = regular_rhs_weights(coeffs, table, h)
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
        coeffs, table = build_regular_batch(constant_jet(1.0, 6))
        w = regular_rhs_weights(coeffs, table, 0.1)
        rhs = sum(w[i] * 0.0 for i in range(len(w)))
        assert rhs == 0.0

    def test_constant_a_leading_weight(self):
        """Weight of f^(0,0) is 6 h^2 + O(h^4) for a = 1.

        Oracle: u = -(x^2+y^2)/2 gives f = -lap(u) = 2 and the (20,-4,-1)
        pattern sums to 12 h^2 = 6 f h^2, so the weight is +6 h^2.
        """
        coeffs, table = build_regular_batch(constant_jet(1.0, 6))
        for h in (0.1, 0.05):
            w00 = regular_rhs_weights(coeffs, table, h)[0]
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
        got = unpack(expand_at_offsets(np.moveaxis(blocks, -1, 0), offsets,
                                       size, (0, 0, 0)), (0, 0, 0), size)
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
        packed = regular_expansions(build_reduction_table(jet, 7))
        block = gh_blocks(build_reduction_table(jet, 7))[0]
        # read from the table or from its packed block: the same bits
        assert same_bits(stacked(packed), stacked(expand_at_offsets(
            np.moveaxis(block, -1, 0), OFFSETS9, 8, LEAD9)))
        expansions = np.moveaxis(unpack(packed, LEAD9, 8), 0, -3)
        g = dense_tables(block)
        assert len(g) == len(lambda_band(7))
        want = np.stack([expand_poly_in_h(c, OFFSETS9, 8) for c in g],
                        axis=-3)
        assert expansions.shape == batch + (15, 9, 8)
        scale = np.stack([np.abs(c).max(axis=(-2, -1)) for c in g],
                         axis=-1)[..., None, None]
        assert np.all(np.abs(expansions - want) <= 1e-15 * scale)

    @pytest.mark.parametrize("batch", [(), (1,), (6,)])
    def test_packed_expansions_equal_the_dense_ones(self, batch):
        """The packed G expansions, from the table or from its block, hold
        the dense form's bits on every pair the recursion reads."""
        jet = random_a_jet(np.random.default_rng(5), batch)
        table = build_reduction_table(jet, 7)
        dense = dense_expand_at_offsets(
            np.moveaxis(gh_blocks(table)[0], -1, 0), OFFSETS9, 8)
        assert_packed_is_dense(regular_expansions(table), dense, LEAD9)

    @pytest.mark.parametrize("batch", [(), (1,), (6,)])
    @pytest.mark.parametrize("h", [0.3, 1.0 / 64])
    def test_rhs_weights_match_per_polynomial_eval(self, batch, h):
        jet = random_a_jet(np.random.default_rng(4), batch)
        coeffs, table = build_regular_batch(jet)
        got = regular_rhs_weights(coeffs, table, h)
        want = reference_weights(coeffs, dense_tables(packed_block(table, "H")),
                                 OFFSETS9, h)
        assert got.shape == batch + (len(lambda_full(5)),)
        scale = np.abs(want).max(axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)
