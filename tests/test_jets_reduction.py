"""Jet arithmetic, index sets, and the derivative-reduction table."""

from math import comb, factorial

import numpy as np
import pytest

from hybridfdm.errors import ReductionError
from hybridfdm.indexsets import lambda_band, lambda_full
from hybridfdm.jets import (
    Jet2,
    poly2_compose_series,
    poly_dx,
    poly_dy,
    poly_eval,
    series_mul,
    series_sqrt,
)
from hybridfdm.reduction import (
    _partials,
    _program,
    build_reduction_table,
    dense_tables,
    gh_blocks,
    packed_block,
    packed_entries,
    transpose_blocks,
)
from manufactured import pde_source, poly_mul, random_poly

OFFSETS9 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]


def lambda_sets(order: int):
    """Return (Lambda, Lambda^1, Lambda^2) for the given order."""
    complement = tuple(mn for mn in lambda_full(order) if mn[0] > 1)
    return lambda_full(order), lambda_band(order), complement


def jet_deriv(jet, m: int, n: int):
    """Raw partial derivative d^{m+n} f / dx^m dy^n of a jet at its base point."""
    if m + n > jet.order:
        raise ValueError(f"derivative {(m, n)} outside jet of order {jet.order}")
    return jet.c[..., m, n] * (factorial(m) * factorial(n))


def deriv_at(poly, m: int, n: int, x, y):
    """Evaluate d^{m+n}/dx^m dy^n of a polynomial table at (x, y)."""
    for _ in range(m):
        poly = poly_dx(poly)
    for _ in range(n):
        poly = poly_dy(poly)
    return poly_eval(poly, x, y)


def leading_g_poly(m: int, n: int, size: int) -> np.ndarray:
    """The constant homogeneous polynomial G_{m,n} (x-band form, m in {0,1})."""
    c = np.zeros((size, size))
    for ell in range(n // 2 + 1):
        c[m + 2 * ell, n - 2 * ell] = (-1.0) ** ell / (
            factorial(m + 2 * ell) * factorial(n - 2 * ell)
        )
    return c


def constant_jet(value, order):
    """The jet of a constant function."""
    return Jet2.from_derivatives({(0, 0): value}, order)


def poly_jet(poly, order, base):
    derivs = {}
    for m in range(order + 1):
        for n in range(order + 1 - m):
            derivs[(m, n)] = deriv_at(poly, m, n, *base)
    return Jet2.from_derivatives(derivs, order)


class TestLambdaSets:
    def test_order_one(self):
        full, band, comp = lambda_sets(1)
        assert full == ((0, 0), (0, 1), (1, 0))
        assert band == full
        assert comp == ()

    def test_order_zero(self):
        full, band, comp = lambda_sets(0)
        assert full == ((0, 0),)
        assert comp == ()

    def test_band_size_matches_a0_rows(self):
        assert len(lambda_band(7)) == 15
        assert len(lambda_band(5)) == 11

    def test_partition(self):
        full, band, comp = lambda_sets(6)
        assert set(band) | set(comp) == set(full)
        assert not set(band) & set(comp)
        assert all(m + n <= 6 for m, n in full)

    def test_canonical_order_within_degree(self):
        band = lambda_band(4)
        assert band.index((0, 3)) + 1 == band.index((1, 2))


class TestJet2:
    def test_from_derivatives_roundtrip(self):
        j = Jet2.from_derivatives({(0, 0): 2.0, (1, 1): 6.0, (2, 0): 4.0}, 3)
        assert jet_deriv(j, 1, 1) == pytest.approx(6.0)
        assert jet_deriv(j, 2, 0) == pytest.approx(4.0)
        assert jet_deriv(j, 3, 0) == 0.0
        with pytest.raises(ValueError):
            jet_deriv(j, 2, 2)

    def test_mul_matches_product_of_polys(self):
        rng = np.random.default_rng(3)
        p, q = random_poly(rng, 3), random_poly(rng, 3)
        base = (0.3, -0.2)
        jp, jq = poly_jet(p, 6, base), poly_jet(q, 6, base)
        prod = jp * jq
        pq = poly_mul(p, q)
        for m in range(7):
            for n in range(7 - m):
                assert jet_deriv(prod, m, n) == pytest.approx(
                    deriv_at(pq, m, n, *base), rel=1e-11, abs=1e-11
                )

    def test_reciprocal(self):
        rng = np.random.default_rng(4)
        p = random_poly(rng, 3, scale=0.2)
        p[0, 0] = 2.0
        j = poly_jet(p, 6, (0.1, 0.1))
        one = j * j.reciprocal()
        assert one.value == pytest.approx(1.0)
        assert np.allclose(one.c[1:, :], 0.0, atol=1e-12)
        assert np.allclose(one.c[0, 1:], 0.0, atol=1e-12)

    def test_dx_dy(self):
        rng = np.random.default_rng(5)
        p = random_poly(rng, 4)
        j = poly_jet(p, 5, (0.2, 0.4))
        assert jet_deriv(j.dx(), 1, 2) == pytest.approx(deriv_at(p, 2, 2, 0.2, 0.4), rel=1e-12)
        assert jet_deriv(j.dy(), 0, 3) == pytest.approx(deriv_at(p, 0, 4, 0.2, 0.4), rel=1e-12)

    def test_batched_broadcasting(self):
        c = np.zeros((4, 3, 3))
        c[:, 0, 0] = np.arange(1.0, 5.0)
        c[:, 1, 0] = 1.0
        j = Jet2(c, 2)
        r = j.reciprocal()
        assert r.value == pytest.approx(1.0 / np.arange(1.0, 5.0))


class TestSeries:
    def test_series_mul(self):
        a = np.array([1.0, 2.0, 1.0])
        assert np.allclose(series_mul(a, a, 5), [1, 4, 6, 4, 1])

    def test_series_sqrt(self):
        sq = np.array([1.0, 2.0, 1.0, 0.0])
        assert np.allclose(series_sqrt(sq, 4), [1, 1, 0, 0])

    def test_poly_compose_series(self):
        # linear curves keep the composition inside the retained terms
        rng = np.random.default_rng(6)
        p = random_poly(rng, 4)
        xs = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        ys = np.array([0.0, 0.7, 0.0, 0.0, 0.0, 0.0])
        series = poly2_compose_series(p, xs, ys, 6)
        for t in (0.05, -0.08):
            direct = poly_eval(p, xs[1] * t, ys[1] * t)
            via = sum(series[k] * t**k for k in range(6))
            assert via == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_poly_compose_series_truncates_consistently(self):
        # quadratic curve: compare against the exact Taylor coefficients of
        # q(t) = p(x(t), y(t)) computed by expanding the composed polynomial
        p = np.array([[0.0, 1.0], [2.0, 0.0]])  # 2x + y
        xs = np.array([0.0, 1.0, -0.5, 0.0])
        ys = np.array([0.0, 0.0, 2.0, 0.0])
        series = poly2_compose_series(p, xs, ys, 4)
        assert np.allclose(series, [0.0, 2.0, 1.0, 0.0])


class TestReductionTable:
    def test_constant_coefficient_entries(self):
        a = constant_jet(3.0, 6)
        table = build_reduction_table(a, 7)
        assert table.u_value(2, 0, 0, 2) == pytest.approx(-1.0)
        for mn in lambda_band(2):
            if mn != (0, 2):
                assert table.u_value(2, 0, *mn) == pytest.approx(0.0, abs=1e-15)
        assert table.f_value(2, 0, 0, 0) == pytest.approx(-1.0 / 3.0)

    def test_first_band_seeds(self):
        a = constant_jet(1.0, 6)
        table = build_reduction_table(a, 7)
        _, f = table_dicts(table)
        for (p, q) in lambda_band(7):
            assert table.u_value(p, q, p, q) == pytest.approx(1.0)
            assert not f[(p, q)]

    def test_generic_gradient_entries(self):
        rng = np.random.default_rng(7)
        apoly = random_poly(rng, 3, scale=0.3)
        apoly[0, 0] = 2.5
        base = (0.2, -0.3)
        ajet = poly_jet(apoly, 6, base)
        table = build_reduction_table(ajet, 7)
        a0 = poly_eval(apoly, *base)
        assert table.u_value(2, 0, 1, 0) == pytest.approx(
            -deriv_at(apoly, 1, 0, *base) / a0, rel=1e-12
        )
        assert table.u_value(2, 0, 0, 1) == pytest.approx(
            -deriv_at(apoly, 0, 1, *base) / a0, rel=1e-12
        )

    def test_band_support_invariants(self):
        rng = np.random.default_rng(8)
        apoly = random_poly(rng, 3, scale=0.2)
        apoly[0, 0] = 2.0
        u, f = table_dicts(
            build_reduction_table(poly_jet(apoly, 6, (0.1, 0.2)), 7))
        for (p, q), coeffs in u.items():
            for (m, n) in coeffs:
                assert m <= 1 and m + n <= p + q
        for (p, q), coeffs in f.items():
            for (i, j) in coeffs:
                assert i + j <= p + q - 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstructs_manufactured_derivatives(self, seed):
        """Substituting the table into an exact (u, f) pair recovers u^(p,q)."""
        rng = np.random.default_rng(seed)
        u = random_poly(rng, 7)
        a = random_poly(rng, 3, scale=0.15)
        a[0, 0] = 2.0
        f = pde_source(a, u)
        base = (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        table = build_reduction_table(poly_jet(a, 6, base), 7)
        for (p, q) in lambda_full(7):
            expected = deriv_at(u, p, q, *base)
            got = sum(
                table.u_value(p, q, m, n) * deriv_at(u, m, n, *base)
                for (m, n) in lambda_band(p + q)
            ) + sum(
                table.f_value(p, q, i, j) * deriv_at(f, i, j, *base)
                for (i, j) in lambda_full(p + q - 2)
            )
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(ReductionError):
            build_reduction_table(constant_jet(-1.0, 6), 7)

    def test_nonpositive_coefficient_names_its_node_and_value(self):
        """The error quotes the first failing value along the batch's last
        axis, the nodes of a (side, node) stack as the transmission builds
        it, and sets ``index`` to that node; an unbatched jet has none."""
        values = np.array([[1.0, 2.0, 3.0, -4.0], [1.0, 1.0, -0.5, np.nan]])
        jet = Jet2.from_derivatives({(0, 0): values}, 6)
        with pytest.raises(ReductionError) as info:
            build_reduction_table(jet, 7)
        assert str(info.value) == ("coefficient must be positive at the base "
                                   "point, estimated a = -0.5")
        assert info.value.index == 2
        with pytest.raises(ReductionError, match="estimated a = -1$") as info:
            build_reduction_table(constant_jet(-1.0, 6), 7)
        assert info.value.index is None

    def test_rejects_short_jet(self):
        with pytest.raises(ReductionError):
            build_reduction_table(constant_jet(1.0, 4), 7)


def random_a_jets(seed, count, order=6):
    """Jets of ``count`` random positive polynomial coefficients, each at its
    own base point, stacked on a leading batch axis."""
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(count):
        a = random_poly(rng, 3, scale=0.2)
        a[0, 0] = rng.uniform(1.5, 2.5)
        base = (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        tables.append(poly_jet(a, order, base).c)
    return Jet2(np.stack(tables), order)


def table_dicts(table):
    """(u, f) dicts {(p, q): {key: value}} of a table, keyed as its order's
    program maps its value rows, each value read through ``u_value`` or
    ``f_value``."""
    program = _program(table.order)
    return tuple({pq: {key: read(*pq, *key) for key in keys}
                  for pq, keys in rows.items()}
                 for rows, read in ((program.u_rows, table.u_value),
                                    (program.f_rows, table.f_value)))


def term_by_term_table(a_jet, order):
    """(u, f) dicts of the reduction, each term weight * sub * scale formed
    and added on its own, walking the substitutions as the compiled
    ``build_reduction_table`` program replays them."""
    one = np.ones(a_jet.c.shape[:-2])
    inv_a = a_jet.reciprocal()
    r1 = _partials(a_jet.dx() * inv_a)
    r2 = _partials(a_jet.dy() * inv_a)
    q_inv = _partials(inv_a)
    u = {(p, q): {(p, q): one.copy()} for p, q in lambda_full(order) if p <= 1}
    f = {pq: {} for pq in u}

    def add(store, key, value):
        store[key] = store[key] + value if key in store else value

    for p in range(2, order + 1):
        for q in range(order - p + 1):
            mr, nr = p - 2, q
            uc, fc = {}, {}
            for i in range(mr + 1):
                for j in range(nr + 1):
                    add(fc, (i, j),
                        q_inv[mr - i, nr - j] * (-comb(mr, i) * comb(nr, j)))

            def substitute(target, weight, scale):
                if target[0] <= 1:
                    add(uc, target, weight * scale)
                    return
                for key, sub in u[target].items():
                    add(uc, key, weight * sub * scale)
                for key, sub in f[target].items():
                    add(fc, key, weight * sub * scale)

            substitute((mr, nr + 2), one, -1.0)
            for i in range(mr + 1):
                for j in range(nr + 1):
                    w = comb(mr, i) * comb(nr, j)
                    substitute((i + 1, j), r1[mr - i, nr - j], -w)
                    substitute((i, j + 1), r2[mr - i, nr - j], -w)
            u[(p, q)], f[(p, q)] = uc, fc
    return u, f


class TestCompiledTable:
    @pytest.mark.parametrize("order", [5, 6, 7])
    @pytest.mark.parametrize("batch", [(), (6,), (2, 3)])
    def test_matches_the_term_by_term_recursion_bit_for_bit(self, order, batch):
        """Same keys, in the same order, and the same bits, signed zeros
        included (a constant coefficient makes many entries zero)."""
        rng = np.random.default_rng(order + len(batch))
        c = 0.3 * rng.standard_normal(batch + (7, 7))
        c[..., 0, 0] = 2.0
        linear = c.copy()
        linear[..., 2:, :] = linear[..., :, 2:] = linear[..., 1, 1] = 0.0
        for jet in (Jet2(c, 6), Jet2(linear, 6), constant_jet(1.5, 6)):
            table = build_reduction_table(jet, order)
            for got, want in zip(table_dicts(table),
                                 term_by_term_table(jet, order)):
                assert list(got) == list(want)
                for pq, coeffs in want.items():
                    assert list(got[pq]) == list(coeffs)
                    for key, value in coeffs.items():
                        assert same_bits(got[pq][key], value)


class TestSplitTable:
    """The u rows (read by G) and the f rows (read by H) are two arrays."""

    @pytest.mark.parametrize("order", [5, 6, 7])
    def test_every_key_reads_the_recursion_value(self, order):
        """For every (p, q) of Lambda_order, every band key and every source
        key, ``u_value`` and ``f_value`` give the bits of the term-by-term
        recursion (which the one-array table matched bit for bit), and a
        zero from the array's own zero row where it holds no term."""
        jet = random_a_jets(25, 4, order - 1)
        table = build_reduction_table(jet, order)
        zero = np.zeros(4)
        for read, want, keys in (
                (table.u_value, term_by_term_table(jet, order)[0],
                 lambda_band(order)),
                (table.f_value, term_by_term_table(jet, order)[1],
                 lambda_full(order - 2))):
            for pq in lambda_full(order):
                for key in keys:
                    assert same_bits(read(*pq, *key),
                                     want.get(pq, {}).get(key, zero))

    def test_array_sizes_and_zero_rows(self):
        table = build_reduction_table(random_a_jets(26, 3), 7)
        assert _program(7).sizes == {"u": 218, "f": 174}
        # one (B,) array per row, each of its own
        for rows, n in ((table.u, 219), (table.f, 175)):
            assert isinstance(rows, list) and len(rows) == n
            assert all(row.shape == (3,) and row.base is None for row in rows)
        assert not table.u[-1].any() and not table.f[-1].any()

    @pytest.mark.parametrize("order", [6, 7])
    def test_each_array_alone_has_the_same_bits(self, order):
        jet = random_a_jets(27, 3, order - 1)
        table = build_reduction_table(jet, order)
        u_only, f_only = (build_reduction_table(jet, order, rows)
                          for rows in "uf")
        assert u_only.f is None and f_only.u is None
        assert same_bits(u_only.u, table.u) and same_bits(f_only.f, table.f)
        assert same_bits(packed_block(f_only, "H"), gh_blocks(table)[1])


class TestValueOnlyTable:
    """The table stores coefficient values, not jets."""

    @pytest.mark.parametrize("order", [6, 7])
    def test_entries_are_arrays_of_the_batch_shape(self, order):
        table = build_reduction_table(random_a_jets(20, 5), order)
        for store in table_dicts(table):
            for coeffs in store.values():
                for value in coeffs.values():
                    assert isinstance(value, np.ndarray)
                    assert value.shape == (5,)

    @pytest.mark.parametrize("order", [6, 7])
    def test_batch_matches_single_points_bit_for_bit(self, order):
        batch = random_a_jets(21, 5)
        table = table_dicts(build_reduction_table(batch, order))
        for k in range(5):
            single = table_dicts(
                build_reduction_table(Jet2(batch.c[k], batch.order), order))
            for got, want in zip(table, single):
                assert got.keys() == want.keys()
                for pq, coeffs in want.items():
                    assert coeffs.keys() == got[pq].keys()
                    for key, value in coeffs.items():
                        assert np.array_equal(got[pq][key][k], value)


def same_bits(a, b):
    """Equal shapes and equal float64 bits (so -0.0 differs from 0.0)."""
    a, b = (np.ascontiguousarray(x, dtype=float) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def derivative_chain_partials(jet):
    """Base-point partials (r, s) -> f^(r,s) as values of derivative jets:
    s ``dy()`` and then r ``dx()`` calls, each jet built once."""
    cache = {(0, 0): jet}

    def get(r, s):
        if (r, s) not in cache:
            cache[(r, s)] = get(r - 1, s).dx() if r > 0 else get(r, s - 1).dy()
        return cache[(r, s)]

    return {(r, s): get(r, s).value for r, s in lambda_full(jet.order)}


class TestWeightPartials:
    """The reduction reads the weights' partials from one scaled table."""

    @pytest.mark.parametrize("order", [4, 5, 6])
    def test_scaled_table_matches_derivative_jets_bit_for_bit(self, order):
        rng = np.random.default_rng(40 + order)
        random = Jet2(rng.standard_normal((64, order + 1, order + 1))
                      * 10.0 ** rng.uniform(-3, 3, (64, 1, 1)), order)
        signed = np.zeros((order + 1, order + 1))
        signed[0, 0] = 2.0
        signed[1, 2] = signed[3, 0] = signed[0, order] = -0.0
        for jet in (random, Jet2(signed, order)):
            got = _partials(jet)
            for (r, s), want in derivative_chain_partials(jet).items():
                assert same_bits(got[r, s], want), (r, s)


def reference_gh_polynomials(table, order):
    """G/H tables filled one (p, q) entry at a time, keyed in block order."""
    from math import comb, factorial

    batch = table.batch
    out = []
    for keys, value in ((lambda_band(order), table.u_value),
                        (lambda_full(order - 2), table.f_value)):
        polys = {}
        for key in keys:
            c = np.zeros(batch + (order + 1, order + 1))
            for (p, q) in lambda_full(order):
                c[..., p, q] = value(p, q, *key) / (factorial(p) * factorial(q))
            polys[key] = c
        out.append(polys)
    return out


class TestGHPolynomialsBatch:
    @pytest.mark.parametrize("order", [6, 7])
    def test_matches_entrywise_reference_bit_for_bit(self, order):
        table = build_reduction_table(random_a_jets(22, 5), order)
        for got, want in zip(gh_blocks(table),
                             reference_gh_polynomials(table, order)):
            assert len(got) == len(want)
            assert got.shape[-1] == len(lambda_full(order))
            for c_got, c in zip(dense_tables(got), want.values()):
                assert same_bits(c_got, c)

    @pytest.mark.parametrize("order", [6, 7])
    @pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
    def test_streamed_g_entries_match_the_block_bit_for_bit(self, order,
                                                             batch):
        """The G and the H entries, each streamed from its own array."""
        jet = random_a_jets(24, int(np.prod(batch, dtype=int)), order - 1)
        table = build_reduction_table(
            Jet2(jet.c.reshape(batch + jet.c.shape[-2:]), order - 1), order)
        for family, block in zip("GH", gh_blocks(table)):
            block = np.moveaxis(block, -1, 0)
            entries = list(packed_entries(table, family))
            assert len(entries) == len(block)
            for got, want in zip(entries, block):
                assert same_bits(got, want)


# The paper's 15x9 constant matrix: rows are the canonical first band of
# order 7, columns the nine offsets in lexicographic order.
A0_REGULAR = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1, 1],
        [-1, 0, 1, -1, 0, 1, -1, 0, 1],
        [-1, -1, -1, 0, 0, 0, 1, 1, 1],
        [0, -1 / 2, 0, 1 / 2, 0, 1 / 2, 0, -1 / 2, 0],
        [1, 0, -1, 0, 0, 0, -1, 0, 1],
        [1 / 3, 0, -1 / 3, -1 / 6, 0, 1 / 6, 1 / 3, 0, -1 / 3],
        [-1 / 3, 1 / 6, -1 / 3, 0, 0, 0, 1 / 3, -1 / 6, 1 / 3],
        [-1 / 6, 1 / 24, -1 / 6, 1 / 24, 0, 1 / 24, -1 / 6, 1 / 24, -1 / 6],
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1 / 30, 0, -1 / 30, -1 / 120, 0, 1 / 120, 1 / 30, 0, -1 / 30],
        [1 / 30, -1 / 120, 1 / 30, 0, 0, 0, -1 / 30, 1 / 120, -1 / 30],
        [0, -1 / 720, 0, 1 / 720, 0, 1 / 720, 0, -1 / 720, 0],
        [-1 / 90, 0, 1 / 90, 0, 0, 0, 1 / 90, 0, -1 / 90],
        [-1 / 630, 0, 1 / 630, -1 / 5040, 0, 1 / 5040, -1 / 630, 0, 1 / 630],
        [1 / 630, 1 / 5040, 1 / 630, 0, 0, 0, -1 / 630, -1 / 5040, -1 / 630],
    ]
)


class TestGHPolynomials:
    def test_g00_is_one(self):
        rng = np.random.default_rng(9)
        a = random_poly(rng, 3, scale=0.2)
        a[0, 0] = 1.7
        table = build_reduction_table(poly_jet(a, 6, (0.1, -0.1)), 7)
        g, _ = gh_blocks(table)
        c = dense_tables(g[lambda_band(7).index((0, 0))])
        c[0, 0] -= 1.0
        assert np.allclose(c, 0.0, atol=1e-13)

    def test_leading_parts_reproduce_a0(self):
        """All 135 entries of the paper's matrix from the G leading parts."""
        got = np.array(
            [
                [poly_eval(leading_g_poly(m, n, 8), k, ell)
                 for (k, ell) in OFFSETS9]
                for (m, n) in lambda_band(7)
            ]
        )
        assert np.allclose(got, A0_REGULAR, atol=1e-15)

    def test_constant_a_gives_leading_parts_only(self):
        table = build_reduction_table(constant_jet(2.0, 6), 7)
        g, h = map(dense_tables, gh_blocks(table))
        for k, (m, n) in enumerate(lambda_band(7)):
            assert np.allclose(g[k], leading_g_poly(m, n, 8), atol=1e-14)
        # leading term of H_{7,0,0} is -x^2/(2a)
        h00 = h[lambda_full(5).index((0, 0))]
        assert h00[2, 0] == pytest.approx(-1.0 / (2.0 * 2.0))
        assert np.allclose(h00[:2, :2], 0.0)

    def test_g02_point_values(self):
        assert poly_eval(leading_g_poly(0, 2, 8), 0.0, -1.0) == pytest.approx(0.5)
        vals = [poly_eval(leading_g_poly(1, 3, 8), k, q) for (k, q) in OFFSETS9]
        assert np.allclose(vals, 0.0)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_taylor_identity_exact_for_polynomials(self, seed):
        """u(x*+x, y*+y) = sum u^(m,n) G + sum f^(m,n) H for degree<=7 pairs."""
        rng = np.random.default_rng(seed)
        u = random_poly(rng, 7)
        a = random_poly(rng, 3, scale=0.1)
        a[0, 0] = 1.5
        f = pde_source(a, u)
        base = (0.05, -0.1)
        table = build_reduction_table(poly_jet(a, 6, base), 7)
        g, h = map(dense_tables, gh_blocks(table))
        for (dx_, dy_) in [(0.3, 0.2), (-0.25, 0.15), (0.1, -0.35)]:
            direct = poly_eval(u, base[0] + dx_, base[1] + dy_)
            via = sum(
                deriv_at(u, m, n, *base) * poly_eval(c, dx_, dy_)
                for (m, n), c in zip(lambda_band(7), g)
            ) + sum(
                deriv_at(f, m, n, *base) * poly_eval(c, dx_, dy_)
                for (m, n), c in zip(lambda_full(5), h)
            )
            assert via == pytest.approx(direct, rel=1e-9, abs=1e-11)


class TestTransposedTable:
    """The reduction onto the band n in {0, 1}: the transposed jet's blocks
    with their indices swapped (``transpose_blocks``)."""

    @staticmethod
    def blocks(a_jet, order):
        return transpose_blocks(
            *gh_blocks(build_reduction_table(a_jet.transposed(), order)))

    def test_constant_a_transposed_entries(self):
        jet = constant_jet(1.0, 6)
        # u^(0,2) = -u^(2,0) - f / a, read in the transposed jet's table
        table = build_reduction_table(jet.transposed(), 7)
        assert table.u_value(2, 0, 0, 2) == pytest.approx(-1.0)
        g = dense_tables(self.blocks(jet, 7)[0])
        expect = np.zeros((8, 8))
        expect[2, 0] = 0.5
        expect[0, 2] = -0.5
        # the transposed block holds G~_{n,m} in the row of (m, n)
        assert np.allclose(g[lambda_band(7).index((0, 2))], expect, atol=1e-14)

    def test_transpose_symmetry_random_a(self):
        rng = np.random.default_rng(13)
        a = random_poly(rng, 3, scale=0.2)
        a[0, 0] = 2.0
        base = (0.1, 0.25)
        ajet = poly_jet(a, 6, base)
        g, h = map(dense_tables,
                   gh_blocks(build_reduction_table(ajet.transposed(), 7)))
        gt, ht = map(dense_tables, self.blocks(ajet, 7))
        for k in range(len(lambda_band(7))):
            assert np.allclose(gt[k], g[k].T, atol=1e-12)
        full = lambda_full(5)
        for k, (i, j) in enumerate(full):
            assert np.allclose(ht[full.index((j, i))], h[k].T, atol=1e-12)

    @pytest.mark.parametrize("batch,order", [(5, 6), (5, 7), (None, 6)])
    def test_matches_the_transposed_table_bit_for_bit(self, batch, order):
        """Equal, in bits and layout, to the blocks packed entry by entry
        from the transposed jet's table re-keyed to the swapped indices."""
        jet = random_a_jets(23, batch or 1, order)
        if batch is None:
            jet = Jet2(jet.c[0], order)
        got = self.blocks(jet, order)
        want = swapped_table_blocks(jet, order)
        for g, w in zip(got, want):
            assert same_bits(g, w) and g.strides == w.strides


def swapped_table_blocks(a_jet, order):
    """G/H blocks of the transposed jet's table with every (p, q) key swapped
    to (q, p) and the band read in its (n, m) form, packed one entry at a
    time into (E, K, ...) storage."""
    tu, tf = table_dicts(build_reduction_table(a_jet.transposed(), order))
    u = {(q, p): {(n, m): v for (m, n), v in coeffs.items()}
         for (p, q), coeffs in tu.items()}
    f = {(q, p): {(j, i): v for (i, j), v in coeffs.items()}
         for (p, q), coeffs in tf.items()}
    full = lambda_full(order)

    def block(keys, store):
        c = np.zeros((len(full), len(keys)) + a_jet.c.shape[:-2])
        for e, (p, q) in enumerate(full):
            entries = store.get((p, q), {})
            for k, key in enumerate(keys):
                if key in entries:
                    np.divide(entries[key], factorial(p) * factorial(q),
                              out=c[e, k, ...])
        return np.moveaxis(c, 0, -1)

    band = [(n, m) for (m, n) in lambda_band(order)]
    return block(band, u), block(lambda_full(order - 2), f)
