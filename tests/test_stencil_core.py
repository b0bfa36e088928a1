"""Exact solution operators of the constant stencil systems, and the ties
they impose on the solved 9-point, edge and corner stencils."""

from fractions import Fraction

import numpy as np
import pytest

from hybridfdm import jets, stencil_core, transmission
from hybridfdm.errors import StencilError
from hybridfdm.jets import Jet2
from hybridfdm.stencil_boundary import (
    CORNER_OFFSETS,
    EDGE_OFFSETS,
    _CORNER_COMBINE,
    _corner_solvers,
    _edge_solvers,
    build_corner_reduction,
    solve_corner_stencil,
    solve_edge_stencil,
)
from hybridfdm.stencil_regular import OFFSETS9, _regular_solvers, build_regular_batch

from test_jets_reduction import random_a_jets


def reference_solution_operator(rows):
    """Gauss-Jordan elimination in Fraction arithmetic, read with float()."""
    n_rows, n_cols = len(rows), len(rows[0])
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n_rows)]
           for i, r in enumerate(rows)]
    prow = 0
    for c in range(n_cols):
        pr = next((i for i in range(prow, n_rows) if aug[i][c] != 0), None)
        if pr is None:
            raise StencilError("constant stencil system is rank deficient")
        aug[prow], aug[pr] = aug[pr], aug[prow]
        piv = aug[prow][c]
        aug[prow] = [v / piv for v in aug[prow]]
        for i in range(n_rows):
            if i != prow and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [vi - f * vp for vi, vp in zip(aug[i], aug[prow])]
        prow += 1
    return np.array(
        [[float(aug[i][n_cols + j]) for j in range(n_rows)] for i in range(n_cols)]
    )


@pytest.fixture(scope="module")
def constant_systems():
    """The stacked systems of every regular, edge and corner degree."""
    systems = []
    real = stencil_core._solution_operator

    def record(rows):
        systems.append(rows)
        return real(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stencil_core, "_solution_operator", record)
        for builder in (_regular_solvers, _edge_solvers, _corner_solvers):
            builder.__wrapped__()
    return systems


def test_integer_elimination_matches_fractions_bit_for_bit(constant_systems):
    assert len(constant_systems) == 21
    for rows in constant_systems:
        got = stencil_core._solution_operator(rows)
        want = reference_solution_operator(rows)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_rank_deficient_system_raises():
    F = Fraction
    with pytest.raises(StencilError, match="rank deficient"):
        stencil_core._solution_operator([[F(1), F(2)], [F(2), F(4)]])


def test_cached_arrays_are_read_only():
    # every chunk of a process shares these caches, so a write to one
    # array would reach every later stencil
    arrays = [_CORNER_COMBINE, *transmission._curve_operators(1 / 16),
              *jets._conv_table(7, 7, 7)]
    for builder in (_regular_solvers, _edge_solvers, _corner_solvers):
        arrays += [a for solver in builder() if solver is not None
                   for a in solver]
    assert len(arrays) == 1 + 2 + 4 + 2 * 21
    assert not any(a.flags.writeable for a in arrays)


# The ties of the module docstrings of stencil_regular and stencil_boundary,
# written out here on their own: each (d, lhs, rhs) says that two
# combinations of degree-d coefficients are equal.  c(k, l, d) is the
# coefficient of h^d at the offset (k, l); a corner has a hat and a tilde one.

def regular_ties(c):
    return [(4, c(1, 0, 4), c(1, 1, 4)),
            *[(5, c(k, l, 5), c(1, 1, 5)) for k, l in ((0, 1), (1, -1), (1, 0))],
            *[(6, c(k, l, 6), c(1, 1, 6))
              for k, l in ((-1, 1), (0, 1), (1, -1), (1, 0))],
            (6, c(0, 0, 6), -8 * c(1, 1, 6))]


def edge_ties(c):
    return [(3, c(1, 0, 3), c(1, 1, 3)),
            *[(4, c(k, l, 4), c(1, 1, 4)) for k, l in ((1, -1), (1, 0))],
            *[(5, c(k, l, 5), c(1, 1, 5)) for k, l in ((0, 1), (1, -1), (1, 0))],
            *[(6, c(k, l, 6), 0.0) for k, l in ((0, 1), (1, -1), (1, 0))],
            (6, c(0, 0, 6), -2 * c(1, 1, 6))]


def corner_ties(hat, til):
    return [*[(d, til(0, 0, d), 0.0) for d in range(7)],
            *[(d, til(1, 0, d), 0.0) for d in range(5)],
            (3, til(0, 1, 3), til(1, 1, 3)),
            (4, hat(1, 1, 4), til(1, 1, 4)),
            (4, til(0, 1, 4), 2 * til(1, 1, 4)),
            *[(5, x, til(1, 1, 5))
              for x in (hat(1, 0, 5), hat(1, 1, 5), til(1, 0, 5))],
            (5, til(0, 1, 5), 3 * til(1, 1, 5)),
            *[(6, x, til(1, 1, 6)) for x in (hat(0, 1, 6), hat(1, 0, 6),
                                              hat(1, 1, 6), til(0, 1, 6),
                                              til(1, 0, 6))]]


def at(coeffs, offsets):
    """c(k, l, d) of a (..., n_off, n_deg) stencil."""
    return lambda k, l, d: coeffs[..., offsets.index((k, l)), d]


def assert_ties_hold(ties, coeffs):
    """Each tie to within 1e-12 of its degree's largest |coefficient|."""
    for d, lhs, rhs in ties:
        scale = np.abs(coeffs[..., d]).max(axis=-1)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale), d


def test_regular_ties_hold_on_solved_stencils():
    coeffs, _ = build_regular_batch(random_a_jets(41, 16))
    ties = regular_ties(at(coeffs, OFFSETS9))
    assert len(ties) == 9
    assert_ties_hold(ties, coeffs)
    laplacian = np.array([-1, -4, -1, -4, 20, -4, -1, -4, -1], dtype=float)
    assert np.all(coeffs[..., 0] == laplacian)
    assert np.all(coeffs[..., 7] == 0.0)


def test_edge_ties_hold_on_solved_stencils():
    rng = np.random.default_rng(42)
    coeffs = solve_edge_stencil(random_a_jets(43, 16),
                                rng.uniform(0.0, 1.0, (16, 6))).coeffs
    ties = edge_ties(at(coeffs, EDGE_OFFSETS))
    assert len(ties) == 10
    assert_ties_hold(ties, coeffs)
    assert np.all(at(coeffs, EDGE_OFFSETS)(1, 1, 0) == -1.0)


def test_corner_ties_hold_on_solved_stencils():
    rng = np.random.default_rng(44)
    a_jets = random_a_jets(45, 20)
    for c in a_jets.c:
        alpha, beta = rng.uniform(0.0, 1.0, (2, 6))
        st = solve_corner_stencil(build_corner_reduction(
            Jet2(c, a_jets.order), alpha, beta))
        (hat, _), (til, _) = st.parts
        ties = corner_ties(at(hat, CORNER_OFFSETS), at(til, CORNER_OFFSETS))
        assert len(ties) == 24
        assert_ties_hold(ties, np.concatenate([hat, til]))
        assert at(til, CORNER_OFFSETS)(1, 1, 0) == -1.0
