"""Exact solution operators of the constant stencil systems."""

from fractions import Fraction

import numpy as np
import pytest

from hybridfdm import stencil_core
from hybridfdm.errors import StencilError
from hybridfdm.stencil_boundary import _corner_solvers, _edge_solvers
from hybridfdm.stencil_regular import _regular_solvers


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
