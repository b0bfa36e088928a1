"""Sixth-order 9-point compact stencil at interior regular points.

The stencil coefficients are degree-7 polynomials in h determined degree by
degree: the constant 15x9 leading matrix (rows = first band of order 7,
columns = the nine offsets) is solved with right-hand sides assembled from the
coefficient jets, the free parameters tied as

    c_{1,0,4} = c_{1,1,4},   c_{0,1,5} = c_{1,-1,5} = c_{1,0,5} = c_{1,1,5},
    c_{-1,1,6} = c_{0,1,6} = c_{1,-1,6} = c_{1,0,6} = c_{1,1,6},
    c_{0,0,6} = -8 c_{1,1,6},

(the table ``TIES9`` states them in code), the degree-0 solution pinned to
(center 20, edges -4, corners -1), and each remaining free parameter
maximized under the per-degree sign conditions.  The result satisfies the
sign and sum conditions for every h > 0 (the per-degree sums all vanish for
this family), is unique, and reduces to the constant Laplacian stencil when
the coefficient is constant.

c_{1,1,0} = -1 (``stencil_core.PIN0``) is hard-coded; any negative value
works and only rescales the row.

The 15 G and 21 H polynomials are packed coefficient tables: each degree-7
polynomial is the row of its 36 coefficients with p + q <= 7, in Lambda_7
order (``reduction.gh_blocks``).  Their h-expansions and values at the
nine offsets go through the cached constant operator of OFFSETS9
(``stencil_core.offset_operator``, shape (36, 9, 8)), as for the edge and
corner stencils.  Neither block is ever built: each packed entry (the 15
or 21 tables' (p, q) coefficient) is one gather of table rows divided by
p! q! (``reduction.packed_entries``), read once and dropped.  The G
entries are added into the (offset, degree) sums of the packed
expansions, which keep only the 64 (row, degree) pairs at or above each
row's leading degree (LEAD9), the ones the recursion reads.  The
reduction table is built in two halves: its u rows (1.7 KiB a node), read
by G, go once the expansions exist; its f rows (1.4 KiB), read by H, are
built only after the recursion, when the expansions are gone, and
``weights_at_offsets`` reads the H entries from them, against the
operator evaluated at h and the stencil values.  So a chunk's peak, in
the expansion or the recursion, is its packed expansions (4.5 KiB a
node), the u rows or the recursion's own arrays, and its jets.  The
expansions are one array per offset and the table one array per row, so
no array of a 1,024-node chunk reaches 1 MB.  Everything works
elementwise along the chunk, so a node's stencil and weights do not
depend on the chunk it is solved in.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .indexsets import lambda_band
from .jets import Jet2
from .reduction import ReductionTable, build_reduction_table, packed_entries
from .stencil_core import (
    build_degree_solvers,
    expand_at_offsets,
    frac_leading_g,
    run_constant_recursion,
    weights_at_offsets,
)

OFFSETS9 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
            (1, -1), (1, 0), (1, 1))
CENTER9 = OFFSETS9.index((0, 0))
LEAD9 = tuple(m + n for (m, n) in lambda_band(7))   # leading h-degree of a row


# TIES9[d]: the tie rows of degree d, each a list of (offset, weight) terms
# whose weighted sum of the c_{k,l,d} vanishes; degree 7 is left zero
TIES9 = {
    4: [[((1, 0), 1), ((1, 1), -1)]],
    5: [[(o, 1), ((1, 1), -1)] for o in ((0, 1), (1, -1), (1, 0))],
    6: [[(o, 1), ((1, 1), -1)] for o in ((-1, 1), (0, 1), (1, -1), (1, 0))]
    + [[((0, 0), 1), ((1, 1), 8)]],
    7: None,
}


@lru_cache(maxsize=1)
def _regular_solvers():
    a0 = [[frac_leading_g(m, n, k, ell) for (k, ell) in OFFSETS9]
          for (m, n) in lambda_band(7)]
    return build_degree_solvers(a0, LEAD9, OFFSETS9, TIES9, pin=(1, 1))


def regular_expansions(table: ReductionTable) -> list:
    """Packed h-expansions of the G_{7,m,n} at OFFSETS9, one (64, ...)
    array per offset.

    Expanded straight from the u rows of the order-7 reduction table, one
    gathered packed entry at a time, keeping the 64 (row, degree) pairs at
    or above each row's leading degree (``stencil_core.packed_positions``
    of LEAD9); every batch vector the recursion reads is contiguous.
    """
    return expand_at_offsets(packed_entries(table, "G"), OFFSETS9, 8, LEAD9)


def regular_rhs_weights(coeffs: np.ndarray, table: ReductionTable,
                        h: float) -> np.ndarray:
    """Weights of f^(m,n) over Lambda_5: sum_o C_o(h) H_{7,m,n}(kh, lh).

    ``table`` is the order-7 reduction table (its f rows suffice); the H
    entries are read from it one at a time.  The h^-2 row scale of the
    scheme is applied by the assembler, not here.
    """
    return weights_at_offsets(packed_entries(table, "H"), OFFSETS9, coeffs, h)


def build_regular_batch(a_jet: Jet2):
    """Stencil at every point of a jet with leading batch axes.

    Returns the (..., 9, 8) stencil coefficients, C_o(h) = sum_p
    coeffs[..., o, p] h^p over OFFSETS9, and the order-7 reduction table
    of the f rows alone, for the source weights (``regular_rhs_weights``).
    The table is built in two halves: the u rows first, dropped once the
    expansions exist, and the f rows only after the recursion, when the
    expansions are gone; the second half recomputes the weight jets
    rather than hold the f rows through the recursion.
    """
    expansions = regular_expansions(build_reduction_table(a_jet, 7, "u"))
    coeffs = run_constant_recursion(expansions, LEAD9, _regular_solvers(),
                                    center=CENTER9)
    del expansions
    return coeffs, build_reduction_table(a_jet, 7, "f")
