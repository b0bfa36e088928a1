"""Derivative reduction for -div(a grad u) = f.

The PDE lets every partial derivative ``u^(p,q)`` be rewritten in terms of the
first-band derivatives ``u^(m,n)`` with ``m in {0,1}`` plus derivatives of the
source ``f``:

    u^(p,q) = sum a_u[p,q,m,n] u^(m,n)  +  sum a_f[p,q,i,j] f^(i,j)

The coefficients are functions of the diffusion coefficient alone; they are
obtained by recursively substituting the Leibniz-differentiated identity

    u^(m+2,n) = -(f/a)^(m,n) - u^(m,n+2)
                - sum binom * [ (a_x/a)^(..) u^(i+1,j) + (a_y/a)^(..) u^(i,j+1) ]

Only the three weight jets ``a_x/a``, ``a_y/a`` and ``1/a`` are ever
differentiated; the coefficients themselves are only added, scaled and
multiplied by derivatives of those weights.  So each coefficient is carried as
its value at the base point alone (one float per batch entry): the constant
term of a truncated jet product is the product of the constant terms, which
makes the value-only recursion exact, not an approximation.  The weights'
base-point partials come from one scaling of each weight's Taylor table:
entry (r, s) times s, s-1, ..., 2, then times r, r-1, ..., 2.  That is the
order in which s ``dy()`` and then r ``dx()`` calls would round the entry
down to a constant term, so each partial has the bits of the differentiated
jet's value without any derivative jet being built.  From the table come the
polynomial families G (weights of the band derivatives) and H (weights of
the source derivatives) that every stencil builder consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial

import numpy as np

from .errors import ReductionError
from .indexsets import lambda_band, lambda_full, packed_size
from .jets import Jet2


@dataclass
class ReductionTable:
    """Reduction coefficients a_u, a_f for all (p, q) in Lambda_order.

    ``u[(p, q)][(m, n)]`` is the base-point value of the coefficient of
    ``u^(m,n)`` and ``f[(p, q)][(i, j)]`` that of ``f^(i,j)``: an array of
    the coefficient jet's batch shape (a numpy scalar for an unbatched jet).
    Values suffice, and are exact, because the recursion differentiates only
    the weight jets a_x/a, a_y/a and 1/a, never an entry (see the module
    docstring).  For transposed tables the band is n in {0, 1} instead of
    m in {0, 1}.
    """

    order: int
    a_jet: Jet2
    u: dict = field(default_factory=dict)
    f: dict = field(default_factory=dict)
    transposed: bool = False

    def u_value(self, p, q, m, n):
        return self.u.get((p, q), {}).get((m, n), self._zero())

    def f_value(self, p, q, i, j):
        return self.f.get((p, q), {}).get((i, j), self._zero())

    def _zero(self):
        return np.zeros(self.a_jet.c.shape[:-2])


def _accumulate(store: dict, key, value: np.ndarray):
    if key in store:
        store[key] = store[key] + value
    else:
        store[key] = value


def _partials(jet: Jet2) -> np.ndarray:
    """Base-point partials f^(r,s) of a jet as a (k, k, ...) table, scaled
    factor by factor in the order the module docstring gives."""
    d = np.moveaxis(jet.c, (-2, -1), (0, 1)).copy()
    for t in range(d.shape[0] - 1, 1, -1):
        d[:, t:] *= t
    for t in range(d.shape[0] - 1, 1, -1):
        d[t:] *= t
    return d


def build_reduction_table(a_jet: Jet2, order: int) -> ReductionTable:
    """Reduction table for expansion order ``order`` (indices in Lambda_order).

    ``a_jet`` must carry derivatives of the coefficient up to total order
    ``order - 1`` and have a strictly positive value at the base point.
    """
    if a_jet.order < order - 1:
        raise ReductionError(
            f"coefficient jet of order {a_jet.order} cannot support an order-"
            f"{order} reduction (needs {order - 1})"
        )
    if not np.all(a_jet.value > 0.0):
        raise ReductionError("coefficient must be positive at the base point")

    table = ReductionTable(order=order, a_jet=a_jet)
    one = np.ones(a_jet.c.shape[:-2])
    inv_a = a_jet.reciprocal()
    r1 = _partials(a_jet.dx() * inv_a)
    r2 = _partials(a_jet.dy() * inv_a)
    q_inv = _partials(inv_a)

    for p, q in lambda_full(order):
        if p <= 1:
            table.u[(p, q)] = {(p, q): one.copy()}
            table.f[(p, q)] = {}

    for p in range(2, order + 1):
        for q in range(0, order - p + 1):
            mr, nr = p - 2, q
            ucoef: dict = {}
            fcoef: dict = {}

            # -(f/a)^(mr,nr), expanded by Leibniz over f^(i,j)
            for i in range(mr + 1):
                for j in range(nr + 1):
                    w = -comb(mr, i) * comb(nr, j)
                    _accumulate(fcoef, (i, j), q_inv[mr - i, nr - j] * w)

            def substitute(target, weight, scale):
                """Add scale * weight * u^target, reducing target if needed."""
                if target[0] <= 1:
                    _accumulate(ucoef, target, weight * scale)
                    return
                for key, sub in table.u[target].items():
                    _accumulate(ucoef, key, weight * sub * scale)
                for key, sub in table.f[target].items():
                    _accumulate(fcoef, key, weight * sub * scale)

            # x * 1.0 == x exactly, so a unit weight changes no bit
            substitute((mr, nr + 2), one, -1.0)
            for i in range(mr + 1):
                for j in range(nr + 1):
                    w = comb(mr, i) * comb(nr, j)
                    substitute((i + 1, j), r1[mr - i, nr - j], -w)
                    substitute((i, j + 1), r2[mr - i, nr - j], -w)

            table.u[(p, q)] = ucoef
            table.f[(p, q)] = fcoef

    return table


def transpose_reduction_table(a_jet: Jet2, order: int) -> ReductionTable:
    """Reduction onto the n in {0, 1} band (roles of x and y swapped)."""
    t = build_reduction_table(a_jet.transposed(), order)
    out = ReductionTable(order=order, a_jet=a_jet, transposed=True)
    for (p, q), coeffs in t.u.items():
        out.u[(q, p)] = {(n, m): v for (m, n), v in coeffs.items()}
    for (p, q), coeffs in t.f.items():
        out.f[(q, p)] = {(j, i): v for (i, j), v in coeffs.items()}
    return out


def gh_blocks(table: ReductionTable):
    """G/H coefficient polynomials of the Taylor identity at the table's order

    u(x* + x, y* + y) = sum_band u^(m,n) G[m,n](x,y)
                        + sum_{Lambda_{order-2}} f^(m,n) H[m,n](x,y) + O(h^{order+1})

    as two packed coefficient blocks, G (n_band, ..., E) and H (n_f, ..., E):
    entry [k, ..., e] is value(p, q, *key_k) / (p! q!) for the e-th (p, q)
    of Lambda_order, E = (order + 1)(order + 2) / 2 in all.  The keys are in
    canonical order: the band (for a transposed table its (n, m) form, with
    the roles of x and y exchanged) and Lambda_{order-2}.  Each block is one
    zeroed (E, K, ...) array, returned as its (K, ..., E) view, so that the
    writes of the entries the table holds (392 of 1,296 at order 7) and the
    per-entry reads of ``stencil_core`` are contiguous.
    """
    order = table.order
    batch = table.a_jet.c.shape[:-2]
    full = lambda_full(order)
    fact = [factorial(k) for k in range(order + 1)]

    def block(keys, store):
        c = np.zeros((len(full), len(keys)) + batch)
        for e, (p, q) in enumerate(full):
            entries = store.get((p, q), {})
            for k, key in enumerate(keys):
                if key in entries:
                    np.divide(entries[key], fact[p] * fact[q],
                              out=c[e, k, ...])
        return np.moveaxis(c, 0, -1)

    band = lambda_band(order)
    if table.transposed:
        band = tuple((n, m) for (m, n) in band)
    return block(band, table.u), block(lambda_full(order - 2), table.f)


def dense_tables(block: np.ndarray) -> np.ndarray:
    """The square (..., k, k) tables of a packed (..., k (k + 1) / 2) block,
    zero above total degree k - 1; an exact scatter."""
    k = packed_size(block.shape[-1])
    p, q = (np.array(ix) for ix in zip(*lambda_full(k - 1)))
    out = np.zeros(block.shape[:-1] + (k, k))
    out[..., p, q] = block
    return out
