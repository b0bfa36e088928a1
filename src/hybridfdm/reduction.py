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

The substitutions do not depend on the coefficient, so they are compiled
once per order (``_program``) into straight-line code over value rows:
each instruction is one term (weight * value) * scale, or weight * scale
where it has no value, that sets its row or adds into it, in the order the
recursion meets them.  Every entry is therefore the same sum, rounded the
same way, as the recursion gives when it walks its terms one by one; a
scale of +-1 and the unit weight round exactly, so no term needs a form of
its own.  The table is two lists of value rows, the u rows (coefficients
of band derivatives, read by G) and the f rows (coefficients of source
derivatives, read by H), since no term mixes the two.  Each row is an
array of its own, 8 KiB for a 1,024-node chunk, so no table array
outgrows the 1 MB of the README's memory notes.  Each packed G or H entry
is one compiled gather of its rows divided by p! q! (``packed_entries``),
and a block (``gh_blocks``) stacks them.

The Robin corners also reduce onto the band n in {0, 1}: the transposed
jet's blocks with their indices swapped (``transpose_blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .errors import ReductionError
from .indexsets import lambda_band, lambda_full, packed_size
from .jets import Jet2


@dataclass(frozen=True)
class ReductionTable:
    """Reduction coefficients a_u, a_f for all (p, q) in Lambda_order.

    ``u`` holds one row of base-point values per coefficient of a band
    derivative u^(m,n) (the rows the G block reads) and ``f`` one per
    coefficient of a source derivative f^(i,j) (the H rows), each a list
    of rows + 1 (B,) arrays for B points of the batch shape ``batch``,
    the last of zeros; the order's ``_program`` maps each coefficient to
    its row.  Values suffice, and are exact, because the recursion
    differentiates only the weight jets a_x/a, a_y/a and 1/a, never an
    entry (see the module docstring).  A table built without one of the
    lists holds None there.
    """

    order: int
    u: list | None
    f: list | None
    batch: tuple

    def u_value(self, p, q, m, n):
        """Coefficient of u^(m,n) in u^(p,q), an array of the batch shape."""
        return self._value(self.u, _program(self.order).u_rows, (p, q), (m, n))

    def f_value(self, p, q, i, j):
        """Coefficient of f^(i,j) in u^(p,q), an array of the batch shape."""
        return self._value(self.f, _program(self.order).f_rows, (p, q), (i, j))

    def _value(self, values, rows, pq, key):
        return values[rows.get(pq, {}).get(key, -1)].reshape(self.batch)


def _partials(jet: Jet2) -> np.ndarray:
    """Base-point partials f^(r,s) of a jet as a (k, k, ...) table, scaled
    factor by factor in the order the module docstring gives."""
    d = np.moveaxis(jet.c, (-2, -1), (0, 1)).copy()
    for t in range(d.shape[0] - 1, 1, -1):
        d[:, t:] *= t
    for t in range(d.shape[0] - 1, 1, -1):
        d[t:] *= t
    return d


def build_reduction_table(a_jet: Jet2, order: int,
                          rows: str = "uf") -> ReductionTable:
    """Reduction table for expansion order ``order`` (indices in Lambda_order).

    ``a_jet`` must carry derivatives of the coefficient up to total order
    ``order - 1`` and have a strictly positive value at the base point;
    where it has not, the ``ReductionError`` quotes the first such value
    along the batch's last axis (the nodes of a batch) and sets ``index``
    to its position there.  ``rows`` names the lists to build, "u", "f" or
    both; one left out is None.  A list has the same bits built alone or
    with the other.
    """
    if a_jet.order < order - 1:
        raise ReductionError(
            f"coefficient jet of order {a_jet.order} cannot support an order-"
            f"{order} reduction (needs {order - 1})"
        )
    value = np.asarray(a_jet.value)
    if not np.all(value > 0.0):
        # the nodes of a batch lie along its last axis: the first failing
        by_node = np.moveaxis(np.atleast_1d(value), -1, 0)
        at = tuple(np.argwhere(~(by_node > 0.0))[0])
        exc = ReductionError("coefficient must be positive at the base "
                             f"point, estimated a = {by_node[at]:.6g}")
        exc.index = int(at[0]) if value.ndim else None
        raise exc

    batch = a_jet.c.shape[:-2]
    n = int(np.prod(batch, dtype=int))
    m = order - 1                 # weight partials of total order < m + m
    inv_a = a_jet.reciprocal()
    weights = [np.ones(n)] + [
        w for jet in (a_jet.dx() * inv_a, a_jet.dy() * inv_a, inv_a)
        for w in _partials(jet)[:m, :m].reshape(m * m, n)]
    program = _program(order)
    lists = dict.fromkeys("uf")
    for store in rows:      # a row's first term sets it; the last stays zero
        lists[store] = [np.empty(n) for _ in range(program.sizes[store])]
        lists[store].append(np.zeros(n))
        _run(program.code[store], weights, lists[store])
    return ReductionTable(order, lists["u"], lists["f"], batch)


# An instruction of the compiled reduction, (first, row, weight, value,
# scale), is one term: weights[weight], times rows[value] unless the value
# is None, times scale.  The first term of a row sets it and every later
# one adds into it; a band seed is a first term of the ones row, no value
# and scale 1.
_ONE = 0                          # weight row of ones


@dataclass(frozen=True)
class _Program:
    """Straight-line reduction of one order: per array, "u" and "f", its row
    count (the zero row not counted) and its instructions; the rows of each
    table entry in its array, {(p, q): {key: row}}; and the gathers of the
    packed G (u rows) and H (f rows) blocks: the (E, K) rows of entry e's K
    coefficients (-1, the list's zero row, where the table holds none) and
    the (E,) divisors p! q!, for the e-th (p, q) of Lambda_order."""

    sizes: dict
    code: dict
    u_rows: dict
    f_rows: dict
    gathers: dict
    divisors: np.ndarray


@lru_cache(maxsize=None)
def _program(order: int) -> _Program:
    """Compile the substitutions of ``build_reduction_table`` at ``order``.

    Weight rows are the ones row, then the partials (r, s), r, s < m, of
    a_x/a, a_y/a and 1/a, each r-major.  Each term is one instruction (see
    above), emitted in the order the recursion meets them.  A u row is
    formed only from u rows and an f row only from f rows, so each array
    has its own rows and its own instructions.
    """
    m = order - 1
    r1, r2, q_inv = (1 + k * m * m for k in range(3))
    u_rows: dict = {}
    f_rows: dict = {}
    code = []                     # (store, first, row, weight, value, scale)
    sizes = {"u": 0, "f": 0}
    for p, q in lambda_full(order):
        if p <= 1:
            u_rows[(p, q)] = {(p, q): sizes["u"]}
            f_rows[(p, q)] = {}
            code.append(("u", True, sizes["u"], _ONE, None, 1.0))
            sizes["u"] += 1

    for p in range(2, order + 1):
        for q in range(0, order - p + 1):
            mr, nr = p - 2, q
            rows = {"u": {}, "f": {}}

            def term(store, key, w, v, scale):
                """Emit weight row w * value row v (None: one) * scale."""
                first = key not in rows[store]
                if first:
                    rows[store][key] = sizes[store]
                    sizes[store] += 1
                code.append((store, first, rows[store][key], w, v,
                             float(scale)))

            # -(f/a)^(mr,nr), expanded by Leibniz over f^(i,j)
            for i in range(mr + 1):
                for j in range(nr + 1):
                    term("f", (i, j), q_inv + (mr - i) * m + nr - j, None,
                         -comb(mr, i) * comb(nr, j))

            def substitute(target, w, scale):
                """Add scale * weight * u^target, reducing target if needed."""
                if target[0] <= 1:
                    term("u", target, w, None, scale)
                    return
                for key, v in u_rows[target].items():
                    term("u", key, w, v, scale)
                for key, v in f_rows[target].items():
                    term("f", key, w, v, scale)

            substitute((mr, nr + 2), _ONE, -1)
            for i in range(mr + 1):
                for j in range(nr + 1):
                    w = comb(mr, i) * comb(nr, j)
                    at = (mr - i) * m + nr - j
                    substitute((i + 1, j), r1 + at, -w)
                    substitute((i, j + 1), r2 + at, -w)

            u_rows[(p, q)], f_rows[(p, q)] = rows["u"], rows["f"]

    full = lambda_full(order)
    gathers = {family: np.array([[store[pq].get(key, -1) for key in keys]
                                 for pq in full])
               for family, store, keys in (
                   ("G", u_rows, lambda_band(order)),
                   ("H", f_rows, lambda_full(order - 2)))}
    divisors = np.array([float(factorial(p) * factorial(q)) for p, q in full])
    for cached in (*gathers.values(), divisors):
        cached.flags.writeable = False
    code = {store: tuple(ins[1:] for ins in code if ins[0] == store)
            for store in sizes}
    return _Program(sizes, code, u_rows, f_rows, gathers, divisors)


def _run(code, weights, rows):
    """Execute compiled instructions on weight and value rows (B-vectors),
    in place: each sets its row to its term, or adds the term into it."""
    for first, dst, w, v, scale in code:
        term = weights[w] if v is None else weights[w] * rows[v]
        if first:
            np.multiply(term, scale, rows[dst])
        else:
            rows[dst] += term * scale


def packed_entries(table: ReductionTable, family: str):
    """The packed entries of the G or H block (see ``gh_blocks``) in entry
    order, each a (K, ...) gather divided in place, so that a reader that
    takes them in turn (``stencil_core.expand_at_offsets``,
    ``weights_at_offsets``) never holds the block."""
    program = _program(table.order)
    values = table.u if family == "G" else table.f
    for rows, den in zip(program.gathers[family], program.divisors):
        entry = np.stack([values[r] for r in rows])
        entry /= den
        yield entry.reshape(entry.shape[:1] + table.batch)


def packed_block(table: ReductionTable, family: str) -> np.ndarray:
    """The (K, ..., E) G or H block of ``gh_blocks``: its ``packed_entries``
    stacked in (E, K, ...) storage, so that each entry's reads are
    contiguous."""
    return np.moveaxis(np.stack(tuple(packed_entries(table, family))), 0, -1)


def gh_blocks(table: ReductionTable):
    """G/H coefficient polynomials of the Taylor identity at the table's order

    u(x* + x, y* + y) = sum_band u^(m,n) G[m,n](x,y)
                        + sum_{Lambda_{order-2}} f^(m,n) H[m,n](x,y) + O(h^{order+1})

    as two packed coefficient blocks, G (n_band, ..., E) and H (n_f, ..., E):
    entry [k, ..., e] is value(p, q, *key_k) / (p! q!) for the e-th (p, q)
    of Lambda_order, E = (order + 1)(order + 2) / 2 in all, and zero where
    the table holds no value.  The keys are in canonical order: the band and
    Lambda_{order-2}.
    """
    return packed_block(table, "G"), packed_block(table, "H")


def _swapped(keys) -> list:
    """Positions of the swapped keys (n, m) of ``keys``, in their order."""
    return [keys.index((n, m)) for (m, n) in keys]


def transpose_blocks(g: np.ndarray, h: np.ndarray):
    """G/H blocks of the reduction onto the band n in {0, 1}, from the
    ``gh_blocks`` of the transposed jet's table.

    Exchanging x and y maps u^(p,q) to u^(q,p), so the G row of band key
    (m, n) holds G~_{n,m}, the packed entries move (p, q) -> (q, p), and the
    H rows (i, j) -> (j, i).  Each block is permuted in its (E, K, ...)
    storage and returned as the (K, ..., E) view, the layout ``gh_blocks``
    gives; the entries are copied, not recomputed.
    """
    order = packed_size(g.shape[-1]) - 1
    entries = _swapped(lambda_full(order))
    rows = _swapped(lambda_full(order - 2))
    gt = np.moveaxis(g, -1, 0)[entries]
    ht = np.moveaxis(h[rows], -1, 0)[entries]
    return np.moveaxis(gt, 0, -1), np.moveaxis(ht, 0, -1)


def dense_tables(block: np.ndarray) -> np.ndarray:
    """The square (..., k, k) tables of a packed (..., k (k + 1) / 2) block,
    zero above total degree k - 1; an exact scatter."""
    k = packed_size(block.shape[-1])
    p, q = (np.array(ix) for ix in zip(*lambda_full(k - 1)))
    out = np.zeros(block.shape[:-1] + (k, k))
    out[..., p, q] = block
    return out
