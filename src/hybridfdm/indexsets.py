"""Multi-index sets for truncated bivariate Taylor tables.

The whole discretization is organized around three families of index sets:
the full triangle ``Lambda_N = {(m, n) : m + n <= N}``, its first band
``Lambda1_N = {(m, n) in Lambda_N : m in {0, 1}}`` (the derivatives that
survive the PDE reduction), and the complement ``Lambda2_N``.

Canonical ordering: ascending total degree, and within a degree ``t`` the
index ``(0, t)`` precedes ``(1, t - 1)`` (and generally indices are sorted by
first component).  This ordering fixes the row order of all constant system
matrices used by the stencil solvers.

The same order packs the k (k + 1) / 2 entries with m + n < k of a k x k
coefficient table (``reduction.gh_blocks``).
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt


@lru_cache(maxsize=None)
def lambda_full(order: int) -> tuple[tuple[int, int], ...]:
    """All (m, n) with m + n <= order, canonically ordered."""
    if order < 0:
        return ()
    out = []
    for t in range(order + 1):
        for m in range(t + 1):
            out.append((m, t - m))
    return tuple(out)


@lru_cache(maxsize=None)
def lambda_band(order: int) -> tuple[tuple[int, int], ...]:
    """First band: (m, n) with m in {0, 1} and m + n <= order."""
    return tuple(mn for mn in lambda_full(order) if mn[0] <= 1)


def packed_size(n_entries: int) -> int:
    """Size k of a table packed into ``n_entries`` = k (k + 1) / 2 entries."""
    k = (isqrt(8 * n_entries + 1) - 1) // 2
    if k * (k + 1) // 2 != n_entries:
        raise ValueError(f"{n_entries} entries do not pack a square table")
    return k
