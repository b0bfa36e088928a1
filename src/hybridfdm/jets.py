"""Truncated bivariate Taylor tables (jets) and plain 2D polynomials.

A ``Jet2`` is the finite table of partial derivatives of a smooth function at
a base point, stored as Taylor coefficients ``c[m, n] = f^(m,n) / (m! n!)`` in
a dense ``(order+1, order+1)`` array with entries of total degree > order
masked to zero.  Leading axes are broadcast, so a single Jet2 can hold the
jets of one function at thousands of base points at once; all arithmetic is
plain numpy on those arrays.

``Poly2`` shares the coefficient layout but represents an actual polynomial
``sum c[m, n] x^m y^n``; it is what the stencil builders evaluate at grid
offsets.

A handful of univariate truncated-series helpers (multiply, sqrt, composition
of a Poly2 with two series) support the interface transmission solves, where
everything is expanded along a curve parameter.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_FACT = [math.factorial(k) for k in range(24)]


@lru_cache(maxsize=None)
def _degree_mask(size: int, order: int) -> np.ndarray:
    m, n = np.indices((size, size))
    mask = (m + n) <= order
    mask.setflags(write=False)
    return mask


def _masked(c: np.ndarray, order: int) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    size = c.shape[-1]
    if c.shape[-2] != size:
        raise ValueError("coefficient table must be square in its trailing axes")
    return np.where(_degree_mask(size, order), c, 0.0)


@lru_cache(maxsize=None)
def _conv_table(na: int, nb: int, out_size: int, triangular: bool):
    """Flat index table for the truncated product of coefficient tables.

    Returns gather indices (ia, ib), reduceat segment starts, and the flat
    output positions.  With ``triangular`` the inputs are degree-masked jets
    and pairs beyond the output's total degree are dropped; otherwise the
    full coefficient squares contribute wherever they fit in the output.
    """
    pairs = []
    for pa in range(na):
        for qa in range(na):
            if triangular and pa + qa > na - 1:
                continue
            for pb in range(nb):
                if pa + pb > out_size - 1:
                    continue
                for qb in range(nb):
                    if triangular and pb + qb > nb - 1:
                        continue
                    if qa + qb > out_size - 1:
                        continue
                    if triangular and pa + pb + qa + qb > out_size - 1:
                        continue
                    pairs.append((pa * na + qa, pb * nb + qb,
                                  (pa + pb) * out_size + (qa + qb)))
    pairs.sort(key=lambda t: t[2])
    ia = np.array([p[0] for p in pairs])
    ib = np.array([p[1] for p in pairs])
    ko = np.array([p[2] for p in pairs])
    out_pos, starts = np.unique(ko, return_index=True)
    return ia, ib, starts, out_pos


def _conv2(a: np.ndarray, b: np.ndarray, out_size: int,
           triangular: bool = True) -> np.ndarray:
    """Truncated 2D convolution of coefficient tables."""
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    na, nb = a.shape[-1], b.shape[-1]
    ia, ib, starts, out_pos = _conv_table(na, nb, out_size, triangular)
    af = np.broadcast_to(a, batch + (na, na)).reshape(batch + (na * na,))
    bf = np.broadcast_to(b, batch + (nb, nb)).reshape(batch + (nb * nb,))
    prod = af[..., ia] * bf[..., ib]
    summed = np.add.reduceat(prod, starts, axis=-1)
    out = np.zeros(batch + (out_size * out_size,))
    out[..., out_pos] = summed
    return out.reshape(batch + (out_size, out_size))


class Jet2:
    """Taylor table of a 2D function at a base point (batched over leading axes)."""

    __slots__ = ("c", "order")

    def __init__(self, c: np.ndarray, order: int):
        self.order = int(order)
        self.c = _masked(np.asarray(c, dtype=float), self.order)
        if self.c.shape[-1] != self.order + 1:
            raise ValueError("table size does not match order")

    @classmethod
    def _trusted(cls, c: np.ndarray, order: int) -> "Jet2":
        """Internal constructor for tables already satisfying the mask."""
        self = cls.__new__(cls)
        self.order = order
        self.c = c
        return self

    # -- construction ------------------------------------------------------
    @classmethod
    def from_derivatives(cls, derivs: dict, order: int) -> "Jet2":
        """Build from a map (m, n) -> raw partial derivative value/array."""
        shape = np.broadcast_shapes(*(np.shape(v) for v in derivs.values())) if derivs else ()
        c = np.zeros(shape + (order + 1, order + 1))
        for (m, n), v in derivs.items():
            if m + n > order:
                raise ValueError(f"derivative {(m, n)} outside jet of order {order}")
            c[..., m, n] = np.asarray(v) / (_FACT[m] * _FACT[n])
        return cls(c, order)

    # -- access ------------------------------------------------------------
    @property
    def value(self):
        return self.c[..., 0, 0]

    # -- arithmetic ---------------------------------------------------------
    def __mul__(self, other: "Jet2") -> "Jet2":
        order = min(self.order, other.order)
        return Jet2._trusted(_conv2(self.c, other.c, order + 1), order)

    def reciprocal(self) -> "Jet2":
        """1/f as a jet; requires a nonvanishing value at the base point."""
        a = self.c
        k = self.order + 1
        batch = a.shape[:-2]
        b = np.zeros(batch + (k, k))
        inv0 = 1.0 / a[..., 0, 0]
        b[..., 0, 0] = inv0
        for t in range(1, k):
            for m in range(t + 1):
                n = t - m
                acc = np.zeros(batch)
                for i in range(m + 1):
                    for j in range(n + 1):
                        if i == 0 and j == 0:
                            continue
                        acc += a[..., i, j] * b[..., m - i, n - j]
                b[..., m, n] = -inv0 * acc
        return Jet2._trusted(b, self.order)

    def dx(self) -> "Jet2":
        """Jet of df/dx (order drops by one)."""
        k = self.order
        m = np.arange(1, k + 1)
        return Jet2._trusted(self.c[..., 1:, :k] * m[:, None], k - 1)

    def dy(self) -> "Jet2":
        k = self.order
        n = np.arange(1, k + 1)
        return Jet2._trusted(self.c[..., :k, 1:] * n[None, :], k - 1)

    def transposed(self) -> "Jet2":
        """Jet of (x, y) -> f(y, x)."""
        return Jet2._trusted(np.swapaxes(self.c, -1, -2), self.order)

    def as_poly(self) -> "Poly2":
        return Poly2(self.c.copy())


class Poly2:
    """Plain bivariate polynomial sum c[m, n] x^m y^n, batched over leading axes."""

    __slots__ = ("c",)

    def __init__(self, c: np.ndarray):
        self.c = np.asarray(c, dtype=float)
        if self.c.shape[-1] != self.c.shape[-2]:
            raise ValueError("coefficient table must be square")

    @classmethod
    def zero(cls, size: int, batch=()) -> "Poly2":
        return cls(np.zeros(tuple(batch) + (size, size)))

    @property
    def size(self) -> int:
        return self.c.shape[-1]

    def __add__(self, other: "Poly2") -> "Poly2":
        k = max(self.size, other.size)
        a = _embed(self.c, k)
        b = _embed(other.c, k)
        return Poly2(a + b)

    def __sub__(self, other: "Poly2") -> "Poly2":
        k = max(self.size, other.size)
        return Poly2(_embed(self.c, k) - _embed(other.c, k))

    def scaled(self, s) -> "Poly2":
        s = np.asarray(s)
        return Poly2(self.c * (s[..., None, None] if s.ndim else s))

    def __mul__(self, other: "Poly2") -> "Poly2":
        k = self.size + other.size - 1
        return Poly2(_conv2(self.c, other.c, k, triangular=False))

    def dx(self) -> "Poly2":
        k = self.size
        m = np.arange(1, k)
        out = np.zeros_like(self.c)
        out[..., : k - 1, :] = self.c[..., 1:, :] * m[:, None]
        return Poly2(out)

    def dy(self) -> "Poly2":
        k = self.size
        n = np.arange(1, k)
        out = np.zeros_like(self.c)
        out[..., :, : k - 1] = self.c[..., :, 1:] * n[None, :]
        return Poly2(out)

    def eval(self, x, y):
        """Evaluate at points; x, y scalars or arrays of a common shape K.

        Batched coefficients (B, P, P) with K points give a (B, K) result
        (scalar points give (B,)).
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        pts_shape = np.broadcast_shapes(x.shape, y.shape)
        k = self.size
        xp = np.ones((k,) + pts_shape)
        yp = np.ones((k,) + pts_shape)
        for p in range(1, k):
            xp[p] = xp[p - 1] * x
            yp[p] = yp[p - 1] * y
        # result[..., pts] = sum_{m,n} c[..., m, n] xp[m, pts] yp[n, pts]
        mon = np.einsum("m...,n...->mn...", xp, yp)
        if pts_shape == ():
            return np.einsum("...mn,mn->...", self.c, mon)
        return np.einsum("...mn,mnk->...k", self.c, mon.reshape(k, k, -1)).reshape(
            self.c.shape[:-2] + pts_shape
        )

    def transposed(self) -> "Poly2":
        return Poly2(np.swapaxes(self.c, -1, -2))

    def as_callable(self):
        return lambda x, y: self.eval(x, y)


def _embed(c: np.ndarray, size: int) -> np.ndarray:
    if c.shape[-1] == size:
        return c
    out = np.zeros(c.shape[:-2] + (size, size))
    out[..., : c.shape[-2], : c.shape[-1]] = c
    return out


# ----------------------------------------------------------------------------
# univariate truncated series (Taylor coefficients in t)
# ----------------------------------------------------------------------------

def series_mul(a: np.ndarray, b: np.ndarray, nterms: int) -> np.ndarray:
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (nterms,))
    for i in range(min(a.shape[-1], nterms)):
        w = min(b.shape[-1], nterms - i)
        out[..., i : i + w] += a[..., i, None] * b[..., :w]
    return out


def series_sqrt(a: np.ndarray, nterms: int) -> np.ndarray:
    """Truncated series of sqrt(a(t)); a[0] must be positive."""
    b = np.zeros(a.shape[:-1] + (nterms,))
    b[..., 0] = np.sqrt(a[..., 0])
    for k in range(1, nterms):
        acc = a[..., k] if k < a.shape[-1] else np.zeros(a.shape[:-1])
        for i in range(1, k):
            acc = acc - b[..., i] * b[..., k - i]
        b[..., k] = acc / (2.0 * b[..., 0])
    return b


def series_deriv(a: np.ndarray) -> np.ndarray:
    """Series of a'(t) from the series of a(t)."""
    n = a.shape[-1]
    if n == 1:
        return np.zeros_like(a)
    k = np.arange(1, n)
    return a[..., 1:] * k


def monomial_series_table(xs: np.ndarray, ys: np.ndarray, kmax: int,
                          nterms: int) -> np.ndarray:
    """Series of x(t)^m y(t)^n for all m, n < kmax, as a (kmax, kmax, nterms)
    table (leading axes broadcast).  Shared by many compositions along one
    curve."""
    batch = np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1])
    xp = np.zeros(batch + (kmax, nterms))
    yp = np.zeros(batch + (kmax, nterms))
    xp[..., 0, 0] = 1.0
    yp[..., 0, 0] = 1.0
    for p in range(1, kmax):
        xp[..., p, :] = series_mul(xp[..., p - 1, :], xs, nterms)
        yp[..., p, :] = series_mul(yp[..., p - 1, :], ys, nterms)
    out = np.zeros(batch + (kmax, kmax, nterms))
    for m in range(kmax):
        for n in range(kmax):
            out[..., m, n, :] = series_mul(xp[..., m, :], yp[..., n, :], nterms)
    return out


def poly2_compose_series(poly: Poly2, xs: np.ndarray, ys: np.ndarray,
                         nterms: int, mono: np.ndarray | None = None) -> np.ndarray:
    """Series of poly(x(t), y(t)) given series for x(t), y(t).

    ``mono`` may carry a precomputed monomial table from
    :func:`monomial_series_table` (trailing shape (k, k, nterms))."""
    k = poly.size
    if mono is None:
        mono = monomial_series_table(xs, ys, k, nterms)
    return np.einsum("...mn,...mnt->...t", poly.c, mono[..., :k, :k, :nterms])
