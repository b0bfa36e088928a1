"""Moving least squares estimation of high-order derivatives from values.

Given samples Z = (z_1..z_K), a target z*, and a total-degree bound M, the
derivative of a function at z* is read off a weighted polynomial fit

    f^(w)(z*) = (f(z_1)..f(z_K)) D^-1 E (E^T D^-1 E)^-1 (p_1^(w)(z*)..)^T

with D = 2 diag(exp(|z_k - z*|^2 / h^2)) and E the basis Vandermonde.  The
basis is centered at the anchor, the origin of the sample coordinates (z*
itself, except at interface points, whose fits center on the grid node
while targeting the projected base point), and scaled by the sample
radius, and the normal equations are
solved through a pivot-checked QR factorization rather than the explicit
inverse.  Everything reduces to a single (n_requests x K) matrix that can be
applied to many value vectors at once; for translation-invariant sample
lattices that matrix is built once per mesh size.

``mls_operators`` fits several degrees on one sample set, optionally split
into subsets by boolean masks (the two sides of an interface lattice).
What the fits of one call share is computed once: on the whole set the
sample norms, the weights sqrt(w) and, per basis scale, the Vandermonde E
at the top degree; per fit and scale the derivative matrix D.  A subset
reads the whole-set arrays masked by rows, and a lower degree reads the
leading columns of E, because Lambda_d is a prefix of Lambda_(d+1).  E is
gathered from power tables of the distinct coordinate values per axis (a
lattice of K samples has about sqrt(K) of them), and the pattern of D is
cached per (degree, requests), its entries multiplied from scalar power
tables: numpy's array power may round the last bit differently from the
scalar one.  What stays per fit and degree is what LAPACK does: the QR of
sqrt(w) E and the solve R^-1 Q^T sqrt(w), then D times that, in this order
on purpose.  Every shared quantity is the same, bit for bit, as when each
fit computes it alone, so the operators do not depend on how fits are
grouped.  The
13-point interface stencils amplify a rounding-level change of an MLS
operator by about 1e7, so an algebraically equal reordering (one QR for
several fields or degrees -- the QR of a column prefix differs from the
prefix of the QR in the last bits -- or stacked zero-weight fits) moves
interface rows by up to 4e-9 relative.

Sampling recipes (``sampling_recipe``) name the anchor-relative lattices the
stencil families fit on:

    context              lattice                   spacing  samples  degrees
    regular-interior     9x9 centred               h/4      81       6 a, 5 f
    irregular-interface  17x17 centred, split      h/8      289      4 a, 3 f
      widened            33x33 centred, split      h/8      1089     4 a, 3 f
    curve                11 abscissae centred      h/16     11       6 curve and
                                                                     jump, 5 flux
    edge-boundary        9x17, inward in x         h/8      153      5 a, 4 f
    edge-line            17 abscissae centred      h/8      17       5 alpha, g
    corner-boundary      17x17, inward in x and y  h/16     289      5 a, 4 f
    corner-line          17 abscissae inward       h/16     17       5 alpha, beta
                                                                     and both g

The interface lattice is split by the sign of psi and each side is fitted
separately, about 145 samples a side for the 15 coefficients of a degree-4
fit.  Its half-width h matches the weight width; past unisolvency the fit's
accuracy is set by the degree and the weight width, not by the sample count,
and the derivative errors stay within 3x of those of a 65x65 lattice at h/32
(15 times the samples; the ``CHANGES.md`` entry "Interface MLS lattice
sized by measured accuracy" has the measurement).
The widened lattice (half-width 2h) serves a node whose side keeps fewer
than 30 of the 289 standard samples; a node's distance to the curve scales
with h, so that is 42-50% of the interface nodes of ex31 and ex33 at every
J.  The lines carry the Robin data along a side: the edge line is centred on
the anchor, and a corner samples both of its sides on the same inward
abscissae.  ``lattice_values`` evaluates the fields that share their points
on a whole batch of grid-anchored lattices in one call; ``fieldjets`` and
``geometry`` sample every such lattice through it.

The LAPACK routines come from ``scipy.linalg``, imported by the first fit
(``_lapack``) rather than with this module: importing the package and
loading a problem need numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import MlsError
from .indexsets import lambda_full

COND_LIMIT = 1e12


@dataclass
class MlsProblem:
    """Sample geometry for one fit.  Points are relative to the anchor,
    which is also the centre of the basis."""

    samples: np.ndarray          # (K,) for 1D, (K, 2) for 2D, anchor-relative
    target: np.ndarray           # anchor-relative coordinates of z*
    degree: int                  # total degree M of the basis
    h: float                     # weight length scale (the grid size)

    @property
    def dim(self) -> int:
        return 1 if self.samples.ndim == 1 else self.samples.shape[-1]


def _basis_exponents(degree: int, dim: int):
    if dim == 1:
        return [(m,) for m in range(degree + 1)]
    return [tuple(mn) for mn in lambda_full(degree)]


def distinct_values(column: np.ndarray):
    """Distinct values of a float column, compared bit for bit, and the
    index of each entry among them."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    return bits.view(np.float64), inverse


def lattice_values(fields, x, y) -> tuple:
    """Values of each of ``fields`` at the broadcast of the coordinates x
    and y, one array per field.

    The bit-distinct values of x and of y are sorted out once; each field is
    called once, on their (nx, 1) column and (1, ny) row, and each point
    reads its value by index, so it keeps its own coordinates.  A field may
    return a scalar or any shape that broadcasts against its arguments; each
    result is a new C-contiguous array.
    """
    (ux, ix), (uy, iy) = (distinct_values(np.asarray(c, dtype=float).ravel())
                          for c in (x, y))
    at = ix.reshape(np.shape(x)), iy.reshape(np.shape(y))
    return tuple(
        np.broadcast_to(np.asarray(fn(ux[:, None], uy[None, :]), dtype=float),
                        (len(ux), len(uy)))[at]
        for fn in fields)


@lru_cache(maxsize=64)
def _derivative_terms(degree: int, dim: int, requests: tuple):
    """Nonzero entries of the derivative matrix D of a fit.

    Entry (i, j) is the omega_i derivative at the target of the basis
    monomial u^alpha_j, the product over the axes of
    a! / (a - o)! * tgt^(a - o) / scale^o; a 1-D request may be a plain
    order.  Returns the entries' rows and columns and, per entry and axis,
    the factorial ratio, the target power a - o and the scale power o.
    """
    rows, cols, ratio, tpow, spow = [], [], [], [], []
    for i, om in enumerate(requests):
        om = (om,) if np.isscalar(om) else tuple(om)
        if sum(om) > degree:
            raise MlsError(
                f"derivative order {om} exceeds basis degree {degree}")
        for j, alpha in enumerate(_basis_exponents(degree, dim)):
            if any(a < o for a, o in zip(alpha, om)):
                continue
            rows.append(i)
            cols.append(j)
            ratio.append([factorial(a) / factorial(a - o)
                          for a, o in zip(alpha, om)])
            tpow.append([a - o for a, o in zip(alpha, om)])
            spow.append(list(om))
    terms = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
             np.array(ratio, dtype=float).reshape(-1, dim),
             np.array(tpow, dtype=np.intp).reshape(-1, dim),
             np.array(spow, dtype=np.intp).reshape(-1, dim))
    for array in terms:             # shared by every caller of the cache
        array.flags.writeable = False
    return terms


def _vandermonde(u: np.ndarray, degree: int) -> np.ndarray:
    """Basis Vandermonde of the scaled samples ``u`` (K, dim), built from
    per-axis power tables of the distinct coordinate values."""
    dim = u.shape[1]
    exps = _basis_exponents(degree, dim)
    powers = np.arange(degree + 1)
    E = None
    for d in range(dim):
        values, inverse = distinct_values(u[:, d])
        table = np.power.outer(values, powers)[:, [a[d] for a in exps]]
        E = table[inverse] if E is None else E * table[inverse]
    return E


def mls_operators(problem: MlsProblem, fits, masks=None,
                  vandermondes=None) -> list:
    """Operators of several fits on one sample set, sharing its weights and
    its Vandermonde.

    ``fits`` lists (degree, requests) pairs, each degree at most
    ``problem.degree``; a fit's operator is the matrix A with
    derivs = A @ values, one row per requested multi-index.  Each entry of
    ``masks`` (default: one entry, all samples) selects the samples of one
    set of fits; the result holds one list of operators per mask, in the
    order of ``fits``.  ``vandermondes``, if given, keeps the Vandermonde of
    the whole sample set per basis scale across calls; pass the same dict
    only to problems with the same samples and degree.
    """
    dim = problem.dim
    z = problem.samples.astype(float)
    z = z[:, None] if dim == 1 else np.atleast_2d(z)
    target = np.atleast_1d(np.asarray(problem.target, dtype=float))
    norms = np.linalg.norm(z, axis=1)
    r2 = np.sum((z - target) ** 2, axis=1)
    sqrt_w = np.exp(-0.5 * r2 / problem.h**2) / np.sqrt(2.0)
    vandermondes = {} if vandermondes is None else vandermondes
    derivatives = {}              # D per (fit, scale): the target is shared

    out = []
    for mask in (None,) if masks is None else masks:
        rows = slice(None) if mask is None else mask
        K = len(z) if mask is None else int(np.count_nonzero(mask))
        ops = []
        for i, (degree, requests) in enumerate(fits):
            J = len(_basis_exponents(degree, dim))
            if K < J:
                raise MlsError(f"{K} samples cannot determine a degree-{degree} "
                               f"fit ({J} coefficients)")
            if not ops:
                scale = np.max(norms[rows])
                if scale == 0.0:
                    scale = problem.h
                if scale not in vandermondes:
                    vandermondes[scale] = _vandermonde(z / scale,
                                                       problem.degree)
                # the lower degrees' bases are column prefixes of the top one
                E_side = vandermondes[scale][rows]
                w_side = sqrt_w[rows]
            coef_of_values = _weighted_solve(E_side[:, :J], w_side)
            if (i, scale) not in derivatives:
                derivatives[i, scale] = _derivative_matrix(
                    degree, requests, target / scale, scale)
            ops.append(derivatives[i, scale] @ coef_of_values)
        out.append(ops)
    return out


@lru_cache(maxsize=1)
def _lapack():
    """The float64 LAPACK routines of ``_weighted_solve``, resolved once.

    The first call imports ``scipy.linalg``, most of the cost of loading
    scipy; ``assemble`` makes it before any fork, for its pool workers.
    """
    from scipy.linalg.lapack import get_lapack_funcs

    return get_lapack_funcs(("geqrf", "orgqr", "trtrs"), dtype=np.float64)


def _lapack_info(name: str, info: int):
    if info != 0:
        raise MlsError(f"LAPACK {name} failed with info {info}")


def _weighted_solve(E, sqrt_w) -> np.ndarray:
    """R^-1 Q^T sqrt(w) of the pivot-checked QR of sqrt(w) E: the (J, K)
    basis coefficients of the weighted fit to K sample values.

    Calls LAPACK directly, as ``np.linalg.qr`` and
    ``scipy.linalg.solve_triangular`` do but without their argument checks
    and copies, so the result is the same bit for bit: ``dgeqrf`` on
    sqrt(w) E laid out in Fortran order, ``dorgqr`` for the J columns of
    Q, and ``dtrtrs`` on the lower triangle R^T with ``trans``, the form
    ``solve_triangular`` passes a C-ordered R in.  A fit whose R diagonal
    spans more than ``COND_LIMIT`` is rank deficient; a nonzero LAPACK
    ``info`` raises ``MlsError``.
    """
    geqrf, orgqr, trtrs = _lapack()
    # sqrt(w) E in Fortran order: the C order of its transpose
    a = np.multiply(E.T, sqrt_w, order="C").T
    qr, tau, _, info = geqrf(a, overwrite_a=1)
    _lapack_info("dgeqrf", info)
    diag = np.abs(qr.diagonal())
    lo, hi = diag.min(), diag.max()
    if lo == 0.0 or hi / lo > COND_LIMIT:
        raise MlsError("rank-deficient moving least squares system "
                       f"(condition {hi / max(lo, 1e-300):.2e})")
    # R^T in the lower triangle; dtrtrs does not read the upper one
    rt = np.asfortranarray(qr[:E.shape[1]].T)
    q, _, info = orgqr(qr, tau, overwrite_a=1)
    _lapack_info("dorgqr", info)
    # Q^T sqrt(w) in Fortran order: the C order of Q sqrt(w)
    b = np.multiply(q, sqrt_w[:, None], order="C").T
    x, info = trtrs(rt, b, lower=1, trans=1, overwrite_b=1)
    _lapack_info("dtrtrs", info)
    return x


def _derivative_matrix(degree, requests, tgt, scale) -> np.ndarray:
    """D of a fit: the requested derivatives at the scaled target ``tgt``
    of the degree-``degree`` basis, from scalar power tables (scalar ** is
    the C pow, array ** may not be)."""
    dim = len(tgt)
    rows, cols, ratio, tpow, spow = _derivative_terms(degree, dim,
                                                      tuple(requests))
    tgt_pow = np.array([[tgt[d] ** e for e in range(degree + 1)]
                        for d in range(dim)])
    scale_pow = np.array([scale**o for o in range(degree + 1)])
    val = None
    for d in range(dim):
        factor = ratio[:, d] * tgt_pow[d, tpow[:, d]] / scale_pow[spow[:, d]]
        val = factor if val is None else val * factor
    D = np.zeros((len(requests), len(_basis_exponents(degree, dim))))
    D[rows, cols] = val
    return D


def mls_operator(problem: MlsProblem, requests) -> np.ndarray:
    """Matrix A with derivs = A @ values; one row per requested multi-index."""
    return mls_operators(problem, [(problem.degree, requests)])[0][0]


# ----------------------------------------------------------------------------
# sampling recipes (anchor-relative lattices)
# ----------------------------------------------------------------------------

@dataclass
class SamplingRecipe:
    """Sample lattice and mesh width prescribed for one stencil context.

    ``samples`` is the tensor product of ``axes`` in C order: a 2-D lattice
    lists every x offset with every y offset, the y offset varying fastest.
    """

    samples: np.ndarray        # anchor-relative offsets, (K,) or (K, 2)
    h: float
    axes: tuple                # per-axis offsets whose product is ``samples``
    step: float                # lattice spacing: every offset is k * step

    def problem(self, degree: int) -> MlsProblem:
        """The fit of this lattice at the anchor."""
        return MlsProblem(self.samples, np.zeros(len(self.axes)), degree,
                          self.h)


def _lattice(step, nx_lo, nx_hi, ny_lo, ny_hi, h) -> SamplingRecipe:
    xs = np.arange(nx_lo, nx_hi + 1) * step
    ys = np.arange(ny_lo, ny_hi + 1) * step
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return SamplingRecipe(np.column_stack([gx.ravel(), gy.ravel()]), h,
                          (xs, ys), step)


def _line(step, n_lo, n_hi, h) -> SamplingRecipe:
    ts = np.arange(n_lo, n_hi + 1) * step
    return SamplingRecipe(ts, h, (ts,), step)


def sampling_recipe(context: str, h: float,
                    widened: bool = False) -> SamplingRecipe:
    """Anchor-relative sample lattice for a stencil context.

    ``widened`` selects the interface fallback lattice, twice as wide at the
    same spacing.  An off-anchor target (the interface base point) is set
    on the ``MlsProblem`` of the fit.
    """
    if context == "regular-interior":
        return _lattice(h / 4, -4, 4, -4, 4, h)
    if context == "irregular-interface":
        n = 16 if widened else 8
        return _lattice(h / 8, -n, n, -n, n, h)
    if context == "curve":
        return _line(h / 16, -5, 5, h)
    if context == "edge-boundary":
        return _lattice(h / 8, 0, 8, -8, 8, h)
    if context == "edge-line":
        return _line(h / 8, -8, 8, h)
    if context == "corner-boundary":
        return _lattice(h / 16, 0, 16, 0, 16, h)
    if context == "corner-line":
        return _line(h / 16, 0, 16, h)
    raise ValueError(f"unknown sampling context {context!r}")
