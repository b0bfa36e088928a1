"""Manufactured piecewise-polynomial problems for the property tests.

u+ and u- are random polynomials and a+ and a- random cubics, each a square
coefficient table (``jets.poly_eval`` layout).  The sources f = -div(a grad u)
are formed exactly on those tables, and the jump data are u+ - u- and the
flux jump along the curve's normal, so every field satisfies the PDE, the
interface conditions and the Dirichlet data by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from hybridfdm.geometry import LevelSetInterface
from hybridfdm.jets import poly_dx, poly_dy, poly_eval
from hybridfdm.problems import BoundaryCondition, ProblemSpec


@dataclass
class ManufacturedCase:
    problem: ProblemSpec
    u_plus: np.ndarray           # coefficient tables
    u_minus: np.ndarray


def poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Table of the product of the polynomials of two square tables.

    The products are ordered by their output entry, pairs in (pa, qa, pb, qb)
    order within an entry, and each entry is one segment of an
    ``np.add.reduceat``; the manufactured fields are pinned to this
    summation order bit for bit.
    """
    k = len(a) + len(b) - 1
    ma, na = np.indices(a.shape)
    mb, nb = np.indices(b.shape)
    pos = np.add.outer(ma * k + na, mb * k + nb).ravel()
    order = np.argsort(pos, kind="stable")
    starts = np.searchsorted(pos[order], np.arange(k * k))
    prod = np.multiply.outer(a, b).ravel()[order]
    return np.add.reduceat(prod, starts).reshape(k, k)


def random_poly(rng, degree, scale=1.0):
    c = np.zeros((degree + 1, degree + 1))
    for m in range(degree + 1):
        for n in range(degree + 1 - m):
            c[m, n] = scale * rng.uniform(-1, 1)
    return c


def pde_source(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    ux, uy = poly_dx(u), poly_dy(u)
    return -(poly_mul(poly_dx(a), ux) + poly_mul(poly_dy(a), uy)
             + poly_mul(a, poly_dx(ux) + poly_dy(uy)))


def manufacture(seed: int, degree: int = 5,
                interface_kind: str = "circle") -> ManufacturedCase:
    """A piecewise-polynomial problem on (-2, 2)^2 with Dirichlet sides;
    ``interface_kind`` is "none", "circle" or "ellipse"."""
    rng = np.random.default_rng(seed)
    u_p = random_poly(rng, degree, scale=0.5)
    u_m = random_poly(rng, degree, scale=0.5)
    a_p = random_poly(rng, 3, scale=0.1)
    a_p[0, 0] = 2.0
    a_m = random_poly(rng, 3, scale=0.1)
    a_m[0, 0] = 1.0
    f_p, f_m = pde_source(a_p, u_p), pde_source(a_m, u_m)

    if interface_kind == "none":
        interface = None
        u_m, a_m, f_m = u_p, a_p, f_p
    else:
        # radius^2 = 0.9 keeps the curve away from dyadic grid nodes and the boundary
        ky = {"circle": 1.0, "ellipse": 4.0}[interface_kind]

        def psi(x, y):
            return np.asarray(x) ** 2 + ky * np.asarray(y) ** 2 - 0.9

        def jump_g(x, y):
            return poly_eval(u_p, x, y) - poly_eval(u_m, x, y)

        def jump_gg(x, y):
            gx, gy = 2.0 * np.asarray(x), 2.0 * ky * np.asarray(y)
            norm = np.hypot(gx, gy)
            nx, ny = gx / norm, gy / norm
            fp = poly_eval(a_p, x, y) * (poly_eval(poly_dx(u_p), x, y) * nx
                                         + poly_eval(poly_dy(u_p), x, y) * ny)
            fm = poly_eval(a_m, x, y) * (poly_eval(poly_dx(u_m), x, y) * nx
                                         + poly_eval(poly_dy(u_m), x, y) * ny)
            return fp - fm

        interface = LevelSetInterface(psi, jump_g=jump_g, jump_ggamma=jump_gg)

    def field(c):
        return partial(poly_eval, c)

    boundary = {side: BoundaryCondition("dirichlet", field(u_p))
                for side in (1, 2, 3, 4)}
    problem = ProblemSpec(
        name=f"manufactured-{seed}", domain=(-2.0, 2.0, -2.0, 2.0),
        interface=interface, a_plus=field(a_p), a_minus=field(a_m),
        f_plus=field(f_p), f_minus=field(f_m), boundary=boundary,
        exact_u_plus=field(u_p), exact_u_minus=field(u_m))
    return ManufacturedCase(problem=problem, u_plus=u_p, u_minus=u_m)
