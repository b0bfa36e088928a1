"""Seeded problem generator for the benchmark workloads.

Every workload solves a member of the ex31 family: a quartic level set

    psi = (x - x0)^4 + 2 (y - y0)^4 - c

with a 1000:1 coefficient contrast, Robin data on sides 1 and 3 and
Dirichlet data on sides 2 and 4.  The seed draws ``c`` and the centre shift
``(x0, y0)``; the exact solution

    u+ = sin(2x) sin(2y) psi + 1,   u- = 0.001 sin(2x) sin(2y) psi + 31

is rebuilt around the drawn curve, so the jumps stay [u] = -30 and
[a du/dn] = 0 and the ``[exact]`` section stays exact.  ``kind = none`` keeps
u+ on the whole box and drops the interface.

The generated text is checked in two ways: the jump conditions at points on
the drawn curve (complex-step derivatives of the compiled expressions), and
``c = 2, x0 = y0 = 0`` against the built-in ex31 (see the self-tests).
"""

from __future__ import annotations

import math

import numpy as np

C_RANGE = (1.6, 2.4)
SHIFT = 0.2
DOMAIN = (-2.5, 2.5, -2.5, 2.5)

# J, --threads and the ceiling on max|u_h - u| of every workload.
# Without the interface, J=6 is in the asymptotic range (max_err 2e-5 to
# 4e-5 over eight seeds), so 1e-3 is an accuracy check.  With it, J=5 is not:
# over seeds 0..44 max_err runs from 0.68 to 534 (median about 20; the built-in
# ex31 itself has 86 at J=4), an offset of the whole minus region that comes
# from the 13-point rows through the 1000:1 contrast.  There the ceiling only
# catches a solve that blew up, at about 70 times the size of the solution;
# max_err itself is reported by the traced run (cli.max_err).
WORKLOADS = {
    "iface-serial": {"kind": "levelset", "J": 5, "threads": 1, "ceiling": 1e4},
    "iface-pool": {"kind": "levelset", "J": 5, "threads": 2, "ceiling": 1e4},
    "smooth-regular": {"kind": "none", "J": 6, "threads": 1, "ceiling": 1e-3},
}


def draw(seed: int):
    """(c, x0, y0) as plain floats; the same seed gives the same values."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(*C_RANGE)
    x0, y0 = rng.uniform(-SHIFT, SHIFT, 2)
    # numpy scalars would print as np.float64(...) in the config text
    return float(c), float(x0), float(y0)


def _num(v: float) -> str:
    # repr of a Python float is a plain decimal the config tokenizer reads;
    # negative values are parenthesised for use after a binary minus
    text = repr(float(v))
    return f"({text})" if text.startswith("-") else text


def config_text(c: float, x0: float, y0: float, kind: str = "levelset") -> str:
    """The INI problem text of one ex31-family member."""
    X = f"(x-{_num(x0)})"
    Y = f"(y-{_num(y0)})"
    P = f"({X}^4+2*{Y}^4-{_num(c)})"
    f = (f"-( cos(x)*sin(y)*(2*cos(2*x)*sin(2*y)*{P}"
         f" + 4*{X}^3*sin(2*x)*sin(2*y))"
         f" + sin(x)*cos(y)*(2*sin(2*x)*cos(2*y)*{P}"
         f" + 8*{Y}^3*sin(2*x)*sin(2*y))"
         f" + (2+sin(x)*sin(y))*( -8*sin(2*x)*sin(2*y)*{P}"
         f" + 16*cos(2*x)*sin(2*y)*{X}^3 + 12*sin(2*x)*sin(2*y)*{X}^2"
         f" + 32*sin(2*x)*cos(2*y)*{Y}^3 + 24*sin(2*x)*sin(2*y)*{Y}^2 ) )")
    u_plus = f"sin(2*x)*sin(2*y)*{P} + 1"
    if kind == "levelset":
        interface = f"""kind = levelset
psi = {X}^4 + 2*{Y}^4 - {_num(c)}
g = -30
g_gamma = 0"""
        fields = f"""a_plus = 2 + sin(x)*sin(y)
a_minus = 1000*(2 + sin(x)*sin(y))
f_plus = {f}
f_minus = {f}"""
        exact = f"""u_plus = {u_plus}
u_minus = 0.001*sin(2*x)*sin(2*y)*{P} + 31"""
    elif kind == "none":
        interface = "kind = none"
        fields = f"""a_plus = 2 + sin(x)*sin(y)
f_plus = {f}"""
        exact = f"u_plus = {u_plus}"
    else:
        raise ValueError(f"unknown interface kind {kind!r}")
    l1, l2, l3, l4 = DOMAIN
    return f"""[problem]
name = ex31-family

[domain]
l1 = {l1!r}
l2 = {l2!r}
l3 = {l3!r}
l4 = {l4!r}

[interface]
{interface}

[fields]
{fields}

[exact]
{exact}

[boundary.gamma1]
kind = robin
alpha = cos(y) + 2
g = -(2*cos(2*x)*sin(2*y)*{P} + 4*{X}^3*sin(2*x)*sin(2*y))
    + (cos(y)+2)*({u_plus})

[boundary.gamma2]
kind = dirichlet
g = {u_plus}

[boundary.gamma3]
kind = robin
alpha = sin(x) + 2
g = -(2*sin(2*x)*cos(2*y)*{P} + 8*{Y}^3*sin(2*x)*sin(2*y))
    + (sin(x)+2)*({u_plus})

[boundary.gamma4]
kind = dirichlet
g = {u_plus}
"""


def exact_solution(c: float, x0: float, y0: float, kind: str, x, y):
    """u at (x, y), written in numpy independently of the config text."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = (x - x0) ** 4 + 2.0 * (y - y0) ** 4 - c
    s = np.sin(2.0 * x) * np.sin(2.0 * y) * p
    if kind == "none":
        return s + 1.0
    return np.where(p > 0.0, s + 1.0, 0.001 * s + 31.0)


def curve_points(c: float, x0: float, y0: float, n: int = 64):
    """n points on psi = 0 and the unit normals towards psi > 0."""
    t = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    ct, st = np.cos(t), np.sin(t)
    X = np.sign(ct) * np.sqrt(np.abs(ct)) * c**0.25
    Y = np.sign(st) * np.sqrt(np.abs(st)) * (c / 2.0) ** 0.25
    gx, gy = 4.0 * X**3, 8.0 * Y**3
    norm = np.hypot(gx, gy)
    return x0 + X, y0 + Y, gx / norm, gy / norm


def _grad(fn, x, y, eps=1e-30):
    """Complex-step gradient: exact to rounding for analytic expressions."""
    dx = np.imag(fn(x + 1j * eps, y + 0j)) / eps
    dy = np.imag(fn(x + 0j, y + 1j * eps)) / eps
    return dx, dy


def jump_residuals(text: str, c: float, x0: float, y0: float):
    """Relative misfit of [u] = g and [a du/dn] = g_gamma on the drawn curve.

    Evaluates the generated expressions through the program's own expression
    compiler, so this also checks that the text tokenizes.
    """
    import configparser

    from hybridfdm.expressions import compile_expression

    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    comp = lambda sec, key: compile_expression(cp.get(sec, key), ("x", "y"))
    up, um = comp("exact", "u_plus"), comp("exact", "u_minus")
    ap, am = comp("fields", "a_plus"), comp("fields", "a_minus")
    g, gg = comp("interface", "g"), comp("interface", "g_gamma")
    psi = comp("interface", "psi")

    x, y, nx, ny = curve_points(c, x0, y0)
    on_curve = np.max(np.abs(psi(x, y))) / c
    jump = up(x, y) - um(x, y)
    res_u = np.max(np.abs(jump - g(x, y))) / np.max(np.abs(jump))
    upx, upy = _grad(up, x, y)
    umx, umy = _grad(um, x, y)
    flux_p = ap(x, y) * (upx * nx + upy * ny)
    flux_m = am(x, y) * (umx * nx + umy * ny)
    scale = max(np.max(np.abs(flux_p)), 1.0)
    res_flux = np.max(np.abs(flux_p - flux_m - gg(x, y))) / scale
    return float(on_curve), float(res_u), float(res_flux)


JUMP_TOL = 1e-12


def generate(seed: int, kind: str):
    """(config text, (c, x0, y0)) for one seed, after the jump check."""
    c, x0, y0 = draw(seed)
    text = config_text(c, x0, y0, kind)
    if kind == "levelset":
        worst = max(jump_residuals(text, c, x0, y0))
        if not worst <= JUMP_TOL:
            raise RuntimeError(
                f"generated problem for seed {seed} violates the jump "
                f"conditions on the curve (relative misfit {worst:.3e})")
    return text, (c, x0, y0)
