"""Problem registry: the model problem and the four built-in experiments.

A ProblemSpec bundles the rectangle, the interface (level-set or parametric,
or none), the one-sided coefficient and source fields, the jump data, and the
four boundary conditions.  Sides follow the closed-minus convention: psi <= 0
belongs to the minus region.

The field callables (psi, a+-, f+-, boundary data and Robin coefficients)
receive numpy arrays that broadcast against each other but need not share a
shape: every grid-anchored lattice (``mls.lattice_values``) passes an
(nx, 1) column of x values and a (1, ny) row of y values.  A callable may
return a scalar or any shape that broadcasts against its arguments;
``lattice_values`` broadcasts whatever it returns.  Each field must be
evaluable on the whole domain box enlarged by a couple of mesh widths, on
both sides of the interface: a one-sided field is evaluated on a node's
full lattice, the other side included, and its values there are dropped
(the derivative lattices reach outside the box by up to h).  The built-ins
use their global analytic formulas, so this holds trivially.

The built-in problems are stored as configuration text and parsed by the same
loader used for user files, so a written-out config round-trips bit-exactly.
The test suite builds its manufactured polynomial problems on the same
ProblemSpec (``tests/manufactured.py``); nothing here depends on them.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .expressions import compile_expression
from .geometry import LevelSetInterface, ParametricInterface


@dataclass
class BoundaryCondition:
    kind: str                    # "dirichlet" | "robin" (alpha == 0 is Neumann)
    data: object                 # callable (x, y) -> boundary data on the side
    alpha: object = None         # callable (x, y), Robin coefficient


@dataclass
class ProblemSpec:
    name: str
    domain: tuple                # (l1, l2, l3, l4)
    interface: object            # LevelSetInterface | ParametricInterface | None
    a_plus: object
    a_minus: object
    f_plus: object
    f_minus: object
    boundary: dict               # side id 1..4 -> BoundaryCondition
    exact_u_plus: object = None
    exact_u_minus: object = None

    @property
    def psi(self):
        if self.interface is None:
            return lambda x, y: np.ones(np.broadcast_shapes(np.shape(x),
                                                            np.shape(y)))
        return self.interface.psi

    @property
    def has_exact(self) -> bool:
        return self.exact_u_plus is not None

    def exact_u(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.interface is None:
            return self.exact_u_plus(x, y)
        side = np.asarray(self.psi(x, y)) > 0.0
        return np.where(side, self.exact_u_plus(x, y), self.exact_u_minus(x, y))


# ----------------------------------------------------------------------------
# configuration loader
# ----------------------------------------------------------------------------

def load_config(path) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read problem config {str(path)!r}: "
                          f"{exc}") from exc
    return load_config_string(text)


def load_config_string(text: str) -> ProblemSpec:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=(";",))
    try:
        cp.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"malformed problem config: {exc}") from exc

    read = set()

    def need(section, key, fallback=None):
        read.add((section, key))
        value = cp.get(section, key, fallback=fallback)
        if value is None:
            raise ConfigError(f"config is missing [{section}] {key}")
        return value

    def expr(section, key, variables, fallback=None):
        """[section] key (else the fallback source), compiled; an error in
        the expression names the key."""
        src = need(section, key, fallback)
        try:
            return compile_expression(src, variables)
        except ConfigError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc

    missing = []

    def required(section, key, variables, why):
        """[section] key, which the problem's kinds need, compiled.  An
        absent key is reported after the unknown-key check below, so that
        a misspelled key is named as such."""
        if cp.has_option(section, key):
            return expr(section, key, variables)
        missing.append(f"config is missing [{section}] {key}: {why}")
        return None

    xy, theta = ("x", "y"), ("theta",)
    name = need("problem", "name", "unnamed")
    domain = tuple(float(expr("domain", k, ())())
                   for k in ("l1", "l2", "l3", "l4"))

    kind = need("interface", "kind", "none").strip().lower()
    if kind == "none":
        interface = None
    elif kind == "levelset":
        interface = LevelSetInterface(
            expr("interface", "psi", xy), jump_g=expr("interface", "g", xy),
            jump_ggamma=expr("interface", "g_gamma", xy))
    elif kind == "parametric":
        interface = ParametricInterface(
            expr("interface", "r", theta), expr("interface", "s", theta),
            expr("interface", "psi", xy),
            jump_g=expr("interface", "g", theta),
            jump_ggamma=expr("interface", "g_gamma", theta),
            period=float(expr("interface", "period", (), "2*pi")()))
    else:
        raise ConfigError(f"unknown interface kind {kind!r}")

    a_plus = expr("fields", "a_plus", xy)
    f_plus = expr("fields", "f_plus", xy)
    # without an interface the minus side defaults to the plus side
    a_minus = expr("fields", "a_minus", xy,
                   a_plus.source if interface is None else None)
    f_minus = expr("fields", "f_minus", xy,
                   f_plus.source if interface is None else None)

    exact_p = exact_m = None
    if cp.has_section("exact"):
        exact_p = expr("exact", "u_plus", xy)
        if interface is None:
            exact_m = expr("exact", "u_minus", xy, exact_p.source)
        else:
            exact_m = required("exact", "u_minus", xy,
                               "a problem with an interface needs the exact "
                               "solution on its minus side")

    boundary = {}
    for side in (1, 2, 3, 4):
        sec = f"boundary.gamma{side}"
        if not cp.has_section(sec):
            raise ConfigError(f"config is missing section [{sec}]")
        bkind = need(sec, "kind").strip().lower()
        data = expr(sec, "g", xy)
        if bkind == "dirichlet":
            boundary[side] = BoundaryCondition("dirichlet", data)
        elif bkind in ("robin", "neumann"):   # neumann: alpha = 0, no key
            boundary[side] = BoundaryCondition("robin", data, (
                required(sec, "alpha", xy, "a robin side needs its alpha "
                         "(kind = neumann is alpha = 0)")
                if bkind == "robin" else compile_expression("0", xy)))
        else:
            raise ConfigError(f"unknown boundary kind {bkind!r} in [{sec}]")

    # a misspelled key would otherwise leave its fallback in place
    for section in cp.sections():
        for key in cp[section]:
            if (section, key) not in read:
                raise ConfigError(f"unknown config key [{section}] {key}")
    if missing:
        raise ConfigError(missing[0])

    return ProblemSpec(name=name, domain=domain, interface=interface,
                       a_plus=a_plus, a_minus=a_minus, f_plus=f_plus,
                       f_minus=f_minus, boundary=boundary,
                       exact_u_plus=exact_p, exact_u_minus=exact_m)


# ----------------------------------------------------------------------------
# built-in experiments
# ----------------------------------------------------------------------------

_EX31_F = (
    "-( cos(x)*sin(y)*(2*cos(2*x)*sin(2*y)*(x^4+2*y^4-2)"
    " + 4*x^3*sin(2*x)*sin(2*y))"
    " + sin(x)*cos(y)*(2*sin(2*x)*cos(2*y)*(x^4+2*y^4-2)"
    " + 8*y^3*sin(2*x)*sin(2*y))"
    " + (2+sin(x)*sin(y))*( -8*sin(2*x)*sin(2*y)*(x^4+2*y^4-2)"
    " + 16*cos(2*x)*sin(2*y)*x^3 + 12*sin(2*x)*sin(2*y)*x^2"
    " + 32*sin(2*x)*cos(2*y)*y^3 + 24*sin(2*x)*sin(2*y)*y^2 ) )"
)

_EX31 = f"""
[problem]
name = ex31

[domain]
l1 = -2.5
l2 = 2.5
l3 = -2.5
l4 = 2.5

[interface]
kind = levelset
psi = x^4 + 2*y^4 - 2
g = -30
g_gamma = 0

[fields]
a_plus = 2 + sin(x)*sin(y)
a_minus = 1000*(2 + sin(x)*sin(y))
f_plus = {_EX31_F}
f_minus = {_EX31_F}

[exact]
u_plus = sin(2*x)*sin(2*y)*(x^4+2*y^4-2) + 1
u_minus = 0.001*sin(2*x)*sin(2*y)*(x^4+2*y^4-2) + 31

[boundary.gamma1]
kind = robin
alpha = cos(y) + 2
g = -(2*cos(2*x)*sin(2*y)*(x^4+2*y^4-2) + 4*x^3*sin(2*x)*sin(2*y))
    + (cos(y)+2)*(sin(2*x)*sin(2*y)*(x^4+2*y^4-2) + 1)

[boundary.gamma2]
kind = dirichlet
g = sin(2*x)*sin(2*y)*(x^4+2*y^4-2) + 1

[boundary.gamma3]
kind = robin
alpha = sin(x) + 2
g = -(2*sin(2*x)*cos(2*y)*(x^4+2*y^4-2) + 8*y^3*sin(2*x)*sin(2*y))
    + (sin(x)+2)*(sin(2*x)*sin(2*y)*(x^4+2*y^4-2) + 1)

[boundary.gamma4]
kind = dirichlet
g = sin(2*x)*sin(2*y)*(x^4+2*y^4-2) + 1
"""

_RHO8 = "(pi/3 + 0.4*sin(8*theta))"
_RP8 = "(3.2*cos(8*theta))"
_EX32_RP = f"({_RP8}*cos(theta) - {_RHO8}*sin(theta))"
_EX32_SP = f"({_RP8}*sin(theta) + {_RHO8}*cos(theta))"

_EX32 = f"""
[problem]
name = ex32

[domain]
l1 = -2
l2 = 2
l3 = -2
l4 = 2

[interface]
kind = parametric
r = {_RHO8}*cos(theta)
s = {_RHO8}*sin(theta)
psi = x^2 + y^2 - (pi/3 + 0.4*sin(8*atan2(y,x)))^2
g = cos({_RHO8}*cos(theta)) - 1000*sin(3*pi*{_RHO8}*sin(theta)) - 1500
g_gamma = (-sin({_RHO8}*cos(theta))*{_EX32_SP}
           + 3*pi*cos(3*pi*{_RHO8}*sin(theta))*{_EX32_RP})
          / sqrt({_EX32_RP}^2 + {_EX32_SP}^2)

[fields]
a_plus = 1
a_minus = 0.001
f_plus = cos(x)
f_minus = 9*pi^2*sin(3*pi*y)

[exact]
u_plus = cos(x)
u_minus = 1000*sin(3*pi*y) + 1500

[boundary.gamma1]
kind = dirichlet
g = cos(x)

[boundary.gamma2]
kind = dirichlet
g = cos(x)

[boundary.gamma3]
kind = dirichlet
g = cos(x)

[boundary.gamma4]
kind = dirichlet
g = cos(x)
"""

_EX33_KAPPA = "0.5/(sin(theta)^2 + 0.25*cos(theta)^2)^1.5"

_EX33 = f"""
[problem]
name = ex33

[domain]
l1 = -1.5
l2 = 1.5
l3 = -1.5
l4 = 1.5

[interface]
kind = parametric
r = cos(theta)
s = 0.5*sin(theta)
psi = x^2 + 4*y^2 - 1
g = {_EX33_KAPPA} - 1
g_gamma = {_EX33_KAPPA}

[fields]
a_plus = 2 + sin(x+y)
a_minus = 10000*(2 + sin(x+y))
f_plus = cos(pi*x)*cos(pi*y)
f_minus = sin(pi*(x-y))

[boundary.gamma1]
kind = robin
alpha = cos(y) + 2
g = sin(2*pi*y)

[boundary.gamma2]
kind = dirichlet
g = 0

[boundary.gamma3]
kind = robin
alpha = sin(x) + 2
g = cos(pi*x)

[boundary.gamma4]
kind = dirichlet
g = 0
"""

_RHO10 = "(pi/3 + 0.4*sin(10*theta))"

_EX34 = f"""
[problem]
name = ex34

[domain]
l1 = -2
l2 = 2
l3 = -2
l4 = 2

[interface]
kind = parametric
r = {_RHO10}*cos(theta)
s = {_RHO10}*sin(theta)
psi = x^2 + y^2 - (pi/3 + 0.4*sin(10*atan2(y,x)))^2
g = -sin(theta) - 1
g_gamma = cos(theta)

[fields]
a_plus = 1000*(2 + cos(x)*cos(y))
a_minus = 2 + cos(x)*cos(y)
f_plus = sin(pi*x)*sin(pi*y)
f_minus = cos(pi*x)*cos(pi*y)

[boundary.gamma1]
kind = dirichlet
g = 0

[boundary.gamma2]
kind = dirichlet
g = 0

[boundary.gamma3]
kind = dirichlet
g = 0

[boundary.gamma4]
kind = dirichlet
g = 0
"""

BUILTIN_CONFIGS = {"ex31": _EX31, "ex32": _EX32, "ex33": _EX33, "ex34": _EX34}


def builtin(name: str) -> ProblemSpec:
    if name not in BUILTIN_CONFIGS:
        raise ConfigError(
            f"unknown builtin {name!r}; choose from {sorted(BUILTIN_CONFIGS)}")
    return load_config_string(BUILTIN_CONFIGS[name])
