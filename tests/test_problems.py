"""Problem registry: expressions, builtins, manufactured cases, consistency."""

import numpy as np
import pytest
from mpmath import mp, mpf

import hybridfdm.expressions as ex
from hybridfdm.errors import ConfigError
from hybridfdm.expressions import compile_expression
from hybridfdm.jets import poly_dx, poly_dy, poly_eval
from hybridfdm.problems import builtin, load_config, load_config_string
from manufactured import manufacture
from test_interface import exact_circle_curvejet


def curvature(curve) -> float:
    """|r's'' - r''s'| / ((r')^2 + (s')^2)^(3/2) from the curve jets."""
    r1, r2 = curve.r[1], curve.r[2]
    s1, s2 = curve.s[1], curve.s[2]
    speed2 = r1 * r1 + s1 * s1
    if speed2 == 0.0:
        raise ConfigError("degenerate tangent in curvature evaluation")
    return abs(r1 * s2 - r2 * s1) / speed2**1.5


def curvature_jump(curve):
    """The (g, gGamma) pair of the curvature-driven experiment: (k - 1, k)."""
    k = curvature(curve)
    return k - 1.0, k

mp.dps = 40

_MP_FUNCS = {
    "sin": mp.sin, "cos": mp.cos, "tan": mp.tan, "asin": mp.asin,
    "acos": mp.acos, "atan": mp.atan, "atan2": mp.atan2, "sinh": mp.sinh,
    "cosh": mp.cosh, "tanh": mp.tanh, "exp": mp.exp, "log": mp.log,
    "log10": lambda v: mp.log(v, 10), "sqrt": mp.sqrt, "abs": mp.fabs,
    "sign": mp.sign, "min": min, "max": max,
}


def compile_mp(src, variables):
    """Evaluate the same expression grammar in arbitrary precision."""
    ast = ex._Parser(ex._tokenize(src), set(variables)).parse()

    def ev(node, env):
        op = node[0]
        if op == "num":
            return mpf(node[1])
        if op == "var":
            return env[node[1]]
        if op == "neg":
            return -ev(node[1], env)
        if op == "call":
            return _MP_FUNCS[node[1]](*[ev(a, env) for a in node[2]])
        a, b = ev(node[1], env), ev(node[2], env)
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b,
                "^": a**b}[op]

    return lambda *args: ev(ast, dict(zip(variables, args)))


class TestExpressions:
    def test_precedence_and_power(self):
        f = compile_expression("2 + 3*x^2", ("x",))
        assert f(2.0) == pytest.approx(14.0)
        g = compile_expression("2^3^2", ())
        assert g() == pytest.approx(512.0)  # right associative

    def test_unary_and_functions(self):
        f = compile_expression("-sin(theta) - 1", ("theta",))
        assert f(np.pi / 2) == pytest.approx(-2.0)
        g = compile_expression("atan2(y, x)", ("x", "y"))
        assert g(1.0, 1.0) == pytest.approx(np.pi / 4)

    def test_vectorized_and_constant_fill(self):
        f = compile_expression("x^2 + y", ("x", "y"))
        out = f(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.allclose(out, [4.0, 8.0])
        c = compile_expression("pi", ("x", "y"))
        out = c(np.zeros(5), np.zeros(5))
        assert out.shape == (5,)
        assert np.allclose(out, np.pi)

    def test_errors(self):
        with pytest.raises(ConfigError):
            compile_expression("foo(x)", ("x",))
        with pytest.raises(ConfigError):
            compile_expression("x + z", ("x",))
        with pytest.raises(ConfigError):
            compile_expression("x +", ("x",))


class TestBuiltins:
    def test_ex31_coefficient_ratio(self):
        p = builtin("ex31")
        rng = np.random.default_rng(0)
        x, y = rng.uniform(-2, 2, 5), rng.uniform(-2, 2, 5)
        assert np.allclose(p.a_plus(x, y) / p.a_minus(x, y), 1e-3)
        assert p.interface.jump_g(0.5, 1.0) == pytest.approx(-30.0)
        assert p.interface.jump_ggamma(0.5, 1.0) == pytest.approx(0.0)
        assert p.boundary[1].kind == "robin"
        assert p.boundary[2].kind == "dirichlet"
        assert p.has_exact

    def test_ex33_jump_is_curvature_minus_one(self):
        p = builtin("ex33")
        # kappa at the ends of the axes of the (1, 1/2) ellipse
        assert p.interface.jump_g(0.0) == pytest.approx(4.0 - 1.0)
        assert p.interface.jump_g(np.pi / 2) == pytest.approx(0.5 - 1.0)
        assert p.interface.jump_ggamma(np.pi) == pytest.approx(4.0)
        assert not p.has_exact

    def test_ex34_zero_boundary(self):
        p = builtin("ex34")
        for side in (1, 2, 3, 4):
            assert p.boundary[side].kind == "dirichlet"
            assert p.boundary[side].data(1.2, -2.0) == pytest.approx(0.0)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            builtin("ex99")

    def test_config_roundtrip_bit_exact(self, tmp_path):
        from hybridfdm.problems import BUILTIN_CONFIGS

        rng = np.random.default_rng(1)
        for name, text in BUILTIN_CONFIGS.items():
            path = tmp_path / f"{name}.cfg"
            path.write_text(text)
            a = builtin(name)
            b = load_config(path)
            x, y = rng.uniform(-1.4, 1.4, 64), rng.uniform(-1.4, 1.4, 64)
            for fa, fb in ((a.a_plus, b.a_plus), (a.f_minus, b.f_minus)):
                va, vb = fa(x, y), fb(x, y)
                assert np.array_equal(va, vb)
            if a.has_exact:
                assert np.array_equal(a.exact_u(x, y), b.exact_u(x, y))


class TestCurvature:
    def test_unit_circle(self):
        curve = exact_circle_curvejet(0.7)
        assert curvature(curve) == pytest.approx(1.0)
        g, gg = curvature_jump(curve)
        assert g == pytest.approx(0.0)
        assert gg == pytest.approx(1.0)

    def test_ellipse_axis_values(self):
        # (cos t, sin t / 2): kappa = 4 at t = 0, 1/2 at t = pi/2
        for theta0, expect in ((0.0, 4.0), (np.pi / 2, 0.5)):
            r = np.array([np.cos(theta0), -np.sin(theta0), -np.cos(theta0),
                          np.sin(theta0), np.cos(theta0), -np.sin(theta0)])
            s = 0.5 * np.array([np.sin(theta0), np.cos(theta0), -np.sin(theta0),
                                -np.cos(theta0), np.sin(theta0), np.cos(theta0)])
            from hybridfdm.transmission import CurveJet

            curve = CurveJet(v0=0, w0=0, r=r, s=s,
                             g=np.zeros(6), gg=np.zeros(5))
            assert curvature(curve) == pytest.approx(expect, rel=1e-12)


class TestManufacture:
    def test_zero_jumps_for_identical_sides(self):
        case = manufacture(seed=4, interface_kind="none")
        p = case.problem
        x, y = 0.3, -0.8
        assert p.interface is None
        assert p.exact_u(x, y) == pytest.approx(poly_eval(case.u_plus, x, y))

    def test_default_psi_takes_the_broadcast_shape(self):
        psi = manufacture(seed=4, interface_kind="none").problem.psi
        out = psi(np.zeros((3, 1)), np.zeros((1, 4)))
        assert out.shape == (3, 4) and np.all(out == 1.0)
        assert psi(np.zeros(5), 0.0).shape == (5,)
        assert psi(0.0, np.zeros(2)).shape == (2,)

    def test_jump_matches_direct_evaluation(self):
        case = manufacture(seed=5, degree=5, interface_kind="circle")
        thetas = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        radius = np.sqrt(0.9)
        x, y = radius * np.cos(thetas), radius * np.sin(thetas)
        direct = poly_eval(case.u_plus, x, y) - poly_eval(case.u_minus, x, y)
        via = case.problem.interface.jump_g(x, y)
        assert np.allclose(via, direct, atol=1e-12)

    def test_flux_jump_on_ellipse(self):
        case = manufacture(seed=6, interface_kind="ellipse")
        t = 0.9
        scale = np.sqrt(0.9)
        x, y = scale * np.cos(t), 0.5 * scale * np.sin(t)
        gx, gy = 2 * x, 8 * y
        n = np.hypot(gx, gy)
        up, um = case.u_plus, case.u_minus
        p = case.problem
        expect = (p.a_plus(x, y) * (poly_eval(poly_dx(up), x, y) * gx
                                    + poly_eval(poly_dy(up), x, y) * gy)
                  - p.a_minus(x, y) * (poly_eval(poly_dx(um), x, y) * gx
                                       + poly_eval(poly_dy(um), x, y) * gy)) / n
        assert p.interface.jump_ggamma(x, y) == pytest.approx(expect, rel=1e-12)


def _mp_pde_residual(a_src, u_src, f_src, x0, y0):
    """-(a u_x)_x - (a u_y)_y - f in 40-digit arithmetic."""
    a = compile_mp(a_src, ("x", "y"))
    u = compile_mp(u_src, ("x", "y"))
    f = compile_mp(f_src, ("x", "y"))

    def flux_x(x, y):
        return a(x, y) * mp.diff(lambda t: u(t, y), x)

    def flux_y(x, y):
        return a(x, y) * mp.diff(lambda t: u(x, t), y)

    lhs = -(mp.diff(lambda t: flux_x(t, mpf(y0)), mpf(x0))
            + mp.diff(lambda t: flux_y(mpf(x0), t), mpf(y0)))
    return float(lhs - f(mpf(x0), mpf(y0)))


class TestSelfConsistency:
    """Plugging the exact solution into the builtin data leaves ~0 residuals."""

    def test_ex31_pde_both_sides(self):
        from hybridfdm.problems import _EX31_F

        u_plus = "sin(2*x)*sin(2*y)*(x^4+2*y^4-2) + 1"
        u_minus = "0.001*sin(2*x)*sin(2*y)*(x^4+2*y^4-2) + 31"
        a_plus = "2 + sin(x)*sin(y)"
        a_minus = "1000*(2 + sin(x)*sin(y))"
        rng = np.random.default_rng(2)
        for _ in range(3):
            x0, y0 = rng.uniform(-2, 2, 2)
            r = _mp_pde_residual(a_plus, u_plus, _EX31_F, x0, y0)
            assert abs(r) <= 1e-9
            r = _mp_pde_residual(a_minus, u_minus, _EX31_F, x0, y0)
            assert abs(r) <= 1e-9

    def test_ex31_boundary_data(self):
        p = builtin("ex31")
        u = compile_mp("sin(2*x)*sin(2*y)*(x^4+2*y^4-2) + 1", ("x", "y"))
        rng = np.random.default_rng(3)
        for y0 in rng.uniform(-2.4, 2.4, 3):
            ux = mp.diff(lambda t: u(t, mpf(y0)), mpf(-2.5))
            want = float(-ux + (mp.cos(y0) + 2) * u(mpf(-2.5), mpf(y0)))
            got = p.boundary[1].data(-2.5, y0)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        for x0 in rng.uniform(-2.4, 2.4, 2):
            uy = mp.diff(lambda t: u(mpf(x0), t), mpf(-2.5))
            want = float(-uy + (mp.sin(x0) + 2) * u(mpf(x0), mpf(-2.5)))
            assert p.boundary[3].data(x0, -2.5) == pytest.approx(
                want, rel=1e-12, abs=1e-12)

    def test_ex31_interface_jump(self):
        p = builtin("ex31")
        # points on x^4 + 2 y^4 = 2
        for t in (0.0, 0.6, -0.9):
            y = ((2.0 - t**4) / 2.0) ** 0.25
            up = p.exact_u_plus(t, y)
            um = p.exact_u_minus(t, y)
            assert up - um == pytest.approx(-30.0, abs=1e-10)

    def test_ex32_jump_data(self):
        p = builtin("ex32")
        rng = np.random.default_rng(4)
        rho = compile_mp("pi/3 + 0.4*sin(8*theta)", ("theta",))
        for t0 in rng.uniform(0, 2 * np.pi, 3):
            t0 = mpf(float(t0))
            x, y = rho(t0) * mp.cos(t0), rho(t0) * mp.sin(t0)
            up = mp.cos(x)
            um = 1000 * mp.sin(3 * mp.pi * y) + 1500
            assert p.interface.jump_g(float(t0)) == pytest.approx(
                float(up - um), rel=1e-10)
            rp = mp.diff(lambda t: rho(t) * mp.cos(t), t0)
            sp = mp.diff(lambda t: rho(t) * mp.sin(t), t0)
            speed = mp.sqrt(rp**2 + sp**2)
            flux_p = -mp.sin(x) * sp / speed          # a+ grad u+ . n
            flux_m = mpf("0.001") * 3000 * mp.pi * mp.cos(3 * mp.pi * y) * (-rp) / speed
            want = float(flux_p - flux_m)
            assert p.interface.jump_ggamma(float(t0)) == pytest.approx(
                want, rel=1e-9, abs=1e-12)

    def test_ex32_pde(self):
        r = _mp_pde_residual("1", "cos(x)", "cos(x)", 0.3, -0.7)
        assert abs(r) <= 1e-12
        r = _mp_pde_residual("0.001", "1000*sin(3*pi*y) + 1500",
                             "9*pi^2*sin(3*pi*y)", 0.3, -0.7)
        assert abs(r) <= 1e-9
