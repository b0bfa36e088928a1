"""Global assembly and solve."""

import re

import numpy as np
import pytest

from hybridfdm.assembly import (
    IFACE_CHUNK,
    _grid,
    _irregular_chunk,
    _set_context,
    assemble,
    audit_m_matrix,
    solve,
)
from hybridfdm.errors import MlsError, StencilError
from hybridfdm.geometry import LABEL_IRREGULAR, classify_grid
from hybridfdm.problems import (
    BoundaryCondition,
    ProblemSpec,
    load_config_string,
    manufacture,
)

LAPLACE_XY = """
[problem]
name = laplace-xy

[domain]
l1 = -1
l2 = 1
l3 = -1
l4 = 1

[interface]
kind = none

[fields]
a_plus = 1
f_plus = 0

[exact]
u_plus = x*y

[boundary.gamma1]
kind = dirichlet
g = x*y

[boundary.gamma2]
kind = dirichlet
g = x*y

[boundary.gamma3]
kind = dirichlet
g = x*y

[boundary.gamma4]
kind = dirichlet
g = x*y
"""


def solve_problem(problem, J, threads=1):
    system = assemble(problem, J, threads=threads)
    result = solve(system)
    return system, result


class TestNoInterface:
    def test_laplace_xy_exact(self):
        p = load_config_string(LAPLACE_XY)
        system, result = solve_problem(p, 3)
        gx, gy = np.meshgrid(system.xs, system.ys, indexing="ij")
        err = np.abs(result.u - p.exact_u(gx, gy)).max()
        assert err <= 1e-10
        assert result.residual <= 1e-10

    def test_laplace_linear_exact(self):
        text = LAPLACE_XY.replace("x*y", "x")
        p = load_config_string(text)
        system, result = solve_problem(p, 3)
        gx, gy = np.meshgrid(system.xs, system.ys, indexing="ij")
        assert np.abs(result.u - p.exact_u(gx, gy)).max() <= 1e-10

    def test_dirichlet_rows_return_data_verbatim(self):
        p = load_config_string(LAPLACE_XY)
        system, result = solve_problem(p, 2)
        gx, gy = np.meshgrid(system.xs, system.ys, indexing="ij")
        exact = gx * gy
        edge = np.zeros_like(exact, dtype=bool)
        edge[0, :] = edge[-1, :] = edge[:, 0] = edge[:, -1] = True
        assert np.array_equal(result.u[edge], exact[edge])

    def test_robin_sides_sixth_order(self):
        """Mixed Robin/Dirichlet with variable alpha: sixth-order errors.

        With a variable Robin coefficient the h-degree stencil coefficients
        are nonzero, so even polynomial solutions are reproduced only to
        O(h^6), not exactly; assert the order instead.
        """
        u = lambda x, y: x**3 * y - y**2
        ux = lambda x, y: 3 * x**2 * y
        uy = lambda x, y: x**3 - 2 * y
        # f = -lap(u) for a = 1
        f = lambda x, y: -(6 * x * y - 2.0)
        alpha = lambda x, y: 2.0 + y**2
        boundary = {
            1: BoundaryCondition("robin",
                                 lambda x, y: -ux(x, y) + alpha(x, y) * u(x, y),
                                 alpha),
            2: BoundaryCondition("dirichlet", u),
            3: BoundaryCondition("robin",
                                 lambda x, y: -uy(x, y) + (1.0 + 0 * x) * u(x, y),
                                 lambda x, y: 1.0 + 0 * x),
            4: BoundaryCondition("dirichlet", u),
        }
        p = ProblemSpec(name="robin-poly", domain=(-1, 1, -1, 1), interface=None,
                        a_plus=lambda x, y: 1.0 + 0 * x,
                        a_minus=lambda x, y: 1.0 + 0 * x,
                        f_plus=f, f_minus=f, boundary=boundary,
                        exact_u_plus=u, exact_u_minus=u)
        errs = []
        for J in (3, 4):
            system, result = solve_problem(p, J)
            gx, gy = np.meshgrid(system.xs, system.ys, indexing="ij")
            errs.append(np.abs(result.u - u(gx, gy)).max())
        assert errs[0] / errs[1] >= 40.0    # ~2^6 with margin

    def test_mirror_symmetric_solution(self):
        """Even data in x: the discrete solution is even to solver noise."""
        f = lambda x, y: np.cos(np.pi * x) * np.sin(np.pi * y)
        zero = lambda x, y: 0.0 * x
        one = lambda x, y: 1.0 + 0 * x
        alpha = lambda x, y: 2.0 + np.cos(y)
        boundary = {
            1: BoundaryCondition("robin", zero, alpha),
            2: BoundaryCondition("robin", zero, alpha),
            3: BoundaryCondition("dirichlet", zero),
            4: BoundaryCondition("dirichlet", zero),
        }
        p = ProblemSpec(name="mirror", domain=(-1, 1, -1, 1), interface=None,
                        a_plus=one, a_minus=one, f_plus=f, f_minus=f,
                        boundary=boundary)
        system, result = solve_problem(p, 4)
        assert np.abs(result.u - result.u[::-1, :]).max() <= 1e-10


class TestInterfaceAssembly:
    def test_irregular_count_matches_bruteforce(self):
        case = manufacture(seed=2, interface_kind="circle")
        system = assemble(case.problem, 4)
        n = (system.labels == LABEL_IRREGULAR).sum()
        xs, ys = system.xs, system.ys
        count = 0
        psi = case.problem.psi
        for i in range(1, len(xs) - 1):
            for j in range(1, len(ys) - 1):
                signs = [psi(xs[i + a], ys[j + b]) > 0
                         for a in (-1, 0, 1) for b in (-1, 0, 1)]
                count += any(signs) and not all(signs)
        assert n == count > 0
        assert len(system.audit.irregular_ij) == n

    def test_piecewise_polynomial_high_order_convergence(self):
        """Degree-4 compliant data on a circle: errors drop at order >= 4.5."""
        case = manufacture(seed=8, degree=4, interface_kind="circle")
        errs = []
        for J in (3, 4, 5):
            system, result = solve_problem(case.problem, J)
            gx, gy = np.meshgrid(system.xs, system.ys, indexing="ij")
            errs.append(np.abs(result.u - case.problem.exact_u(gx, gy)).max())
            assert result.residual <= 1e-10
        slope = np.polyfit(np.log2([2.0**-j for j in (3, 4, 5)]),
                           np.log2(errs), 1)[0]
        assert slope >= 4.5

    def test_deterministic_assembly(self):
        case = manufacture(seed=9, degree=3, interface_kind="circle")
        s1 = assemble(case.problem, 3)
        s2 = assemble(case.problem, 3)
        assert np.array_equal(s1.matrix.data, s2.matrix.data)
        assert np.array_equal(s1.matrix.indices, s2.matrix.indices)
        assert np.array_equal(s1.rhs, s2.rhs)

    def test_pool_matches_serial_bit_for_bit(self):
        """--threads 2 gives the serial rows exactly, over several chunks."""
        case = manufacture(seed=9, degree=3, interface_kind="circle")
        s1 = assemble(case.problem, 5, threads=1)
        s2 = assemble(case.problem, 5, threads=2)
        assert len(s1.audit.irregular_ij) > IFACE_CHUNK
        assert np.array_equal(s1.matrix.indptr, s2.matrix.indptr)
        assert np.array_equal(s1.matrix.indices, s2.matrix.indices)
        assert np.array_equal(s1.matrix.data, s2.matrix.data)
        assert np.array_equal(s1.rhs, s2.rhs)

    @pytest.mark.parametrize("stage", ["fits", "transmission", "recursion"])
    def test_failing_node_is_named(self, stage, monkeypatch):
        """One node of a five-node chunk fails: the typed error names it."""
        import hybridfdm.assembly as assembly

        case = manufacture(seed=9, degree=3, interface_kind="circle")
        xs, ys, h = _grid(case.problem, 4)
        labels = classify_grid(xs, ys, case.problem.psi).labels
        ii, jj = np.nonzero(labels == LABEL_IRREGULAR)
        points = [(float(xs[a]), float(ys[b])) for a, b in zip(ii[:5], jj[:5])]
        _set_context(case.problem, h)
        assert len(_irregular_chunk(points)) == 5

        def on_third_node(fn, spoil):
            calls = []

            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls.append(None)
                return spoil(out) if len(calls) == 3 else out
            return wrapped

        def raise_mls(out):
            raise MlsError("rank-deficient moving least squares system")

        def nan_speed(curve):
            curve.s[1] = np.nan          # trips the batched determinant check
            return curve

        def raise_residual(out):
            raise StencilError("stencil recursion residual 1e-08 exceeds 1e-09")

        target, spoil, kind = {
            "fits": ("irregular_jets", raise_mls, MlsError),
            "transmission": ("curve_jet_from_chart", nan_speed, StencilError),
            "recursion": ("solve_irregular_stencil", raise_residual,
                          StencilError),
        }[stage]
        monkeypatch.setattr(assembly, target,
                            on_third_node(getattr(assembly, target), spoil))
        x, y = points[2]
        with pytest.raises(kind, match=re.escape(
                f"interface node ({x:.6g}, {y:.6g}): ")):
            _irregular_chunk(points)


class TestAudit:
    def test_manufactured_dirichlet_audit_passes(self):
        case = manufacture(seed=10, degree=3, interface_kind="circle")
        system = assemble(case.problem, 4)
        audit = audit_m_matrix(system)
        assert audit.passed
        assert audit.matrix_signs_ok
        assert audit.n_irregular > 0

    def test_adversarial_negative_alpha_flagged(self):
        zero = lambda x, y: 0.0 * x
        one = lambda x, y: 1.0 + 0 * x
        neg = lambda x, y: -1.0 + 0 * x
        boundary = {
            1: BoundaryCondition("robin", zero, neg),
            2: BoundaryCondition("dirichlet", zero),
            3: BoundaryCondition("dirichlet", zero),
            4: BoundaryCondition("dirichlet", zero),
        }
        p = ProblemSpec(name="bad-alpha", domain=(-1, 1, -1, 1), interface=None,
                        a_plus=one, a_minus=one, f_plus=zero, f_minus=zero,
                        boundary=boundary)
        system = assemble(p, 3)
        audit = audit_m_matrix(system)
        assert not audit.passed
        assert any(v[0] == "edge1" for v in audit.violations)
