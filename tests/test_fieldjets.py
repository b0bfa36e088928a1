"""Interface-lattice field jets: tensor-product sampling and its bit identity."""

import numpy as np
import pytest

from hybridfdm.assembly import _grid
from hybridfdm.errors import MlsError
from hybridfdm.expressions import compile_expression
from hybridfdm.fieldjets import _sample, corner_jets, edge_jets, irregular_jets
from hybridfdm.geometry import LABEL_IRREGULAR, classify_grid
from hybridfdm.indexsets import lambda_full
from hybridfdm.jets import Jet2
from hybridfdm.mls import MlsProblem, mls_operator, sampling_recipe
from hybridfdm.problems import builtin, manufacture
from hybridfdm.stencil_boundary import CORNER_FRAMES, SIDE_FRAMES


def lattice_axes(h):
    """Per-axis offsets of the standard and the widened interface lattice."""
    return [sampling_recipe("irregular-interface", h, widened=w).axes[0]
            for w in (False, True)]


def reference_irregular_jets(a_plus, a_minus, f_plus, f_minus, psi, anchor,
                             base, h, lattices):
    """The point-list body of irregular_jets before tensor sampling: every
    field is evaluated on the flat list of its own side's lattice points.
    ``lattices`` holds the axis offsets of the standard lattice and its
    widened fallback."""
    anchor = np.asarray(anchor, dtype=float)
    target = np.asarray(base, dtype=float) - anchor

    last_exc = None
    for offs in lattices:
        gx, gy = np.meshgrid(offs, offs, indexing="ij")
        samples = np.column_stack([gx.ravel(), gy.ravel()])
        pts = anchor[None, :] + samples
        side = np.asarray(psi(pts[:, 0], pts[:, 1]), dtype=float)
        masks = {"+": side > 0.0, "-": side <= 0.0}
        last = offs is lattices[-1]
        if min(masks["+"].sum(), masks["-"].sum()) < 30 and not last:
            continue

        def fit(field, mask, degree, reqs):
            prob = MlsProblem(samples[mask], target, np.zeros(2), degree, h)
            op = mls_operator(prob, reqs)
            vals = np.asarray(field(pts[mask, 0], pts[mask, 1]), dtype=float)
            return op @ vals

        try:
            ap = fit(a_plus, masks["+"], 4, lambda_full(4))
            am = fit(a_minus, masks["-"], 4, lambda_full(4))
            fp = fit(f_plus, masks["+"], 3, lambda_full(3))
            fm = fit(f_minus, masks["-"], 3, lambda_full(3))
        except MlsError as exc:
            last_exc = exc
            continue
        jet_p = Jet2.from_derivatives(
            {mn: ap[i] for i, mn in enumerate(lambda_full(4))}, 4)
        jet_m = Jet2.from_derivatives(
            {mn: am[i] for i, mn in enumerate(lambda_full(4))}, 4)
        return jet_p, jet_m, fp, fm
    raise MlsError(f"degenerate after widening: {last_exc}")


def bits(a):
    a = np.ascontiguousarray(a, dtype=float)
    return a.shape, a.view(np.int64).tolist()


class CountingPsi:
    """psi that records the argument shapes of every call."""

    def __init__(self, psi):
        self.psi = psi
        self.shapes = []

    def __call__(self, x, y):
        self.shapes.append((np.shape(x), np.shape(y)))
        return self.psi(x, y)


def interface_cases(problem, J):
    """(node, base point) of every interface node of the grid."""
    xs, ys, h = _grid(problem, J)
    cls = classify_grid(xs, ys, problem.psi)
    ii, jj = np.nonzero(cls.labels == LABEL_IRREGULAR)
    points = [(float(xs[a]), float(ys[b])) for a, b in zip(ii, jj)]
    bases = problem.interface.locate_base(points, h)
    return [(p, bp.base) for p, bp in zip(points, bases)], h


@pytest.fixture(scope="module")
def ex31_j5():
    problem = builtin("ex31")
    return problem, *interface_cases(problem, 5)


def assert_same_jets(problem, cases, h):
    widened = 0
    for point, base in cases:
        fields = (problem.a_plus, problem.a_minus, problem.f_plus,
                  problem.f_minus)
        counted = CountingPsi(problem.psi)
        got = irregular_jets(*fields, counted, point, base, h)
        want = reference_irregular_jets(*fields, problem.psi, point, base, h,
                                        lattice_axes(h))
        assert bits(got[0].c) == bits(want[0].c), point
        assert bits(got[1].c) == bits(want[1].c), point
        assert bits(got[2]) == bits(want[2]), point
        assert bits(got[3]) == bits(want[3]), point
        widened += len(counted.shapes) - 1
    return widened


def test_irregular_jets_match_point_list_body_on_ex31(ex31_j5):
    problem, cases, h = ex31_j5
    assert len(cases) > 100
    assert assert_same_jets(problem, cases, h) == 52


def test_irregular_jets_match_point_list_body_on_circle():
    case = manufacture(5, interface_kind="circle")
    cases, h = interface_cases(case.problem, 4)
    assert len(cases) > 20
    assert_same_jets(case.problem, cases, h)


def test_psi_is_called_once_per_lattice_attempt(ex31_j5):
    problem, cases, h = ex31_j5
    calls = []
    for point, base in cases:
        counted = CountingPsi(problem.psi)
        irregular_jets(problem.a_plus, problem.a_minus, problem.f_plus,
                       problem.f_minus, counted, point, base, h)
        calls.append(counted.shapes)
    assert sorted({len(c) for c in calls}) == [1, 2]
    assert sum(len(c) == 2 for c in calls) == 52
    for shapes in calls:
        assert shapes[0] == ((17, 1), (1, 17))
        assert shapes[1:] in ([], [((33, 1), (1, 33))])


class TestSample:
    x = np.linspace(-1.0, 1.0, 5)[:, None]
    y = np.linspace(0.0, 2.0, 7)[None, :]

    def test_scalar_returning_lambda(self):
        out = _sample(lambda x, y: 1.0, self.x, self.y)
        assert out.shape == (5, 7) and out.dtype == float
        assert out.flags.c_contiguous
        assert np.all(out == 1.0)

    def test_one_variable_expression(self):
        fn = compile_expression("sin(2*x)", ("x", "y"))
        assert np.shape(fn(self.x, self.y)) == (5, 1)
        out = _sample(fn, self.x, self.y)
        assert out.shape == (5, 7)
        assert bits(out) == bits(np.repeat(np.sin(2.0 * self.x), 7, axis=1))

    def test_full_shape_field(self):
        fn = compile_expression("x^4 + 2*y^4 - 2", ("x", "y"))
        want = fn(self.x, self.y)
        out = _sample(fn, self.x, self.y)
        assert out.shape == (5, 7)
        assert bits(out) == bits(want)
        assert bits(out.ravel()) == bits(
            fn(np.repeat(self.x, 7, axis=1).ravel(),
               np.repeat(self.y, 5, axis=0).ravel()))

    def test_flat_points_keep_their_shape(self):
        x = np.linspace(0.0, 1.0, 9)
        out = _sample(lambda x, y: 2.0 + 0.0 * x, x, x[::-1].copy())
        assert out.shape == (9,) and np.all(out == 2.0)


def test_boundary_jets_do_not_depend_on_the_returned_shape():
    """Constant Robin data given as a scalar, as a column and as a full
    array give the same boundary jets, bit for bit."""
    h = 0.125
    a = compile_expression("2 + sin(x)*sin(y)", ("x", "y"))
    f = compile_expression("cos(x) * y^2", ("x", "y"))
    shapes = (lambda x, y: 1.5, lambda x, y: 1.5 + 0.0 * x,
              lambda x, y: 1.5 + 0.0 * x + 0.0 * y)
    anchors = np.array([[-1.0, -0.5], [-1.0, 0.25], [-1.0, 0.5]])
    edges = [edge_jets(a, f, c, c, anchors, SIDE_FRAMES[1], h) for c in shapes]
    corners = [corner_jets(a, f, c, c, c, c, np.array([-1.0, -1.0]),
                           CORNER_FRAMES[(1, 3)], h) for c in shapes]
    for got in edges[1:]:
        assert bits(got[0].c) == bits(edges[0][0].c)
        for k in (1, 2, 3):
            assert bits(got[k]) == bits(edges[0][k])
    for got in corners[1:]:
        assert bits(got[0].c) == bits(corners[0][0].c)
        for k in range(1, 6):
            assert bits(got[k]) == bits(corners[0][k])
