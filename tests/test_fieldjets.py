"""Field jets and their sampling: one lattice evaluation per batch
(``lattice_values``) and its bit identity."""

import dataclasses

import numpy as np
import pytest

from hybridfdm.assembly import _grid
from hybridfdm.errors import MlsError
from hybridfdm.expressions import compile_expression
from hybridfdm.fieldjets import corner_jets, edge_jets, irregular_jets
from hybridfdm.geometry import (
    LABEL_IRREGULAR,
    LevelSetInterface,
    classify_grid,
)
from hybridfdm.indexsets import lambda_full
from hybridfdm.jets import Jet2
from hybridfdm.mls import (
    MlsProblem,
    lattice_values,
    mls_operator,
    sampling_recipe,
)
from hybridfdm.problems import builtin
from hybridfdm.stencil_boundary import CORNER_FRAMES, SIDE_FRAMES
from manufactured import manufacture


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
            prob = MlsProblem(samples[mask], target, degree, h)
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


class Counting:
    """A field that records the argument shapes of every call."""

    def __init__(self, field):
        self.field = field
        self.shapes = []

    def __call__(self, x, y):
        self.shapes.append((np.shape(x), np.shape(y)))
        return self.field(x, y)


def interface_cases(problem, J):
    """(node, base point) of every interface node of the grid."""
    xs, ys, h = _grid(problem, J)
    cls = classify_grid(xs, ys, problem.psi)
    ii, jj = np.nonzero(cls.labels == LABEL_IRREGULAR)
    points = [(float(xs[a]), float(ys[b])) for a, b in zip(ii, jj)]
    bases = problem.interface.locate_base(points, h)
    return [(p, bp.base) for p, bp in zip(points, bases)], h


def fields_of(problem):
    return (problem.a_plus, problem.a_minus, problem.f_plus, problem.f_minus,
            problem.psi)


@pytest.fixture(scope="module")
def ex31_j5():
    problem = builtin("ex31")
    return problem, *interface_cases(problem, 5)


def assert_same_jets(problem, cases, h, chunk):
    """Chunk-form jets, ``chunk`` nodes per call, equal the point-list
    reference node by node, bit for bit; returns the widened count."""
    widened = 0
    for k in range(0, len(cases), chunk):
        points, bases = zip(*cases[k: k + chunk])
        jp, jm, fp, fm, wide = irregular_jets(*fields_of(problem), points,
                                              bases, h)
        assert jp.c.shape == jm.c.shape == (len(points), 5, 5)
        assert fp.shape == fm.shape == (len(points), 10)
        for b, (point, base) in enumerate(zip(points, bases)):
            want = reference_irregular_jets(*fields_of(problem), point, base,
                                            h, lattice_axes(h))
            assert bits(jp.c[b]) == bits(want[0].c), point
            assert bits(jm.c[b]) == bits(want[1].c), point
            assert bits(fp[b]) == bits(want[2]), point
            assert bits(fm[b]) == bits(want[3]), point
        widened += int(wide.sum())
    return widened


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["1", "7", "all"])
def test_irregular_jets_match_point_list_body_on_ex31(ex31_j5, chunk):
    problem, cases, h = ex31_j5
    assert len(cases) > 100
    assert assert_same_jets(problem, cases, h, chunk or len(cases)) == 52


@pytest.mark.parametrize("domain", [None, (-1.9, 1.9, -1.9, 1.9)],
                         ids=["dyadic", "non-dyadic"])
def test_irregular_jets_match_point_list_body_on_circle(domain):
    """The manufactured circle, on its own (-2, 2)^2 box and on one whose
    grid coordinates are not binary fractions."""
    problem = manufacture(5, interface_kind="circle").problem
    if domain is not None:
        problem = dataclasses.replace(problem, domain=domain)
    cases, h = interface_cases(problem, 4)
    assert len(cases) > 20
    assert_same_jets(problem, cases, h, 16)


def test_each_field_is_called_once_per_chunk_on_tensor_axes(ex31_j5):
    """psi, a+, a-, f+ and f- are each called once for the whole chunk, on
    an (nx, 1) column and a (1, ny) row; the axes hold every node's widened
    window coordinates and nothing else."""
    problem, cases, h = ex31_j5
    points, bases = zip(*cases[:20])
    counted = [Counting(field) for field in fields_of(problem)]
    irregular_jets(*counted, points, bases, h)
    offs = lattice_axes(h)[1]
    nx = len({x.hex() for x, _ in points for x in x + offs})
    ny = len({y.hex() for _, y in points for y in y + offs})
    for field in counted:
        assert field.shapes == [((nx, 1), (1, ny))]


def test_a_node_that_fails_both_lattices_is_indexed(ex31_j5):
    """A node whose fits fail on both lattices raises MlsError with its
    position in the chunk.  A base point far off its node gives the whole
    lattice zero weight, so both attempts are rank-deficient."""
    problem, cases, h = ex31_j5
    points, bases = (list(c) for c in zip(*cases[:5]))
    bases[3] = (points[3][0] + 1e3, points[3][1])
    with pytest.raises(MlsError, match="stays degenerate after widening: "
                       "rank-deficient") as info:
        irregular_jets(*fields_of(problem), points, bases, h)
    assert info.value.index == 3


class TestLatticeValues:
    x = np.linspace(-1.0, 1.0, 5)[:, None]
    y = np.linspace(0.0, 2.0, 7)[None, :]

    def test_scalar_returning_lambda(self):
        out = lattice_values(lambda x, y: 1.0, self.x, self.y)
        assert out.shape == (5, 7) and out.dtype == float
        assert out.flags.c_contiguous
        assert np.all(out == 1.0)

    def test_one_variable_expression(self):
        fn = compile_expression("sin(2*x)", ("x", "y"))
        assert np.shape(fn(self.x, self.y)) == (5, 1)
        out = lattice_values(fn, self.x, self.y)
        assert out.shape == (5, 7)
        assert bits(out) == bits(np.repeat(np.sin(2.0 * self.x), 7, axis=1))

    def test_full_shape_field(self):
        fn = compile_expression("x^4 + 2*y^4 - 2", ("x", "y"))
        want = fn(self.x, self.y)
        out = lattice_values(fn, self.x, self.y)
        assert out.shape == (5, 7)
        assert bits(out) == bits(want)
        assert bits(out.ravel()) == bits(
            fn(np.repeat(self.x, 7, axis=1).ravel(),
               np.repeat(self.y, 5, axis=0).ravel()))

    def test_flat_points_keep_their_shape(self):
        x = np.linspace(0.0, 1.0, 9)
        out = lattice_values(lambda x, y: 2.0 + 0.0 * x, x, x[::-1].copy())
        assert out.shape == (9,) and np.all(out == 2.0)

    def test_duplicate_coordinates_are_evaluated_once(self):
        x = np.array([[0.5, 0.25, 0.5], [0.25, 0.5, 0.5]])
        y = np.array([[1.0, 1.0, 3.0], [3.0, 1.0, 1.0]])
        field = Counting(lambda x, y: x * 10.0 + y)
        out = lattice_values(field, x, y)
        assert field.shapes == [((2, 1), (1, 2))]
        assert bits(out) == bits(x * 10.0 + y)

    def test_signed_zeros_stay_distinct(self):
        x = np.array([0.0, -0.0, 0.0, -0.0])
        field = Counting(lambda x, y: np.copysign(1.0, x) + 0.0 * y)
        out = lattice_values(field, x, np.ones(4))
        assert field.shapes == [((2, 1), (1, 1))]
        assert out.tolist() == [1.0, -1.0, 1.0, -1.0]


def test_boundary_jets_evaluate_each_field_once_per_batch():
    """edge_jets and corner_jets call every field once, on an (nx, 1)
    column and a (1, ny) row of distinct coordinates: side 1 (fixed x)
    takes the 9 lattice x values and the 1 line x value, and a corner's
    two Robin lines run along y and along x."""
    h = 0.125
    a = compile_expression("2 + sin(x)*sin(y)", ("x", "y"))
    f = compile_expression("cos(x) * y^2", ("x", "y"))
    anchors = np.array([[-1.0, -0.5], [-1.0, 0.25], [-1.0, 0.5]])
    fields = [Counting(fn) for fn in (a, f, lambda x, y: 1.5 + 0.0 * y,
                                      lambda x, y: y)]
    edge_jets(*fields, anchors, SIDE_FRAMES[1], h)
    ny = len({y.hex() for y in
              (anchors[:, 1, None] + np.arange(-8, 9) * (h / 8)).ravel()})
    for field in fields[:2]:
        assert field.shapes == [((9, 1), (1, ny))]
    for field in fields[2:]:
        assert field.shapes == [((1, 1), (1, ny))]

    fields = [Counting(fn) for fn in (a, f, lambda x, y: 1.5, lambda x, y: y,
                                      lambda x, y: 2.5, lambda x, y: x)]
    corner_jets(*fields, np.array([-1.0, -1.0]), CORNER_FRAMES[(1, 3)], h)
    for field in fields[:2]:
        assert field.shapes == [((17, 1), (1, 17))]
    for field in fields[2:4]:
        assert field.shapes == [((1, 1), (1, 17))]
    for field in fields[4:]:
        assert field.shapes == [((17, 1), (1, 1))]


def test_geometry_evaluates_psi_once_per_batch(ex31_j5):
    """classify_grid calls psi once on the grid axes, and locate_base once
    per batch on the distinct coordinates of its nodes' 49x49 scan
    lattices before bisecting; each base point is the one its node gets
    alone."""
    problem, cases, h = ex31_j5
    xs, ys, _ = _grid(problem, 5)
    psi = Counting(problem.psi)
    classify_grid(xs, ys, psi)
    assert psi.shapes == [((len(xs), 1), (1, len(ys)))]

    points = [p for p, _ in cases[:12]]
    psi = Counting(problem.psi)
    bases = LevelSetInterface(psi).locate_base(points, h)
    scan = np.arange(-24, 25) * (h / 16)
    nx = len({x.hex() for x, _ in points for x in x + scan})
    ny = len({y.hex() for _, y in points for y in y + scan})
    assert psi.shapes[0] == ((nx, 1), (1, ny))
    assert all(len(shape[0]) == 1 for shape in psi.shapes[1:])  # bisection
    for point, bp in zip(points, bases):
        [alone] = problem.interface.locate_base([point], h)
        assert (bp.base, bp.v0, bp.w0) == (alone.base, alone.v0, alone.w0)


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
