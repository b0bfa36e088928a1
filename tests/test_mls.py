"""Moving least squares derivative estimation."""

from math import factorial

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from hybridfdm.errors import MlsError
from hybridfdm.indexsets import lambda_full
from hybridfdm.jets import Jet2
from hybridfdm.mls import (
    COND_LIMIT,
    MlsProblem,
    _basis_exponents,
    mls_operator,
    mls_operators,
    sampling_recipe,
)


def test_constant_function():
    h = 0.1
    rec = sampling_recipe("regular-interior", h)
    vals = np.ones(len(rec.samples))
    est = dict(zip(lambda_full(6),
                   mls_operator(rec.problem(6), lambda_full(6)) @ vals))
    assert est[(0, 0)] == pytest.approx(1.0)
    for (m, n) in lambda_full(6):
        if (m, n) != (0, 0):
            # roundoff amplifies like (1/sample radius)^{m+n}
            assert abs(est[(m, n)]) <= 1e-9 / (h / 4) ** (m + n)


def test_polynomial_reproduction_2d():
    """Exact for any polynomial of total degree <= M, scaled by h^{-|w|}."""
    h = 0.05
    rec = sampling_recipe("regular-interior", h)
    rng = np.random.default_rng(0)
    coefs = {mn: rng.uniform(-1, 1) for mn in lambda_full(6)}
    x, y = rec.samples[:, 0], rec.samples[:, 1]
    vals = sum(c * x**m * y**n for (m, n), c in coefs.items())
    est = dict(zip(lambda_full(6),
                   mls_operator(rec.problem(6), lambda_full(6)) @ vals))

    for (m, n), got in est.items():
        expect = coefs[(m, n)] * factorial(m) * factorial(n)
        tol = 1e-9 * max(1.0, abs(expect)) / (h / 4) ** (m + n)
        assert abs(got - expect) <= tol


def test_x2y_derivative_on_lattice():
    rec = sampling_recipe("regular-interior", 0.2)
    vals = rec.samples[:, 0] ** 2 * rec.samples[:, 1]
    (est,) = mls_operator(rec.problem(6), [(2, 1)]) @ vals
    assert est == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("flip", [1.0, -1.0],
                         ids=["curve-1d-graph", "curve-1d-angle"])
def test_1d_sin_derivative_convergence(flip):
    # Graph and angle charts share the "curve" abscissae; an angle chart may
    # run them backwards (theta0 - t), so sin is sampled along flip * t.
    # slope is measured on coarse h where h_tilde^6 is above roundoff;
    # on the desk-scale range 2^-3..2^-6 the estimate is exact to 1e-10.
    errs = []
    hs = [2.0**k for k in (1, 0, -1)]
    for h in hs:
        rec = sampling_recipe("curve", h)
        (est,) = mls_operator(rec.problem(6), [1]) @ np.sin(flip * rec.samples)
        errs.append(abs(est - flip) + 1e-18)
    slope = np.polyfit(np.log2(hs), np.log2(errs), 1)[0]
    assert slope >= 5.5
    for h in [2.0**-k for k in range(3, 7)]:
        rec = sampling_recipe("curve", h)
        (est,) = mls_operator(rec.problem(6), [1]) @ np.sin(flip * rec.samples)
        assert abs(est - flip) <= 1e-10


def test_weight_scale_invariance():
    """A positive scalar multiplying D cancels from the estimator."""
    rec = sampling_recipe("curve", 0.1)
    op = mls_operator(rec.problem(6), [0, 1, 2])
    # row sums reproduce constants / kill them, regardless of the factor 2
    assert op[0].sum() == pytest.approx(1.0)
    assert op[1].sum() == pytest.approx(0.0, abs=1e-10)


def test_sample_permutation_invariance():
    h = 0.1
    rec = sampling_recipe("regular-interior", h)
    rng = np.random.default_rng(1)
    vals = np.cos(rec.samples[:, 0] + 0.3 * rec.samples[:, 1])
    (est,) = mls_operator(rec.problem(6), [(2, 0)]) @ vals
    perm = rng.permutation(len(vals))
    prob2 = MlsProblem(rec.samples[perm], np.zeros(2), 6, h)
    (est2,) = mls_operator(prob2, [(2, 0)]) @ vals[perm]
    assert est2 == pytest.approx(est, rel=1e-12)


def test_offset_target_interface_style():
    """Basis centered at the anchor, derivatives evaluated off-center."""
    h = 0.1
    target = np.array([0.013, -0.007])
    rec = sampling_recipe("irregular-interface", h)
    keep = rec.samples[:, 0] + rec.samples[:, 1] <= 0.0  # one-sided
    prob = MlsProblem(rec.samples[keep], target, 4, h)
    x, y = rec.samples[keep, 0], rec.samples[keep, 1]
    vals = 1.0 + x + x * y + y**3
    est = dict(zip(lambda_full(4), mls_operator(prob, lambda_full(4)) @ vals))
    tx, ty = target
    assert est[(0, 0)] == pytest.approx(1 + tx + tx * ty + ty**3, rel=1e-8)
    assert est[(0, 1)] == pytest.approx(tx + 3 * ty**2, rel=1e-7, abs=1e-9)
    assert est[(0, 3)] == pytest.approx(6.0, rel=1e-7)


def test_recipe_shapes():
    h = 0.25
    assert len(sampling_recipe("regular-interior", h).samples) == 81
    assert len(sampling_recipe("curve", h).samples) == 11
    assert len(sampling_recipe("edge-line", h).samples) == 17
    assert len(sampling_recipe("corner-line", h).samples) == 17
    assert len(sampling_recipe("corner-boundary", h).samples) == 17 * 17
    assert len(sampling_recipe("edge-boundary", h).samples) == 9 * 17
    assert len(sampling_recipe("irregular-interface", h).samples) == 17 * 17
    assert len(sampling_recipe("irregular-interface", h,
                               widened=True).samples) == 33 * 33
    assert np.max(sampling_recipe("curve", h).samples) == pytest.approx(
        5 * h / 16
    )


@pytest.mark.parametrize("context", ["regular-interior", "irregular-interface",
                                     "edge-boundary", "corner-boundary"])
def test_samples_are_the_product_of_the_axes(context):
    rec = sampling_recipe(context, 0.3)
    xs, ys = rec.axes
    want = np.array([(x, y) for x in xs for y in ys])
    assert np.array_equal(rec.samples.view(np.int64), want.view(np.int64))


def test_interface_lattices():
    """Half-width h at spacing h/8, and 2h for the widened fallback; the
    recipe's own fit targets the anchor."""
    h = 0.15
    for widened, n in ((False, 8), (True, 16)):
        rec = sampling_recipe("irregular-interface", h, widened)
        for axis in rec.axes:
            assert np.array_equal(axis, np.arange(-n, n + 1) * (h / 8))
        assert np.array_equal(rec.problem(4).target, [0.0, 0.0])


def test_robin_lines():
    """The edge line is centred at spacing h/8, the corner line runs inward
    at h/16; both are 17 abscissae, and their fits target the anchor."""
    h = 0.15
    for context, want in (("edge-line", np.arange(-8, 9) * (h / 8)),
                          ("corner-line", np.arange(0, 17) * (h / 16))):
        rec = sampling_recipe(context, h)
        assert np.array_equal(rec.samples, want)
        assert rec.axes[0] is rec.samples
        assert np.array_equal(rec.problem(5).target, [0.0])


def test_errors():
    h = 0.1
    rec = sampling_recipe("curve", h)
    with pytest.raises(MlsError, match=r"^derivative order \(7,\) exceeds "
                       r"basis degree 6$"):
        mls_operator(rec.problem(6), [7])  # order beyond basis degree
    few = MlsProblem(rec.samples[:4], np.zeros(1), 6, h)
    with pytest.raises(MlsError, match=r"^4 samples cannot determine a "
                       r"degree-6 fit \(7 coefficients\)$"):
        mls_operator(few, [1])  # too few samples
    collinear = MlsProblem(
        np.zeros((30, 2)), np.zeros(2), 2, h
    )
    with pytest.raises(MlsError, match=r"^rank-deficient moving least squares "
                       r"system \(condition "):
        mls_operator(collinear, [(1, 0)])
    # a widened interface side on two lattice lines: no diagonal entry of R
    # is zero, but they span more than COND_LIMIT
    iface = sampling_recipe("irregular-interface", h, widened=True)
    x = iface.samples[:, 0]
    lines = np.isin(x, x.max() - np.array([0.0, h / 8]))
    with pytest.raises(MlsError, match=r"^rank-deficient moving least squares "
                       r"system \(condition "):
        mls_operator(MlsProblem(iface.samples[lines], np.zeros(2), 4, h),
                     [(1, 0)])


def reference_operator(problem, requests):
    """The straightforward fit: the Vandermonde from per-sample powers and D
    filled entry by entry."""
    dim = problem.dim
    z = np.atleast_2d(problem.samples.astype(float))
    if dim == 1:
        z = problem.samples.astype(float)[:, None]
    target = np.atleast_1d(np.asarray(problem.target, dtype=float))
    exps = _basis_exponents(problem.degree, dim)
    scale = np.max(np.linalg.norm(z, axis=1))
    if scale == 0.0:
        scale = problem.h
    u = z / scale
    pows = [np.power.outer(u[:, d], np.arange(problem.degree + 1))
            for d in range(dim)]
    if dim == 1:
        E = pows[0][:, [a[0] for a in exps]]
    else:
        E = (pows[0][:, [a[0] for a in exps]]
             * pows[1][:, [a[1] for a in exps]])
    r2 = np.sum((z - target) ** 2, axis=1)
    sqrt_w = np.exp(-0.5 * r2 / problem.h**2) / np.sqrt(2.0)
    q, r = np.linalg.qr(sqrt_w[:, None] * E)
    diag = np.abs(np.diag(r))
    assert diag.max() / diag.min() <= COND_LIMIT
    coef_of_values = solve_triangular(r, q.T * sqrt_w[None, :])
    tgt = target / scale
    D = np.zeros((len(requests), len(exps)))
    for i, omega in enumerate(requests):
        om = (omega,) if np.isscalar(omega) else tuple(omega)
        for j, alpha in enumerate(exps):
            if any(a < o for a, o in zip(alpha, om)):
                continue
            val = 1.0
            for d, (a, o) in enumerate(zip(alpha, om)):
                val *= factorial(a) / factorial(a - o) * tgt[d] ** (a - o) / scale**o
            D[i, j] = val
    return D @ coef_of_values


def widened_side_cases():
    """(name, mask) of one-sided subsets of the widened 33x33 interface
    lattice at spacing h/8: curved and straight cuts at several offsets, and
    thin slivers."""
    lattice = sampling_recipe("irregular-interface", 1.0, widened=True)
    x, y = lattice.samples[:, 0], lattice.samples[:, 1]
    rng = np.random.default_rng(11)
    for k in range(6):
        ang, cut = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-1.5, 1.5)
        line = x * np.cos(ang) + y * np.sin(ang) - cut
        yield f"straight-{k}", line > 0.0
        yield f"curved-{k}", line + 0.4 * (x * np.sin(ang)) ** 2 > 0.0
    yield "sliver", x > 1.3         # six lattice lines
    yield "corner", (x > 1.0) & (y > 1.0)


def operator_cases():
    h = 0.078125
    rng = np.random.default_rng(5)
    target = np.array([0.31, -0.22]) * h
    for degree in (3, 4, 5, 6):
        full = lambda_full(degree)
        for widened, tag in ((False, ""), (True, "wide-")):
            iface = sampling_recipe("irregular-interface", h, widened)
            x, y = iface.samples[:, 0], iface.samples[:, 1]
            curved = x**2 / h + 2 * y**3 / h**2 - 0.1 * x > 0.001 * h
            for mask in (curved, ~curved, x + 0.3 * y > 0.01 * h):
                yield (f"one-sided-{tag}{degree}", MlsProblem(
                    iface.samples[mask], target, degree, h),
                    lambda_full(min(degree, 4)))
        for context in ("regular-interior", "edge-boundary",
                        "corner-boundary"):
            yield (f"{context}-{degree}",
                   sampling_recipe(context, h).problem(degree), full)
        yield (f"scattered-{degree}", MlsProblem(
            rng.uniform(-h, h, (60, 2)), target, degree, h), full)
        for context in ("curve", "edge-line", "corner-line"):
            yield (f"{context}-{degree}",
                   sampling_recipe(context, h).problem(degree),
                   list(range(degree + 1)))
        ts = np.arange(-8, 9) * (h / 8)
        yield (f"abscissae-{degree}", MlsProblem(
            ts, np.array([0.2 * h]), degree, h), [0, 1, degree])
    # the one-sided fits of the widened interface lattice: a to degree 4,
    # f to degree 3
    iface = sampling_recipe("irregular-interface", h, widened=True)
    for side, mask in widened_side_cases():
        for degree in (4, 3):
            yield (f"wide-side-{side}-{degree}", MlsProblem(
                iface.samples[mask], target, degree, h), lambda_full(degree))


@pytest.mark.parametrize("name, problem, requests",
                         list(operator_cases()),
                         ids=[c[0] for c in operator_cases()])
def test_operator_matches_reference_bit_for_bit(name, problem, requests):
    got = mls_operator(problem, requests)
    want = reference_operator(problem, requests)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_regular_jets_evaluate_each_field_once_on_the_lattice_axes():
    """Each field is called once per chunk, on the distinct coordinates of
    its nodes' windows on the global h/4 lattice: an (n, 1) column of x
    values and a (1, m) row of y values.  The jets equal those of a direct
    evaluation at the same coordinates, each node's window values times the
    operator in a product of its own, bit for bit."""
    from hybridfdm.fieldjets import regular_jets

    h = 0.0625
    origin = (-0.3, 0.2)
    nodes = np.array([(i, j) for i in range(2, 9) for j in range(3, 8)]
                     + [(12, 4)])
    shapes = {"a": [], "f": []}

    def a_plain(x, y):
        return 2.0 + np.sin(x + 2.0 * y) * np.cos(3.0 * x)

    def f_plain(x, y):
        return np.exp(x) * y**3 - x * y

    def a_field(x, y):
        shapes["a"].append((np.shape(x), np.shape(y)))
        return a_plain(x, y)

    def f_field(x, y):
        shapes["f"].append((np.shape(x), np.shape(y)))
        return f_plain(x, y)

    jet, f_der = regular_jets(a_field, f_field, nodes, origin, h)

    # lattice indices 4 * node + (-4..4): x nodes 2..8 cover 4..36 and node
    # 12 covers 44..52 (the gap 37..43 is not evaluated), y nodes 3..7 8..32
    axes = ((36 - 4 + 1) + (52 - 44 + 1), 32 - 8 + 1)
    assert shapes == {"a": [((axes[0], 1), (1, axes[1]))],
                      "f": [((axes[0], 1), (1, axes[1]))]}
    step = h / 4
    k = np.arange(-4, 5)
    x = origin[0] + (4 * nodes[:, 0, None] + k)[:, :, None] * step
    y = origin[1] + (4 * nodes[:, 1, None] + k)[:, None, :] * step
    x, y = (c.reshape(len(nodes), -1) for c in np.broadcast_arrays(x, y))
    rec = sampling_recipe("regular-interior", h)

    def per_node(values, op):
        return np.stack([v @ op.T for v in values])

    a_der = per_node(a_plain(x, y),
                     mls_operator(rec.problem(6), lambda_full(6)))
    want = per_node(f_plain(x, y),
                    mls_operator(rec.problem(5), lambda_full(5)))
    assert np.array_equal(f_der, want)
    want = Jet2.from_derivatives(
        {mn: a_der[:, i] for i, mn in enumerate(lambda_full(6))}, 6)
    assert np.array_equal(jet.c, want.c)


def multi_degree_cases():
    """(name, problem at the top degree, fits, masks) of every fit pair the
    stencil families make on one sample set."""
    h = 0.078125
    for context, top in (("regular-interior", 6), ("edge-boundary", 5),
                         ("corner-boundary", 5)):
        yield context, sampling_recipe(context, h).problem(top), top, None
    target = np.array([0.31, -0.22]) * h
    for widened in (False, True):
        iface = sampling_recipe("irregular-interface", h, widened)
        problem = MlsProblem(iface.samples, target, 4, h)
        x, y = iface.samples[:, 0], iface.samples[:, 1]
        side = x**2 / h + 2 * y**3 / h**2 - 0.1 * x > 0.001 * h
        yield (f"interface-{'widened' if widened else 'standard'}",
               problem, 4, [side, ~side])
    disc = np.hypot(x, y) < 0.9 * h     # a side that reaches no corner
    yield "interface-disc", problem, 4, [disc, ~disc]


@pytest.mark.parametrize("name, problem, top, masks",
                         list(multi_degree_cases()),
                         ids=[c[0] for c in multi_degree_cases()])
def test_multi_degree_fits_match_single_fits_bit_for_bit(name, problem, top,
                                                         masks):
    """One call for the top degree and the one below, sharing weights and
    Vandermonde (each mask reads its side of them), equals separate fits on
    the masked samples; so does a second call that reuses the Vandermonde."""
    fits = [(top, lambda_full(top)), (top - 1, lambda_full(top - 1))]
    vandermondes = {}
    for _ in range(2):
        got = mls_operators(problem, fits, masks, vandermondes)
        # one Vandermonde per basis scale, the largest norm of a side
        scales = {np.max(np.linalg.norm(problem.samples[sel], axis=1))
                  for sel in ([slice(None)] if masks is None else masks)}
        assert len(vandermondes) == len(scales)
        for ops, mask in zip(got, [None] if masks is None else masks):
            sel = slice(None) if mask is None else mask
            for op, (degree, requests) in zip(ops, fits):
                single = MlsProblem(problem.samples[sel], problem.target,
                                    degree, problem.h)
                want = reference_operator(single, requests)
                assert op.shape == want.shape
                assert np.array_equal(op, want)
                assert np.array_equal(op, mls_operator(single, requests))


def test_multi_degree_thin_side_raises_before_any_fit():
    """A side with fewer samples than the top degree's coefficients raises
    MlsError for that degree, as a single fit of it does."""
    rec = sampling_recipe("irregular-interface", 0.1)
    thin = np.zeros(len(rec.samples), dtype=bool)
    thin[:12] = True
    with pytest.raises(MlsError, match=r"^12 samples cannot determine a "
                       r"degree-4 fit \(15 coefficients\)$"):
        mls_operators(rec.problem(4), [(4, lambda_full(4)),
                                       (3, lambda_full(3))], [~thin, thin])


def test_regular_jets_do_not_depend_on_the_chunk():
    """A node's jets have the same bits alone, in a chunk of 7 and among all
    the nodes: each node's product with the operator is its own."""
    from hybridfdm.fieldjets import regular_jets

    h = 0.05
    origin = (-1.0, -0.5)
    nodes = np.array([(i, j) for i in range(1, 12) for j in range(2, 9)])

    def a_field(x, y):
        return 1.5 + np.cos(x) * np.sin(2.0 * y)

    def f_field(x, y):
        return np.exp(y) * x**2

    jet, f_der = regular_jets(a_field, f_field, nodes, origin, h)
    for size in (1, 7):
        for k in range(0, len(nodes), size):
            part = regular_jets(a_field, f_field, nodes[k: k + size], origin, h)
            assert np.array_equal(part[0].c, jet.c[k: k + size])
            assert np.array_equal(part[1], f_der[k: k + size])
