"""Global assembly and solve."""

import dataclasses
import importlib.util
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from hybridfdm.assembly import (
    CHUNK,
    IFACE_CHUNK,
    Context,
    GlobalSystem,
    RowBlock,
    _grid,
    _irregular_chunk,
    _task,
    assemble,
    audit_m_matrix,
    solve,
)
from hybridfdm.errors import (
    AssemblyError,
    GeometryError,
    MlsError,
    StencilError,
)
from hybridfdm.geometry import (
    IRREGULAR_OFFSETS,
    LABEL_IRREGULAR,
    LevelSetInterface,
    classify_grid,
)
from hybridfdm.jets import poly_eval
from hybridfdm.problems import (
    BoundaryCondition,
    ProblemSpec,
    builtin,
    load_config_string,
)
from hybridfdm.reduction import build_reduction_table, gh_blocks, transpose_blocks
from hybridfdm.stencil_boundary import CORNER_OFFSETS, EDGE_OFFSETS, G1_ROWS
from hybridfdm.stencil_core import check_sign_sum, stencil_values, weights_at_offsets
from hybridfdm.stencil_irregular import solve_irregular_stencil
from hybridfdm.stencil_regular import CENTER9, OFFSETS9
from hybridfdm.transmission import COL_G, COL_GG, FMINUS, FPLUS
from manufactured import manufacture

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


def interface_rows(system):
    return sum(len(b.ii) for b in system.blocks if b.family == "interface")


def interior_tasks(system):
    """The regular and interface chunks ``assemble`` makes for ``system``."""
    rows = system.family_rows
    return sum(-(-rows[family] // size) for family, size in (
        ("regular+", CHUNK), ("regular-", CHUNK), ("interface", IFACE_CHUNK))
        if family in rows)


def csr_and_rhs(system):
    """The CSR arrays and the rhs of ``system``, for bit-for-bit checks."""
    m = system.matrix
    return [a.tobytes() for a in (m.indptr, m.indices, m.data, system.rhs)]


def zero(x, y):
    return 0.0 * x


def one(x, y):
    return 1.0 + 0 * x


def robin_problem(alpha, robin_sides=(1, 3), name="robin"):
    """Zero data, a = 1, constant alpha on the Robin sides, Dirichlet elsewhere."""
    boundary = {side: BoundaryCondition("robin", zero, lambda x, y: alpha + 0 * x)
                if side in robin_sides else BoundaryCondition("dirichlet", zero)
                for side in (1, 2, 3, 4)}
    return ProblemSpec(name=name, domain=(-1, 1, -1, 1), interface=None,
                       a_plus=one, a_minus=one, f_plus=zero, f_minus=zero,
                       boundary=boundary)


class TestNoInterface:
    @pytest.mark.parametrize("domain", [(1, 1, -1, 1), (1, -1, -1, 1),
                                        (-1, 1, 2, -2)])
    def test_domain_sides_must_be_ordered(self, domain):
        p = dataclasses.replace(robin_problem(2.0), domain=domain)
        l1, l2, l3, l4 = domain
        with pytest.raises(AssemblyError, match=re.escape(
                f"domain needs l1 < l2 and l3 < l4, got l1 = {l1}, "
                f"l2 = {l2}, l3 = {l3}, l4 = {l4}")):
            assemble(p, 3)

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


def family_rows(system, family):
    """The ii, jj, coeffs, rhs and values (at the system's h) of one
    family's rows, gathered across its blocks in block order."""
    blocks = [b for b in system.blocks if b.family == family]
    assert blocks, family
    rows = {field: np.concatenate([getattr(b, field) for b in blocks])
            for field in ("ii", "jj", "coeffs", "rhs")}
    rows["values"] = np.concatenate([b.values(system.h) for b in blocks])
    return rows


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
        assert interface_rows(system) == n

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
        """--threads 2 gives the serial rows exactly, over several chunks;
        the context reaches the workers only, never this process."""
        import hybridfdm.assembly as assembly

        case = manufacture(seed=9, degree=3, interface_kind="circle")
        s1 = assemble(case.problem, 5, threads=1)
        s2 = assemble(case.problem, 5, threads=2)
        assert interface_rows(s1) > IFACE_CHUNK
        assert np.array_equal(s1.matrix.indptr, s2.matrix.indptr)
        assert np.array_equal(s1.matrix.indices, s2.matrix.indices)
        assert np.array_equal(s1.matrix.data, s2.matrix.data)
        assert np.array_equal(s1.rhs, s2.rhs)
        assert assembly._WORKER is None

    def test_concurrent_assemblies_do_not_mix(self):
        """Two ``assemble`` calls running at once in two threads, ex31 at
        J=6 and at J=7, each give their serial system bit for bit."""
        from concurrent.futures import ThreadPoolExecutor
        from threading import Barrier

        problem = builtin("ex31")
        levels = (6, 7)
        want = [csr_and_rhs(assemble(problem, J)) for J in levels]
        start = Barrier(len(levels))

        def at_once(J):
            start.wait()
            return csr_and_rhs(assemble(problem, J))

        with ThreadPoolExecutor(len(levels)) as threads:
            for _ in range(4):
                assert list(threads.map(at_once, levels)) == want

    def test_pool_starts_no_more_workers_than_chunks(self, monkeypatch):
        """A fork pool starts every worker at once, so its size is capped
        by its task count: the regular and interface chunks, in one map."""
        import hybridfdm.assembly as assembly

        sizes = []

        class RecordingExecutor:
            """Records the pool size and runs the tasks in this process,
            with the worker context its initializer sets."""

            def __init__(self, max_workers, mp_context=None, initializer=None,
                         initargs=()):
                sizes.append(max_workers)
                initializer(*initargs)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self, wait=True):
                assembly._WORKER = None

        monkeypatch.setattr(assembly, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(assembly, "_WORKER", None)
        case = manufacture(seed=9, degree=3, interface_kind="circle")
        serial = assemble(case.problem, 5)
        tasks = interior_tasks(serial)
        chunks = -(-interface_rows(serial) // IFACE_CHUNK)
        # one regular chunk per side at J=5
        assert 1 < chunks and tasks == chunks + 2 < 16
        for threads, started in ((16, [tasks]), (2, [2]), (1, [])):
            sizes.clear()
            system = assemble(case.problem, 5, threads=threads)
            assert sizes == started
            assert np.array_equal(system.matrix.data, serial.matrix.data)
            assert np.array_equal(system.rhs, serial.rhs)
            assert assembly._WORKER is None
        sizes.clear()
        small = assemble(case.problem, 3, threads=4)
        assert sizes == [min(4, interior_tasks(small))]

    def test_rows_do_not_depend_on_the_chunk_size(self, monkeypatch):
        """Interface rows are bit-identical for chunks of 1, 7 and 64 nodes."""
        import hybridfdm.assembly as assembly

        case = manufacture(seed=9, degree=3, interface_kind="circle")
        systems = []
        for chunk in (1, 7, 64):
            monkeypatch.setattr(assembly, "IFACE_CHUNK", chunk)
            systems.append(assemble(case.problem, 4))
        assert interface_rows(systems[0]) > 7
        for other in systems[1:]:
            assert np.array_equal(systems[0].matrix.indptr, other.matrix.indptr)
            assert np.array_equal(systems[0].matrix.indices, other.matrix.indices)
            assert np.array_equal(systems[0].matrix.data, other.matrix.data)
            assert np.array_equal(systems[0].rhs, other.rhs)

    def test_regular_rows_do_not_depend_on_the_chunk_size(self, monkeypatch):
        """Regular blocks of both families (values, coefficients and rhs)
        are bit-identical for chunks of 1, 7, 333, 1024 and 2048 nodes,
        each chunk estimating its own jets."""
        import hybridfdm.assembly as assembly

        # a box twice as tall as wide: over 333 regular+ nodes already at J=4
        case = manufacture(seed=9, degree=3, interface_kind="circle")
        problem = dataclasses.replace(case.problem, domain=(-2.0, 2.0, -2.0, 6.0))
        blocks = []
        for chunk in (1, 7, 333, 1024, 2048):
            monkeypatch.setattr(assembly, "CHUNK", chunk)
            system = assemble(problem, 4)
            blocks.append({family: family_rows(system, family)
                           for family in ("regular+", "regular-")})
            # one block per chunk
            for family, n in system.family_rows.items():
                if family.startswith("regular"):
                    assert sum(b.family == family for b in system.blocks) \
                        == -(-n // chunk)
        rows = {family: len(b["ii"]) for family, b in blocks[0].items()}
        assert max(rows.values()) > 333
        for other in blocks[1:]:
            for family, block in blocks[0].items():
                for field in ("ii", "jj", "coeffs", "rhs", "values"):
                    assert np.array_equal(block[field], other[family][field])

    def test_regular_chunk_working_set(self):
        """One 1,024-node regular chunk, built from its node indices, its
        jets included, allocates at most 10 KiB a node at its peak: the
        expansions keep only the pairs the recursion reads, the table's G
        rows go once they are expanded, and the H block is built only after
        the recursion."""
        import tracemalloc

        from hybridfdm.assembly import _regular_chunk
        from hybridfdm.geometry import LABEL_REGULAR_PLUS

        problem = builtin("ex31")
        xs, ys, h = _grid(problem, 6)
        ii, jj = np.nonzero(classify_grid(xs, ys, problem.psi).labels
                            == LABEL_REGULAR_PLUS)
        assert CHUNK == 1024 and len(ii) > CHUNK
        ctx = Context(problem, h, (xs[0], ys[0]))
        chunk = ("regular", "+", np.column_stack([ii, jj])[:CHUNK])
        _regular_chunk(ctx, chunk)       # fills the cached constant operators
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _regular_chunk(ctx, chunk)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 1024 * CHUNK

    @pytest.mark.parametrize("stage", ["geometry", "fits", "transmission",
                                       "recursion"])
    def test_failing_node_is_named(self, stage, monkeypatch):
        """One node of a five-node chunk fails: the typed error names it."""
        import hybridfdm.assembly as assembly
        import hybridfdm.fieldjets as fieldjets
        import hybridfdm.geometry as geometry

        case = manufacture(seed=9, degree=3, interface_kind="circle")
        xs, ys, h = _grid(case.problem, 4)
        cls = classify_grid(xs, ys, case.problem.psi)
        ii, jj = np.nonzero(cls.labels == LABEL_IRREGULAR)
        ii, jj = ii[:5], jj[:5]
        points = [(float(xs[a]), float(ys[b])) for a, b in zip(ii, jj)]
        offs = np.asarray(IRREGULAR_OFFSETS)
        minus = cls.psi[ii[:, None] + offs[:, 0], jj[:, None] + offs[:, 1]] <= 0.0
        ctx = Context(case.problem, h, (xs[0], ys[0]))
        chunk = ("irregular", np.column_stack([ii, jj]), minus)
        block, _, _ = _irregular_chunk(ctx, chunk)
        assert len(block.ii) == len(block.rhs) == 5

        def on_third_node(fn, spoil):
            calls = []

            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls.append(None)
                return spoil(out) if len(calls) == 3 else out
            return wrapped

        def raise_geometry(out):
            raise GeometryError("closest interface sample lies beyond sqrt(2) h")

        def on_third_target(fn, spoil):
            """Spoils every fit of the third node fitted, on each lattice
            it tries; the nodes of a chunk are fitted in order."""
            targets = []

            def wrapped(problem, *args, **kwargs):
                key = tuple(problem.target)
                if key not in targets:
                    targets.append(key)
                out = fn(problem, *args, **kwargs)
                return spoil(out) if targets.index(key) == 2 else out
            return wrapped

        def raise_mls(out):
            raise MlsError("rank-deficient moving least squares system")

        def nan_speed(curve):
            curve.s[1] = np.nan          # trips the batched determinant check
            return curve

        def raise_residual(out):
            raise StencilError("stencil recursion residual 1e-08 exceeds 1e-09")

        # base points are located and field jets fitted for the whole chunk
        # in one call, which handles each node in turn
        module, target, spoil, kind = {
            "geometry": (geometry, "_select_base", raise_geometry,
                         GeometryError),
            "fits": (fieldjets, "mls_operators", raise_mls, MlsError),
            "transmission": (assembly, "curve_jet_from_chart", nan_speed,
                             StencilError),
            "recursion": (assembly, "solve_irregular_stencil", raise_residual,
                          StencilError),
        }[stage]
        wrap = on_third_target if stage == "fits" else on_third_node
        monkeypatch.setattr(module, target,
                            wrap(getattr(module, target), spoil))
        x, y = points[2]
        with pytest.raises(kind, match=re.escape(
                f"interface node ({x:.6g}, {y:.6g}): ")):
            _task(ctx, chunk)

    def test_interface_near_boundary_names_the_node(self, monkeypatch):
        """A 13-point footprint that leaves the grid is an AssemblyError,
        raised before any interior row is built."""
        import hybridfdm.assembly as assembly

        def no_rows(ctx, task):
            raise AssertionError("regular rows built before the footprint check")
        monkeypatch.setattr(assembly, "_regular_chunk", no_rows)
        iface = LevelSetInterface(lambda x, y: x + 0.8, jump_g=zero,
                                  jump_ggamma=zero)
        p = ProblemSpec(name="near-wall", domain=(-1, 1, -1, 1),
                        interface=iface, a_plus=one, a_minus=one,
                        f_plus=zero, f_minus=zero,
                        boundary={s: BoundaryCondition("dirichlet", zero)
                                  for s in (1, 2, 3, 4)})
        # h = 1/4: x = -1 is minus, x = -0.75 plus, so column i = 1 is irregular
        with pytest.raises(AssemblyError, match=re.escape(
                "13-point footprint of interface node (-0.75, -0.75) leaves "
                "the grid")):
            assemble(p, 3)

    def test_scalar_returning_psi(self):
        """A Python psi may return a scalar: here the whole box is plus, so
        every interior row is regular+."""
        iface = LevelSetInterface(lambda x, y: 1.0, jump_g=zero,
                                  jump_ggamma=zero)
        p = dataclasses.replace(robin_problem(2.0), interface=iface)
        system, result = solve_problem(p, 3)
        assert system.family_rows["regular+"] == 7 * 7
        assert "regular-" not in system.family_rows
        assert np.abs(result.u).max() == 0.0


@pytest.fixture(scope="module", params=["interface", "robin"])
def block_system(request):
    """(kind, system at J=4) of a problem with interface rows, or of one
    with Robin edge and corner rows; both have Dirichlet and regular rows."""
    if request.param == "interface":
        problem = manufacture(seed=9, degree=3, interface_kind="circle").problem
    else:
        problem = robin_problem(2.0)
    return request.param, assemble(problem, 4)


class TestRowBlocks:
    def test_blocks_partition_the_grid(self, block_system):
        """Every node sits in one block, whose values and rhs are its row."""
        kind, system = block_system
        expect = ({"dirichlet", "regular+", "regular-", "interface"}
                  if kind == "interface" else
                  {"dirichlet", "corner", "edge1", "edge3", "regular+"})
        assert {b.family for b in system.blocks} == expect
        n = system.matrix.shape[0]
        owners = np.zeros(n, dtype=int)
        rebuilt = np.zeros((n, n))
        for block in system.blocks:
            rows, cols = block.columns(len(system.ys))
            np.add.at(owners, rows, 1)
            rebuilt[rows[:, None], cols] = block.values(system.h)
            assert np.array_equal(system.rhs[rows], block.rhs)
        assert (owners == 1).all()
        assert np.array_equal(system.matrix.toarray(), rebuilt)

    def test_values_rebuild_the_csr_rows_bit_for_bit(self, block_system):
        """Each block's ``values(h)`` are its CSR rows: the same columns
        and the same bits, so the record alone rebuilds the matrix."""
        _, system = block_system
        mat = system.matrix
        for block in system.blocks:
            rows, cols = block.columns(len(system.ys))
            order = np.argsort(cols, axis=1)
            starts = mat.indptr[rows][:, None] + np.arange(cols.shape[1])
            assert (np.diff(mat.indptr)[rows] == cols.shape[1]).all()
            assert np.array_equal(mat.indices[starts],
                                  np.take_along_axis(cols, order, axis=1))
            values = np.take_along_axis(block.values(system.h), order, axis=1)
            assert np.array_equal(mat.data[starts].view(np.int64),
                                  values.view(np.int64))

    def test_claims_exactly_the_fixed_offset_families(self, block_system):
        """Corner, edge and regular rows claim the M-matrix property;
        Dirichlet identities and interface rows do not.  Every family has
        coefficients, and a Dirichlet row is the constant one at scale 0."""
        _, system = block_system
        for block in system.blocks:
            assert block.claims == block.family.startswith(
                ("corner", "edge", "regular"))
            assert block.coeffs.shape[:2] == (len(block.ii),
                                              len(block.offsets))
            if block.family == "dirichlet":
                assert block.scale == 0
                assert block.coeffs.shape[2] == 1 and (block.coeffs == 1).all()


def benchmark_member(seed, kind):
    """The problem of the benchmark family (``bench/workload.py``) drawn
    from ``seed``, with an interface of ``kind``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workload.py"
    spec = importlib.util.spec_from_file_location("workload", path)
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    return load_config_string(workload.generate(seed, kind)[0])


def coo_to_csr(system):
    """The CSR matrix of ``system``'s blocks through scipy's COO to CSR
    conversion, as ``assemble`` built it before it wrote the CSR arrays
    itself."""
    import scipy.sparse as sp

    nn = system.matrix.shape[0]
    rows, cols, vals = [], [], []
    for block in system.blocks:
        r, c = block.columns(len(system.ys))
        rows.append(np.repeat(r, c.shape[1]))
        cols.append(c.ravel())
        vals.append(block.values(system.h).ravel())
    return sp.csr_matrix(sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nn, nn)))


@pytest.mark.parametrize("name, J", [("ex31", 5), ("none", 4)])
def test_direct_csr_is_the_coo_conversion(name, J):
    """The CSR arrays ``assemble`` writes straight from the row blocks have
    the bits, the index dtype and the canonical form of the COO to CSR
    conversion of the same blocks; ``none`` is the benchmark family's
    member without an interface, of seed 1."""
    problem = builtin(name) if name == "ex31" else benchmark_member(1, name)
    system = assemble(problem, J)
    want = coo_to_csr(system)
    got = system.matrix
    assert got.has_canonical_format and want.has_canonical_format
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert got.shape == want.shape


def block_weights(block, offsets, coeffs, h):
    """``weights_at_offsets`` of a packed order-6 (K, ..., 28) block."""
    return weights_at_offsets(np.moveaxis(block, -1, 0), offsets, coeffs, h)


def separate_edge_rhs(st, jet, f_der, g_der, h):
    """An edge block's rhs from separate f and g1 weight blocks, each
    contracted by ``einsum``, as assembly formed it before the one data
    vector."""
    g, hb = gh_blocks(build_reduction_table(jet, 6))
    f_w = block_weights(hb, EDGE_OFFSETS, st.coeffs, h)
    g1_w = -block_weights(g[G1_ROWS], EDGE_OFFSETS, st.coeffs, h)
    return (np.einsum("bk,bk->b", f_w, f_der)
            + np.einsum("bk,bk->b", g1_w, g_der)) / h


def separate_corner_rhs(red, st, jet, f_der, g1_der, g3_der, h):
    """A corner row's rhs from separate f, g1 and g3 weight blocks, each a
    hat part against the hat coefficients plus a tilde part against the
    tilde ones; ``red`` is the corner's reduction."""
    (chat, _), (ctilde, _) = st.parts
    g, hb = gh_blocks(build_reduction_table(jet, 6))
    gt, ht = transpose_blocks(
        *gh_blocks(build_reduction_table(jet.transposed(), 6)))
    et = red.et_polys

    def split(hat, til):
        return (block_weights(hat, CORNER_OFFSETS, chat, h)
                + block_weights(til, CORNER_OFFSETS, ctilde, h))
    f_w = split(hb, ht + np.tensordot(red.nu, et, 1))
    g1_w = -split(g[G1_ROWS], np.tensordot(red.mu.T, et, 1))
    g3_w = -block_weights(gt[G1_ROWS], CORNER_OFFSETS, ctilde, h)
    return (f_w @ f_der + g1_w @ g1_der + g3_w @ g3_der) / h


def separate_interface_rhs(system, fp, fm, h):
    """A 13-point row's rhs from its four weight blocks (f+, f-, g and
    gGamma), each read from its own columns of the transmission table."""
    model = system.model
    ch = stencil_values(solve_irregular_stencil(system, h), h)
    xo, yo = system.offsets[:, 0] * h, system.offsets[:, 1] * h
    minus, plus = system.minus_mask, ~system.minus_mask
    table = model.table
    i_minus = poly_eval(model.g_minus, xo[minus], yo[minus]) @ ch[minus]
    j_plus = (poly_eval(model.h_plus, xo[plus], yo[plus]) @ ch[plus]
              + i_minus @ table[:, FPLUS])
    j_minus = (poly_eval(model.h_minus, xo[minus], yo[minus]) @ ch[minus]
               + i_minus @ table[:, FMINUS])
    j_g = i_minus @ table[:, [COL_G[p] for p in range(6)]]
    j_gg = i_minus @ table[:, [COL_GG[p] for p in range(5)]]
    curve = model.curve
    return float(j_plus / h @ fp + j_minus / h @ fm + j_g / h @ curve.g
                 + j_gg / h @ curve.gg)


class TestRhsContraction:
    def test_one_data_vector_matches_the_separate_blocks(self, monkeypatch):
        """Edge, corner and interface rhs of ex31 at J=4, each one weight
        vector against one data vector, agree with the contraction of the
        separate weight blocks within 1e-14 of the row's largest entry."""
        import hybridfdm.assembly as assembly

        seen = {"edge": [], "corner": [], "interface": []}

        def spy(name, kind):
            real = getattr(assembly, name)

            def wrapped(*args):
                out = real(*args)
                seen[kind].append((args, out))
                return out
            monkeypatch.setattr(assembly, name, wrapped)
        spy("edge_jets", "edge")
        spy("solve_edge_stencil", "edge")
        spy("corner_jets", "corner")
        spy("solve_corner_stencil", "corner")
        spy("_irregular_row", "interface")
        system = assemble(builtin("ex31"), 4)
        h = system.h

        want = {"corner": [], "edge": [], "interface": []}
        calls = seen["edge"]
        for (_, jets), (_, st) in zip(calls[::2], calls[1::2]):
            jet, _, f_der, g_der = jets
            want["edge"].append(separate_edge_rhs(st, jet, f_der, g_der, h))
        calls = seen["corner"]
        for (_, jets), ((red,), st) in zip(calls[::2], calls[1::2]):
            jet, _, f_der, g1_der, _, g3_der = jets
            want["corner"].append(separate_corner_rhs(
                red, st, jet, f_der, g1_der, g3_der, h))
        want["interface"] = [[separate_interface_rhs(system_, fp, fm, h)
                              for (system_, fp, fm, _), _ in seen["interface"]]]

        got = {"corner": [], "edge": [], "interface": []}
        for block in system.blocks:
            kind = block.family.rstrip("1234")
            if kind in got:
                got[kind].append((block.rhs, block.values(h)))
        assert [len(v) for v in got.values()] == [1, 2, 1]
        for kind, blocks in got.items():
            assert len(blocks) == len(want[kind])
            for (rhs, values), ref in zip(blocks, want[kind]):
                largest = np.abs(values).max(axis=1)
                assert rhs.shape == np.shape(np.atleast_1d(ref))
                assert (np.abs(rhs - ref) <= 1e-14 * largest).all(), kind


class TestAssemblyLog:
    def test_one_info_record_with_timings_and_family_rows(self, caplog):
        caplog.set_level(logging.INFO, logger="hybridfdm.assembly")
        system = assemble(robin_problem(2.0), 3)
        records = [r for r in caplog.records if r.name == "hybridfdm.assembly"]
        assert len(records) == 1
        record = records[0]
        assert record.levelno == logging.INFO
        assert set(record.timings) == {"boundary", "regular", "irregular",
                                       "total"}
        assert record.timings == system.timings
        assert record.rows == system.family_rows == {
            "corner": 1, "dirichlet": 17, "edge1": 7, "edge3": 7,
            "regular+": 49}
        assert record.widened == 0
        message = record.getMessage()
        assert message.startswith("assembled 81 rows at J=3 in ")
        assert message.endswith("rows per family: corner 1, dirichlet 17, "
                                "edge1 7, edge3 7, regular+ 49")

    @pytest.mark.parametrize("threads", [1, 2])
    def test_widened_interface_lattices_are_counted(self, caplog, threads):
        """ex31 at J=5: 52 interface nodes take the widened MLS lattice,
        counted the same through the process pool."""
        caplog.set_level(logging.INFO, logger="hybridfdm.assembly")
        assemble(builtin("ex31"), 5, threads=threads)
        (record,) = [r for r in caplog.records
                     if r.name == "hybridfdm.assembly"]
        assert record.widened == 52


class TestAudit:
    def test_manufactured_dirichlet_audit_passes(self):
        case = manufacture(seed=10, degree=3, interface_kind="circle")
        system = assemble(case.problem, 4)
        audit = audit_m_matrix(system)
        assert audit.passed
        assert audit.rows["interface"] > 0

    def test_adversarial_negative_alpha_flagged(self):
        system = assemble(robin_problem(-1.0, (1,), "bad-alpha"), 3)
        audit = audit_m_matrix(system)
        assert not audit.passed
        assert any(v[0] == "edge1" for v in audit.violations)

        # Robin sides 1 and 3 meet at the corner node (0, 0)
        system = assemble(robin_problem(-1.0, (1, 3), "bad-alpha-corner"), 3)
        audit = audit_m_matrix(system)
        assert audit.failed["corner"] == 1
        assert audit.failed["edge1"] == audit.failed["edge3"] == 7
        corner = [v for v in audit.violations if v.family == "corner"]
        assert [v.node for v in corner] == [(0, 0)]
        assert corner[0].what.startswith("degree-1 coefficient sum is -")

    def test_matrix_entry_caught_where_every_degree_passes(self):
        """h = 2: off-center coefficients of +0.5e-10 at degrees 1..7 pass
        the per-degree checks at tol 1e-10, but sum to an entry of
        0.5e-10 * 254 / 4 = 3.2e-9 > 1e-10 * 5 at mesh size 2.  The audit
        reads only the row blocks, so the system carries no matrix."""
        coeffs = np.zeros((1, 9, 8))
        coeffs[0, :, 1:] = 0.5e-10
        coeffs[0, CENTER9] = 0.0
        coeffs[0, CENTER9, 0] = 20.0
        assert check_sign_sum(coeffs, CENTER9, tol=1e-10).passed.all()
        block = RowBlock("regular+", np.array([1]), np.array([1]), OFFSETS9,
                         coeffs, scale=2, rhs=np.zeros(1))
        grid = np.array([0.0, 2.0, 4.0])
        system = GlobalSystem(matrix=None, rhs=np.zeros(9), labels=None,
                              xs=grid, ys=grid, h=2.0, blocks=[block],
                              timings={})
        audit = audit_m_matrix(system)
        assert audit.failed == {"regular+": 1}
        assert not audit.passed
        assert audit.violations == [(
            "regular+", (1, 1),
            "matrix entry in the column of node (0, 0) is 3.175e-09")]
