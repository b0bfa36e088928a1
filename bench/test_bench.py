"""Self-tests of the benchmark harness: python -m pytest bench -q

They check the seeded generator, the per-run correctness check and resource
accounting, and run every workload path at a small J through the tracer.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workload  # noqa: E402
from hybridfdm import cli  # noqa: E402
from hybridfdm.assembly import assemble, solve  # noqa: E402
from hybridfdm.problems import builtin, load_config_string  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
def test_generated_jumps_hold_on_the_curve(seed):
    text, params = workload.generate(seed, "levelset")
    assert max(workload.jump_residuals(text, *params)) <= workload.JUMP_TOL
    assert "float64" not in text and "np." not in text
    assert workload.generate(seed, "levelset") == (text, params)


def test_jump_check_catches_a_wrong_jump():
    params = workload.draw(3)
    text = workload.config_text(*params).replace("g = -30", "g = -30.001")
    assert max(workload.jump_residuals(text, *params)) > 1e-6


def test_centred_member_reproduces_ex31():
    member = load_config_string(workload.config_text(2.0, 0.0, 0.0))
    u_member = solve(assemble(member, 5)).u
    u_ex31 = solve(assemble(builtin("ex31"), 5)).u
    assert np.abs(u_member - u_ex31).max() <= 1e-12 * np.abs(u_ex31).max()


def test_exact_solution_matches_the_config():
    c, x0, y0 = workload.draw(5)
    for kind in ("levelset", "none"):
        problem = load_config_string(workload.config_text(c, x0, y0, kind))
        x, y = np.meshgrid(np.linspace(-2.5, 2.5, 41), np.linspace(-2.5, 2.5, 41))
        np.testing.assert_allclose(
            workload.exact_solution(c, x0, y0, kind, x, y),
            problem.exact_u(x, y), rtol=1e-13, atol=1e-13)


def _write_csv(path, values):
    with open(path, "w") as fh:
        fh.write("i,j,x,y,u_h\n")
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def test_check_solution(tmp_path):
    spec = {"J": 2, "ceiling": 0.5}
    params = workload.draw(0)
    xs = np.linspace(-2.5, 2.5, 5)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    u = workload.exact_solution(*params, "levelset", gx, gy)
    i, j = np.divmod(np.arange(25), 5)
    rows = np.column_stack([i, j, gx.ravel(), gy.ravel(), u.ravel()])
    good = tmp_path / "good.csv"
    _write_csv(good, rows)
    assert run.check_solution(good, spec, params, "levelset")[:2] == (True, 0.0)

    off = rows.copy()
    off[7, 4] += 0.6
    _write_csv(tmp_path / "off.csv", off)
    ok, err, _ = run.check_solution(tmp_path / "off.csv", spec, params,
                                    "levelset")
    assert not ok and err == pytest.approx(0.6)

    nan = rows.copy()
    nan[3, 4] = np.nan
    _write_csv(tmp_path / "nan.csv", nan)
    assert not run.check_solution(tmp_path / "nan.csv", spec, params,
                                  "levelset")[0]
    swapped = rows.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    _write_csv(tmp_path / "swapped.csv", swapped)
    assert not run.check_solution(tmp_path / "swapped.csv", spec, params,
                                  "levelset")[0]
    dirichlet = rows.copy()
    dirichlet[-1, 4] += 1e-6
    _write_csv(tmp_path / "dirichlet.csv", dirichlet)
    assert not run.check_solution(tmp_path / "dirichlet.csv", spec, params,
                                  "levelset")[0]
    _write_csv(tmp_path / "short.csv", rows[:-1])
    assert not run.check_solution(tmp_path / "short.csv", spec, params,
                                  "levelset")[0]
    assert not run.check_solution(tmp_path / "missing.csv", spec, params,
                                  "levelset")[0]


def test_rusage_is_per_child(tmp_path):
    # run from a fresh interpreter like the benchmark: on Linux a child's
    # ru_maxrss starts from its parent's RSS at fork time
    script = f"""
import sys, json
sys.path.insert(0, {HERE!r})
import os, run
env = dict(os.environ)
big = run.run_child([sys.executable, "-c", "b = bytearray(200 * 2**20); b[::4096] = b'x' * len(b[::4096])"], env, {str(tmp_path / "big.txt")!r}, 60)
small = run.run_child([sys.executable, "-c", "pass"], env, {str(tmp_path / "small.txt")!r}, 60)
burn = run.run_child([sys.executable, "-c", "import time\\nt = time.process_time()\\nwhile time.process_time() - t < 0.3: pass"], env, {str(tmp_path / "burn.txt")!r}, 60)
print(json.dumps([vars(c) for c in (big, small, burn)]))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120, check=True).stdout
    big, small, burn = json.loads(out)
    assert big["code"] == small["code"] == burn["code"] == 0
    assert big["rss_mb"] > 200
    assert small["rss_mb"] < 100
    assert burn["cpu"] >= 0.3 and burn["wall"] >= burn["cpu"] * 0.9


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "iface-serial", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_target_fails_loudly():
    from hybridfdm import assembly

    original = assembly.irregular_jets
    bad = tracer.TARGETS + (("hybridfdm.assembly", "no_such_layer",
                             "ghost", None),)
    with pytest.raises(tracer.TraceError, match="no_such_layer"):
        tracer.Tracer().install(bad)
    assert assembly.irregular_jets is original
    with pytest.raises(tracer.TraceError):
        tracer.Tracer().install((("hybridfdm.no_module", "f", "x", None),))


def _traced_solve(name, J, tmp_path):
    spec = workload.WORKLOADS[name]
    text, params = workload.generate(11, spec["kind"])
    cfg = tmp_path / "p.ini"
    cfg.write_text(text)
    out = tmp_path / "u.csv"
    t = tracer.Tracer()
    undo = t.install()
    try:
        code = cli.main(["--problem", str(cfg), "--J", str(J), "--threads",
                         str(spec["threads"]), "--out", str(out)])
    finally:
        t.uninstall(undo)
    assert code == 0
    ok, err, why = run.check_solution(out, dict(spec, J=J, ceiling=np.inf),
                                      params, spec["kind"])
    assert ok, why
    return {k: v for k, (v, _) in t.layer_metrics().items()}


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_workload_paths_through_the_tracer(name, tmp_path):
    from hybridfdm import assembly

    original = assembly.ProcessPoolExecutor
    m = _traced_solve(name, 3 if name == "smooth-regular" else 4, tmp_path)
    assert assembly.ProcessPoolExecutor is original
    for key in ("problems.load_s", "assembly.self_s", "assembly.solve_s",
                "cli.write_csv_s", "geometry.classify_s",
                "expressions.eval_s"):
        assert m[key] > 0, key
    assert m["assembly.nnz"] > 0 and m["stencil_boundary.rows"] > 0
    assert m["reduction.table_calls"] > 0 and m["mls.operator_calls"] > 0
    if name == "smooth-regular":
        for key in ("geometry.iface_nodes", "stencil_irregular.rows",
                    "assembly.pool_wait_s", "geometry.base_chart_s",
                    "transmission.build_s", "assembly.iface_row_ms_p50"):
            assert m[key] == 0, key
        return
    # every interface node shows up in each interface layer, also when the
    # rows were built in pool workers
    nodes = m["geometry.iface_nodes"]
    assert nodes > 0
    assert m["stencil_irregular.rows"] == nodes
    assert m["assembly.iface_row_ms_p90"] >= m["assembly.iface_row_ms_p50"] > 0
    assert 0 <= m["fieldjets.widened_share"] <= 1
    assert 0 <= m["stencil_irregular.under_resolved_share"] <= 1
    assert m["mls.fit_bytes"] > 0 and m["transmission.build_s"] > 0
    assert (m["assembly.pool_wait_s"] > 0) == (name == "iface-pool")


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    layers = {k: u for k, (_, u) in tracer.Tracer().layer_metrics().items()}
    layers.update({"cli.max_err": "abs", "trace.overhead_s": "s",
                   "trace.overhead_share": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
