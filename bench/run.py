"""End-to-end benchmark of the hybridfdm CLI solve.

    python3 bench/run.py --workload iface-serial --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Each timed run is a fresh
``python -m hybridfdm.cli --problem <generated.ini> --J n --threads t
--out u.csv`` process with ``src`` on ``PYTHONPATH``, the way users run the
solver from a checkout.  The problem is generated from ``--seed``
(``workload.py``); every run's CSV is checked against the exact solution.

``--trace 0`` reports the end-to-end metrics: medians over the passing runs
of wall time, CPU time and peak RSS of the process tree (from the child's
own rusage), and of the set-up time (fresh interpreter to config loaded).
``--trace 1`` runs the solve untimed, then once more in-process under the
tracer (``tracer.py``) and reports the per-layer metrics and the tracing
overhead.

BLAS threads are not pinned, because users do not pin them; the inherited
thread variables are cleared so the caller's shell cannot change a workload,
and the cleared values are recorded.  The last line of standard output is
one JSON object; the full record, with the environment, is written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workload  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS")
SETUP_REPS = 5
# every child is killed this long after the benchmark started, so that one
# invocation ends well inside three minutes even if the solver hangs
DEADLINE_S = 165.0
SETUP_CODE = ("import sys, hybridfdm.cli\n"
              "from hybridfdm.problems import load_config\n"
              "load_config(sys.argv[1])\n")


@dataclass
class Child:
    """Outcome of one child process, with its own rusage from wait4."""

    code: int
    wall: float
    cpu: float
    rss_mb: float


def run_child(argv, env, log_path, timeout) -> Child:
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # wait4 reports the child together with the descendants it reaped (the
    # pool workers); ru_maxrss is the largest of them, in KiB on Linux.  It
    # starts from this process's RSS at fork time, which stays far below the
    # solver's own peak.
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def check_solution(csv_path, spec, params, kind):
    """(passed, max_err, reason) of one solution CSV.

    The CSV must hold every node of the (2^J + 1)^2 grid once, in order, at
    the right coordinates, with finite values; the Dirichlet sides 2 and 4
    (i = N1 or j = N2) carry identity rows, so u_h equals the exact data
    there to rounding; and max|u_h - u| must stay within the workload's
    ceiling.
    """
    n = 2 ** spec["J"] + 1
    try:
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return False, None, f"unreadable CSV: {exc}"
    if data.shape != (n * n, 5):
        return False, None, f"CSV has shape {data.shape}, expected ({n * n}, 5)"
    if not np.all(np.isfinite(data)):
        return False, None, "CSV holds non-finite values"
    i, j = np.divmod(np.arange(n * n), n)
    l1, l2, l3, _ = workload.DOMAIN
    h = (l2 - l1) / (n - 1)
    if not (np.array_equal(data[:, 0], i) and np.array_equal(data[:, 1], j)
            and np.allclose(data[:, 2], l1 + i * h, rtol=0, atol=1e-12)
            and np.allclose(data[:, 3], l3 + j * h, rtol=0, atol=1e-12)):
        return False, None, "CSV nodes are not the grid in (i, j) order"
    exact = workload.exact_solution(*params, kind, data[:, 2], data[:, 3])
    diff = np.abs(data[:, 4] - exact)
    err = float(np.max(diff))
    dirichlet = (i == n - 1) | (j == n - 1)
    if np.max(diff[dirichlet]) > 1e-10 * np.max(np.abs(exact)):
        return False, err, "Dirichlet nodes do not hold the boundary data"
    if not err <= spec["ceiling"]:
        return False, err, f"max_err {err:.4g} above ceiling {spec['ceiling']}"
    return True, err, ""


def git_commit(root):
    """HEAD of the checkout, without letting git look above root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    return out.stdout.strip() if out.returncode == 0 \
        else "unknown (not a git checkout)"


def blas_build():
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: cfg.get(k) for k in ("name", "version",
                                        "openblas configuration")}
    except (TypeError, KeyError):
        return {"name": "unknown"}


def environment(args, spec, params, kind, cleared):
    return {
        "workload": args.workload, "seed": args.seed,
        "problem": {"family": "ex31", "interface": kind, "c": params[0],
                    "x0": params[1], "y0": params[2]},
        "J": spec["J"], "threads": spec["threads"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas_build(), "blas_env_cleared": cleared,
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "git_commit": git_commit(os.getcwd()),
    }


def median_metric(values, unit):
    return {"value": float(statistics.median(values)), "unit": unit,
            "samples": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workload.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hybridfdm", "cli.py")):
        sys.stderr.write("error: run from the root of a hybridfdm checkout "
                         "(src/hybridfdm/cli.py not found)\n")
        return 2
    sys.path.insert(0, src)

    spec = workload.WORKLOADS[args.workload]
    kind = spec["kind"]
    text, params = workload.generate(args.seed, kind)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    out_dir = os.path.join(root, ".bench_out", tag)
    os.makedirs(out_dir, exist_ok=True)
    cfg = os.path.join(out_dir, "problem.ini")
    layers_path = os.path.join(out_dir, "layers.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(text)

    env = dict(os.environ)
    cleared = {k: env.pop(k) for k in BLAS_VARS if k in env}
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")

    def remaining():
        return DEADLINE_S - (time.perf_counter() - started)

    def solve(index, traced=False):
        csv = os.path.join(out_dir, f"u{index}.csv")
        if os.path.exists(csv):
            os.remove(csv)
        cli_args = ["--problem", cfg, "--J", str(spec["J"]),
                    "--threads", str(spec["threads"]), "--out", csv]
        if traced:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"),
                    "--metrics", layers_path, "--"]
        else:
            argv = [sys.executable, "-m", "hybridfdm.cli"]
        child = run_child(argv + cli_args, env,
                          os.path.join(out_dir, f"log{index}.txt"), remaining())
        ok, err, why = (False, None, f"exit code {child.code}")
        if child.code == 0:
            ok, err, why = check_solution(csv, spec, params, kind)
        return {"wall_s": child.wall, "cpu_s": child.cpu,
                "peak_rss_mb": child.rss_mb, "passed": ok, "max_err": err,
                "reason": why}

    runs = []
    setup = []
    metrics = {}
    if args.trace == 0:
        for k in range(SETUP_REPS):
            child = run_child([sys.executable, "-c", SETUP_CODE, cfg], env,
                              os.path.join(out_dir, f"setup{k}.txt"),
                              remaining())
            if child.code != 0:
                sys.stderr.write("error: set-up run failed, see "
                                 f"{out_dir}/setup{k}.txt\n")
                return 3
            setup.append(child.wall)
        t_loop = time.perf_counter()
        while not runs or (time.perf_counter() - t_loop < args.seconds
                           and remaining() > 0):
            runs.append(solve(len(runs)))
        passing = [r for r in runs if r["passed"]] or runs
        for name, unit in (("wall_s", "s"), ("cpu_s", "s"),
                           ("peak_rss_mb", "MB")):
            metrics[name] = median_metric([r[name] for r in passing], unit)
        metrics["setup_s"] = median_metric(setup, "s")
    else:
        t_loop = time.perf_counter()
        while not runs or (time.perf_counter() - t_loop < args.seconds / 2
                           and remaining() > 0):
            runs.append(solve(len(runs)))
        plain = statistics.median(r["wall_s"] for r in runs)
        if os.path.exists(layers_path):
            os.remove(layers_path)
        traced = solve(len(runs), traced=True)
        runs.append(traced)
        errs = [r["max_err"] for r in runs if r["max_err"] is not None]
        if not errs or not os.path.exists(layers_path):
            sys.stderr.write(f"error: no traced solve completed, see {out_dir}\n")
            return 3
        with open(layers_path, encoding="utf-8") as fh:
            metrics.update(json.load(fh))
        metrics["cli.max_err"] = {"value": max(errs), "unit": "abs"}
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - plain,
                                       "unit": "s"}
        metrics["trace.overhead_share"] = {
            "value": (traced["wall_s"] - plain) / plain, "unit": "ratio"}

    failed = sum(1 for r in runs if not r["passed"])
    record = {
        "environment": environment(args, spec, params, kind, cleared),
        "seconds": args.seconds, "trace": args.trace,
        "attempted": len(runs), "failed": failed,
        "fail_share": failed / len(runs), "runs": runs, "setup_runs": setup,
        "metrics": metrics,
    }
    with open(os.path.join(root, ".bench_out", f"BENCH_{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for r in runs:
        if not r["passed"]:
            print(f"FAILED run: {r['reason']}")
    print(f"workload {args.workload} seed {args.seed}: c={params[0]!r} "
          f"x0={params[1]!r} y0={params[2]!r}; cleared {cleared or 'nothing'}")
    print(f"fail_share {failed / len(runs):.4g} ({failed} of {len(runs)} runs)")
    for name, m in metrics.items():
        n = m.get("samples")
        print(f"{name} {m['value']:.6g} {m['unit']} "
              + (f"(median of {n} runs)" if n else "(1 traced run)"))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
