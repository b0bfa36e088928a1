"""Command-line front end: solve once, run convergence studies, audit rows.

Usage patterns:

    hybridfdm --problem ex31 --J 5 --out solution.csv
    hybridfdm --problem ex31 --J-range 5..7 --mode exact --out table.csv
    hybridfdm --problem ex33 --J-range 5..7 --mode successive
    hybridfdm --problem ex33 --J 5 --check-mmatrix

``--problem`` takes a builtin name or a configuration file path.  Solutions
are written as CSV (i, j, x, y, u_h); convergence tables as CSV rows
(J, h, error, order, wall_seconds).  All floats use repr-exact scientific
notation with 17 significant digits and a decimal point, independent of any
locale.  Exit codes: 0 success, 1 usage errors and every ``HybridFdmError``
(config errors and solver failures alike, e.g. a ``StencilError``), 2 a
failed M-matrix audit.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .assembly import assemble, audit_m_matrix, solve
from .errors import HybridFdmError
from .problems import BUILTIN_CONFIGS, ProblemSpec, builtin, load_config

FLOAT_FMT = "%.17e"


@dataclass
class ConvergenceRow:
    J: int
    h: float
    error: float
    order: float          # nan on the first row
    wall: float


def _load_problem(spec: str) -> ProblemSpec:
    if spec in BUILTIN_CONFIGS:
        return builtin(spec)
    if os.path.exists(spec):
        return load_config(spec)
    raise HybridFdmError(
        f"--problem {spec!r} is neither a builtin ({sorted(BUILTIN_CONFIGS)}) "
        "nor a config file")


def solve_once(problem: ProblemSpec, J: int, threads: int = 1):
    """Assemble and solve; the row blocks are emptied before the solve, so
    that its LU factors can take their memory (the CSR matrix and the rhs
    hold every row)."""
    system = assemble(problem, J, threads=threads)
    system.blocks.clear()
    result = solve(system)
    return system, result


def write_solution_csv(path, system, result):
    n1, n2 = system.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("i,j,x,y,u_h\r\n")
        for i in range(n1):
            x = FLOAT_FMT % system.xs[i]
            for j in range(n2):
                fh.write(f"{i},{j},{x},{FLOAT_FMT % system.ys[j]},"
                         f"{FLOAT_FMT % result.u[i, j]}\r\n")


def _write_out(write, path, *data):
    """``write(path, *data)``; an unwritable path is a ``HybridFdmError``."""
    try:
        write(path, *data)
    except OSError as exc:
        raise HybridFdmError(f"cannot write --out {path!r}: {exc}") from exc


def exact_error(problem: ProblemSpec, system, result) -> float:
    gx, gy = np.meshgrid(system.xs, system.ys, indexing="ij")
    return float(np.abs(result.u - problem.exact_u(gx, gy)).max())


def successive_error(u_coarse: np.ndarray, u_fine: np.ndarray) -> float:
    return float(np.abs(u_coarse - u_fine[::2, ::2]).max())


def run_convergence(problem: ProblemSpec, j_values, mode: str = "exact",
                    threads: int = 1):
    """Convergence table over ascending J values.

    ``exact`` compares against the attached solution at every J; the
    ``successive`` mode compares coincident nodes of consecutive grids, so
    the listed J values must be consecutive and the last solve only serves
    as the reference for its predecessor.
    """
    j_values = list(j_values)
    if sorted(j_values) != j_values:
        raise HybridFdmError("J range must be ascending")
    if mode == "exact" and not problem.has_exact:
        raise HybridFdmError(
            f"problem {problem.name!r} has no exact solution; use successive")
    if mode == "successive" and len(j_values) < 2:
        raise HybridFdmError("successive mode needs at least two J values")
    if mode == "successive" and any(b - a != 1 for a, b in
                                    zip(j_values, j_values[1:])):
        raise HybridFdmError("successive mode requires consecutive J values")

    rows, prev = [], None       # prev: (J, h, u, wall) of the last solve
    for J in j_values:
        t0 = time.perf_counter()
        system, result = solve_once(problem, J, threads)
        wall = time.perf_counter() - t0
        if mode == "exact":
            rows.append(ConvergenceRow(J, system.h, exact_error(
                problem, system, result), float("nan"), wall))
        elif prev is not None:
            prev_J, prev_h, prev_u, prev_wall = prev
            rows.append(ConvergenceRow(prev_J, prev_h, successive_error(
                prev_u, result.u), float("nan"), prev_wall))
        prev = (J, system.h, result.u, wall)
        del system, result      # hold one solve at a time
    for coarse, fine in zip(rows, rows[1:]):
        fine.order = float(np.log2(coarse.error / fine.error))
    return rows


def average_order(rows) -> float:
    orders = [r.order for r in rows if np.isfinite(r.order)]
    return float(np.mean(orders)) if orders else float("nan")


def write_convergence_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("J,h,error,order,wall_seconds\r\n")
        for r in rows:
            fh.write(f"{r.J},{FLOAT_FMT % r.h},{FLOAT_FMT % r.error},"
                     f"{FLOAT_FMT % r.order},{FLOAT_FMT % r.wall}\r\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _parse_range(text: str):
    try:
        a, b = text.split("..")
        a, b = int(a), int(b)
    except ValueError:
        raise HybridFdmError(f"--J-range expects a..b, got {text!r}")
    if b < a:
        raise HybridFdmError("--J-range must be ascending")
    return list(range(a, b + 1))


def main(argv=None) -> int:
    parser = _Parser(prog="hybridfdm",
                     description="Sixth-order hybrid FDM solver for 2D "
                                 "elliptic interface problems")
    parser.add_argument("--problem", required=True,
                        help="builtin name (ex31..ex34) or config file path")
    levels = parser.add_mutually_exclusive_group(required=True)
    levels.add_argument("--J", type=int, default=None,
                        help="grid refinement level, h = width / 2^J")
    levels.add_argument("--J-range", dest="j_range", default=None,
                        help="run a convergence study over a..b")
    parser.add_argument("--mode", choices=("exact", "successive"),
                        default=None,
                        help="error definition for studies (default exact)")
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--threads", type=int, default=1,
                        help="stencil-generation worker processes")
    parser.add_argument("--check-mmatrix", action="store_true",
                        help="audit the sign/sum conditions instead of solving")
    args = parser.parse_args(argv)
    if args.mode is not None and args.j_range is None:
        parser.error("--mode applies only to a --J-range study")
    if args.check_mmatrix and args.J is None:
        parser.error("--check-mmatrix needs --J")
    if args.check_mmatrix and args.out is not None:
        parser.error("--check-mmatrix prints its audit and writes no --out")

    try:
        problem = _load_problem(args.problem)

        if args.check_mmatrix:
            system = assemble(problem, args.J, threads=args.threads)
            audit = audit_m_matrix(system)
            print(f"M-matrix audit of {problem.name!r} at J={args.J}:")
            for family, rows in audit.rows.items():
                bad = audit.failed.get(family)
                verdict = ("no M-matrix claim" if bad is None else
                           "pass" if bad == 0 else f"FAIL ({bad} of {rows})")
                print(f"  {family:<10} {rows:>7} rows  {verdict}")
            for v in audit.violations[:10]:
                print(f"  violation: {v.family} row at node {v.node}: {v.what}")
            return 0 if audit.passed else 2

        if args.j_range is not None:
            rows = run_convergence(problem, _parse_range(args.j_range),
                                   mode=args.mode or "exact",
                                   threads=args.threads)
            print(f"{'J':>3} {'h':>12} {'error':>14} {'order':>7} {'wall':>9}")
            for r in rows:
                order = f"{r.order:7.2f}" if np.isfinite(r.order) else "      -"
                print(f"{r.J:>3} {r.h:12.6g} {r.error:14.6e} {order} "
                      f"{r.wall:8.2f}s")
            print(f"average order: {average_order(rows):.2f}")
            if args.out:
                _write_out(write_convergence_csv, args.out, rows)
            return 0

        system, result = solve_once(problem, args.J, args.threads)
        print(f"solved {problem.name!r} at J={args.J}: "
              f"{system.shape[0]}x{system.shape[1]} nodes, "
              f"max|u_h| = {np.abs(result.u).max():.6g}, "
              f"residual = {result.residual:.2e}, "
              f"assemble {system.timings['total']:.2f}s "
              f"solve {result.wall_solve:.2f}s")
        if args.out:
            _write_out(write_solution_csv, args.out, system, result)
        return 0
    except HybridFdmError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run():
    """Process entry of the ``hybridfdm`` command: ``main`` on the command
    line, then exit with its code.

    Everything alive when ``main`` ends, also by ``--help`` or an
    exception, is frozen (``gc.freeze``): the import-time heap, about 25,000
    objects, most of them from numpy modules, and the scipy modules the
    first ``assemble`` imported; so the collection at interpreter exit skips
    all of it.  ``main`` itself leaves the collector alone, for tests and
    library callers.
    """
    try:
        raise SystemExit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
