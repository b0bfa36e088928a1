"""Command-line interface."""

import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hybridfdm.cli import (
    ConvergenceRow,
    average_order,
    main,
    run_convergence,
    solve_once,
    write_convergence_csv,
    write_solution_csv,
)
from manufactured import manufacture


def read_convergence_csv(path):
    """The rows of a convergence table written by ``write_convergence_csv``."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != 5:
                continue
            rows.append(ConvergenceRow(J=int(parts[0]), h=float(parts[1]),
                                       error=float(parts[2]),
                                       order=float(parts[3]),
                                       wall=float(parts[4])))
    return rows

LAPLACE_X = """
[problem]
name = laplace-x

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
u_plus = x

[boundary.gamma1]
kind = dirichlet
g = x

[boundary.gamma2]
kind = dirichlet
g = x

[boundary.gamma3]
kind = dirichlet
g = x

[boundary.gamma4]
kind = dirichlet
g = x
"""

BAD_ALPHA = LAPLACE_X.replace(
    "name = laplace-x", "name = bad-alpha").replace(
    "[boundary.gamma1]\nkind = dirichlet\ng = x",
    "[boundary.gamma1]\nkind = robin\nalpha = -1\ng = 0")


@pytest.fixture()
def laplace_cfg(tmp_path):
    path = tmp_path / "laplace.cfg"
    path.write_text(LAPLACE_X)
    return str(path)


class TestSolveCommand:
    def test_solve_writes_csv(self, laplace_cfg, tmp_path, capsys):
        out = tmp_path / "u.csv"
        rc = main(["--problem", laplace_cfg, "--J", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "i,j,x,y,u_h"
        assert len(lines) == 1 + 5 * 5
        i, j, x, y, u = lines[1].split(",")
        assert (i, j) == ("0", "0")
        assert float(x) == -1.0
        assert float(u) == pytest.approx(-1.0, abs=1e-11)

    def test_csv_roundtrip_is_exact(self, laplace_cfg, tmp_path):
        from hybridfdm.problems import load_config

        out = tmp_path / "u.csv"
        main(["--problem", laplace_cfg, "--J", "2", "--out", str(out)])
        p = load_config(laplace_cfg)
        system, result = solve_once(p, 2)
        vals = {}
        for line in out.read_text().strip().splitlines()[1:]:
            i, j, x, y, u = line.split(",")
            vals[(int(i), int(j))] = float(u)
        for (i, j), v in vals.items():
            assert v == result.u[i, j]

    def test_usage_errors_exit_1(self, laplace_cfg, capsys):
        assert main(["--problem", "nosuch", "--J", "2"]) == 1
        for level in (["--J", "0"], ["--J", "-1"], ["--J-range", "0..2"]):
            assert main(["--problem", laplace_cfg] + level) == 1
            assert "error: J must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (None, "the following arguments are required: --problem"),
        ([], "one of the arguments --J --J-range is required"),
        (["--J", "4", "--J-range", "4..5"],
         "argument --J-range: not allowed with argument --J"),
        (["--J", "2", "--mode", "successive"],
         "--mode applies only to a --J-range study"),
        (["--J-range", "2..3", "--check-mmatrix"], "--check-mmatrix needs --J"),
        (["--J", "2", "--check-mmatrix", "--out", "a.csv"],
         "--check-mmatrix prints its audit and writes no --out"),
    ])
    def test_parser_reports_misuse(self, laplace_cfg, tmp_path, monkeypatch,
                                   capsys, argv, message):
        """Caught by the parser, before the problem loads: exit code 1, and
        no file written."""
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        with pytest.raises(SystemExit) as exc:
            main([] if argv is None else ["--problem", laplace_cfg] + argv)
        assert exc.value.code == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert list(work.iterdir()) == []

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.ini"
        latin1.write_bytes(b"[problem]\nname = caf\xe9\n")
        for spec in (tmp_path, latin1):
            assert main(["--problem", str(spec), "--J", "2"]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read problem config "
                                  f"{str(spec)!r}: ")
            assert err.count("\n") == 1

    def test_robin_side_without_alpha_exits_1(self, tmp_path, capsys):
        """A robin side without its alpha is one error line naming the key,
        not a Neumann side."""
        path = tmp_path / "no-alpha.ini"
        path.write_text(BAD_ALPHA.replace("alpha = -1\n", ""))
        assert main(["--problem", str(path), "--J", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: config is missing [boundary.gamma1] alpha: a robin side "
            "needs its alpha (kind = neumann is alpha = 0)\n")

    @pytest.mark.parametrize("a, robin, message", [
        ("x + 0.5", (1, 3), "corner node (-1, -1)"),
        ("x + 0.5", (1,), "edge1 node (-1, -0.5)"),
        ("x*x - 0.5", (), "regular+ node (-0.5, -0.5)"),
    ])
    def test_nonpositive_coefficient_names_family_node_and_value(
            self, tmp_path, capsys, a, robin, message):
        """An estimated coefficient that is not positive is one error line
        naming the row's family, its node and the estimate: at a Robin
        corner or edge, or at the first failing node of a regular chunk."""
        text = LAPLACE_X.replace("a_plus = 1", f"a_plus = {a}")
        for side in robin:
            text = text.replace(f"[boundary.gamma{side}]\nkind = dirichlet",
                                f"[boundary.gamma{side}]\nkind = robin\n"
                                "alpha = 1")
        path = tmp_path / "negative-a.ini"
        path.write_text(text)
        assert main(["--problem", str(path), "--J", "2"]) == 1
        estimate = "-0.25" if robin == () else "-0.5"
        assert capsys.readouterr().err == (
            f"error: {message}: coefficient must be positive at the base "
            f"point, estimated a = {estimate}\n")

    @pytest.mark.parametrize("level", [["--J", "2"], ["--J-range", "2..3"]])
    def test_unwritable_out_exits_1(self, laplace_cfg, tmp_path, capsys,
                                    level):
        out = str(tmp_path / "missing" / "u.csv")
        assert main(["--problem", laplace_cfg, *level, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write --out {out!r}: ")
        assert err.count("\n") == 1

    def test_main_leaves_the_collector_unfrozen(self, laplace_cfg, tmp_path):
        """Only the process entry ``run`` freezes the heap; ``main`` called
        in-process leaves the caller's collector as it was."""
        before = gc.get_freeze_count()
        assert main(["--problem", laplace_cfg, "--J", "2",
                     "--out", str(tmp_path / "u.csv")]) == 0
        assert main(["--problem", "nosuch", "--J", "2"]) == 1
        assert gc.get_freeze_count() == before

    def test_run_freezes_the_heap_and_exits_with_the_code_of_main(
            self, laplace_cfg, tmp_path):
        """In a fresh process ``run`` exits with what ``main`` returned and
        freezes the heap when ``main`` returns, so the import-time heap and
        the modules a solve imported (scipy's) are no work for the
        collection at exit: a few objects stay tracked, not about 43,000."""
        probe = ("import gc, sys\n"
                 "from hybridfdm import cli\n"
                 "sys.argv = ['hybridfdm', *sys.argv[1:]]\n"
                 "try:\n"
                 "    cli.run()\n"
                 "except SystemExit as exc:\n"
                 "    print(exc.code, gc.get_freeze_count() > 0,\n"
                 "          len(gc.get_objects()))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not path else src + os.pathsep + path)

        def run(*argv):
            done = subprocess.run([sys.executable, "-W", "error", "-c", probe,
                                   *argv], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            code, frozen, tracked = done.stdout.split()[-3:]
            return code, frozen, int(tracked), done.stderr

        code, frozen, _, err = run("--problem", "nosuch", "--J", "2")
        assert (code, frozen) == ("1", "True")
        assert "is neither a builtin" in err
        code, frozen, tracked, _ = run("--problem", laplace_cfg, "--J", "2",
                                       "--out", str(tmp_path / "u.csv"))
        assert (code, frozen) == ("0", "True")
        assert tracked <= 500

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_is_an_error(self, laplace_cfg, threads,
                                             tmp_path, capsys):
        out = tmp_path / "u.csv"
        rc = main(["--problem", laplace_cfg, "--J", "2", "--threads", threads,
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"got {threads}" in err
        assert not out.exists()


class TestConvergenceCommand:
    def test_exact_mode_rows_and_csv(self, tmp_path):
        case = manufacture(seed=11, degree=3, interface_kind="none")
        rows = run_convergence(case.problem, [2, 3], mode="exact")
        assert [r.J for r in rows] == [2, 3]
        assert np.isnan(rows[0].order)
        path = tmp_path / "conv.csv"
        write_convergence_csv(path, rows)
        back = read_convergence_csv(path)
        for a, b in zip(rows, back):
            assert a.J == b.J
            assert b.error == a.error        # repr-exact round trip
            assert (np.isnan(a.order) and np.isnan(b.order)) or a.order == b.order

    def test_successive_mode(self):
        case = manufacture(seed=12, degree=3, interface_kind="none")
        rows = run_convergence(case.problem, [2, 3, 4], mode="successive")
        assert [r.J for r in rows] == [2, 3]
        assert np.isfinite(rows[1].order)

    def test_successive_requires_consecutive(self, monkeypatch):
        from hybridfdm import cli
        from hybridfdm.errors import HybridFdmError

        def no_solve(*args):
            raise AssertionError("solved before the J values were checked")

        monkeypatch.setattr(cli, "solve_once", no_solve)
        case = manufacture(seed=12, degree=3, interface_kind="none")
        for j_values in ([2, 4], [5]):
            with pytest.raises(HybridFdmError):
                run_convergence(case.problem, j_values, mode="successive")

    def test_exact_mode_requires_exact_solution(self):
        from hybridfdm.errors import HybridFdmError
        from hybridfdm.problems import builtin

        with pytest.raises(HybridFdmError):
            run_convergence(builtin("ex33"), [3, 4], mode="exact")

    def test_cli_convergence_command(self, laplace_cfg, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        rc = main(["--problem", laplace_cfg, "--J-range", "2..3",
                   "--mode", "exact", "--out", str(out)])
        assert rc == 0
        assert "average order" in capsys.readouterr().out
        assert out.exists()


class TestAuditCommand:
    def test_clean_problem_exits_0(self, laplace_cfg, capsys):
        rc = main(["--problem", laplace_cfg, "--J", "3", "--check-mmatrix"])
        assert rc == 0
        assert "pass" in capsys.readouterr().out

    def test_adversarial_alpha_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(BAD_ALPHA)
        rc = main(["--problem", str(path), "--J", "3", "--check-mmatrix"])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out


class TestRowBlocksUnderTheSolve:
    @pytest.mark.parametrize("level", [["--J", "4"], ["--J-range", "4..5"]])
    def test_solve_sees_no_row_blocks(self, monkeypatch, capsys, level):
        """The CLI empties ``system.blocks`` before every solve, so that
        the LU factors can take their memory; the matrix and the rhs stay."""
        import hybridfdm.cli as cli

        seen = []
        real = cli.solve

        def spy(system):
            nodes = system.shape[0] * system.shape[1]
            seen.append((list(system.blocks), system.matrix.shape,
                         len(system.rhs), nodes))
            return real(system)

        monkeypatch.setattr(cli, "solve", spy)
        assert main(["--problem", "ex31", *level]) == 0
        assert len(seen) == (1 if level[0] == "--J" else 2)
        for blocks, shape, rhs, nodes in seen:
            assert blocks == [] and shape == (nodes, nodes) and rhs == nodes

    def test_audit_reads_every_block(self, monkeypatch, capsys):
        """``--check-mmatrix`` keeps the blocks: its audit walks every
        block of every family, one per chunk, several a family at J=6."""
        import hybridfdm.cli as cli
        from hybridfdm.assembly import CHUNK

        seen = []
        real = cli.audit_m_matrix

        def spy(system):
            seen.append(system)
            return real(system)

        monkeypatch.setattr(cli, "audit_m_matrix", spy)
        assert main(["--problem", "ex31", "--J", "6", "--check-mmatrix"]) == 0
        (system,) = seen
        rows = system.family_rows
        assert sum(rows.values()) == system.matrix.shape[0]
        for family in ("regular+", "regular-"):
            chunks = sum(b.family == family for b in system.blocks)
            assert chunks == -(-rows[family] // CHUNK)
        assert sum(b.family == "regular+" for b in system.blocks) > 1
        out = capsys.readouterr().out
        for family, n in rows.items():
            assert re.search(rf"^  {re.escape(family)} +{n} rows  ", out,
                             re.M), family
