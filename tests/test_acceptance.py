"""End-to-end acceptance: the built-in experiments through the CLI.

Each case runs ``hybridfdm.cli.main`` in-process, as the command line would,
and reads back the table or the solution it writes.  ``ex32`` and ``ex34``
do not solve at J=4 yet (ROADMAP item 3); they are strict xfails, so a fix
shows up as an unexpected pass.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from hybridfdm import cli
from test_cli import read_convergence_csv

# max |u_h - u| of ex31 by J when the interface lattice was 65x65 at h/32;
# the current 17x17 lattice must stay within 1.25 times of it.
EX31_ERRORS = {4: 8.63e1, 5: 2.13, 6: 5.58e-2}


def convergence(tmp_path, problem, J_range, mode):
    out = tmp_path / f"{problem}.csv"
    code = cli.main(["--problem", problem, "--J-range", J_range,
                     "--mode", mode, "--out", str(out)])
    assert code == 0
    return read_convergence_csv(out)


def test_ex31_exact_errors(tmp_path):
    rows = convergence(tmp_path, "ex31", "4..6", "exact")
    assert [r.J for r in rows] == [4, 5, 6]
    for r in rows:
        assert r.error <= 1.25 * EX31_ERRORS[r.J], r


def test_ex33_solves_at_J5_and_J6(tmp_path):
    (row,) = convergence(tmp_path, "ex33", "5..6", "successive")
    assert row.J == 5 and math.isfinite(row.error)


def test_ex34_solves_at_J6_on_the_leading_degree_fallback(tmp_path):
    """The one built-in run that solves with fallback rows: 42 of the 702
    interface rows of ex34 at J=6 are under-resolved (kappa h > 0.75) and
    take the leading-degree stencil with its minus-side penalty."""
    out = tmp_path / "u.csv"
    assert cli.main(["--problem", "ex34", "--J", "6", "--out", str(out)]) == 0
    u = np.loadtxt(out, delimiter=",", skiprows=1, usecols=4)
    assert u.shape == (65 * 65,) and np.isfinite(u).all()
    # 772.097337853711 when this test was written
    assert f"{np.abs(u).max():.6g}" == "772.097"


def test_no_interface_member_is_sixth_order(tmp_path):
    """The paper's theorem without an interface: the 9-point regular rows
    and the Robin side and corner rows are sixth order on a variable
    coefficient.  The benchmark family's member without an interface
    (``bench/workload.py``, c = 2 and no shift, a = 2 + sin(x) sin(y))
    measured order 6.00 between J=6 and J=7."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workload.py"
    spec = importlib.util.spec_from_file_location("workload", path)
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    config = tmp_path / "none.ini"
    config.write_text(workload.config_text(2, 0, 0, "none"), encoding="utf-8")
    rows = convergence(tmp_path, str(config), "6..7", "exact")
    assert [r.J for r in rows] == [6, 7]
    assert rows[1].order >= 5.9, rows


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the 13-point rows of "
                   "the star interfaces fail the recursion residual gate")
@pytest.mark.parametrize("problem", ["ex32", "ex34"])
def test_star_experiments_solve_at_J4(problem, tmp_path):
    code = cli.main(["--problem", problem, "--J", "4",
                     "--out", str(tmp_path / "u.csv")])
    assert code == 0
