"""Package-level behaviour: the BLAS thread default, the library API, and
when scipy is imported."""

import os
import subprocess
import sys

import pytest

import hybridfdm
from hybridfdm.problems import BUILTIN_CONFIGS

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = ("import os, sys, hybridfdm; "
         "print(*(os.environ[v] for v in sys.argv[1:]))")


def probe(env_overrides):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run([sys.executable, "-c", PROBE, *BLAS_VARS], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return out.stdout.split()


@pytest.mark.parametrize("given, want", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
])
def test_blas_threads_default_to_one_unless_set(given, want):
    assert probe(given) == want


def test_library_entry_points():
    """The README's library example runs as written."""
    problem = hybridfdm.builtin("ex31")
    system = hybridfdm.assemble(problem, J=3)
    result = hybridfdm.solve(system)
    assert result.u.shape == (9, 9)
    assert callable(hybridfdm.load_config)


# prints the scipy modules loaded so far
SCIPY_MODULES = ("print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))\n")


def fresh(code, *args):
    """Standard output of ``code`` run in a fresh interpreter, in which any
    warning is an error."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-W", "error", "-c", code, *args],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()


def test_loading_problems_imports_no_scipy(tmp_path):
    """The CLI module, a level-set config file and a parametric built-in
    need numpy only."""
    cfg = tmp_path / "ex31.ini"
    cfg.write_text(BUILTIN_CONFIGS["ex31"], encoding="utf-8")
    code = ("import sys\n"
            "import hybridfdm.cli\n"
            "from hybridfdm.problems import builtin, load_config\n"
            "load_config(sys.argv[1])\n"
            "builtin('ex32')\n" + SCIPY_MODULES)
    assert fresh(code, str(cfg)) == ["[]"]


@pytest.mark.parametrize("argv, code", [
    (["--problem", "typo.ini", "--J", "4"], "1"),
    (["--help"], "0"),
])
def test_cli_errors_and_help_import_no_scipy(tmp_path, argv, code):
    typo = tmp_path / "typo.ini"
    typo.write_text(BUILTIN_CONFIGS["ex31"].replace(
        "alpha = cos(y) + 2", "alpah = cos(y) + 2"), encoding="utf-8")
    argv = [str(typo) if a == "typo.ini" else a for a in argv]
    probe = ("import sys\n"
             "from hybridfdm import cli\n"
             "try:\n"
             "    code = cli.main(sys.argv[1:])\n"
             "except SystemExit as exc:\n"
             "    code = exc.code\n"
             "print(code)\n" + SCIPY_MODULES)
    assert fresh(probe, *argv)[-2:] == [code, "[]"]


def test_assemble_and_solve_import_scipy_when_first_used():
    """The import is deferred, not dropped: ``assemble`` loads
    scipy.sparse and ``solve`` scipy.sparse.linalg."""
    code = ("import sys, hybridfdm\n"
            "def loaded():\n"
            "    print(*(m in sys.modules for m in\n"
            "            ('scipy.sparse', 'scipy.sparse.linalg')))\n"
            "problem = hybridfdm.builtin('ex31')\n"
            "loaded()\n"
            "system = hybridfdm.assemble(problem, J=3)\n"
            "loaded()\n"
            "hybridfdm.solve(system)\n"
            "loaded()\n")
    assert fresh(code) == ["False False", "True False", "True True"]


def test_pool_workers_inherit_lapack():
    """``assemble`` loads LAPACK before it forks its pool, also for a
    problem with Dirichlet sides only, which fits nothing in the parent
    before the pool starts; the pool's rows are the serial ones, bit for
    bit."""
    code = """
import sys
import hybridfdm.assembly as assembly
from manufactured import manufacture

seen = []

class Recording(assembly.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        seen.append("scipy.linalg.lapack" in sys.modules)
        super().__init__(*args, **kwargs)

problem = manufacture(9, degree=3, interface_kind="circle").problem
print("scipy.linalg.lapack" in sys.modules)
assembly.ProcessPoolExecutor = Recording
pooled = assembly.assemble(problem, 4, threads=2)
print(seen)
serial = assembly.assemble(problem, 4, threads=1)
print(all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
          for a, b in ((pooled.matrix.indptr, serial.matrix.indptr),
                       (pooled.matrix.indices, serial.matrix.indices),
                       (pooled.matrix.data, serial.matrix.data),
                       (pooled.rhs, serial.rhs))))
"""
    assert fresh(code) == ["False", "[True]", "True"]
