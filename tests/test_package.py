"""Package-level behaviour: the BLAS thread default and the library API."""

import os
import subprocess
import sys

import pytest

import hybridfdm

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
