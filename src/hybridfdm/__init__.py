"""Sixth-order hybrid finite difference solver for 2D elliptic interface problems.

Solves -div(a grad u) = f on a rectangle with a smooth interior interface
across which a, f and u may jump, under mixed Dirichlet/Neumann/Robin boundary
conditions.  Interior points away from the interface get a 9-point compact
stencil with sixth-order consistency and an M-matrix sign structure for every
mesh size; boundary points get 6-point (edges) and 4-point (corners) analogues;
points straddling the interface get a 13-point fifth-order stencil driven by
transmission relations along the curve.  All required derivatives of the data
are recovered from point values by moving least squares.

Every LAPACK call the solver makes is small (a few thousand by fifteen at
most), and a threaded BLAS spends more time spinning than computing on them.
Importing the package therefore defaults the BLAS and OpenMP thread counts to
one, before numpy is loaded; a value already set in the environment wins.
Parallelism comes from ``assemble(..., threads=n)`` worker processes instead.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .assembly import assemble, solve  # noqa: E402
from .problems import builtin, load_config  # noqa: E402

__all__ = ["assemble", "builtin", "load_config", "solve"]

__version__ = "0.1.0"
