import sys, os
sys.path.insert(0, os.path.dirname(__file__))

# Importing the package first applies its one-BLAS-thread default before any
# test module loads numpy.
import hybridfdm  # noqa: E402,F401
