"""Tier-1 runs numpy's BLAS on one thread, as ``perfbench/run.py`` does:
the train losses differ between thread counts, and the test shapes are too
small to gain from a second thread. pytest loads this file before any test
module imports numpy, and ``setdefault`` keeps a count the caller set."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
