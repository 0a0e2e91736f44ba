"""Test-session set-up, run before any test module imports numpy.

BLAS is pinned to one thread, as the benchmark harness pins it: the
suite's matrices are small, and on a shared machine extra BLAS threads
only contend for cores. A value already set in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
