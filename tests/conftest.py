"""Test setup: pin BLAS to one thread before numpy loads.

With BLAS unpinned, OpenBLAS's idle workers spin on a core after every BLAS
call and take it from the engine's draw and gain threads, which split the
fading realizations over the usable cores. An explicit setting in the
environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
