"""Test-session setup shared by every test module.

BLAS runs on one thread unless the environment says otherwise.  The
oracle's dense matrices are small, so BLAS threads gain nothing there;
on a host whose other cores are busy they contend and slow the dense
oracle tests by an order of magnitude, so the suite's time would read
the host's load.  The variables are read when numpy loads its BLAS,
which this file precedes: pytest imports it before any test module in
the directory.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
