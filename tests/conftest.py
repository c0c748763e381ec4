"""Pin BLAS to one thread before anything imports numpy.

The suite's matrix products are small (batch 32 by 100 hidden units), where
a second BLAS thread only adds scheduling cost and makes test times swing
with the host's load. The benchmark pins BLAS the same way. A value already
set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
