import sys
import os

sys.path.insert(0, os.path.dirname(__file__))

# One BLAS thread, set before any bench module imports numpy (as
# benchmarks/e2e does): the quick benches time sub-millisecond GEMMs, and
# an OpenBLAS pool spread over a small container's vCPUs makes each of
# them ~10x slower and the wall-clock metrics unrepeatable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
