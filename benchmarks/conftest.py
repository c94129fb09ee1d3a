import sys
import os

sys.path.insert(0, os.path.dirname(__file__))

# One BLAS thread, set before any bench module imports numpy (as
# benchmarks/e2e does): the quick benches time sub-millisecond GEMMs, and
# an OpenBLAS pool spread over a small container's vCPUs makes each of
# them ~10x slower and the wall-clock metrics unrepeatable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_addoption(parser):
    parser.addoption(
        "--payload-scale",
        type=float,
        default=1.0,
        help="bench_ddp: widen the net so per-step gradient payloads grow "
        "by roughly this factor (e.g. 8 pushes the exchange to MB-scale "
        "payloads, where the fabric model's wire leg dominates skew)",
    )
