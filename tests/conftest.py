import os
import sys

# One BLAS/OpenMP thread, as perfbench/run.py pins it: scipy's L-BFGS-B runs
# about 10x slower in some periods on a shared 2-core machine when OpenBLAS
# starts its own thread pool, which breaks the stage-cost ratios the tests
# assert.  The pin only takes effect if numpy is not yet imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
assert "numpy" not in sys.modules, "numpy imported before the thread pin"

import pytest  # noqa: E402

from ddradar import (  # noqa: E402
    make_params,
    reference_bad_code,
    reference_good_code,
    synthesize_discrete,
)
from ddradar import bench  # noqa: E402


@pytest.fixture(scope="session")
def p_default():
    return make_params(64, 16, 8, 8, 1.0)


@pytest.fixture(scope="session")
def p_square():
    return make_params(64, 64, 8, 8, 1.0)


@pytest.fixture(scope="session")
def good_code():
    return reference_good_code()


@pytest.fixture(scope="session")
def bad_code():
    return reference_bad_code()


@pytest.fixture(scope="session")
def s_paper(p_default, good_code):
    return synthesize_discrete(good_code, p_default)


@pytest.fixture(scope="session")
def simd_target():
    """The family of numpy's SIMD kernels this process runs, by
    ``ddradar.bench.simd_target``; the bit pins are keyed by it."""
    return bench.simd_target()
