"""The benchmark must keep matching the code and the criteria it measures.

``perfbench/workloads.py`` re-runs each workload layer by layer through the
package's public functions, and judges accuracy by a copy of acceptance
criterion 4's reference RMSEs and band; a change that breaks the mirror or
moves one copy otherwise shows only when the benchmark itself runs.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import workloads  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from test_acceptance import REFERENCE_RMSE, RMSE_BAND  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_mirror_matches_run(name):
    workload = WORKLOADS[name]()
    workload.prepare(42, frames=3)
    for i in range(3):
        traced, _ = workload.traced(Tracer(), i)
        assert workload.mirror_key(traced) == workload.mirror_key(workload.run(i))


def test_accuracy_gate_matches_criterion_4():
    assert workloads.REFERENCE_RMSE == REFERENCE_RMSE
    assert workloads.RMSE_BAND == RMSE_BAND
