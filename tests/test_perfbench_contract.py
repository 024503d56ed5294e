"""The benchmark's traced mirror must keep matching the calls it mirrors.

``perfbench/workloads.py`` re-runs each workload layer by layer through the
package's public functions; a change that breaks that mirror otherwise
shows only when the benchmark itself runs.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_mirror_matches_run(name):
    workload = WORKLOADS[name]()
    workload.prepare(42, frames=3)
    for i in range(3):
        traced, _ = workload.traced(Tracer(), i)
        assert workload.mirror_key(traced) == workload.mirror_key(workload.run(i))
