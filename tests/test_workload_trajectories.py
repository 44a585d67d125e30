"""Every benchmark workload's learned trajectory, pinned by sha256.

The benchmark's ``trajectory_sha256`` is the behaviour oracle of a change
that is meant to keep behaviour: this test runs each workload in process, as
the benchmark's ``_engine_run`` does, at two seeds, and compares each digest
with the one checked in here.  subprocess-cli runs its landscape on a
``SyntheticBackend``; the benchmark checks that its CLI run equals this one.
A change meant to move a trajectory updates its digest and says why.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

from stratlearn.backends import SyntheticBackend  # noqa: E402

DIGESTS = {
    ("fit-heavy", 1): "efd4f42c2f5a18579b96548dbc4e8df47cd2e12052c144d065f882886b3f43fe",
    ("fit-heavy", 2): "72dd9422f2a998d8ae4408abd62bcc407a2255d6ef29bad722d11ad53c476d32",
    ("predict-heavy", 1): "7873b119f1fe909480be5026ce0a5f2a3891cec976d15b7953a37d852f1658e0",
    ("predict-heavy", 2): "a87b0df7e0962254095f4b8d1839ec617d9d2e64f4b055118a1437d6aab924a9",
    ("subprocess-cli", 1): "17ab0206d2c3df19f4b18e81f730972348506cf80dccaa9504b3be4adae65800",
    ("subprocess-cli", 2): "727cefe5d2f6274a4c931473586016b9e1eaceee77cb1a49a842f346102d5685",
}


@pytest.mark.parametrize("name, seed", list(DIGESTS), ids=[f"{n}-{s}" for n, s in DIGESTS])
def test_trajectory_matches_its_digest(name, seed, tmp_path):
    w = workloads.get(name)
    inputs = workloads.make_inputs(w, seed, tmp_path)
    result = workloads._engine_run(w, inputs, seed, SyntheticBackend(inputs.landscape), learn=True)
    assert workloads.trajectory_sha256(result.trajectory) == DIGESTS[name, seed]
