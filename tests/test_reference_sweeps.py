"""The benchmark's sweeps still produce its reference CSVs, byte for byte.

perfbench/run.py checks every sweep CSV it writes against the SHA-256s in
perfbench/reference/SHA256SUMS. Running the same sweeps here, in process
and from the workload configs as committed, makes any byte drift from a
refactor fail the unit suite too, not only the benchmark. perfbench files
are only read.
"""

import hashlib
from pathlib import Path

import pytest

from qhtest.harness import emit_results, parse_config, run_sweep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = sorted(p.stem for p in (PERFBENCH / "workloads").glob("*.cfg"))


def reference_digests():
    digests = {}
    for line in (PERFBENCH / "reference" / "SHA256SUMS").read_text().splitlines():
        digest, name = line.split()
        digests[name] = digest
    return digests


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_sweep_matches_its_reference_digest(workload, tmp_path):
    out = tmp_path / f"{workload}.csv"
    emit_results(run_sweep(parse_config(PERFBENCH / "workloads" / f"{workload}.cfg")), out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == reference_digests()[f"{workload}.csv"]
