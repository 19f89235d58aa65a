"""Pinned SHA-256 digests of whole sequential transcripts.

The reference CSVs of the benchmark sweeps record only power and copy
counts, so a change that moved a refined null MLE by one ulp could leave
them unchanged. These digests cover every run's decision, copies, rounds
(descriptor and outcome) and the repr of every log SLR, so any moved
float, draw or design shows. The benchmark's sequential workloads are read
from their config files and run the way a sweep runs them; a two-sided
case covers the reversed statistic.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from qhtest.engine import PolicyConfig, run_sequential_test
from qhtest.family import FamilyConfig, parse_hypothesis_set, state_from_angle
from qhtest.harness import make_trial, parse_config, run_rng

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"

DIGESTS = {
    "seq_power_point": "e4b02b1f2c2f62c7cf8f9a420a1831d83ba4bc6c315bb33acf7b43909000f52f",
    "seq_size_interval": "71402e101bd0efac9f5aa133f0feb781ff1e06a3b64b3687869bd8194e452d98",
    "two_sided": "2538e936a68cef13c7883fe750cbbac5559876874fd156a3f3b9a7eab4543fcf",
}


def _feed(digest, method: str, budget: int, out) -> None:
    """Add one run's transcript to the digest, one field per line."""
    lines = [method, str(budget), out.decision, str(out.copies_used)]
    lines += [f"{r.plan.descriptor} {r.outcome!r}" for r in out.rounds]
    lines += [repr(v) for v in out.log_slrs]
    lines.append(repr(out.final_log_slr_rev))
    digest.update(("\n".join(lines) + "\n\n").encode())


@pytest.mark.parametrize("workload", ["seq_power_point", "seq_size_interval"])
def test_sequential_workload_transcripts_are_pinned(workload):
    config = parse_config(WORKLOADS / f"{workload}.cfg")
    digest = hashlib.sha256()
    for method in config.methods:
        trial = make_trial(config, method)
        for b_idx, budget in enumerate(config.budgets):
            for run in range(config.runs):
                out = trial(budget, run_rng(config.master_seed, method, b_idx, run))
                _feed(digest, method, budget, out)
    assert digest.hexdigest() == DIGESTS[workload]


def test_two_sided_transcripts_are_pinned():
    """300 runs of the no-simultaneous-crossing set-up: {45} vs (45,180],
    random truths, eps0 = eps1 = 0.05, budget 40, one memo per policy kind."""
    cfg = FamilyConfig()
    kinds = ("aLHT", "aLHT+", "aLVT")
    policies = {k: PolicyConfig(kind=k) for k in kinds}
    memos = {k: {} for k in kinds}
    null_set, alt_set = parse_hypothesis_set("{45}"), parse_hypothesis_set("(45,180]")
    angles = np.random.default_rng(31415).uniform(0.0, 180.0, size=300)
    digest = hashlib.sha256()
    for k, angle in enumerate(angles):
        kind = kinds[k % 3]
        out = run_sequential_test(
            policies[kind], state_from_angle(cfg, float(angle)), cfg, null_set, alt_set,
            eps0=0.05, budget=40, rng=np.random.default_rng([271828, k]), eps1=0.05,
            memo=memos[kind],
        )
        assert out.final_log_slr_rev is not None and math.isfinite(out.final_log_slr_rev)
        _feed(digest, kind, 40, out)
    assert digest.hexdigest() == DIGESTS["two_sided"]
