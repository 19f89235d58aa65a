"""Tests for the exact enumeration / recomputation oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhtest.engine import PolicyConfig, run_sequential_test
from qhtest.errors import HorizonTooLarge
from qhtest.family import FamilyConfig, parse_hypothesis_set, state_from_angle
from qhtest.oracle import (
    MAX_HORIZON,
    enumerate_transcripts,
    eprocess_expectation,
    helstrom_bound,
    helstrom_error,
    recompute_slr,
    sample_transcript,
    small_policy,
    small_sets,
)
from qhtest.quantum import validate_density

KET0 = validate_density(np.diag([1.0, 0.0]))
PLUS = validate_density(np.full((2, 2), 0.5))


def test_enumeration_counts_and_probability_mass():
    cfg, policy = small_policy()
    null_set, alt_set = small_sets()
    truth = state_from_angle(cfg, 45.0)
    for horizon in (1, 2, 3):
        branches = enumerate_transcripts(policy, truth, cfg, null_set, alt_set, horizon)
        # every round of this policy is binary, so at most 2^h transcripts
        assert 2 <= len(branches) <= 2**horizon
        mass = sum(br.probability for br in branches)
        assert abs(mass - 1.0) < 1e-12
        assert all(br.probability > 0.0 for br in branches)
        assert all(len(br.rounds) == horizon for br in branches)


def test_enumeration_horizon_guard():
    cfg, policy = small_policy()
    null_set, alt_set = small_sets()
    truth = state_from_angle(cfg, 45.0)
    for horizon in (0, MAX_HORIZON + 1):
        with pytest.raises(HorizonTooLarge):
            enumerate_transcripts(policy, truth, cfg, null_set, alt_set, horizon)


def test_expectation_is_one_under_null_truth():
    """True-denominator ratio process has exact unit expectation."""
    cfg, policy = small_policy()
    null_set, alt_set = small_sets()
    truth = state_from_angle(cfg, 45.0)
    for horizon in (1, 2):
        val = eprocess_expectation(policy, truth, cfg, null_set, alt_set, horizon)
        assert abs(val - 1.0) < 1e-9


def test_mle_denominator_can_only_shrink_the_expectation():
    cfg, policy = small_policy()
    null_set, alt_set = small_sets()
    truth = state_from_angle(cfg, 45.0)
    val = eprocess_expectation(
        policy, truth, cfg, null_set, alt_set, 2, use_mle_denominator=True
    )
    assert val <= 1.0 + 1e-9


def test_mle_denominator_expectation_survives_a_huge_branch_ratio():
    """aLVT with pure states makes outcomes that are impossible under the null.

    Their probabilities are float noise, so one branch pairs a log SLR past
    709 with a probability near 1e-56. Their product is taken in log
    space, and a term past the float range gives inf, not an OverflowError.
    """
    cfg = FamilyConfig()
    null_set, alt_set = small_sets()
    truth = state_from_angle(cfg, 45.0)
    huge = max(
        enumerate_transcripts(
            PolicyConfig(kind="aLVT", n_ic=0, n_joint=3), truth, cfg, null_set, alt_set, 3
        ),
        key=lambda br: br.log_slr,
    )
    assert huge.log_slr > 709.8
    vals = [
        eprocess_expectation(
            PolicyConfig(kind="aLVT", n_ic=n_ic, n_joint=3), truth, cfg, null_set, alt_set, 3,
            use_mle_denominator=True,
        )
        for n_ic in (0, 1)
    ]
    assert vals[0] == math.inf
    assert 1e279 < vals[1] < math.inf


def test_branch_log_slr_matches_from_scratch_recompute():
    cfg, policy = small_policy()
    null_set, alt_set = small_sets()
    truth = state_from_angle(cfg, 100.0)
    branches = enumerate_transcripts(policy, truth, cfg, null_set, alt_set, 3)
    for br in branches:
        logs = recompute_slr(br.rounds, cfg, null_set, alt_set)
        assert abs(logs[-1] - br.log_slr) < 1e-9


def test_alht_enumeration_pins_the_weight():
    cfg, _ = small_policy()
    policy = PolicyConfig(kind="aLHT", n_ic=1, n_joint=1)
    null_set, alt_set = small_sets()
    truth = state_from_angle(cfg, 45.0)
    branches = enumerate_transcripts(policy, truth, cfg, null_set, alt_set, 2)
    joint_descs = {br.rounds[1].plan.descriptor for br in branches}
    assert all("lam=0.500000" in d for d in joint_descs)


def test_sampled_transcripts_match_recompute():
    """Incremental engine values equal the prefix-by-prefix recomputation."""
    cfg = FamilyConfig()
    null_set, alt_set = small_sets()
    policy = PolicyConfig(kind="aLHT+", n_ic=2, n_joint=2, initial_alt_angle=45.5)
    truth = state_from_angle(cfg, 120.0)
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng([9000, seed])
        rounds = sample_transcript(policy, truth, cfg, null_set, alt_set, 6, rng)
        engine_logs = np.array([s.log_slr for s in rounds])
        again = recompute_slr(
            rounds, cfg, null_set, alt_set, initial_alt_angle=45.5
        )
        worst = max(worst, float(np.max(np.abs(again - engine_logs))))
    assert worst <= 1e-9


@pytest.mark.parametrize("kind", ["aLHT", "aLHT+", "aLVT"])
def test_sampled_transcript_follows_the_engine_run(kind):
    """With one seed, the oracle's generator and the engine give the same rounds.

    Every round both ran has the same descriptor, outcome, numerator term
    and log SLR.
    """
    cfg = FamilyConfig()
    null_set, alt_set = small_sets()
    policy = PolicyConfig(kind=kind, n_ic=2, n_joint=2, lambda_grid_size=19, theta_grid_size=36)
    truth = state_from_angle(cfg, 80.0)
    out = run_sequential_test(
        policy, truth, cfg, null_set, alt_set, 1e-3, 40, np.random.default_rng(404)
    )
    rounds = sample_transcript(
        policy, truth, cfg, null_set, alt_set, 12, np.random.default_rng(404)
    )
    shared = min(out.rounds_used, len(rounds))
    assert shared >= 9
    for mine, theirs in zip(out.rounds[:shared], rounds[:shared]):
        assert mine.plan.descriptor == theirs.plan.descriptor
        assert mine.outcome == theirs.outcome
        assert mine.log_numerator_term == theirs.log_numerator_term
    assert list(out.log_slrs[:shared]) == [s.log_slr for s in rounds[:shared]]


# (null set, alternative set) pairs: point, interval and two-point nulls
RECOMPUTE_SETS = (
    ("{45}", "(45,180]"),
    ("[0,45]", "(45,180]"),
    ("{45,135}", "(45,135) (135,180]"),
)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    truth_angle=st.floats(0.0, 360.0, exclude_max=True),
    kind=st.sampled_from(("aLHT", "aLHT+", "aLVT")),
    est=st.sampled_from(("computational", "sic")),
    sets=st.sampled_from(RECOMPUTE_SETS),
    n_ic=st.integers(0, 2),
    n_joint=st.integers(1, 2),
    n_rounds=st.integers(1, 6),
)
def test_recorded_rounds_match_recompute_for_every_policy(
    seed, truth_angle, kind, est, sets, n_ic, n_joint, n_rounds
):
    cfg = FamilyConfig()
    null_set, alt_set = (parse_hypothesis_set(s) for s in sets)
    policy = PolicyConfig(kind=kind, n_ic=n_ic, n_joint=n_joint, estimation_povm=est)
    rounds = sample_transcript(
        policy, state_from_angle(cfg, truth_angle), cfg, null_set, alt_set, n_rounds,
        np.random.default_rng(seed),
    )
    engine_logs = np.array([s.log_slr for s in rounds])
    again = recompute_slr(rounds, cfg, null_set, alt_set, estimation_povm=est)
    assert float(np.max(np.abs(again - engine_logs))) <= 1e-9


def test_helstrom_bound_is_achieved():
    rng = np.random.default_rng(61)
    cfg = FamilyConfig()
    for _ in range(12):
        rho0 = state_from_angle(cfg, float(rng.uniform(0.0, 360.0)))
        rho1 = state_from_angle(cfg, float(rng.uniform(0.0, 360.0)))
        w = float(rng.uniform(0.05, 0.95))
        copies = int(rng.integers(1, 3))
        bound = helstrom_bound(rho0, rho1, w, copies)
        err = helstrom_error(rho0, rho1, w, copies)
        assert abs(bound - err) < 1e-9
        assert bound <= min(1.0 - w, w) + 1e-12


def test_helstrom_spot_value():
    err = helstrom_error(KET0, PLUS, 0.5)
    assert abs(err - (2.0 - math.sqrt(2.0)) / 4.0) < 1e-12
    assert abs(err - 0.14645) < 1e-5
