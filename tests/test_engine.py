"""Tests for the sequential split-likelihood-ratio engine."""

import gc
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhtest import engine, family, oracle
from qhtest.engine import (
    ACCEPT,
    BUDGET_EXHAUSTED,
    NUMERATOR_FLOOR,
    REJECT,
    PolicyConfig,
    RoundRecord,
    conservative_start,
    new_slr_state,
    numerator_log_term,
    one_sided_decision,
    predictable_estimate,
    run_sequential_test,
    slr_update,
    two_sided_decision,
)
from qhtest.errors import ConfigError, InconsistentTranscript, InvariantViolation, NotHermitian
from qhtest.family import (
    FamilyConfig,
    HypothesisSet,
    Piece,
    accumulate,
    build_grid,
    mle,
    outcome_coeffs,
    parse_hypothesis_set,
    state_from_angle,
)
from qhtest.harness import ExperimentConfig, run_sweep
from qhtest.quantum import (
    Povm,
    computational_basis_povm,
    sample_outcome,
    sic_povm_qubit,
    tensor_power,
)

CFG = FamilyConfig()
NULL_POINT = parse_hypothesis_set("{45}")
ALT_UPPER = parse_hypothesis_set("(45,180]")


def row(outcome):
    """Coefficient row of a single-copy computational-basis outcome."""
    return outcome_coeffs(CFG, computational_basis_povm(1).element(outcome))


def test_single_round_log_ratio_arithmetic():
    """One round with numerator probability 0.9 against a point null whose
    outcome probability is 0.3 gives log ratio log 3."""
    omega0 = math.degrees(math.acos(-0.4))  # p("0") = (1 + cos) / 2 = 0.3
    null_set = HypothesisSet(pieces=(Piece(omega0, omega0),))
    state = new_slr_state(null_set, ALT_UPPER)
    rec = RoundRecord(
        povm=computational_basis_povm(1),
        descriptor="computational(n=1)",
        outcome="0",
        coeffs=row("0"),
        log_numerator_term=math.log(0.9),
    )
    grids = (accumulate(state.null_grid, rec.coeffs), accumulate(state.alt_grid, rec.coeffs))
    state = slr_update(state, rec, grids)
    assert abs(state.log_slr - math.log(3.0)) < 1e-12
    assert state.frozen_log_numerator == math.log(0.9)
    assert len(state.rounds) == 1


def test_slr_update_rejects_positive_numerator_term():
    state = new_slr_state(NULL_POINT, ALT_UPPER)
    rec = RoundRecord(
        povm=computational_basis_povm(1),
        descriptor="computational(n=1)",
        outcome="0",
        coeffs=row("0"),
        log_numerator_term=0.1,
    )
    with pytest.raises(InvariantViolation):
        slr_update(state, rec, (state.null_grid, state.alt_grid))


def test_numerator_term_clamps_at_floor():
    # rho(180) is orthogonal to the |0><0| element, so the raw log diverges
    term = numerator_log_term(row("0"), 180.0)
    assert term == math.log(NUMERATOR_FLOOR)
    mild = numerator_log_term(row("0"), 90.0)
    assert abs(mild - math.log(0.5)) < 1e-12


def test_predictable_estimate_pre_data_default_is_segment_midpoint():
    grid = build_grid(ALT_UPPER)
    povm = computational_basis_povm(1)
    est = predictable_estimate(grid, CFG, povm)
    assert est == 112.5
    # a grid angle, and no data behind it yet
    assert grid.per_angle_loglik[np.flatnonzero(grid.angles == est)].tolist() == [0.0]
    split = build_grid(parse_hypothesis_set("(45,135) (135,180)"))
    assert predictable_estimate(split, CFG, povm) == 90.0


def test_predictable_estimate_override_snaps_to_grid():
    grid = build_grid(ALT_UPPER)
    povm = computational_basis_povm(1)
    assert predictable_estimate(grid, CFG, povm, override_angle=46.2) == 46.0
    # the override applies only before data; afterwards the fit wins
    seen = accumulate(grid, row("1"))
    fit = predictable_estimate(seen, CFG, povm)
    assert predictable_estimate(seen, CFG, povm, override_angle=46.2) == fit
    assert fit > 112.5


def test_regularized_estimate_avoids_zero_probability_angles():
    """After a single '1' outcome the raw grid MLE sits at 180 degrees, an
    angle that predicts probability exactly zero for the next '0'. The
    regularized estimate must keep every estimation outcome possible."""
    povm = computational_basis_povm(1)
    grid = accumulate(build_grid(ALT_UPPER), row("1"))
    raw = float(grid.angles[np.argmax(grid.per_angle_loglik)])
    assert raw == 180.0
    reg = predictable_estimate(grid, CFG, povm)
    assert reg < 180.0
    p0 = math.exp(numerator_log_term(row("0"), reg))
    p1 = math.exp(numerator_log_term(row("1"), reg))
    assert min(p0, p1) > 1e-6
    # the data still dominates: the estimate stays in the upper half
    assert reg > 112.5


def test_pseudo_regularizer_follows_the_family():
    """One grid read under two families gives each family its own regularizer.

    Each vector equals the one a separately built grid, with an empty
    cache, gives for that family.
    """
    povm = computational_basis_povm(1)
    shared = build_grid(ALT_UPPER)
    for cfg in (FamilyConfig(), FamilyConfig(0.3, 0.9)):
        fresh = family.ParamGrid(shared.angles, np.zeros(len(shared.angles)), shared.segments)
        assert np.array_equal(
            engine._pseudo_loglik(shared, cfg, povm), engine._pseudo_loglik(fresh, cfg, povm)
        )


def test_conservative_start_picks_angle_facing_the_other_set():
    grid = build_grid(ALT_UPPER)
    assert conservative_start(grid, NULL_POINT) == 45.5
    split_alt = build_grid(parse_hypothesis_set("(45,135) (135,180)"))
    two_points = parse_hypothesis_set("{45,135}")
    assert conservative_start(split_alt, two_points) == 45.5
    # a point grid can only return its point
    assert conservative_start(build_grid(NULL_POINT), ALT_UPPER) == 45.0


def test_policy_config_validation():
    with pytest.raises(ConfigError):
        PolicyConfig(kind="nope")
    with pytest.raises(ConfigError):
        PolicyConfig(kind="aLHT", estimation_povm="bell")
    with pytest.raises(ConfigError):
        PolicyConfig(kind="aLHT", n_ic=-1)
    with pytest.raises(ConfigError):
        PolicyConfig(kind="aLHT", n_joint=0)
    with pytest.raises(ConfigError):
        PolicyConfig(kind="aLVT", theta_grid_size=0)


def test_decision_boundaries_are_inclusive():
    eps0 = 0.05
    edge = math.log(1.0 / eps0)
    assert one_sided_decision(edge, eps0)
    assert one_sided_decision(edge + 1e-9, eps0)
    assert not one_sided_decision(edge - 1e-9, eps0)
    with pytest.raises(ConfigError):
        one_sided_decision(0.0, 1.5)


def test_two_sided_decision_branches():
    edge = math.log(1.0 / 0.05)
    assert two_sided_decision(edge, 0.0, 0.05, 0.05) == REJECT
    assert two_sided_decision(0.0, edge, 0.05, 0.05) == ACCEPT
    assert two_sided_decision(1.0, 1.0, 0.05, 0.05) == "continue"
    with pytest.raises(InvariantViolation):
        two_sided_decision(edge, edge, 0.05, 0.05)
    with pytest.raises(ConfigError):
        two_sided_decision(0.0, 0.0, 0.0, 0.05)
    # each level is checked, not only the smaller one
    with pytest.raises(ConfigError):
        two_sided_decision(0.0, 0.0, 0.05, 1.5)
    with pytest.raises(ConfigError):
        two_sided_decision(0.0, 0.0, 3.0, 0.05)


def test_block_structure_and_budget_exhaustion():
    policy = PolicyConfig(kind="aLHT+", n_ic=2, n_joint=3)
    out = run_sequential_test(
        policy,
        state_from_angle(CFG, 90.0),
        CFG,
        NULL_POINT,
        ALT_UPPER,
        eps0=1e-9,
        budget=15,
        rng=np.random.default_rng(0),
    )
    assert out.decision == BUDGET_EXHAUSTED
    assert out.copies_used == 15
    assert out.rounds_used == 9
    assert [row.copies for row in out.rounds] == [1, 1, 3] * 3
    for row in out.rounds:
        if row.copies == 1:
            assert row.descriptor == "computational(n=1)"
        else:
            assert row.descriptor.startswith("helstrom(")


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(("aLHT", "aLHT+", "aLVT")),
    n_ic=st.integers(0, 3),
    n_joint=st.integers(1, 3),
    budget=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    two_sided=st.booleans(),
)
def test_budget_accounting(kind, n_ic, n_joint, budget, seed, two_sided):
    """Copies are tallied per round off each round's measurement and never pass the budget."""
    policy = PolicyConfig(
        kind=kind, n_ic=n_ic, n_joint=n_joint, lambda_grid_size=9, theta_grid_size=36
    )
    out = run_sequential_test(
        policy,
        state_from_angle(CFG, 100.0),
        CFG,
        NULL_POINT,
        ALT_UPPER,
        eps0=0.05,
        budget=budget,
        rng=np.random.default_rng(seed),
        eps1=0.05 if two_sided else None,
    )

    def block_copies(t):
        return 1 if t % (n_ic + 1) < n_ic else n_joint

    assert out.copies_used <= budget
    assert out.copies_used == sum(r.copies for r in out.rounds)
    for t, r in enumerate(out.rounds):
        assert r.copies == block_copies(t)
        assert 2**r.copies == r.povm.dim
        assert len(r.coeffs) == 2 * r.copies + 1
    if out.decision == BUDGET_EXHAUSTED:
        assert out.copies_used + block_copies(out.rounds_used) > budget


@pytest.mark.parametrize(
    "kind, estimation, budget, decision",
    [
        ("aLHT", "computational", 60, REJECT),
        ("aLHT+", "sic", 60, REJECT),
        ("aLVT", "computational", 60, REJECT),
        ("aLHT+", "computational", 15, BUDGET_EXHAUSTED),
    ],
)
def test_outcome_transcript_replays_to_its_log_ratios(kind, estimation, budget, decision):
    """A run's rounds, recomputed from scratch, give its per-round log ratios."""
    policy = PolicyConfig(
        kind=kind, estimation_povm=estimation, initial_alt_angle=45.5, theta_grid_size=90
    )
    out = run_sequential_test(
        policy,
        state_from_angle(CFG, 90.0),
        CFG,
        NULL_POINT,
        ALT_UPPER,
        eps0=0.05 if decision == REJECT else 1e-9,
        budget=budget,
        rng=np.random.default_rng(8),
    )
    assert out.decision == decision
    if decision == REJECT:
        assert out.copies_used < budget
    assert out.rounds_used == len(out.rounds) == len(out.log_slrs)
    assert out.final_log_slr == out.log_slrs[-1]
    redone = oracle.recompute_slr(
        out.rounds,
        CFG,
        NULL_POINT,
        ALT_UPPER,
        initial_alt_angle=policy.initial_alt_angle,
        estimation_povm=policy.estimation_povm,
    )
    assert np.max(np.abs(redone - np.array(out.log_slrs))) < 1e-9


def test_budget_contract_holds_for_random_policies():
    rng = np.random.default_rng(100)
    for _ in range(12):
        policy = PolicyConfig(
            kind=("aLHT", "aLHT+", "aLVT")[int(rng.integers(3))],
            n_ic=int(rng.integers(0, 4)),
            n_joint=int(rng.integers(1, 4)),
            lambda_grid_size=19,
            theta_grid_size=24,
        )
        budget = int(rng.integers(1, 26))
        truth = state_from_angle(CFG, float(rng.uniform(0.0, 180.0)))
        out = run_sequential_test(
            policy, truth, CFG, NULL_POINT, ALT_UPPER,
            eps0=0.05, budget=budget, rng=rng,
        )
        assert out.copies_used <= budget
        assert out.decision in (REJECT, BUDGET_EXHAUSTED)
        assert out.rounds_used == 0 or out.copies_used > 0


def test_runs_are_deterministic_in_the_seed():
    policy = PolicyConfig(kind="aLHT", n_ic=2, n_joint=2)
    runs = [
        run_sequential_test(
            policy,
            state_from_angle(CFG, 120.0),
            CFG,
            NULL_POINT,
            ALT_UPPER,
            eps0=0.05,
            budget=30,
            rng=np.random.default_rng(777),
        )
        for _ in range(2)
    ]
    assert runs[0].decision == runs[1].decision
    assert runs[0].copies_used == runs[1].copies_used
    assert runs[0].final_log_slr == runs[1].final_log_slr
    assert [r.outcome for r in runs[0].rounds] == [r.outcome for r in runs[1].rounds]
    assert [r.descriptor for r in runs[0].rounds] == [r.descriptor for r in runs[1].rounds]


def test_alht_redraws_weight_every_block():
    policy = PolicyConfig(kind="aLHT", n_ic=0, n_joint=2)
    out = run_sequential_test(
        policy,
        state_from_angle(CFG, 90.0),
        CFG,
        NULL_POINT,
        ALT_UPPER,
        eps0=1e-9,
        budget=12,
        rng=np.random.default_rng(3),
    )
    lams = [row.descriptor.split("lam=")[1].rstrip(")") for row in out.rounds]
    assert len(lams) == 6
    assert len(set(lams)) > 1


def test_two_sided_run_accepts_under_the_null():
    policy = PolicyConfig(kind="aLHT+", n_ic=6, n_joint=4)
    well_separated = parse_hypothesis_set("[90,180]")
    out = run_sequential_test(
        policy,
        state_from_angle(CFG, 45.0),
        CFG,
        NULL_POINT,
        well_separated,
        eps0=0.05,
        budget=200,
        rng=np.random.default_rng(21),
        eps1=0.05,
    )
    assert out.decision == ACCEPT
    assert out.final_log_slr_rev >= math.log(1.0 / 0.05)
    assert out.final_log_slr < math.log(1.0 / 0.05)
    assert out.copies_used < 200


def test_two_sided_run_rejects_under_the_alternative():
    policy = PolicyConfig(kind="aLHT+", n_ic=6, n_joint=4)
    well_separated = parse_hypothesis_set("[90,180]")
    out = run_sequential_test(
        policy,
        state_from_angle(CFG, 135.0),
        CFG,
        NULL_POINT,
        well_separated,
        eps0=0.05,
        budget=200,
        rng=np.random.default_rng(22),
        eps1=0.05,
    )
    assert out.decision == REJECT
    assert out.final_log_slr >= math.log(1.0 / 0.05)


@pytest.mark.parametrize("kind, estimation", [("aLHT+", "computational"), ("aLVT", "sic")])
@pytest.mark.parametrize(
    "null, alt, truth",
    [("[0,45]", "(45,180]", 60.0), ("{45,135}", "(45,135) (135,180)", 100.0)],
)
def test_reversed_statistic_replays_to_its_final_log_ratio(kind, estimation, null, alt, truth):
    """A two-sided run's reversed statistic equals the from-scratch value with the sets swapped.

    The policy's initial_alt_angle moves only the forward statistic's first
    estimate; the reversed side starts from its own default angle.
    """
    policy = PolicyConfig(
        kind=kind, n_ic=2, n_joint=2, estimation_povm=estimation, initial_alt_angle=130.0,
        lambda_grid_size=19, theta_grid_size=36,
    )
    null_set, alt_set = parse_hypothesis_set(null), parse_hypothesis_set(alt)
    out = run_sequential_test(
        policy, state_from_angle(CFG, truth), CFG, null_set, alt_set, 1e-6, 20,
        np.random.default_rng(31), eps1=1e-6,
    )
    assert out.rounds_used >= 6
    redone = oracle.recompute_slr(
        out.rounds, CFG, alt_set, null_set, estimation_povm=estimation
    )
    assert abs(out.final_log_slr_rev - redone[-1]) < 1e-9


@pytest.mark.parametrize("eps1", [None, 0.05])
def test_each_round_is_folded_once_per_run(monkeypatch, eps1):
    """Two accumulate calls per round, one per grid, one-sided or two-sided:
    the reversed statistic reads the forward grids swapped."""
    calls = []
    real = engine.accumulate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(engine, "accumulate", counted)
    policy = PolicyConfig(kind="aLHT+", n_ic=2, n_joint=2, lambda_grid_size=9)
    out = run_sequential_test(
        policy, state_from_angle(CFG, 30.0), CFG, parse_hypothesis_set("[0,45]"), ALT_UPPER,
        1e-6, 30, np.random.default_rng(3), eps1=eps1,
    )
    assert out.rounds_used >= 15
    assert len(calls) == 2 * out.rounds_used


def test_observe_round_refuses_a_reversed_state_with_other_grids():
    policy = PolicyConfig(kind="aLHT+", n_ic=2, n_joint=2, lambda_grid_size=9)
    s0 = new_slr_state(NULL_POINT, ALT_UPPER)
    memo = {}
    plan = engine.next_measurement(policy, s0, CFG, None, memo)
    for s1 in (
        new_slr_state(ALT_UPPER, parse_hypothesis_set("[0,45]")),
        engine.SlrState(null_grid=s0.null_grid, alt_grid=s0.alt_grid),
    ):
        with pytest.raises(InvariantViolation):
            engine.observe_round(policy, CFG, plan, "0", s0, s1, memo)
    swapped = engine.SlrState(null_grid=s0.alt_grid, alt_grid=s0.null_grid)
    _, s1 = engine.observe_round(policy, CFG, plan, "0", s0, swapped, memo)
    assert len(s1.rounds) == 1


@pytest.mark.parametrize("kind", ["aLHT", "aLHT+", "aLVT"])
def test_a_memo_shared_across_hypothesis_pairs_changes_no_run(kind, monkeypatch):
    """Runs of several hypothesis pairs through one memo equal fresh-memo runs bit for bit.

    The pairs share lattices in both roles: (45,180] is the alternative of
    two pairs and the null of the reversed point pair, and {45} is the null
    of two pairs. So a reduced outcome's log vectors must be keyed on both
    lattices, in order. Each seed is replayed three times, interleaved with
    two truths and two budgets, so later replays read prefixes the tree
    kept under another truth or budget, one- and two-sided alike.
    """
    cfg = FamilyConfig(r_z=0.9, r_x=0.7)
    pairs = [
        ("{45}", "(45,180]"),
        ("[0,45]", "(45,180]"),
        ("(45,180]", "{45}"),
        ("{45,135}", "(45,135) (135,180)"),
        ("{45}", "[90,180]"),
    ]
    policy = PolicyConfig(
        kind=kind, n_ic=2, n_joint=2, lambda_grid_size=9, theta_grid_size=36
    )
    truths = {angle: state_from_angle(cfg, angle) for angle in (100.0, 45.0)}
    folds = []
    real_observe = engine.observe_round

    def observe_round(*args):
        folds[-1] += 1
        return real_observe(*args)

    monkeypatch.setattr(engine, "observe_round", observe_round)
    # room for every pair's prefixes, so each pair's replays are served
    monkeypatch.setattr(engine, "PREFIX_TREE_FLOATS", 1 << 22)

    shared = {}
    for null, alt in pairs:
        null_set, alt_set = parse_hypothesis_set(null), parse_hypothesis_set(alt)
        for eps1 in (None, 0.05):
            fresh = {}
            for replay in range(3):
                folds.append(0)
                for seed in (1, 2):
                    for angle, budget in ((100.0, 24), (45.0, 8), (45.0, 24), (100.0, 8)):
                        def run(memo):
                            return run_transcript(run_sequential_test(
                                policy, truths[angle], cfg, null_set, alt_set, 1e-3, budget,
                                np.random.default_rng([seed, len(null)]), eps1=eps1, memo=memo,
                            ))

                        case = (seed, angle, budget)
                        if case not in fresh:
                            folds.append(0)
                            fresh[case] = run({})
                            folds.pop()
                        assert run(shared) == fresh[case], (null, alt, eps1, replay, case)
            assert folds[-1] < folds[-3], (null, alt, eps1, folds[-3:])
    assert any(key[0] == "outcome" for key in shared if isinstance(key, tuple))


@pytest.mark.parametrize("eps1", [None, 0.05])
@pytest.mark.parametrize("kind", ["aLHT", "aLHT+", "aLVT"])
def test_a_warm_trial_memo_replays_a_run_without_folding(kind, eps1, monkeypatch):
    """From its third run on, a seed run through one memo reads every prefix
    from the prefix tree: it folds no round, except aLHT's rounds from its
    first joint round on, whose fresh weight keeps the tree from planning
    them. Six seeds share the four two-round openings, so runs that part
    only at a joint round meet in the tree."""
    policy = PolicyConfig(kind=kind, n_ic=2, n_joint=2, lambda_grid_size=9, theta_grid_size=36)
    truth = state_from_angle(CFG, 60.0)
    folds = [0]
    real_observe = engine.observe_round

    def observe_round(*args):
        folds[0] += 1
        return real_observe(*args)

    def run(seed, memo):
        folds[0] = 0
        out = run_sequential_test(policy, truth, CFG, NULL_POINT, ALT_UPPER, 1e-3, 24,
                                  np.random.default_rng(seed), eps1=eps1, memo=memo)
        return run_transcript(out), folds[0]

    monkeypatch.setattr(engine, "observe_round", observe_round)
    fresh = {seed: run(seed, {}) for seed in range(6)}
    memo = {}
    for replay in range(4):
        for seed, (want, rounds) in fresh.items():
            assert len(want[2]) == rounds > policy.n_ic
            got, folded = run(seed, memo)
            assert got == want, (replay, seed)
            if replay >= 2:
                assert folded == (rounds - policy.n_ic if policy.random_design else 0)


@pytest.mark.parametrize("kind", ["aLHT+", "aLVT"])
def test_the_prefix_tree_stops_growing_at_its_budget(kind, monkeypatch):
    """A small float budget fills, the tree grows no further, and every run
    still equals a fresh-memo run."""
    budget = 3000
    monkeypatch.setattr(engine, "PREFIX_TREE_FLOATS", budget)
    policy = PolicyConfig(kind=kind, n_ic=2, n_joint=2, lambda_grid_size=9, theta_grid_size=36)
    truth = state_from_angle(CFG, 60.0)
    memo, grown = {}, []
    for replay in range(3):
        for seed in range(6):
            got, want = (
                run_sequential_test(policy, truth, CFG, NULL_POINT, ALT_UPPER, 1e-3, 24,
                                    np.random.default_rng(seed), eps1=0.05, memo=m)
                for m in (memo, {})
            )
            assert run_transcript(got) == run_transcript(want)
            grown.append(memo["prefix tree"].floats)
    assert max(grown) <= budget
    assert grown[-1] == grown[len(grown) // 2] > budget - 2 * (1 + 270 + engine._NODE_FLOATS)


def test_sic_estimation_rounds():
    policy = PolicyConfig(kind="aLVT", n_ic=2, n_joint=2, estimation_povm="sic",
                          theta_grid_size=24)
    out = run_sequential_test(
        policy,
        state_from_angle(CFG, 150.0),
        CFG,
        NULL_POINT,
        ALT_UPPER,
        eps0=0.05,
        budget=10,
        rng=np.random.default_rng(5),
    )
    assert out.rounds[0].descriptor == "sic(n=1)"
    assert out.rounds[0].outcome in (0, 1, 2, 3)
    joint = [r for r in out.rounds if r.copies == 2]
    assert all(r.descriptor.startswith("variational(theta=") for r in joint)


@pytest.mark.parametrize("kind", ["aLHT", "aLHT+", "aLVT"])
def test_a_nan_truth_is_refused_before_any_draw(kind, monkeypatch):
    """A NaN truth raises, with a fresh memo or one that holds a valid truth's laws."""
    policy = PolicyConfig(kind=kind, n_ic=2, n_joint=2, lambda_grid_size=9, theta_grid_size=36)
    memo = {}
    run_sequential_test(policy, state_from_angle(CFG, 90.0), CFG, NULL_POINT, ALT_UPPER,
                        0.05, 8, np.random.default_rng(0), memo=memo)
    monkeypatch.setattr(engine, "sample_outcome", None)
    for truth in (np.full((2, 2), np.nan), np.diag([np.nan, 0.5])):
        for trial_memo in (memo, {}, None):
            with pytest.raises(NotHermitian):
                run_sequential_test(policy, truth, CFG, NULL_POINT, ALT_UPPER, 0.05, 8,
                                    np.random.default_rng(0), memo=trial_memo)


def test_run_sequential_test_validates_inputs():
    policy = PolicyConfig(kind="aLHT")
    truth = state_from_angle(CFG, 90.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        run_sequential_test(policy, truth, CFG, NULL_POINT, ALT_UPPER, 0.0, 10, rng)
    with pytest.raises(ConfigError):
        run_sequential_test(policy, truth, CFG, NULL_POINT, ALT_UPPER, 0.05, 0, rng)
    with pytest.raises(ConfigError):
        run_sequential_test(
            policy, truth, CFG, NULL_POINT, parse_hypothesis_set("[45,180]"), 0.05, 10, rng
        )
    with pytest.raises(ConfigError):
        run_sequential_test(
            policy, tensor_power(truth, 2), CFG, NULL_POINT, ALT_UPPER, 0.05, 10, rng
        )


def test_a_state_refines_its_null_mle_only_when_read(monkeypatch):
    """observe_round refines nothing; the first read of null_mle or log_slr
    refines the null grid once, and later reads reuse it."""
    calls = []
    real_mle = engine.mle

    def counted(grid):
        calls.append(grid)
        return real_mle(grid)

    monkeypatch.setattr(engine, "mle", counted)
    policy = PolicyConfig(kind="aLHT+", n_ic=2, n_joint=2, lambda_grid_size=9)
    s0 = new_slr_state(parse_hypothesis_set("[0,45]"), ALT_UPPER)
    s1 = engine.SlrState(null_grid=s0.alt_grid, alt_grid=s0.null_grid)
    memo = {}
    for outcome in ("0", "1"):  # two estimation rounds, whose plans read no null estimate
        plan = engine.next_measurement(policy, s0, CFG, None, memo)
        s0, s1 = engine.observe_round(policy, CFG, plan, outcome, s0, s1, memo)
    assert calls == []
    log_slr, null_mle = s0.log_slr, s0.null_mle
    assert len(calls) == 1 and calls[0] is s0.null_grid
    rev_mle, rev_log_slr = s1.null_mle, s1.log_slr
    assert len(calls) == 2 and calls[1] is s1.null_grid
    assert rev_log_slr == s1.frozen_log_numerator - rev_mle.loglik
    again = real_mle(s0.null_grid)
    assert null_mle == again
    assert log_slr == s0.frozen_log_numerator - again.loglik


def test_an_empty_state_reads_log_slr_zero():
    state = new_slr_state(parse_hypothesis_set("[0,45]"), ALT_UPPER)
    assert state.log_slr == 0.0
    assert state.null_mle.loglik == 0.0


@pytest.mark.parametrize("two_sided", [False, True])
def test_joint_rounds_reuse_the_refined_null_mle(monkeypatch, two_sided):
    """Every state's null_mle is its null grid's refined MLE, computed at
    most once per state; joint designs use it as w0.

    The run loop refines exactly the null grids of the forward states a
    joint design reads and of the states whose grid bound reached their
    threshold. The oracle's generator reads every forward statistic, so it
    refines every forward state. Only engine functions are patched; the
    oracle's generator takes the engine's round step, so they see its
    rounds as well.
    """
    null_set = parse_hypothesis_set("[0,45]")
    policy = PolicyConfig(kind="aLHT+", n_ic=2, n_joint=2, lambda_grid_size=9)
    states, designs, refined = [], [], []
    real_update, real_design, real_mle = engine.slr_update, engine._joint_design, engine.mle

    def counted_mle(grid):
        refined.append(grid)
        return real_mle(grid)

    def slr_update(state, rec, grids):
        states.append(real_update(state, rec, grids))
        return states[-1]

    def forward(state):
        # the forward statistic is the one whose null grid is [0,45]
        return state.null_grid.angles[-1] == 45.0

    def joint_design(policy, cfg, w0, w1, rng, memo):
        designs.append(([s for s in states if forward(s)][-1], w0))
        return real_design(policy, cfg, w0, w1, rng, memo)

    monkeypatch.setattr(engine, "slr_update", slr_update)
    monkeypatch.setattr(engine, "_joint_design", joint_design)
    monkeypatch.setattr(engine, "mle", counted_mle)
    truth = state_from_angle(CFG, 22.3)
    rng = np.random.default_rng(17)
    eps0, eps1 = 0.05, 0.25
    if two_sided:
        out = run_sequential_test(
            policy, truth, CFG, null_set, ALT_UPPER, eps0, 24, rng, eps1=eps1
        )
        assert out.decision == ACCEPT
        thresholds = {True: math.log(1.0 / eps0), False: math.log(1.0 / eps1)}
        crossed = [
            s for s in states
            if s.frozen_log_numerator - s.null_grid.per_angle_loglik.max()
            >= thresholds[forward(s)]
        ]
        assert len(crossed) == 1 and crossed[0] is out.reversed_state
        read = [s for s, _ in designs] + crossed
    else:
        oracle.sample_transcript(policy, truth, CFG, null_set, ALT_UPPER, 9, rng)
        read = states
    assert len(states) >= 9 and len(designs) >= 3
    # each grid that was read is refined once, and no other grid is
    assert sorted(id(g) for g in refined) == sorted(id(s.null_grid) for s in read)
    for state in states:
        again = mle(state.null_grid)
        assert state.null_mle.omega == again.omega
        assert state.null_mle.loglik == again.loglik
    for state, w0 in designs:
        assert len(state.rounds) % 3 == 2
        assert w0 == state.null_mle.omega


@pytest.mark.parametrize("eps1", [None, 0.05])
def test_an_outcome_refines_only_the_states_it_is_asked_for(monkeypatch, eps1):
    """final_log_slr and final_log_slr_rev refine one state each; log_slrs
    refines each forward state once over the run and its reads, and a
    second read refines nothing."""
    refined = []
    real_mle = engine.mle

    def counted(grid):
        refined.append(id(grid))
        return real_mle(grid)

    monkeypatch.setattr(engine, "mle", counted)
    policy = PolicyConfig(kind="aLHT+", n_ic=2, n_joint=2, lambda_grid_size=9)
    out = run_sequential_test(
        policy, state_from_angle(CFG, 22.3), CFG, parse_hypothesis_set("[0,45]"), ALT_UPPER,
        1e-6, 20, np.random.default_rng(5), eps1=eps1,
    )
    assert out.decision == BUDGET_EXHAUSTED and out.rounds_used >= 12
    during_run = len(refined)
    assert during_run == out.rounds_used // 3  # one per joint round
    final = out.final_log_slr
    assert refined[during_run:] == [id(out.states[-1].null_grid)]
    if eps1 is not None:
        final_rev = out.final_log_slr_rev
        assert refined[during_run + 1:] == [id(out.reversed_state.null_grid)]
        assert final_rev == out.reversed_state.frozen_log_numerator - mle(
            out.reversed_state.null_grid).loglik
    forward_reads = len(refined)
    log_slrs = out.log_slrs
    assert sorted(refined[:during_run + 1] + refined[forward_reads:]) == sorted(
        id(s.null_grid) for s in out.states
    )
    before = len(refined)
    assert out.log_slrs == log_slrs and log_slrs[-1] == final
    assert len(refined) == before


def reachable_references(root):
    """References held by the objects reachable from root. The walk does not
    enter arrays and POVMs, whose size does not grow with the rounds, nor
    classes, modules and functions, which lead out of the run."""
    opaque = (np.ndarray, Povm, type, types.ModuleType, types.FunctionType)
    seen = {id(root)}
    stack = [root]
    count = 0
    while stack:
        obj = stack.pop()
        if isinstance(obj, opaque):
            continue
        refs = gc.get_referents(obj)
        count += len(refs)
        for ref in refs:
            if id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)
    return count


@pytest.mark.parametrize("eps1", [None, 1e-6])
def test_a_run_stores_its_history_in_linear_space(eps1):
    """Doubling the budget of a run that goes to it at most doubles what its
    outcome holds (within 10%): each round is stored once, not once per state."""
    counts = []
    for budget in (100, 200):
        out = run_sequential_test(
            PolicyConfig(kind="aLHT+"), state_from_angle(CFG, 45.0), CFG,
            parse_hypothesis_set("{45}"), ALT_UPPER, 1e-6, budget,
            np.random.default_rng(7), eps1=eps1,
        )
        assert out.decision == BUDGET_EXHAUSTED and out.rounds_used == 7 * budget // 10
        counts.append(reachable_references(out))
    assert counts[1] <= 2.2 * counts[0]


# null, alternative, and an on-grid, an off-grid and an alternative truth
BOUND_CASES = {
    "point": ("{45}", "(45,180]", {"on": 45.0, "off": 30.0, "alt": 90.0}),
    "interval": ("[0,45]", "(45,180]", {"on": 22.5, "off": 22.3, "alt": 90.0}),
    "two-piece": (
        "[0,30] [120,150]", "(30,120) (150,180]", {"on": 15.0, "off": 131.3, "alt": 75.0}
    ),
}


def grid_bound(state):
    """The unrefined statistic: the numerator less the null grid's maximum."""
    return state.frozen_log_numerator - state.null_grid.per_angle_loglik.max()


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(sorted(BOUND_CASES)),
    truth=st.sampled_from(["on", "off", "alt"]),
    kind=st.sampled_from(["aLHT", "aLHT+", "aLVT"]),
    two_sided=st.booleans(),
    rounds=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    extra=st.floats(-20.0, 20.0),
)
def test_the_grid_bound_decides_like_the_refined_statistic(
    case, truth, kind, two_sided, rounds, seed, extra
):
    """For every state and threshold t, crossing_log_slr(t) >= t iff
    log_slr >= t, and where it is >= t it is log_slr bit for bit."""
    null, alt, truths = BOUND_CASES[case]
    null_set, alt_set = parse_hypothesis_set(null), parse_hypothesis_set(alt)
    policy = PolicyConfig(kind=kind, n_ic=1, n_joint=2, lambda_grid_size=9, theta_grid_size=36)
    memo, rng = {}, np.random.default_rng(seed)
    laws = engine.truth_laws(state_from_angle(CFG, truths[truth]), memo)
    s0 = new_slr_state(null_set, alt_set)
    s1 = engine.SlrState(null_grid=s0.alt_grid, alt_grid=s0.null_grid) if two_sided else None
    for _ in range(rounds):
        plan = engine.next_measurement(policy, s0, CFG, rng, memo)
        outcome = sample_outcome(laws.dist(plan.povm, plan.recurs), rng)
        s0, s1 = engine.observe_round(policy, CFG, plan, outcome, s0, s1, memo)
        for state in (s0, s1) if two_sided else (s0,):
            bound, log_slr = float(grid_bound(state)), state.log_slr
            assert bound >= log_slr
            ts = [extra, (bound + log_slr) / 2.0]
            for v in (log_slr, bound):
                ts += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
            for t in ts:
                value = state.crossing_log_slr(t)
                assert (value >= t) == (log_slr >= t), (t, value, log_slr)
                if value >= t:
                    assert float(value).hex() == float(log_slr).hex()


def reference_run(policy, truth, null_set, alt_set, eps0, budget, seed, eps1=None):
    """The run loop as it was when every round read each refined statistic:
    the decision, copies, rounds and log ratios, and for each round the
    refined statistic and grid bound of (forward, reversed)."""
    memo, rng = {}, np.random.default_rng(seed)
    s0 = new_slr_state(null_set, alt_set)
    s1 = None if eps1 is None else engine.SlrState(null_grid=s0.alt_grid, alt_grid=s0.null_grid)
    laws = engine.truth_laws(truth, memo)
    log_slrs, trace, copies_used, decision = [], [], 0, "continue"
    while decision == "continue":
        copies = 1 if policy.is_estimation_round(len(s0.rounds)) else policy.n_joint
        if copies_used + copies > budget:
            decision = BUDGET_EXHAUSTED
            break
        plan = engine.next_measurement(policy, s0, CFG, rng, memo)
        outcome = sample_outcome(laws.dist(plan.povm, plan.recurs), rng)
        s0, s1 = engine.observe_round(policy, CFG, plan, outcome, s0, s1, memo)
        copies_used += copies
        log_slrs.append(s0.log_slr)
        trace.append([(s.log_slr, grid_bound(s)) for s in (s0, s1) if s is not None])
        if s1 is None:
            decision = REJECT if one_sided_decision(s0.log_slr, eps0) else "continue"
        else:
            decision = two_sided_decision(s0.log_slr, s1.log_slr, eps0, eps1)
    final_rev = s1.log_slr if s1 is not None else None
    return (decision, copies_used, s0.rounds, log_slrs, final_rev), trace


def transcript(decision, copies_used, rounds, log_slrs, final_rev):
    rows = [(r.descriptor, r.outcome, r.coeffs.tobytes(), repr(r.log_numerator_term))
            for r in rounds]
    return decision, copies_used, rows, [repr(v) for v in log_slrs], repr(final_rev)


def run_transcript(out):
    """transcript of a TestOutcome."""
    return transcript(out.decision, out.copies_used, out.rounds, out.log_slrs,
                      out.final_log_slr_rev)


@pytest.mark.parametrize(
    "kind, truth, two_sided, side",
    [("aLHT+", 90.0, False, 0), ("aLHT+", 90.0, True, 0), ("aLHT", 22.3, True, 1)],
)
def test_a_bound_crossing_without_a_refined_crossing_continues(
    monkeypatch, kind, truth, two_sided, side
):
    """At a round whose grid bound reaches the threshold but whose refined
    statistic does not, the run loop refines, continues, and gives the
    reference loop's transcript bit for bit."""
    policy = PolicyConfig(kind=kind, n_ic=2, n_joint=2, lambda_grid_size=9)
    null_set, budget = parse_hypothesis_set("[0,45]"), 30
    truth = state_from_angle(CFG, truth)
    never = 1e-300

    def crossing_round(trace):
        # the first round k, followed by an estimation round, whose bound lies
        # above 0, its refined statistic and every earlier one
        top = 0.0
        for k, sides in enumerate(trace, start=1):
            log_slr, bound = sides[side]
            top = max(top, log_slr)
            if bound > top and policy.is_estimation_round(k) and k < len(trace):
                return k, top, bound
        return None

    for seed in range(20):
        _, trace = reference_run(
            policy, truth, null_set, ALT_UPPER, never, budget, seed,
            eps1=never if two_sided else None,
        )
        found = crossing_round(trace)
        if found is not None:
            break
    assert found is not None
    k, top, bound = found
    eps = math.exp(-(top + bound) / 2.0)
    threshold = math.log(1.0 / eps)
    assert top < threshold < bound and 0.0 < eps < 1.0
    eps0, eps1 = (eps, never if two_sided else None) if side == 0 else (never, eps)
    want, _ = reference_run(policy, truth, null_set, ALT_UPPER, eps0, budget, seed, eps1=eps1)

    states, refined = [], []
    real_update, real_mle = engine.slr_update, engine.mle

    def slr_update(state, rec, grids):
        states.append(real_update(state, rec, grids))
        return states[-1]

    def counted(grid):
        refined.append(id(grid))
        return real_mle(grid)

    monkeypatch.setattr(engine, "slr_update", slr_update)
    monkeypatch.setattr(engine, "mle", counted)
    out = run_sequential_test(
        policy, truth, CFG, null_set, ALT_UPPER, eps0, budget,
        np.random.default_rng(seed), eps1=eps1,
    )
    assert out.rounds_used > k
    # round k + 1 is an estimation round, so no design read round k's state:
    # the loop refined it because its bound reached the threshold
    state = states[(k - 1) * (2 if two_sided else 1) + side]
    assert id(state.null_grid) in refined
    assert grid_bound(state) >= threshold > state.log_slr
    assert run_transcript(out) == transcript(*want)


def test_record_round_rejects_wrong_dimension():
    """A POVM acts on whole qubits: a 3-dimensional one has no copy count."""
    qutrit = Povm(labels=(0, 1, 2), elements=tuple(np.diag(np.eye(3)[k]) for k in range(3)))
    with pytest.raises(InconsistentTranscript):
        engine.outcome_row(CFG, qutrit, 0)


def test_record_round_rejects_unknown_outcome():
    with pytest.raises(InconsistentTranscript):
        engine.outcome_row(CFG, computational_basis_povm(1), "2")


@pytest.mark.parametrize("kind", ["aLHT", "aLHT+", "aLVT"])
def test_record_round_reduces_each_outcome_once(monkeypatch, kind):
    """At most one outcome_coeffs call per observed round, and one per distinct
    (POVM, outcome) in a trial; the numerator and both grids read that row.

    Each statistic also fits its predictable angle once per round: the
    forward one when the round is planned, for its joint design and its
    numerator alike. A two-sided run records every round in two
    statistics, fits two angles and still reduces each outcome once. A
    later run sharing the trial's memo reduces only aLHT's joint outcomes,
    whose POVMs never recur.
    """
    policy = PolicyConfig(
        kind=kind, n_ic=2, n_joint=3, estimation_povm="sic",
        lambda_grid_size=9, theta_grid_size=36,
    )
    est = engine.estimation_povm("sic")
    state = new_slr_state(parse_hypothesis_set("[0,45]"), ALT_UPPER)
    # build the estimate regularizer now; every later grid shares its cache
    engine._pseudo_loglik(state.alt_grid, CFG, est)
    calls, fits = [], []
    real, real_fit = family.outcome_coeffs, engine.predictable_estimate

    def counted(*args):
        calls.append(args)
        return real(*args)

    def counted_fit(*args):
        fits.append(args)
        return real_fit(*args)

    def distinct_outcomes(rounds):
        # records hold their POVMs, so no two of them share an id
        return len({(id(rec.povm), rec.outcome) for rec in rounds})

    for module in (engine, family):
        monkeypatch.setattr(module, "outcome_coeffs", counted)
    monkeypatch.setattr(engine, "predictable_estimate", counted_fit)
    truth = state_from_angle(CFG, 100.0)
    memo = {}
    laws = engine.truth_laws(truth, memo)
    rng = np.random.default_rng(5)
    for t in range(1, 10):
        copies = policy.n_joint if t % 3 == 0 else 1
        w = real_fit(state.alt_grid, CFG, est)
        plan = engine.next_measurement(policy, state, CFG, rng, memo)
        assert plan.alt_angle == w
        outcome = sample_outcome(laws.dist(plan.povm, plan.recurs), rng)
        state, _ = engine.observe_round(policy, CFG, plan, outcome, state, None, memo)
        assert len(calls) == distinct_outcomes(state.rounds) <= t
        assert len(fits) == t
        rec = state.rounds[-1]
        assert rec.copies == copies
        assert state.null_grid.rounds[-1] is rec.coeffs
        assert state.alt_grid.rounds[-1] is rec.coeffs
        assert rec.log_numerator_term == numerator_log_term(rec.coeffs, w)
    assert len(calls) < 9

    # Count only the engine's reductions: new grids also build their
    # estimate regularizer through family.outcome_coeffs.
    monkeypatch.setattr(family, "outcome_coeffs", real)
    calls.clear()
    fits.clear()
    null_set = parse_hypothesis_set("[0,45]")
    memo = {}
    rng = np.random.default_rng(5)
    out = run_sequential_test(
        policy, truth, CFG, null_set, ALT_UPPER, 0.05, 30, rng, eps1=0.05, memo=memo
    )
    assert out.rounds_used > 9
    assert len(calls) == distinct_outcomes(out.rounds) < out.rounds_used
    assert len(fits) == 2 * out.rounds_used
    calls.clear()
    rng = np.random.default_rng(5)
    again = run_sequential_test(
        policy, truth, CFG, null_set, ALT_UPPER, 0.05, 30, rng, eps1=0.05, memo=memo
    )
    assert [r.outcome for r in again.rounds] == [r.outcome for r in out.rounds]
    fresh = [r for r in again.rounds if kind == "aLHT" and r.copies == policy.n_joint]
    assert len(calls) == len(fresh)


@pytest.mark.parametrize("truth", [22.3, 44.75])
def test_interval_null_size_with_off_grid_truth(truth):
    """Type-I error stays inside its Monte Carlo band for null truths off the grid.

    The denominator is a grid maximum refined only around the argmax cell;
    44.75 sits half a grid step inside the boundary that faces the
    alternative, where a coarse maximum would leak the most.
    """
    assert_size_band(parse_hypothesis_set("[0,45]"), ALT_UPPER, truth, ("aLHT", "aLHT+", "aLVT"))


@pytest.mark.parametrize("truth", [22.5, 45.0])
def test_interval_null_size_with_on_grid_truth(truth):
    """Type-I error stays inside its Monte Carlo band for null truths on the grid.

    45.0 is the closed endpoint that faces the alternative.
    """
    assert_size_band(parse_hypothesis_set("[0,45]"), ALT_UPPER, truth, ("aLHT", "aLHT+", "aLVT"))


@pytest.mark.parametrize("truth", [45.0, 135.0])
def test_two_point_null_size_at_each_point(truth):
    """Type-I error stays inside its Monte Carlo band at either point of a two-point null.

    The alternative surrounds 135 on both sides, so each point of the null
    is approached by alternative angles.
    """
    assert_size_band(
        parse_hypothesis_set("{45,135}"),
        parse_hypothesis_set("(45,135) (135,180)"),
        truth,
        ("aLHT", "aLHT+", "aLVT", "LVT"),
    )


def assert_size_band(null_set, alt_set, truth, methods, runs=100):
    """Each method's rejection rate at a null truth is within eps0 + 3 standard errors.

    Budget 40, eps0 0.05 and master seed 11; with 100 runs the band is 0.115.
    """
    config = ExperimentConfig(
        null_set=null_set,
        alt_set=alt_set,
        truth_omega=truth,
        methods=methods,
        budgets=(40,),
        runs=runs,
        eps0=0.05,
        master_seed=11,
    )
    bound = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / runs)
    for r in run_sweep(config):
        assert r.power <= bound, (r.method, r.power)


@pytest.mark.parametrize("truth", [45.2, 45.5])
@pytest.mark.parametrize("kind", ["aLHT", "aLHT+", "aLVT"])
def test_two_sided_acceptance_rate_at_alternative_truths(kind, truth):
    """The reversed statistic's error (accepting a true alternative) stays inside its band.

    `[0,45]` is the alternative of the reversed test, so truths just above
    45 probe the eps1 side where it is closest to the null. Budget 40,
    eps0 = eps1 = 0.05 and 100 runs; the band is eps1 + 3 standard errors,
    0.115, the formula of assert_size_band.
    """
    runs = 100
    policy = PolicyConfig(kind=kind, initial_alt_angle=45.5)
    null_set = parse_hypothesis_set("[0,45]")
    state = state_from_angle(CFG, truth)
    accepted = sum(
        run_sequential_test(
            policy, state, CFG, null_set, ALT_UPPER, 0.05, 40,
            np.random.default_rng([11, r]), eps1=0.05,
        ).decision == ACCEPT
        for r in range(runs)
    )
    assert accepted / runs <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / runs), accepted
