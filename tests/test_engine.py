"""Tests for the sequential split-likelihood-ratio engine."""

import math

import numpy as np
import pytest

from qhtest import engine, oracle
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
from qhtest.errors import ConfigError, InvariantViolation
from qhtest.family import (
    FamilyConfig,
    HypothesisSet,
    Piece,
    build_grid,
    mle,
    parse_hypothesis_set,
    state_from_angle,
)
from qhtest.quantum import computational_basis_povm, sic_povm_qubit

CFG = FamilyConfig()
NULL_POINT = parse_hypothesis_set("{45}")
ALT_UPPER = parse_hypothesis_set("(45,180]")


def test_single_round_log_ratio_arithmetic():
    """One round with numerator probability 0.9 against a point null whose
    outcome probability is 0.3 gives log ratio log 3."""
    omega0 = math.degrees(math.acos(-0.4))  # p("0") = (1 + cos) / 2 = 0.3
    null_set = HypothesisSet(pieces=(Piece(omega0, omega0),))
    state = new_slr_state(null_set, ALT_UPPER)
    rec = RoundRecord(
        index=1,
        povm=computational_basis_povm(1),
        descriptor="computational(n=1)",
        copies=1,
        outcome="0",
        log_numerator_term=math.log(0.9),
    )
    state, log_slr = slr_update(state, rec, CFG)
    assert abs(log_slr - math.log(3.0)) < 1e-12
    assert state.frozen_log_numerator == math.log(0.9)
    assert len(state.rounds) == 1


def test_slr_update_rejects_positive_numerator_term():
    state = new_slr_state(NULL_POINT, ALT_UPPER)
    rec = RoundRecord(
        index=1,
        povm=computational_basis_povm(1),
        descriptor="computational(n=1)",
        copies=1,
        outcome="0",
        log_numerator_term=0.1,
    )
    with pytest.raises(InvariantViolation):
        slr_update(state, rec, CFG)


def test_numerator_term_clamps_at_floor():
    # rho(180) is orthogonal to the |0><0| element, so the raw log diverges
    povm = computational_basis_povm(1)
    term = numerator_log_term(CFG, 180.0, povm.element("0"), 1)
    assert term == math.log(NUMERATOR_FLOOR)
    mild = numerator_log_term(CFG, 90.0, povm.element("0"), 1)
    assert abs(mild - math.log(0.5)) < 1e-12


def test_predictable_estimate_pre_data_default_is_segment_midpoint():
    grid = build_grid(ALT_UPPER)
    est = predictable_estimate(grid, CFG, has_rounds=False)
    assert est.omega == 112.5
    assert est.loglik == 0.0
    split = build_grid(parse_hypothesis_set("(45,135) (135,180)"))
    assert predictable_estimate(split, CFG, has_rounds=False).omega == 90.0


def test_predictable_estimate_override_snaps_to_grid():
    grid = build_grid(ALT_UPPER)
    est = predictable_estimate(grid, CFG, has_rounds=False, override_angle=46.2)
    assert est.omega == 46.0
    # the override applies only before data; afterwards the fit wins
    # (flat likelihood here, so the raw MLE tie-breaks to the smallest angle)
    assert predictable_estimate(grid, CFG, True, override_angle=46.2).omega == 45.5


def test_regularized_estimate_avoids_zero_probability_angles():
    """After a single '1' outcome the raw grid MLE sits at 180 degrees, an
    angle that predicts probability exactly zero for the next '0'. The
    regularized estimate must keep every estimation outcome possible."""
    from qhtest.family import accumulate

    povm = computational_basis_povm(1)
    grid = accumulate(build_grid(ALT_UPPER), CFG, povm, 1, "1")
    raw = predictable_estimate(grid, CFG, has_rounds=True)
    assert raw.omega == 180.0
    reg = predictable_estimate(grid, CFG, has_rounds=True, estimation_povm=povm)
    assert reg.omega < 180.0
    p0 = math.exp(numerator_log_term(CFG, reg.omega, povm.element("0"), 1))
    p1 = math.exp(numerator_log_term(CFG, reg.omega, povm.element("1"), 1))
    assert min(p0, p1) > 1e-6
    # the data still dominates: the estimate stays in the upper half
    assert reg.omega > 112.5


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
        collect_trace=True,
    )
    assert out.decision == BUDGET_EXHAUSTED
    assert out.copies_used == 15
    assert out.rounds_used == 9
    assert [row.copies for row in out.trace] == [1, 1, 3] * 3
    for row in out.trace:
        if row.copies == 1:
            assert row.descriptor == "computational(n=1)"
        else:
            assert row.descriptor.startswith("helstrom(")


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
            collect_trace=True,
        )
        for _ in range(2)
    ]
    assert runs[0].decision == runs[1].decision
    assert runs[0].copies_used == runs[1].copies_used
    assert runs[0].final_log_slr == runs[1].final_log_slr
    assert [r.outcome for r in runs[0].trace] == [r.outcome for r in runs[1].trace]
    assert [r.descriptor for r in runs[0].trace] == [r.descriptor for r in runs[1].trace]


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
        collect_trace=True,
    )
    lams = [row.descriptor.split("lam=")[1].rstrip(")") for row in out.trace]
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
        collect_trace=True,
    )
    assert out.trace[0].descriptor == "sic(n=1)"
    assert out.trace[0].outcome in (0, 1, 2, 3)
    joint = [r for r in out.trace if r.copies == 2]
    assert all(r.descriptor.startswith("variational(theta=") for r in joint)


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
    from qhtest.quantum import tensor_power

    with pytest.raises(ConfigError):
        run_sequential_test(
            policy, tensor_power(truth, 2), CFG, NULL_POINT, ALT_UPPER, 0.05, 10, rng
        )


@pytest.mark.parametrize("two_sided", [False, True])
def test_joint_rounds_reuse_the_refined_null_mle(monkeypatch, two_sided):
    """Every state carries the denominator's refined MLE; joint designs use it as w0."""
    null_set = parse_hypothesis_set("[0,45]")
    policy = PolicyConfig(kind="aLHT+", n_ic=2, n_joint=2, lambda_grid_size=9)
    states, designs, current = [], [], []
    real_next, real_design = engine.next_measurement, engine._joint_design
    real_record = engine.record_round

    def next_measurement(policy, state, cfg, rng):
        current[:] = [state]
        return real_next(policy, state, cfg, rng)

    def joint_design(policy, cfg, w0, w1, rng):
        designs.append((current[0], w0))
        return real_design(policy, cfg, w0, w1, rng)

    def record_round(*args, **kwargs):
        out = real_record(*args, **kwargs)
        states.append(out[0])
        return out

    monkeypatch.setattr(engine, "_joint_design", joint_design)
    for module in (engine, oracle):
        monkeypatch.setattr(module, "next_measurement", next_measurement)
        monkeypatch.setattr(module, "record_round", record_round)
    truth = state_from_angle(CFG, 22.3)
    rng = np.random.default_rng(17)
    if two_sided:
        run_sequential_test(policy, truth, CFG, null_set, ALT_UPPER, 0.05, 24, rng, eps1=0.05)
    else:
        oracle.sample_transcript(policy, truth, CFG, null_set, ALT_UPPER, 9, rng)
    assert len(states) >= 9 and len(designs) >= 3
    for state in states:
        again = mle(state.null_grid, CFG, refine=True)
        assert state.null_mle.omega == again.omega
        assert state.null_mle.loglik == again.loglik
    for state, w0 in designs:
        assert w0 == state.null_mle.omega
