"""Tests for the fixed-copy baseline tests and their exact calibration."""

import numpy as np
import pytest
from scipy.stats import binom

from qhtest import baselines
from qhtest.baselines import (
    SIZE_SLACK,
    FixedOutcome,
    FixedTestConfig,
    _majority,
    _majority_tail,
    helstrom_calibration,
    run_blht,
    run_blvt,
    run_lht,
    run_lvt,
    variational_calibration,
)
from qhtest.engine import estimation_povm
from qhtest.errors import ConfigError, InfeasibleCalibration, NotHermitian
from qhtest.family import (
    DEFAULT_RESOLUTION,
    FamilyConfig,
    build_grid,
    estimation_log_rows,
    parse_hypothesis_set,
    state_from_angle,
)
from qhtest.measurements import (
    _binary_probs_on_weight_grid,
    _rotated_basis_probs,
    helstrom_povm,
    rotated_basis_tables,
    rotation_grid,
)
from qhtest.quantum import born_distribution, sample_outcome, tensor_power

CFG = FamilyConfig()
NULL_POINT = parse_hypothesis_set("{45}")
ALT_UPPER = parse_hypothesis_set("(45,180]")
TWO_POINT_NULL = parse_hypothesis_set("{45,135}")
SPLIT_ALT = parse_hypothesis_set("(45,135) (135,180)")


def calibrate_weight(pow0, pow1, eps0, grid_size, blocks):
    """helstrom_calibration on the weight table of pow0 and pow1."""
    weights, p_m0 = _binary_probs_on_weight_grid(pow0, pow1, grid_size)
    return helstrom_calibration(weights, 1.0 - p_m0[:, 0], 1.0 - p_m0[:, 1], eps0, blocks)


def test_fixed_config_budget_arithmetic():
    fcfg = FixedTestConfig(10, blocks=1, joint_copies=4)
    assert fcfg.estimation_copies == 6
    assert fcfg.total_budget == 10
    blocked = FixedTestConfig(20, blocks=2, joint_copies=4)
    assert blocked.estimation_copies == 12
    with pytest.raises(ConfigError):
        FixedTestConfig(3, blocks=1, joint_copies=4)
    with pytest.raises(ConfigError):
        FixedTestConfig(10, blocks=1, joint_copies=4, eps0=1.5)


@pytest.mark.parametrize(
    "bad",
    [
        {"lambda_grid_size": 0},
        {"theta_grid_size": 0},
        {"theta_grid_size": -3},
        {"resolution": 0.0},
        {"resolution": -0.5},
        {"resolution": float("nan")},
        {"resolution": float("inf")},
        {"estimation_povm": "pauli"},
    ],
)
def test_fixed_config_rejects_degenerate_settings(bad):
    """Settings that would make a baseline never reject or crash mid-run fail at construction."""
    with pytest.raises(ConfigError):
        FixedTestConfig(10, blocks=1, joint_copies=4, **bad)


@pytest.mark.parametrize("estimation", ["computational", "sic"])
@pytest.mark.parametrize("budget", [4, 5, 13, 40])
def test_fit_alternative_draws_like_a_per_copy_loop(estimation, budget):
    """The estimation phase's one vector draw fits the angle that m scalar
    draws fit, and leaves the generator where they leave it (m = 0 at budget 4)."""
    fcfg = FixedTestConfig(budget, joint_copies=4, estimation_povm=estimation)
    truth = state_from_angle(CFG, 100.0)
    povm = estimation_povm(estimation)
    dist = born_distribution(truth, povm)
    grid = build_grid(ALT_UPPER, fcfg.resolution)
    log_rows = estimation_log_rows(grid, CFG, povm)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        counts = np.zeros(len(povm.labels))
        for _ in range(fcfg.estimation_copies):
            counts[povm.labels.index(sample_outcome(dist, rng))] += 1.0
        expected = float(grid.angles[int(np.argmax(counts @ log_rows))])
        fit_rng = np.random.default_rng(seed)
        assert baselines._fit_alternative(fcfg, truth, CFG, ALT_UPPER, fit_rng, {}) == expected
        assert fit_rng.random() == rng.random()


def test_majority_votes_needed():
    assert _majority(1) == 1
    assert _majority(2) == 2
    assert _majority(3) == 2
    assert _majority(4) == 3
    assert _majority(5) == 3
    # three blocks: two alt votes carry the decision
    assert sum([1, 1, 0]) >= _majority(3)
    # two blocks: a split vote does not
    assert not sum([1, 0]) >= _majority(2)


def test_helstrom_calibration_exact_size_and_optimality():
    """The calibrated weight is valid and no feasible weight beats it."""
    eps0 = 0.05
    grid_size = 99
    rho0 = state_from_angle(CFG, 45.0)
    rho1 = state_from_angle(CFG, 90.0)
    pow0 = tensor_power(rho0, 4)
    pow1 = tensor_power(rho1, 4)
    w, alpha, power = calibrate_weight(pow0, pow1, eps0, grid_size, 1)
    assert alpha <= eps0 + SIZE_SLACK

    # independent recomputation of size and power through the Born rule
    povm = helstrom_povm(pow0, pow1, w)
    assert abs(born_distribution(pow0, povm).probs[1] - alpha) < 1e-10
    assert abs(born_distribution(pow1, povm).probs[1] - power) < 1e-10

    for k in range(1, grid_size + 1):
        cand = k / (grid_size + 1)
        p = helstrom_povm(pow0, pow1, cand)
        a_k = float(born_distribution(pow0, p).probs[1])
        if a_k <= eps0 + SIZE_SLACK:
            assert float(born_distribution(pow1, p).probs[1]) <= power + 1e-10


def test_blocked_calibration_sizes_the_majority_tail():
    rho0 = state_from_angle(CFG, 45.0)
    rho1 = state_from_angle(CFG, 90.0)
    pow0 = tensor_power(rho0, 4)
    pow1 = tensor_power(rho1, 4)
    for blocks in (3, 5):
        w, alpha, _ = calibrate_weight(pow0, pow1, 0.05, 99, blocks)
        overall = binom.sf(_majority(blocks) - 1, blocks, alpha)
        assert overall <= 0.05 + SIZE_SLACK
        assert 0.0 < w < 1.0


def test_majority_tail_matches_the_binomial_survival_function():
    alpha = np.concatenate([np.linspace(0.0, 1.0, 101), [1e-9, 0.05, 0.5 - 1e-12]])
    for blocks in range(2, 41):
        expect = binom.sf(_majority(blocks) - 1, blocks, alpha)
        assert np.max(np.abs(_majority_tail(alpha, blocks) - expect)) < 1e-15
    # out-of-range sizes from rounding are clipped, as before
    assert np.array_equal(_majority_tail(np.array([-1e-17, 1.0 + 1e-16]), 3), [0.0, 1.0])


def test_single_block_majority_tail_is_alpha_bit_for_bit():
    """One block: the shared size rule reads alpha <= eps0 + SIZE_SLACK exactly."""
    rng = np.random.default_rng(12)
    alpha = np.concatenate(
        [rng.uniform(0.0, 1.0, 500), [0.0, 1.0, 5e-324, 1e-300, 0.05, 0.05 + SIZE_SLACK]]
    )
    assert _majority_tail(alpha, 1).tobytes() == alpha.tobytes()


@pytest.mark.parametrize("runner, null", [(run_lht, 45.0), (run_blvt, NULL_POINT)])
def test_a_nan_truth_is_refused_before_any_draw(runner, null, monkeypatch):
    """A fixed-copy run refuses a NaN truth, also through a memo holding a valid truth's laws."""
    fcfg = FixedTestConfig(10, eps0=0.05, lambda_grid_size=9, theta_grid_size=36)
    memo = {}
    runner(fcfg, state_from_angle(CFG, 90.0), CFG, null, ALT_UPPER, np.random.default_rng(0), memo)
    monkeypatch.setattr(baselines, "sample_outcome", None)
    for trial_memo in (memo, {}):
        with pytest.raises(NotHermitian):
            runner(fcfg, np.diag([np.nan, 0.5]), CFG, null, ALT_UPPER,
                   np.random.default_rng(0), trial_memo)


def test_infeasible_calibration_raises_and_run_falls_back():
    rho0 = state_from_angle(CFG, 45.0)
    rho1 = state_from_angle(CFG, 60.0)
    with pytest.raises(InfeasibleCalibration):
        calibrate_weight(rho0, rho1, 1e-12, 9, 1)
    # the runners swallow the failure and report a non-rejection
    fcfg = FixedTestConfig(5, blocks=1, joint_copies=1, eps0=1e-12, lambda_grid_size=9)
    out = run_lht(fcfg, rho1, CFG, 45.0, ALT_UPPER, np.random.default_rng(1), memo={})
    assert out.decision == 0
    assert out.copies_used == 5
    assert not out.calibrated


def test_infeasible_variational_calibration_raises_and_run_accepts(monkeypatch):
    # Every 4-copy outcome has null probability above 1e-9 for these mixed states
    mixed = FamilyConfig(r_z=0.9, r_x=0.7)
    _, q = rotated_basis_tables(mixed, (112.5,), 4, 36)
    _, pn = rotated_basis_tables(mixed, (45.0,), 4, 36)
    with pytest.raises(InfeasibleCalibration):
        variational_calibration(q[:, :, 0], pn, 1e-9, 1)
    # the run accepts without building a design or drawing a block
    monkeypatch.setattr(baselines, "sample_outcome", None)
    fcfg = FixedTestConfig(10, eps0=1e-9, theta_grid_size=36)
    out = run_lvt(fcfg, state_from_angle(mixed, 90.0), mixed, NULL_POINT, ALT_UPPER,
                  np.random.default_rng(1), memo={})
    assert (out.decision, out.copies_used, out.rounds_used) == (0, 10, 7)
    assert not out.calibrated


# Far truths fit different angles; near ones often fit the same angle, so
# they would share a decided block test.
@pytest.mark.parametrize("angles", [(150.0, 45.0), (90.0, 100.0)], ids=["far", "near"])
@pytest.mark.parametrize(
    "runner, blocks",
    [(run_lht, 1), (run_blht, 3), (run_lvt, 1), (run_blvt, 3)],
    ids=["LHT", "bLHT", "LVT", "bLVT"],
)
def test_a_memo_shared_across_truths_changes_no_run(runner, blocks, angles):
    """As for the engine's memo, one fixed-copy memo may serve runs of
    different truths: each run decides as it does on a fresh memo."""
    fcfg = FixedTestConfig(40, blocks=blocks)
    null = 45.0 if runner is run_lht else NULL_POINT
    truths = [state_from_angle(CFG, angle) for angle in angles]
    memo = {}
    for k in range(200):
        truth = truths[k % 2]
        got = runner(fcfg, truth, CFG, null, ALT_UPPER, np.random.default_rng(k), memo)
        want = runner(fcfg, truth, CFG, null, ALT_UPPER, np.random.default_rng(k), {})
        assert (got.decision, got.calibrated) == (want.decision, want.calibrated), k


def test_lht_type_one_error_within_monte_carlo_band():
    truth = state_from_angle(CFG, 45.0)
    fcfg = FixedTestConfig(10, blocks=1, joint_copies=4)
    runs = 500
    hits = 0
    for seed in range(runs):
        rng = np.random.default_rng([17, seed])
        hits += run_lht(fcfg, truth, CFG, 45.0, ALT_UPPER, rng, memo={}).decision
    bound = 0.05 + 3.0 * np.sqrt(0.05 * 0.95 / runs)
    assert hits / runs <= bound


def test_lvt_type_one_error_within_monte_carlo_band():
    truth = state_from_angle(CFG, 45.0)
    fcfg = FixedTestConfig(10, blocks=1, joint_copies=4, theta_grid_size=90)
    runs = 200
    hits = 0
    for seed in range(runs):
        rng = np.random.default_rng([29, seed])
        hits += run_lvt(fcfg, truth, CFG, TWO_POINT_NULL, SPLIT_ALT, rng, memo={}).decision
    bound = 0.05 + 3.0 * np.sqrt(0.05 * 0.95 / runs)
    assert hits / runs <= bound


def test_single_block_majority_variants_reduce_exactly():
    """With one block the majority-vote runners equal the plain runners."""
    truth = state_from_angle(CFG, 100.0)
    fcfg = FixedTestConfig(10, blocks=1, joint_copies=4, theta_grid_size=90)
    for seed in range(5):
        a = run_lht(fcfg, truth, CFG, 45.0, ALT_UPPER, np.random.default_rng([3, seed]), memo={})
        b = run_blht(fcfg, truth, CFG, 45.0, ALT_UPPER, np.random.default_rng([3, seed]), memo={})
        assert a == b
        c = run_lvt(fcfg, truth, CFG, TWO_POINT_NULL, SPLIT_ALT,
                    np.random.default_rng([4, seed]), memo={})
        d = run_blvt(fcfg, truth, CFG, TWO_POINT_NULL, SPLIT_ALT,
                     np.random.default_rng([4, seed]), memo={})
        assert c == d


def test_copies_and_rounds_accounting():
    truth = state_from_angle(CFG, 90.0)
    fcfg = FixedTestConfig(20, blocks=2, joint_copies=4)
    out = run_blht(fcfg, truth, CFG, 45.0, ALT_UPPER, np.random.default_rng(5), memo={})
    assert out.copies_used == 20
    assert out.rounds_used == fcfg.estimation_copies + 2
    assert isinstance(out, FixedOutcome)
    assert out.rejected == (out.decision == 1)


def test_blht_power_grows_with_budget():
    """More blocks at the same size should not hurt a far alternative."""
    truth = state_from_angle(CFG, 135.0)
    runs = 60
    powers = []
    for budget, blocks in ((10, 1), (50, 5)):
        fcfg = FixedTestConfig(budget, blocks=blocks, joint_copies=4)
        hits = 0
        for seed in range(runs):
            rng = np.random.default_rng([7, budget, seed])
            hits += run_blht(fcfg, truth, CFG, 45.0, ALT_UPPER, rng, memo={}).decision
        powers.append(hits / runs)
    assert powers[1] >= powers[0]
    assert powers[1] > 0.9


@pytest.mark.parametrize("radii", [(1.0, 1.0), (0.9, 0.7)])
@pytest.mark.parametrize("null_text", ["[0,45]", "{45,135}"])
@pytest.mark.parametrize("copies", [1, 2, 3, 4])
def test_alternative_and_null_tables_split_bit_for_bit(radii, null_text, copies):
    """Building q and pn apart, as a memoized run does, equals one stacked table.

    The runners keep pn for the whole trial and compute only q per fitted
    angle; the sweep's bytes rest on that split changing no bit.
    """
    cfg = FamilyConfig(*radii)
    null_angles = build_grid(parse_hypothesis_set(null_text), DEFAULT_RESOLUTION).angles
    _, u = rotation_grid(360, copies)
    mats = [tensor_power(state_from_angle(cfg, w), copies) for w in (100.0, *null_angles)]
    stacked = _rotated_basis_probs(u, np.stack(mats))
    _, q = rotated_basis_tables(cfg, (100.0,), copies, 360)
    _, pn = rotated_basis_tables(cfg, null_angles, copies, 360)
    assert np.array_equal(q[:, :, 0], stacked[:, :, 0])
    assert np.array_equal(pn, stacked[:, :, 1:])
