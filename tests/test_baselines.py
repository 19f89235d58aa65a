"""Tests for the fixed-copy baseline tests and their exact calibration."""

import weakref

import numpy as np
import pytest
from scipy.stats import binom

from qhtest import baselines, measurements
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
    truth_laws,
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


@pytest.mark.parametrize(
    "runner, blocks, null",
    [(run_lht, 1, 45.0), (run_blht, 2, 45.0), (run_lvt, 1, NULL_POINT), (run_blvt, 2, NULL_POINT)],
    ids=["LHT", "bLHT", "LVT", "bLVT"],
)
def test_a_truth_that_is_not_one_qubit_is_refused_before_any_draw(runner, blocks, null):
    """A truth of another shape raises ConfigError, with a fresh memo or one
    that holds a valid truth's laws; the run gets no generator to draw from."""
    fcfg = FixedTestConfig(12, blocks=blocks, joint_copies=2, lambda_grid_size=9,
                           theta_grid_size=36)
    memo = {}
    runner(fcfg, state_from_angle(CFG, 90.0), CFG, null, ALT_UPPER, np.random.default_rng(0), memo)
    for dim in (1, 3, 4):
        for trial_memo in (memo, {}):
            with pytest.raises(ConfigError, match="single-qubit"):
                runner(fcfg, np.eye(dim) / dim, CFG, null, ALT_UPPER, None, trial_memo)


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


# Each entry changes one FixedTestConfig setting from _BASE, by enough to
# change what a run builds from it.
_BASE = {"total_budget": 24, "joint_copies": 2, "lambda_grid_size": 9, "theta_grid_size": 36}
_SETTINGS = (
    {},
    {"eps0": 0.2},
    {"eps0": 0.005},
    {"joint_copies": 3},
    {"resolution": 45.0},
    {"estimation_povm": "sic"},
    {"lambda_grid_size": 2},
    {"theta_grid_size": 3},
)


def test_runs_of_every_setting_through_one_memo_equal_fresh_memo_runs():
    """LHT, bLHT, LVT and bLVT runs through one memo, interleaving the
    design, the family, the hypotheses and every FixedTestConfig setting but
    the budget, each decide as on a fresh memo. Few estimation copies fit
    few angles, so runs of different settings fit one angle and meet the
    entries kept there."""
    pairs = (
        (CFG, 45.0, ALT_UPPER),
        (FamilyConfig(r_z=0.9, r_x=0.7), 45.0, ALT_UPPER),
        (CFG, 30.0, ALT_UPPER),
        (CFG, 45.0, parse_hypothesis_set("[90,180]")),
    )
    memo = {}
    for seed in range(6):
        for cfg, null_angle, alt_set in pairs:
            truth = state_from_angle(cfg, 60.0)
            null_set = parse_hypothesis_set(f"{{{null_angle:g}}}")
            runners = ((run_lht, 1, null_angle), (run_blht, 3, null_angle),
                       (run_lvt, 1, null_set), (run_blvt, 3, null_set))
            for changes in _SETTINGS:
                for runner, blocks, null in runners:
                    fcfg = FixedTestConfig(**{**_BASE, "blocks": blocks, **changes})
                    got, want = (
                        runner(fcfg, truth, cfg, null, alt_set, np.random.default_rng(seed), m)
                        for m in (memo, {})
                    )
                    assert got == want, (seed, cfg, null, alt_set, changes, runner, blocks)


@pytest.mark.parametrize("runner, null", [(run_lht, 45.0), (run_lvt, NULL_POINT)],
                         ids=["LHT", "LVT"])
def test_a_memo_that_served_another_level_keeps_the_size(runner, null):
    """At the null truth, runs at eps0 0.01 through a memo that first served
    400 runs at eps0 0.2 reject exactly the runs that a memo fresh for eps0
    0.01 rejects, within the level's Monte Carlo band."""
    cfg = FamilyConfig(r_z=0.9, r_x=0.7)
    truth = state_from_angle(cfg, 45.0)

    def decisions(eps0, memo):
        fcfg = FixedTestConfig(40, eps0=eps0)
        runs = (runner(fcfg, truth, cfg, null, ALT_UPPER, np.random.default_rng([11, seed]), memo)
                for seed in range(400))
        return [out.decision for out in runs]

    shared = {}
    decisions(0.2, shared)
    got = decisions(0.01, shared)
    assert got == decisions(0.01, {})
    assert np.mean(got) <= 0.01 + 3.0 * np.sqrt(0.01 * 0.99 / 400)


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


@pytest.mark.parametrize("blocks", [1, 3], ids=["LVT", "bLVT"])
def test_block_tests_at_one_rotation_angle_share_one_law(blocks, monkeypatch):
    """In one trial memo, block tests calibrated at different fitted angles
    that pick the same rotation share the truth's law under its POVM, kept
    in TruthLaws.memo under ("variational", theta). The POVM and the law are
    built once per rotation, and no memo keeps the POVM."""
    povms, laws_built = [], []

    def counted_povm(*args, real=baselines.variational_povm):
        povm = real(*args)
        povms.append(weakref.ref(povm))
        return povm

    def counted_law(*args, real=measurements.born_distribution):
        law = real(*args)
        laws_built.append(law)
        return law

    monkeypatch.setattr(baselines, "variational_povm", counted_povm)
    monkeypatch.setattr(measurements, "born_distribution", counted_law)
    fcfg = FixedTestConfig(60, joint_copies=2, blocks=blocks, theta_grid_size=36)
    memo = {}
    laws = truth_laws(state_from_angle(CFG, 90.0), memo)
    tests = [
        baselines._variational_block_test(fcfg, laws, CFG, NULL_POINT, w1, memo)
        for w1 in build_grid(ALT_UPPER).angles[::20].tolist()
    ]
    kept = [key for key in laws.memo if isinstance(key, tuple) and key[0] == "variational"]
    by_law = {}
    for test in tests:
        by_law.setdefault(id(test.dist), []).append(test)
    assert len(povms) == len(laws_built) == len(kept) == len(by_law) < len(tests)
    assert {id(laws.memo[key]) for key in kept} == set(by_law)
    for shared in by_law.values():
        assert len({test.setting.split(",")[0] for test in shared}) == 1
    assert all(ref() is None for ref in povms)
