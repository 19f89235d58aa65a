"""Acceptance checks for the whole toolkit.

Eight banded end-to-end criteria, one test and one printed PASS/FAIL line
each. The Monte Carlo checks pin their master seeds so reruns are exact;
the analytic checks carry their stated tolerances inline. Expect a few
minutes of runtime for the full set.
"""

import math

import numpy as np
import pytest

from qhtest.engine import PolicyConfig, run_sequential_test
from qhtest.family import FamilyConfig, parse_hypothesis_set, state_from_angle
from qhtest.harness import ExperimentConfig, emit_results, run_sweep
from qhtest.oracle import (
    eprocess_expectation,
    helstrom_bound,
    helstrom_error,
    recompute_slr,
    sample_transcript,
    small_policy,
    small_sets,
)
from qhtest.quantum import validate_density

CFG = FamilyConfig()
NULL_POINT = parse_hypothesis_set("{45}")
ALT_UPPER = parse_hypothesis_set("(45,180]")
TWO_POINT_NULL = parse_hypothesis_set("{45,135}")
SPLIT_ALT = parse_hypothesis_set("(45,135) (135,180)")
SWEEP_BUDGETS = (10, 20, 30, 40, 60, 80, 100, 140, 200)
SWEEP_SEED = 20260815
KINDS = ("aLHT", "aLHT+", "aLVT")


def report(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)


def rows_for(rows, method):
    return [r for r in rows if r.method == method]


def copies_to_power(rows, target):
    """Average copies at which the power curve first crosses the target.

    Walks the (avg_copies, power) curve in budget order and interpolates
    linearly inside the first bracketing segment; returns inf when the
    curve never gets there.
    """
    pts = [(r.avg_copies, r.power) for r in sorted(rows, key=lambda r: r.budget)]
    if pts and pts[0][1] >= target:
        return pts[0][0]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if y0 < target <= y1:
            return x0 + (target - y0) * (x1 - x0) / (y1 - y0)
    return math.inf


def random_qubit(rng):
    while True:
        b = rng.uniform(-1.0, 1.0, size=3)
        if b @ b <= 1.0:
            break
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return validate_density((np.eye(2) + b[0] * sx + b[1] * sy + b[2] * sz) / 2.0)


def test_criterion_1_type_one_error_control(capsys):
    """Sequential methods keep the rejection rate under a true null within
    the three-sigma binomial band around eps0."""
    runs = 2000
    config = ExperimentConfig(
        null_set=NULL_POINT,
        alt_set=ALT_UPPER,
        truth_omega=45.0,
        methods=KINDS,
        budgets=(200,),
        runs=runs,
        eps0=0.05,
        master_seed=424242,
    )
    rows = run_sweep(config)
    bound = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / runs)
    rates = {r.method: r.power for r in rows}
    ok = all(rate <= bound for rate in rates.values())
    detail = ", ".join(f"{m} {rates[m]:.4f}" for m in KINDS) + f" (bound {bound:.4f})"
    report(capsys, "type-I error control", ok, detail)
    assert ok, detail


def test_criterion_2_unit_expectation_identity(capsys):
    """Exact enumeration: the ratio process with the true-state denominator
    has expectation one at every horizon; the fitted-denominator variant
    can only be smaller."""
    cfg, policy = small_policy()
    null_set, alt_set = small_sets()
    truth = state_from_angle(cfg, 45.0)
    worst_gap = 0.0
    worst_mle = -math.inf
    for horizon in (1, 2, 3):
        val = eprocess_expectation(policy, truth, cfg, null_set, alt_set, horizon)
        worst_gap = max(worst_gap, abs(val - 1.0))
        mle_val = eprocess_expectation(
            policy, truth, cfg, null_set, alt_set, horizon, use_mle_denominator=True
        )
        worst_mle = max(worst_mle, mle_val)
    ok = worst_gap <= 1e-9 and worst_mle <= 1.0 + 1e-9
    detail = f"worst |E-1| {worst_gap:.2e}, worst fitted-denominator E {worst_mle:.9f}"
    report(capsys, "unit expectation identity", ok, detail)
    assert ok, detail


def test_criterion_3_no_simultaneous_crossing(capsys):
    """Ten thousand randomized two-sided runs: the forward and reversed
    statistics never sit above their thresholds together."""
    n_runs = 10_000
    boundary = math.log(1.0 / 0.05)
    policies = {k: PolicyConfig(kind=k) for k in KINDS}
    # one trial memo per policy, as a sweep keeps one per method; its runs
    # are those of memo-less calls, with the truth laws rebuilt per truth
    memos = {k: {} for k in KINDS}
    angles = np.random.default_rng(31415).uniform(0.0, 180.0, size=n_runs)
    bad = 0
    blowup = None
    try:
        for k in range(n_runs):
            out = run_sequential_test(
                policies[KINDS[k % 3]],
                state_from_angle(CFG, float(angles[k])),
                CFG,
                NULL_POINT,
                ALT_UPPER,
                eps0=0.05,
                budget=40,
                rng=np.random.default_rng([271828, k]),
                eps1=0.05,
                memo=memos[KINDS[k % 3]],
            )
            if out.final_log_slr >= boundary and out.final_log_slr_rev >= boundary:
                bad += 1
    except Exception as exc:  # noqa: BLE001 - any raise is a failed criterion
        blowup = repr(exc)
    ok = bad == 0 and blowup is None
    detail = f"{n_runs} transcripts, {bad} double crossings" + (
        f", raised {blowup}" if blowup else ""
    )
    report(capsys, "no simultaneous crossing", ok, detail)
    assert ok, detail


def test_criterion_4_optimal_discrimination_error(capsys):
    """The two-outcome eigenspace measurement achieves the weighted-error
    formula exactly, including the closed-form spot value."""
    rng = np.random.default_rng(99)
    lam_grid = np.linspace(0.05, 0.95, 19)
    worst = 0.0
    for _ in range(100):
        rho0, rho1 = random_qubit(rng), random_qubit(rng)
        for lam in lam_grid:
            gap = abs(
                helstrom_error(rho0, rho1, float(lam))
                - helstrom_bound(rho0, rho1, float(lam))
            )
            worst = max(worst, gap)
    ket0 = validate_density(np.diag([1.0, 0.0]))
    plus = validate_density(np.full((2, 2), 0.5))
    spot = helstrom_error(ket0, plus, 0.5)
    spot_gap = abs(spot - 0.14645)
    ok = worst <= 1e-9 and spot_gap <= 1e-5
    detail = f"worst bound gap {worst:.2e}, spot {spot:.6f} (target 0.14645 +- 1e-5)"
    report(capsys, "optimal discrimination error", ok, detail)
    assert ok, detail


def test_criterion_5_point_null_power_curves(capsys):
    """Power sweep against the point null: the one-shot test plateaus in
    [0.5, 0.7], the adaptive sequential test dominates it from some budget
    on, and the majority-vote baseline needs 1.5x to 2.5x the copies to
    reach power 0.9."""
    config = ExperimentConfig(
        null_set=NULL_POINT,
        alt_set=ALT_UPPER,
        truth_omega=90.0,
        methods=("aLHT+", "LHT", "bLHT"),
        budgets=SWEEP_BUDGETS,
        runs=200,
        eps0=0.05,
        master_seed=SWEEP_SEED,
    )
    rows = run_sweep(config)
    lht = rows_for(rows, "LHT")
    alht = rows_for(rows, "aLHT+")
    blht = rows_for(rows, "bLHT")

    plateau = float(np.mean([r.power for r in lht if r.budget >= 100]))
    ok_a = 0.5 <= plateau <= 0.7

    alht_p = [r.power for r in alht]
    lht_p = [r.power for r in lht]
    dominated_from = next(
        (
            alht[i].budget
            for i in range(len(alht_p))
            if all(a > l for a, l in zip(alht_p[i:], lht_p[i:]))
        ),
        None,
    )
    ok_b = dominated_from is not None

    c_alht = copies_to_power(alht, 0.9)
    c_blht = copies_to_power(blht, 0.9)
    ratio = c_blht / c_alht
    ok_c = 1.5 <= ratio <= 2.5

    ok = ok_a and ok_b and ok_c
    detail = (
        f"plateau {plateau:.3f} in [0.5,0.7]; dominance from budget {dominated_from}; "
        f"copies to 0.9: {c_blht:.1f}/{c_alht:.1f} = {ratio:.3f} in [1.5,2.5]"
    )
    report(capsys, "point-null power curves", ok, detail)
    assert ok, detail


def test_criterion_6_composite_null_power_curves(capsys):
    """Power sweep against the two-point null: the adaptive variational
    test reaches power 0.95 on under 50 copies on average, the one-shot
    variational test stays at or below 0.25, and the majority-vote variant
    needs at least 80 copies for comparable power."""
    config = ExperimentConfig(
        null_set=TWO_POINT_NULL,
        alt_set=SPLIT_ALT,
        truth_omega=90.0,
        methods=("aLVT", "LVT", "bLVT"),
        budgets=SWEEP_BUDGETS,
        runs=200,
        eps0=0.05,
        master_seed=SWEEP_SEED,
    )
    rows = run_sweep(config)
    alvt = rows_for(rows, "aLVT")
    lvt = rows_for(rows, "LVT")
    blvt = rows_for(rows, "bLVT")

    strong = [r for r in alvt if r.power >= 0.95 and r.avg_copies < 50.0]
    ok_a = bool(strong)
    best = min((r.avg_copies for r in strong), default=math.inf)

    lvt_plateau = max(r.power for r in lvt if r.budget >= 60)
    ok_b = lvt_plateau <= 0.25

    blvt_hits = [r.budget for r in blvt if r.power >= 0.95]
    ok_c = bool(blvt_hits) and min(blvt_hits) >= 80

    ok = ok_a and ok_b and ok_c
    detail = (
        f"adaptive reaches 0.95 at {best:.1f} avg copies; one-shot plateau "
        f"{lvt_plateau:.3f} <= 0.25; majority-vote first hits 0.95 at budget "
        f"{min(blvt_hits) if blvt_hits else None}"
    )
    report(capsys, "composite-null power curves", ok, detail)
    assert ok, detail


def test_criterion_7_incremental_matches_recompute(capsys):
    """One hundred random five-round transcripts: the engine's running log
    ratio equals the from-scratch prefix recomputation."""
    policies = {k: PolicyConfig(kind=k, n_ic=2, n_joint=2) for k in KINDS}
    angles = np.random.default_rng(8128).uniform(0.0, 180.0, size=100)
    worst = 0.0
    for k in range(100):
        truth = state_from_angle(CFG, float(angles[k]))
        rounds = sample_transcript(
            policies[KINDS[k % 3]],
            truth,
            CFG,
            NULL_POINT,
            ALT_UPPER,
            n_rounds=5,
            rng=np.random.default_rng([606, k]),
        )
        again = recompute_slr(rounds, CFG, NULL_POINT, ALT_UPPER)
        logs = np.array([s.log_slr for s in rounds])
        worst = max(worst, float(np.max(np.abs(again - logs))))
    ok = worst <= 1e-9
    detail = f"worst prefix gap {worst:.2e} over 100 transcripts"
    report(capsys, "incremental ratio equals recomputation", ok, detail)
    assert ok, detail


def test_criterion_8_sweep_byte_determinism(capsys, tmp_path):
    """Re-running the same sweep writes byte-identical output."""
    config = ExperimentConfig(
        null_set=NULL_POINT,
        alt_set=ALT_UPPER,
        truth_omega=90.0,
        methods=("aLHT", "aLHT+", "aLVT", "LHT", "bLHT", "LVT", "bLVT"),
        budgets=(10, 20),
        runs=5,
        eps0=0.05,
        master_seed=13,
    )
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    emit_results(run_sweep(config), first)
    emit_results(run_sweep(config), second)
    ok = first.read_bytes() == second.read_bytes()
    detail = f"{len(first.read_bytes())} bytes, identical={ok}"
    report(capsys, "sweep byte determinism", ok, detail)
    assert ok, detail
