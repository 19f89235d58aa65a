"""Command line front end: sweep, verify, calibrate, single.

sweep runs a full Monte Carlo sweep from a config file and writes the CSV
table. verify executes a quick self-check suite with one PASS/FAIL line
per check. calibrate prints, per configured method, the joint design
the engine plans before any data or the fixed-copy runners' calibrated
block test at the reference angles. single executes one seeded trial,
optionally dumping the per-round transcript.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import baselines, engine, harness, oracle
from .errors import QhtError
from .family import state_from_angle


# What each fixed-copy design calibrates.
_SETTING = {"helstrom": "weight", "variational": "rotation"}


def _report_uncalibrated(method: str, budget: int, runs: str, eps0: float) -> None:
    """One stderr line for fixed-copy runs that found no setting meeting eps0."""
    print(
        f"{method} budget {budget}: {runs} found no {_SETTING[harness.METHODS[method].design]} "
        f"meeting eps0 {eps0:g} and accepted",
        file=sys.stderr,
    )


def _cmd_sweep(args) -> int:
    config = harness.parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    rows = harness.run_sweep(config)
    harness.emit_results(rows, args.output)
    for r in rows:
        if r.uncalibrated_runs:
            _report_uncalibrated(
                r.method, r.budget, f"{r.uncalibrated_runs} of {r.runs} runs", config.eps0
            )
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _check(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail and not ok else ""
    print(f"{tag}  {name}{suffix}")
    return ok


def _verify_helstrom(rng: np.random.Generator) -> bool:
    worst = 0.0
    for _ in range(20):
        states = []
        for _ in range(2):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m = a @ a.conj().T
            states.append(m / np.trace(m).real)
        for w in (0.1, 0.3, 0.5, 0.7, 0.9):
            achieved = oracle.helstrom_error(states[0], states[1], w)
            bound = oracle.helstrom_bound(states[0], states[1], w)
            worst = max(worst, abs(achieved - bound))
    spot = oracle.helstrom_error(
        np.diag([1.0, 0.0]).astype(complex),
        np.full((2, 2), 0.5, dtype=complex),
        0.5,
    )
    ok = worst <= 1e-9 and abs(spot - 0.5 * (1.0 - math.sqrt(0.5))) <= 1e-5
    return _check("helstrom measurement reaches the optimal error", ok, f"worst gap {worst:.2e}")


def _verify_eprocess() -> bool:
    cfg, policy = oracle.small_policy()
    null_set, alt_set = oracle.small_sets()
    truth = state_from_angle(cfg, 45.0)
    gap = abs(
        oracle.eprocess_expectation(policy, truth, cfg, null_set, alt_set, horizon=2) - 1.0
    )
    mle_val = oracle.eprocess_expectation(
        policy, truth, cfg, null_set, alt_set, horizon=2, use_mle_denominator=True
    )
    ok = gap <= 1e-9 and mle_val <= 1.0 + 1e-9
    return _check(
        "null e-process expectation is exactly one",
        ok,
        f"gap {gap:.2e}, variant {mle_val:.6f}",
    )


def _verify_two_sided(rng: np.random.Generator) -> bool:
    cfg, policy = oracle.small_policy()
    null_set, alt_set = oracle.small_sets()
    bad = 0
    for k in range(300):
        omega = float(rng.uniform(45.0, 180.0))
        out = engine.run_sequential_test(
            policy,
            state_from_angle(cfg, omega),
            cfg,
            null_set,
            alt_set,
            eps0=0.05,
            budget=40,
            rng=np.random.default_rng([11, k]),
            eps1=0.05,
        )
        boundary = math.log(1.0 / 0.05)
        if out.final_log_slr >= boundary and (out.final_log_slr_rev or -math.inf) >= boundary:
            bad += 1
    return _check("one-sided statistics never cross together", bad == 0, f"{bad} violations")


def _verify_recompute(rng: np.random.Generator) -> bool:
    cfg, policy = oracle.small_policy()
    null_set, alt_set = oracle.small_sets()
    worst = 0.0
    for k in range(10):
        omega = float(rng.uniform(50.0, 179.0))
        rounds = oracle.sample_transcript(
            policy,
            state_from_angle(cfg, omega),
            cfg,
            null_set,
            alt_set,
            n_rounds=5,
            rng=np.random.default_rng([13, k]),
        )
        redone = oracle.recompute_slr(rounds, cfg, null_set, alt_set)
        logs = np.array([s.log_slr for s in rounds])
        worst = max(worst, float(np.max(np.abs(redone - logs))))
    return _check("incremental log ratio matches full recomputation", worst <= 1e-9, f"worst {worst:.2e}")


def _cmd_verify(args) -> int:
    rng = np.random.default_rng(20260815)
    results = [
        _verify_helstrom(rng),
        _verify_eprocess(),
        _verify_two_sided(rng),
        _verify_recompute(rng),
    ]
    return 0 if all(results) else 1


def _cmd_calibrate(args) -> int:
    config = harness.parse_config(args.config)
    fam = config.family()
    truth = state_from_angle(fam, config.truth_omega)
    state = engine.new_slr_state(config.null_set, config.alt_set, config.grid_resolution)
    est_povm = engine.estimation_povm(config.estimation_povm)
    w1 = engine.predictable_estimate(state.alt_grid, fam, est_povm)
    w0 = engine.predictable_estimate(state.null_grid, fam, est_povm)
    print(f"reference null angle {w0:g}, reference alternative angle {w1:g}")
    for method in config.methods:
        design = harness.METHODS[method].design
        if design == "sequential":
            # The joint round the engine plans before any data, unless it needs a draw.
            policy = dataclasses.replace(harness._policy(config, method), n_ic=0)
            if policy.random_design:
                print(f"{method}: weight drawn uniformly at random each block")
                continue
            plan = engine.next_measurement(policy, state, fam, None, {})
            print(f"{method}: pre-data joint round {plan.descriptor}")
            continue
        # The runners' own block test at the reference alternative, once per block
        # count, through one memo, so each design's tables are built once.
        if design == "variational":
            print(f"{method}: threshold depends on the estimated alternative; "
                  f"reference angle {w1:g} shown")
        block_test = (baselines._helstrom_block_test if design == "helstrom"
                      else baselines._variational_block_test)
        null = harness._fixed_null(config, method)
        memo: dict = {}
        fcfgs = [harness._fixed_config(config, method, b) for b in config.budgets]
        for fcfg in {f.blocks: f for f in fcfgs}.values():
            test = block_test(fcfg, engine.truth_laws(truth, memo), fam, null, w1, memo)
            setting = test.setting if test else (
                f"no {_SETTING[design]} meets size {config.eps0:g}, "
                "so the test always accepts"
            )
            print(f"{method}: blocks {fcfg.blocks}, {setting}")
    return 0


def _cmd_single(args) -> int:
    config = harness.parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    method = args.method
    budget = args.budget
    b_idx = config.budgets.index(budget) if budget in config.budgets else 0
    # Validate the method and budget actually run, not the ones the file lists.
    config = dataclasses.replace(config, methods=(method,), budgets=(budget,))
    rng = harness.run_rng(config.master_seed, method, b_idx, 0)
    out = harness.make_trial(config, method)(budget, rng)
    if harness.METHODS[method].design == "sequential":
        print(
            f"{method} budget {budget}: {out.decision} after {out.rounds_used} rounds, "
            f"{out.copies_used} copies, final log ratio {out.final_log_slr:.6g}"
        )
        if args.trace:
            for i, state in enumerate(out.rounds, start=1):
                print(
                    f"  round {i:3d}  {state.plan.descriptor:<44s} copies {state.copies}  "
                    f"outcome {state.outcome}  log ratio {state.log_slr:.6g}"
                )
    else:
        verdict = "reject" if out.rejected else "accept"
        print(
            f"{method} budget {budget}: {verdict}, {out.copies_used} copies, "
            f"{out.rounds_used} measurement rounds"
        )
        if not out.calibrated:
            _report_uncalibrated(method, budget, "the run", config.eps0)
        if args.trace:
            print("  (per-round traces exist for sequential methods only)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qhtest", description="Sequential and fixed-copy quantum hypothesis tests."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep from a config file")
    p_sweep.add_argument("config")
    p_sweep.add_argument("-o", "--output", required=True)
    p_sweep.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the built-in self checks")
    p_verify.set_defaults(func=_cmd_verify)

    p_cal = sub.add_parser("calibrate", help="print pre-data measurement settings")
    p_cal.add_argument("config")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_single = sub.add_parser("single", help="run one seeded trial")
    p_single.add_argument("config")
    p_single.add_argument("--method", required=True)
    p_single.add_argument("--budget", type=int, required=True)
    p_single.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_single.add_argument("--trace", action="store_true", help="dump per-round transcript")
    p_single.set_defaults(func=_cmd_single)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QhtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
