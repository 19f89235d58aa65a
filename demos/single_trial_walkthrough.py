"""Walk through one sequential test round by round.

Runs a single seeded trial of the adaptive Helstrom policy against the
point null at 45 degrees, with the truth placed at 90 degrees, and prints
the transcript: which measurement each round used, what came out, and how
the running log likelihood ratio moved. The estimation rounds barely move
the ratio; the joint rounds do the discriminating work once the running
alternative estimate has locked on.

Run:  python3 demos/single_trial_walkthrough.py
"""

import math

import numpy as np

from qhtest.engine import PolicyConfig, run_sequential_test
from qhtest.family import FamilyConfig, parse_hypothesis_set, state_from_angle

EPS0 = 0.05


def main() -> None:
    cfg = FamilyConfig()
    null_set = parse_hypothesis_set("{45}")
    alt_set = parse_hypothesis_set("(45,180]")
    policy = PolicyConfig(kind="aLHT+", n_ic=6, n_joint=4, initial_alt_angle=45.5)

    out = run_sequential_test(
        policy,
        state_from_angle(cfg, 90.0),
        cfg,
        null_set,
        alt_set,
        eps0=EPS0,
        budget=60,
        rng=np.random.default_rng(20260815),
    )

    boundary = math.log(1.0 / EPS0)
    print(f"null {null_set}, alternative {alt_set}, truth at 90 degrees")
    print(f"reject once the log ratio reaches log(1/{EPS0}) = {boundary:.4f}\n")
    used = 0
    for i, state in enumerate(out.rounds, start=1):
        used += state.copies
        print(
            f"round {i:2d}  {state.plan.descriptor:<44s} copies {used:3d}"
            f"  outcome {state.outcome!s:>4s}  log ratio {state.log_slr:+8.4f}"
        )
    print(
        f"\n{out.decision} after {out.rounds_used} rounds and "
        f"{out.copies_used} copies (final log ratio {out.final_log_slr:.4f})"
    )


if __name__ == "__main__":
    main()
