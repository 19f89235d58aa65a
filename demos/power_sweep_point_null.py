"""Compare sequential and fixed-copy tests against a point null.

Sweeps three methods over a shared copy-budget grid with the truth at
90 degrees and prints power and average copy consumption side by side.
Three things to look for in the table:

* the one-shot Helstrom test (LHT) is strong at tiny budgets but its
  power levels off near 0.69 no matter how many copies it gets (the
  exact plateau is 0.685; at 50 runs a cell reads 0.68-0.74), because
  a single calibrated binary measurement at the wrong guessed alternative
  can only say so much;
* the sequential test (aLHT+) starts slower but passes LHT quickly and
  stops early: its average copies stay far below the budget line;
* the majority-vote variant (bLHT) does eventually reach high power but
  pays roughly twice the copies the sequential test needs for the same
  power.

Trimmed to 50 runs per cell so it finishes in about ten seconds; raise
RUNS for smoother curves.

Run:  python3 demos/power_sweep_point_null.py
"""

from qhtest.family import parse_hypothesis_set
from qhtest.harness import ExperimentConfig, run_sweep

RUNS = 50
BUDGETS = (10, 20, 40, 80, 140)
METHODS = ("aLHT+", "LHT", "bLHT")


def main() -> None:
    config = ExperimentConfig(
        null_set=parse_hypothesis_set("{45}"),
        alt_set=parse_hypothesis_set("(45,180]"),
        truth_omega=90.0,
        methods=METHODS,
        budgets=BUDGETS,
        runs=RUNS,
        eps0=0.05,
        master_seed=20260815,
    )
    rows = run_sweep(config)
    by_method = {m: {r.budget: r for r in rows if r.method == m} for m in METHODS}

    print(f"truth at 90 degrees, eps0 = 0.05, {RUNS} runs per cell\n")
    header = "budget" + "".join(f"  {m:>16s}" for m in METHODS)
    print(header)
    print("      " + "   power avg_cop" * len(METHODS))
    for b in BUDGETS:
        cells = "".join(
            f"   {by_method[m][b].power:5.2f} {by_method[m][b].avg_copies:7.1f}"
            for m in METHODS
        )
        print(f"{b:6d}{cells}")
    print("\nfixed-copy methods always spend the whole budget; the sequential")
    print("test stops at the rejection boundary and banks the difference.")


if __name__ == "__main__":
    main()
