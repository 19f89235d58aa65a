"""Fixed-copy baseline tests: single-shot and majority-vote variants.

Each baseline splits a fixed budget of n copies into m = n - (joint copies
per block) * b single-copy estimation rounds and b joint blocks. The
estimation rounds fit the alternative angle by grid MLE (an empty
estimation phase falls back to the grid tie-break angle); the joint blocks
then run a calibrated test built from that estimate. There is one runner
per design, and the caller sets b:

* _run_helstrom_family (LHT with b = 1, bLHT): weighted Helstrom
  measurement against a simple null angle. The weight is chosen on a grid
  to maximize exact power subject to the exact size constraint; with b
  blocks the constraint is applied to the majority vote through the exact
  binomial tail.
* _run_variational_family (LVT with b = 1, bLVT): a variational
  rotated-basis measurement scored by the generalized likelihood ratio of
  the fitted alternative against the worst null grid state, thresholded at
  the smallest realized ratio whose rejection region passes the size
  constraint, with the rotation angle chosen for power at that threshold.

run_lht / run_blht and run_lvt / run_blvt name these two runners.
Majority votes reject on strictly more than half the blocks, so even-split
ties accept; with b = 1 the size rule and the vote are the single block's.

Both runners share one run body, _run_blocks: fit w1, look up the block
test calibrated at w1 and vote. A calibrated block test depends on the
run's data only through the fitted grid angle w1, so every runner takes a
memo dict and keeps the test's parts in its sub-memo keyed on the family,
the null (its type names the design: a float angle for the Helstrom
runner, a HypothesisSet for the variational one), the alternative set and
every FixedTestConfig field but total_budget and blocks, at four levels,
each built once:

* per configuration, under string keys: the alternative grid's angles
  and log rows ("estimation"), and the null state's power ("null power",
  Helstrom) or the null grid's rotated-basis table ("null table",
  variational);
* per truth, in TruthLaws.memo: measurements.truth_laws keeps the
  truth's TruthLaws under "truth", the one owner of what depends on
  the truth for the engine's runs and these alike, and rebuilds it when a
  run brings another truth. It holds the truth's estimation law and its
  joint-copy power;
* per fitted angle, under ("weight table", w1) or ("rotated table", w1):
  the alternative's power with its weight-grid size and power columns,
  or its rotated-basis table; these are the costly kernels, and they do
  not depend on the block count or the truth;
* per (w1, blocks), in TruthLaws.memo as well, since it holds the truth's
  law: the decided block test, i.e. the truth's outcome distribution on
  the size rule's joint measurement (not the measurement itself), the
  outcomes that vote to reject and the setting in words, or None when no
  setting meets the size (the run then accepts without drawing).

Variational block tests at fitted angles that pick one rotation theta
share the truth's law under its POVM, kept in TruthLaws.memo under
("variational", theta); the POVM is built once per truth and theta and
dropped as soon as its law is built. A Helstrom block test's POVM is
built for its own weight and fitted angle and is not kept either.

So a trial holds at most one weight table (grid_size weights and two
columns, plus one power matrix) or one (theta_grid_size, 2^n) rotated
table per alternative grid angle it fitted, and per truth one law of 2^n
floats per rotation angle its variational tests picked. A trial built by
harness.make_trial has one configuration, with the budget and even the
truth varying; a fresh {} recalibrates. A hit draws the same blocks from
the same distribution, so the random stream and every decision are those
of a run that recalibrated. A memo shared across configurations keeps one
sub-memo per configuration for as long as the memo lives, so a caller that
sweeps settings passes one memo per configuration, as make_trial does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleCalibration
from .family import (
    DEFAULT_RESOLUTION,
    FamilyConfig,
    HypothesisSet,
    P_FLOOR,
    build_grid,
    estimation_log_rows,
    state_from_angle,
)
from .measurements import (
    _binary_probs_on_weight_grid,
    _u_cache,  # noqa: F401  (perfbench/child.py reports len(baselines._u_cache))
    TruthLaws,
    check_design_settings,
    estimation_povm,
    helstrom_povm,
    rotated_basis_tables,
    truth_laws,
    variational_povm,
)
from .quantum import OutcomeDistribution, memoized, sample_outcome, tensor_power

SIZE_SLACK = 1e-12


@dataclass(frozen=True)
class FixedTestConfig:
    """Budget split for a fixed-copy test; all copies are consumed.

    The blocks take joint_copies each and the rest of the budget goes to
    single-copy estimation rounds (estimation_copies).
    """

    total_budget: int
    joint_copies: int = 4
    blocks: int = 1
    eps0: float = 0.05
    resolution: float = DEFAULT_RESOLUTION
    estimation_povm: str = "computational"
    lambda_grid_size: int = 99
    theta_grid_size: int = 360

    def __post_init__(self):
        if self.blocks < 1:
            raise ConfigError(f"blocks must be >= 1, got {self.blocks}")
        if self.joint_copies < 1:
            raise ConfigError(f"joint_copies must be >= 1, got {self.joint_copies}")
        if self.estimation_copies < 0:
            raise ConfigError(
                f"budget {self.total_budget} too small for {self.blocks} blocks "
                f"of {self.joint_copies}"
            )
        if not 0.0 < self.eps0 < 1.0:
            raise ConfigError(f"eps0 must lie in (0,1), got {self.eps0}")
        if not 0.0 < self.resolution < math.inf:
            raise ConfigError(f"resolution must be finite and positive, got {self.resolution}")
        check_design_settings(self.estimation_povm, self.lambda_grid_size, self.theta_grid_size)

    @property
    def estimation_copies(self) -> int:
        return self.total_budget - self.joint_copies * self.blocks


@dataclass(frozen=True)
class FixedOutcome:
    """Result of a fixed-copy run; decision 1 rejects the null."""

    decision: int
    copies_used: int
    rounds_used: int
    # False when no setting met the size, so the run accepted without a test.
    calibrated: bool = True

    @property
    def rejected(self) -> bool:
        return self.decision == 1


def _majority(blocks: int) -> int:
    return blocks // 2 + 1


def _majority_tail(alpha: np.ndarray, blocks: int) -> np.ndarray:
    """Exact size of a majority vote: P(Binomial(blocks, alpha) >= _majority(blocks)).

    For one block this is alpha bit for bit, so one size rule serves every block count.
    """
    a = alpha.clip(0.0, 1.0)
    return sum(
        math.comb(blocks, k) * a**k * (1.0 - a) ** (blocks - k)
        for k in range(_majority(blocks), blocks + 1)
    )


def _estimation(
    fcfg: FixedTestConfig, cfg: FamilyConfig, alt_set: HypothesisSet
) -> tuple[np.ndarray, np.ndarray]:
    """alt_set's grid angles and the grid's log rows under the estimation POVM."""
    grid = build_grid(alt_set, fcfg.resolution)
    return grid.angles, estimation_log_rows(grid, cfg, estimation_povm(fcfg.estimation_povm))


def _fit_alternative(
    fcfg: FixedTestConfig,
    truth: np.ndarray,
    cfg: FamilyConfig,
    alt_set: HypothesisSet,
    rng: np.random.Generator,
    memo: dict,
) -> float:
    """Grid MLE angle on alt_set's grid from m single-copy estimation rounds."""
    angles, log_rows = memoized(memo, "estimation", _estimation, fcfg, cfg, alt_set)
    cum = truth_laws(truth, memo).dist(estimation_povm(fcfg.estimation_povm), True)._cum
    idx = np.searchsorted(cum, rng.random(fcfg.estimation_copies), side="right")
    counts = np.bincount(np.minimum(idx, len(cum) - 1), minlength=len(cum))
    return float(angles[int(np.argmax(counts @ log_rows))])


@dataclass(frozen=True)
class _BlockTest:
    """A calibrated joint block: the truth's outcome law, rejecting labels, setting in words."""

    dist: OutcomeDistribution
    rejecting: frozenset
    setting: str


def _block_test(dist: OutcomeDistribution, rejects, setting: str) -> _BlockTest:
    """The block test drawing from dist; rejects[i] is the vote of outcome dist.labels[i]."""
    rejecting = frozenset(x for x, r in zip(dist.labels, rejects) if r)
    return _BlockTest(dist, rejecting, setting)


def _run_blocks(block_test, fcfg, truth, cfg, null, alt_set, rng, memo) -> FixedOutcome:
    """The run body of both runners, whose arguments it takes after block_test.

    A majority vote over fcfg.blocks draws of the block test calibrated at
    the fitted angle w1. block_test(fcfg, laws, cfg, null, w1, memo) builds
    that test, or None when no setting meets the size; the run then
    accepts without drawing. Every run spends its whole budget, in m + b
    rounds. memo keeps one sub-memo per configuration it has seen, for as
    long as it lives: pass one memo per configuration, as
    harness.make_trial does, when sweeping settings.
    """
    # The null's type names the design: LHT and bLHT pass a float angle,
    # LVT and bLVT a HypothesisSet, so block_test is not in the key.
    key = (cfg, null, alt_set, fcfg.joint_copies, fcfg.eps0, fcfg.resolution,
           fcfg.estimation_povm, fcfg.lambda_grid_size, fcfg.theta_grid_size)
    memo = memoized(memo, key, dict)
    w1 = _fit_alternative(fcfg, truth, cfg, alt_set, rng, memo)
    laws = memo["truth"]  # _fit_alternative has just read it through truth_laws
    test = memoized(laws.memo, (w1, fcfg.blocks), block_test, fcfg, laws, cfg, null, w1, memo)
    decision = 0
    if test is not None:
        votes = sum(sample_outcome(test.dist, rng) in test.rejecting for _ in range(fcfg.blocks))
        decision = int(votes >= _majority(fcfg.blocks))
    rounds = fcfg.estimation_copies + fcfg.blocks
    return FixedOutcome(decision, fcfg.total_budget, rounds, test is not None)


def helstrom_calibration(
    weights: np.ndarray,
    alpha: np.ndarray,
    power: np.ndarray,
    eps0: float,
    blocks: int,
) -> tuple[float, float, float]:
    """Best Helstrom weight under the exact size constraint.

    alpha and power are the per-block rejection probabilities under the
    null and the alternative at each of weights, as _weight_table builds
    them. Returns (weight, per-block size, per-block power) maximizing
    power among weights whose b-block majority size stays within eps0;
    ties break toward the smaller weight. Raises InfeasibleCalibration
    when nothing passes.
    """
    ok = _majority_tail(alpha, blocks) <= eps0 + SIZE_SLACK
    if not bool(ok.any()):
        raise InfeasibleCalibration(
            f"no weight on the {len(weights)}-point grid meets size {eps0} with {blocks} blocks"
        )
    k = int(np.argmax(np.where(ok, power, -np.inf)))
    return float(weights[k]), float(alpha[k]), float(power[k])


def _joint_power(cfg: FamilyConfig, omega: float, copies: int) -> np.ndarray:
    return tensor_power(state_from_angle(cfg, omega), copies)


def _weight_table(
    pow0: np.ndarray, cfg: FamilyConfig, w1: float, copies: int, grid_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """w1's power, the weight grid and the Helstrom design's (size, power) at each weight."""
    pow1 = _joint_power(cfg, w1, copies)
    weights, p_m0 = _binary_probs_on_weight_grid(pow0, pow1, grid_size)
    return pow1, weights, 1.0 - p_m0[:, 0], 1.0 - p_m0[:, 1]


def _helstrom_block_test(
    fcfg: FixedTestConfig,
    laws: TruthLaws,
    cfg: FamilyConfig,
    omega0: float,
    w1: float,
    memo: dict,
) -> _BlockTest | None:
    """The block test calibrated at w1 for fcfg.blocks; memo keeps the block-free parts."""
    pow0 = memoized(memo, "null power", _joint_power, cfg, omega0, fcfg.joint_copies)
    pow1, *columns = memoized(
        memo, ("weight table", w1), _weight_table,
        pow0, cfg, w1, fcfg.joint_copies, fcfg.lambda_grid_size,
    )
    try:
        lam, alpha, power = helstrom_calibration(*columns, fcfg.eps0, fcfg.blocks)
    except InfeasibleCalibration:
        return None
    setting = f"weight {lam:g}, block size {alpha:.4g}, block power {power:.4g}"
    povm = helstrom_povm(pow0, pow1, lam)
    return _block_test(laws.dist(povm, False), (False, True), setting)


def _run_helstrom_family(
    fcfg: FixedTestConfig,
    truth: np.ndarray,
    cfg: FamilyConfig,
    omega0: float,
    alt_set: HypothesisSet,
    rng: np.random.Generator,
    memo: dict,
) -> FixedOutcome:
    """LHT and bLHT: majority vote over b Helstrom blocks sharing one estimate (LHT: b = 1)."""
    return _run_blocks(_helstrom_block_test, fcfg, truth, cfg, omega0, alt_set, rng, memo)


def _calibrate_variational(
    q: np.ndarray, pn: np.ndarray, eps0: float, blocks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-angle (power, threshold) of the ratio test at exact size eps0.

    q holds alternative-estimate probabilities (T, X); pn holds null grid
    probabilities (T, X, J). For each angle the realized ratios are sorted,
    every tie-respecting rejection region is sized against the worst null
    state (through the majority-vote binomial tail when blocks > 1), and
    the largest feasible region wins. Angles with no feasible region get
    power 0 and an infinite threshold, i.e. they never reject.
    """
    ratios = q / np.maximum(pn.max(axis=2), P_FLOOR)
    order = np.argsort(-ratios, axis=1, kind="stable")
    r_sorted = np.take_along_axis(ratios, order, axis=1)
    q_cum = np.cumsum(np.take_along_axis(q, order, axis=1), axis=1)
    n_cum = np.cumsum(np.take_along_axis(pn, order[:, :, None], axis=1), axis=1)
    alpha = n_cum.max(axis=2)
    ok = _majority_tail(alpha, blocks) <= eps0 + SIZE_SLACK
    cuttable = np.ones_like(ok)
    cuttable[:, :-1] = r_sorted[:, :-1] > r_sorted[:, 1:]
    feas = ok & cuttable
    rev_any = feas[:, ::-1].any(axis=1)
    k_best = feas.shape[1] - 1 - np.argmax(feas[:, ::-1], axis=1)
    picked = lambda arr: np.take_along_axis(arr, k_best[:, None], axis=1)[:, 0]
    power = np.where(rev_any, picked(q_cum), 0.0)
    tau = np.where(rev_any, picked(r_sorted), np.inf)
    return power, tau


def variational_calibration(
    q: np.ndarray, pn: np.ndarray, eps0: float, blocks: int
) -> tuple[int, float, float]:
    """Most powerful rotation of rotated_basis_tables' grid at exact size eps0.

    q[t, x] is the alternative's table and pn[t, x, j] the null grid's.
    Returns (index into thetas, per-block power, ratio threshold); ties
    break toward the smaller angle. Raises InfeasibleCalibration when no
    rotation has a finite threshold.
    """
    power, tau = _calibrate_variational(q, pn, eps0, blocks)
    if not np.isfinite(tau).any():
        raise InfeasibleCalibration(
            f"no rotation on the {len(tau)}-point grid meets size {eps0} with {blocks} blocks"
        )
    t = int(np.argmax(power))
    return t, float(power[t]), float(tau[t])


def _variational_block_test(
    fcfg: FixedTestConfig,
    laws: TruthLaws,
    cfg: FamilyConfig,
    null_set: HypothesisSet,
    w1: float,
    memo: dict,
) -> _BlockTest | None:
    """The block test calibrated at w1 for fcfg.blocks; memo keeps the block-free parts."""
    tables = lambda angles: rotated_basis_tables(
        cfg, angles, fcfg.joint_copies, fcfg.theta_grid_size
    )
    null_table = lambda: tables(build_grid(null_set, fcfg.resolution).angles)
    _, pn = memoized(memo, "null table", null_table)
    thetas, p = memoized(memo, ("rotated table", w1), tables, (w1,))
    q = p[:, :, 0]
    try:
        t_best, power, threshold = variational_calibration(q, pn, fcfg.eps0, fcfg.blocks)
    except InfeasibleCalibration:
        return None
    ratio_row = q[t_best] / np.maximum(pn[t_best].max(axis=1), P_FLOOR)
    theta = float(thetas[t_best])
    setting = f"rotation {theta:g} rad, threshold {threshold:g}, block power {power:.4g}"
    key = ("variational", theta)
    dist = memoized(laws.memo, key, _variational_law, laws, theta, fcfg.joint_copies)
    return _block_test(dist, ratio_row >= threshold, setting)


def _variational_law(laws: TruthLaws, theta: float, copies: int) -> OutcomeDistribution:
    """The truth's law under variational_povm(theta, copies); the POVM is not kept."""
    return laws.dist(variational_povm(theta, copies), False)


def _run_variational_family(
    fcfg: FixedTestConfig,
    truth: np.ndarray,
    cfg: FamilyConfig,
    null_set: HypothesisSet,
    alt_set: HypothesisSet,
    rng: np.random.Generator,
    memo: dict,
) -> FixedOutcome:
    """LVT and bLVT: majority vote over b variational blocks sharing one estimate (LVT: b = 1)."""
    return _run_blocks(_variational_block_test, fcfg, truth, cfg, null_set, alt_set, rng, memo)


# Four method names, two runners. harness.make_trial calls each method's runs
# through its own name, so rebinding one harness name (as perfbench/child.py
# does to time runs) intercepts that method alone; perfbench/tracer.py opens a
# run at the runner itself.
run_lht = run_blht = _run_helstrom_family
run_lvt = run_blvt = _run_variational_family
