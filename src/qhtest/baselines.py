"""Fixed-copy baseline tests: single-shot and majority-vote variants.

Each baseline splits a fixed budget of n copies into m = n - (joint copies
per block) * b single-copy estimation rounds and b joint blocks. The
estimation rounds fit the alternative angle by grid MLE (an empty
estimation phase falls back to the grid tie-break angle); the joint blocks
then run a calibrated test built from that estimate:

* run_lht / run_blht: weighted Helstrom measurement against a simple null
  angle. The weight is chosen on a grid to maximize exact power subject to
  the exact size constraint; with b blocks the constraint is applied to the
  majority vote through the exact binomial tail.
* run_lvt / run_blvt: a variational rotated-basis measurement scored by the
  generalized likelihood ratio of the fitted alternative against the worst
  null grid state, thresholded at the smallest realized ratio whose
  rejection region passes the size constraint, with the rotation angle
  chosen for power at that threshold.

Majority votes reject on strictly more than half the blocks, so even-split
ties accept. With b = 1 both majority variants reduce exactly to their
single-block tests, including the random stream they consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import estimation_povm
from .errors import ConfigError, InfeasibleCalibration
from .family import (
    DEFAULT_RESOLUTION,
    FamilyConfig,
    HypothesisSet,
    P_FLOOR,
    ParamGrid,
    build_grid,
    estimation_log_rows,
    state_from_angle,
)
from .measurements import (
    HelstromSpec,
    _binary_probs_on_weight_grid,
    _rotated_basis_probs,
    _variational_unitaries,
    helstrom_povm,
    variational_povm,
)
from .quantum import DensityMatrix, born_distribution, sample_outcome, tensor_power

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

    @property
    def estimation_copies(self) -> int:
        return self.total_budget - self.joint_copies * self.blocks


@dataclass(frozen=True)
class FixedOutcome:
    """Result of a fixed-copy run; decision 1 rejects the null."""

    decision: int
    copies_used: int
    rounds_used: int

    @property
    def rejected(self) -> bool:
        return self.decision == 1


def _majority(blocks: int) -> int:
    return blocks // 2 + 1


def _majority_tail(alpha: np.ndarray, blocks: int) -> np.ndarray:
    """Exact size of a majority vote: P(Binomial(blocks, alpha) >= _majority(blocks))."""
    a = alpha.clip(0.0, 1.0)
    return sum(
        math.comb(blocks, k) * a**k * (1.0 - a) ** (blocks - k)
        for k in range(_majority(blocks), blocks + 1)
    )


def _fit_alternative(
    fcfg: FixedTestConfig,
    truth: DensityMatrix,
    cfg: FamilyConfig,
    grid: ParamGrid,
    rng: np.random.Generator,
) -> float:
    """Grid MLE angle from m single-copy estimation rounds."""
    povm = estimation_povm(fcfg.estimation_povm)
    dist = born_distribution(truth, povm)
    counts = np.zeros(len(povm.labels))
    for _ in range(fcfg.estimation_copies):
        counts[povm._index[sample_outcome(dist, rng)]] += 1.0
    log_rows = estimation_log_rows(grid, cfg, povm)
    return float(grid.angles[int(np.argmax(counts @ log_rows))])


def helstrom_calibration(
    pow0: np.ndarray,
    pow1: np.ndarray,
    eps0: float,
    grid_size: int,
    blocks: int = 1,
) -> tuple[float, float, float]:
    """Best Helstrom weight under the exact size constraint.

    Returns (weight, per-block size, per-block power) maximizing power over
    the weight grid among weights whose exact rejection probability under
    the null keeps the b-block majority size within eps0; ties break toward
    the smaller weight. Raises InfeasibleCalibration when nothing passes.
    """
    weights = np.arange(1, grid_size + 1) / (grid_size + 1)
    p_m0 = _binary_probs_on_weight_grid(pow0, pow1, weights, np.stack([pow0, pow1]))
    alpha = 1.0 - p_m0[:, 0]
    power = 1.0 - p_m0[:, 1]
    if blocks == 1:
        ok = alpha <= eps0 + SIZE_SLACK
    else:
        ok = _majority_tail(alpha, blocks) <= eps0 + SIZE_SLACK
    if not bool(ok.any()):
        raise InfeasibleCalibration(
            f"no weight on the {grid_size}-point grid meets size {eps0} with {blocks} blocks"
        )
    k = int(np.argmax(np.where(ok, power, -np.inf)))
    return float(weights[k]), float(alpha[k]), float(power[k])


def _run_helstrom_family(
    fcfg: FixedTestConfig,
    truth: DensityMatrix,
    cfg: FamilyConfig,
    omega0: float,
    alt_set: HypothesisSet,
    rng: np.random.Generator,
) -> FixedOutcome:
    rounds = fcfg.estimation_copies + fcfg.blocks
    grid = build_grid(alt_set, fcfg.resolution)
    w1 = _fit_alternative(fcfg, truth, cfg, grid, rng)
    pow0 = tensor_power(state_from_angle(cfg, omega0), fcfg.joint_copies).mat
    pow1 = tensor_power(state_from_angle(cfg, w1), fcfg.joint_copies).mat
    try:
        lam, _, _ = helstrom_calibration(
            pow0, pow1, fcfg.eps0, fcfg.lambda_grid_size, fcfg.blocks
        )
    except InfeasibleCalibration:
        return FixedOutcome(decision=0, copies_used=fcfg.total_budget, rounds_used=rounds)
    povm = helstrom_povm(
        HelstromSpec(
            null_state=state_from_angle(cfg, omega0),
            alt_state=state_from_angle(cfg, w1),
            weight=lam,
            copies=fcfg.joint_copies,
        )
    )
    dist = born_distribution(tensor_power(truth, fcfg.joint_copies), povm)
    votes = sum(sample_outcome(dist, rng) == 1 for _ in range(fcfg.blocks))
    decision = int(votes >= _majority(fcfg.blocks))
    return FixedOutcome(decision=decision, copies_used=fcfg.total_budget, rounds_used=rounds)


def run_lht(
    fcfg: FixedTestConfig,
    truth: DensityMatrix,
    cfg: FamilyConfig,
    omega0: float,
    alt_set: HypothesisSet,
    rng: np.random.Generator,
) -> FixedOutcome:
    """Single calibrated Helstrom block after m estimation rounds."""
    if fcfg.blocks != 1:
        raise ConfigError(f"run_lht needs blocks == 1, got {fcfg.blocks}")
    return _run_helstrom_family(fcfg, truth, cfg, omega0, alt_set, rng)


def run_blht(
    fcfg: FixedTestConfig,
    truth: DensityMatrix,
    cfg: FamilyConfig,
    omega0: float,
    alt_set: HypothesisSet,
    rng: np.random.Generator,
) -> FixedOutcome:
    """Majority vote over b Helstrom blocks sharing one estimate."""
    return _run_helstrom_family(fcfg, truth, cfg, omega0, alt_set, rng)


_u_cache: dict = {}


def _unitary_grid(grid_size: int, copies: int) -> tuple[np.ndarray, np.ndarray]:
    key = (grid_size, copies)
    hit = _u_cache.get(key)
    if hit is None:
        thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
        hit = (thetas, _variational_unitaries(thetas, copies))
        _u_cache[key] = hit
    return hit


def variational_tables(
    cfg: FamilyConfig,
    alt_angle: float,
    null_angles: np.ndarray,
    copies: int,
    grid_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotation grid and outcome tables that _calibrate_variational sizes.

    Returns (thetas, q, pn): thetas holds grid_size rotation angles in
    radians, q[t, x] the probability of outcome x of the rotated basis at
    thetas[t] on `copies` copies of the state at alt_angle, and
    pn[t, x, j] the same under the state at null_angles[j].
    """
    thetas, u = _unitary_grid(grid_size, copies)
    q = _rotated_basis_probs(u, tensor_power(state_from_angle(cfg, alt_angle), copies).mat)
    nstack = np.stack(
        [tensor_power(state_from_angle(cfg, w), copies).mat for w in null_angles]
    )
    pn = np.einsum("txa,jab,txb->txj", u, nstack, u.conj()).real.clip(min=0.0)
    return thetas, q, pn


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
    if blocks == 1:
        ok = alpha <= eps0 + SIZE_SLACK
    else:
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
    """Most powerful rotation of variational_tables' grid at exact size eps0.

    Returns (index into thetas, per-block power, ratio threshold); ties
    break toward the smaller angle. With no feasible rotation the power is
    0 and the threshold infinite, so the test never rejects.
    """
    power, tau = _calibrate_variational(q, pn, eps0, blocks)
    t = int(np.argmax(power))
    return t, float(power[t]), float(tau[t])


def _run_variational_family(
    fcfg: FixedTestConfig,
    truth: DensityMatrix,
    cfg: FamilyConfig,
    null_set: HypothesisSet,
    alt_set: HypothesisSet,
    rng: np.random.Generator,
) -> FixedOutcome:
    rounds = fcfg.estimation_copies + fcfg.blocks
    alt_grid = build_grid(alt_set, fcfg.resolution)
    w1 = _fit_alternative(fcfg, truth, cfg, alt_grid, rng)
    null_angles = build_grid(null_set, fcfg.resolution).angles
    thetas, q, pn = variational_tables(
        cfg, w1, null_angles, fcfg.joint_copies, fcfg.theta_grid_size
    )
    t_best, _, threshold = variational_calibration(q, pn, fcfg.eps0, fcfg.blocks)
    ratio_row = q[t_best] / np.maximum(pn[t_best].max(axis=1), P_FLOOR)
    povm = variational_povm(float(thetas[t_best]), fcfg.joint_copies)
    dist = born_distribution(tensor_power(truth, fcfg.joint_copies), povm)
    votes = 0
    for _ in range(fcfg.blocks):
        x = sample_outcome(dist, rng)
        if ratio_row[povm._index[x]] >= threshold:
            votes += 1
    decision = int(votes >= _majority(fcfg.blocks))
    return FixedOutcome(decision=decision, copies_used=fcfg.total_budget, rounds_used=rounds)


def run_lvt(
    fcfg: FixedTestConfig,
    truth: DensityMatrix,
    cfg: FamilyConfig,
    null_set: HypothesisSet,
    alt_set: HypothesisSet,
    rng: np.random.Generator,
) -> FixedOutcome:
    """One calibrated variational ratio test after m estimation rounds."""
    if fcfg.blocks != 1:
        raise ConfigError(f"run_lvt needs blocks == 1, got {fcfg.blocks}")
    return _run_variational_family(fcfg, truth, cfg, null_set, alt_set, rng)


def run_blvt(
    fcfg: FixedTestConfig,
    truth: DensityMatrix,
    cfg: FamilyConfig,
    null_set: HypothesisSet,
    alt_set: HypothesisSet,
    rng: np.random.Generator,
) -> FixedOutcome:
    """Majority vote over b variational blocks sharing one estimate."""
    return _run_variational_family(fcfg, truth, cfg, null_set, alt_set, rng)
