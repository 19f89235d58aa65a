"""Independent checks of the sequential engine.

Everything here recomputes quantities the engine produces incrementally,
using exhaustive enumeration or from-scratch refits, and is deliberately
slow. The engine must agree with these within tight tolerances; the checks
back both the unit tests and the `verify` CLI subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    PolicyConfig,
    SlrState,
    estimation_povm as select_estimation_povm,  # recompute_slr has a parameter of that name
    new_slr_state,
    next_measurement,
    numerator_log_term,
    observe_round,
    predictable_estimate,
    truth_laws,
)
from .errors import HorizonTooLarge
from .family import (
    DEFAULT_RESOLUTION,
    FamilyConfig,
    HypothesisSet,
    accumulate,
    build_grid,
    mle,
    outcome_coeffs,
    parse_hypothesis_set,
)
from .measurements import helstrom_povm
from .quantum import born_distribution, sample_outcome, tensor_power, trace_norm

MAX_HORIZON = 3


class _HalfDraw:
    """Stand-in generator that fixes the aLHT block weight at 0.5."""

    def random(self) -> float:
        return 0.5


@dataclass(frozen=True)
class Branch:
    """One full transcript of the enumeration tree."""

    records: tuple
    probability: float
    log_slr: float


def enumerate_transcripts(
    policy: PolicyConfig,
    truth: np.ndarray,
    cfg: FamilyConfig,
    null_set: HypothesisSet,
    alt_set: HypothesisSet,
    horizon: int,
    resolution: float = DEFAULT_RESOLUTION,
) -> list[Branch]:
    """All positive-probability transcripts up to the horizon.

    The policy is replayed deterministically (aLHT's random weight pinned
    to 0.5); every branch weight is the product of exact Born probabilities
    under `truth`. Each node is planned once (next_measurement) and each
    positive-probability outcome observed into its own child, in label
    order; the whole tree shares one trial memo. Branch probabilities sum
    to one at every horizon.
    """
    if not 1 <= horizon <= MAX_HORIZON:
        raise HorizonTooLarge(f"horizon must be in 1..{MAX_HORIZON}, got {horizon}")
    rng = _HalfDraw()
    memo: dict = {}
    laws = truth_laws(truth, memo)
    out: list[Branch] = []

    def walk(state: SlrState, prob: float, depth: int):
        if depth == horizon:
            out.append(Branch(records=state.rounds, probability=prob, log_slr=state.log_slr))
            return
        plan = next_measurement(policy, state, cfg, rng, memo)
        dist = laws.dist(plan.povm, plan.recurs)
        for label, p in zip(dist.labels, dist.probs):
            if p == 0.0:
                continue
            child, _ = observe_round(policy, cfg, plan, label, state, None, memo)
            walk(child, prob * float(p), depth + 1)

    walk(new_slr_state(null_set, alt_set, resolution), 1.0, 0)
    return out


def eprocess_expectation(
    policy: PolicyConfig,
    truth: np.ndarray,
    cfg: FamilyConfig,
    null_set: HypothesisSet,
    alt_set: HypothesisSet,
    horizon: int,
    use_mle_denominator: bool = False,
    resolution: float = DEFAULT_RESOLUTION,
) -> float:
    """Exact expectation of the likelihood-ratio process at the horizon.

    With the true-state denominator the process is a nonnegative
    supermartingale with unit initial value, so the expectation is exactly
    one whenever every enumerated outcome has positive probability: the
    per-branch ratio is prod(numerators)/prob and the weighted sum
    telescopes through POVM completeness. With use_mle_denominator the
    engine's own refined denominator replaces the true state, and in exact
    arithmetic the expectation can only drop. Each term is exp(log p +
    log SLR); a term past the float range returns inf.
    """
    branches = enumerate_transcripts(
        policy, truth, cfg, null_set, alt_set, horizon, resolution
    )
    total = 0.0
    for br in branches:
        if use_mle_denominator:
            try:
                total += math.exp(math.log(br.probability) + br.log_slr)
            except OverflowError:
                return math.inf
        else:
            total += math.exp(sum(r.log_numerator_term for r in br.records))
    return total


def recompute_slr(
    records: tuple,
    cfg: FamilyConfig,
    null_set: HypothesisSet,
    alt_set: HypothesisSet,
    resolution: float = DEFAULT_RESOLUTION,
    initial_alt_angle: float | None = None,
    estimation_povm: str = "computational",
) -> np.ndarray:
    """From-scratch log SLR at every prefix of a stored transcript.

    Each round's coefficient row is rebuilt from its POVM and outcome
    rather than read from the record. Every numerator estimate is refitted
    on its own prefix from an empty grid, and every denominator
    maximization reruns on its full prefix; no fit is reused across
    prefixes. The engine's incremental values must
    match this within 1e-9. estimation_povm names the single-copy
    measurement whose outcomes regularize the numerator estimates and must
    match the policy that produced the transcript.
    """
    est_povm = select_estimation_povm(estimation_povm)
    rows = [outcome_coeffs(cfg, r.povm.element(r.outcome)) for r in records]
    logs = np.empty(len(records))
    for t in range(1, len(records) + 1):
        frozen = 0.0
        for i in range(t):
            galt = build_grid(alt_set, resolution)
            for row in rows[:i]:
                galt = accumulate(galt, row)
            w = predictable_estimate(galt, cfg, est_povm, initial_alt_angle)
            frozen += numerator_log_term(rows[i], w)
        gnull = build_grid(null_set, resolution)
        for row in rows[:t]:
            gnull = accumulate(gnull, row)
        logs[t - 1] = frozen - mle(gnull).loglik
    return logs


def helstrom_bound(
    null_state: np.ndarray,
    alt_state: np.ndarray,
    weight: float,
    copies: int = 1,
) -> float:
    """Minimum weighted error (1-w) alpha + w beta over all measurements."""
    p0 = tensor_power(null_state, copies)
    p1 = tensor_power(alt_state, copies)
    return 0.5 * (1.0 - trace_norm((1.0 - weight) * p0 - weight * p1))


def helstrom_error(
    null_state: np.ndarray,
    alt_state: np.ndarray,
    weight: float,
    copies: int = 1,
) -> float:
    """Weighted error the two-outcome eigenspace measurement realizes."""
    pow0 = tensor_power(null_state, copies)
    pow1 = tensor_power(alt_state, copies)
    povm = helstrom_povm(pow0, pow1, weight)
    alpha = born_distribution(pow0, povm).probs[1]
    beta = born_distribution(pow1, povm).probs[0]
    return (1.0 - weight) * alpha + weight * beta


def small_policy() -> tuple[FamilyConfig, PolicyConfig]:
    """A one-estimation-one-joint block policy small enough to enumerate."""
    return FamilyConfig(), PolicyConfig(kind="aLHT+", n_ic=1, n_joint=1)


def small_sets() -> tuple[HypothesisSet, HypothesisSet]:
    """Point null at 45 degrees against the rest of the upper arc."""
    return parse_hypothesis_set("{45}"), parse_hypothesis_set("(45,180]")


def sample_transcript(
    policy: PolicyConfig,
    truth: np.ndarray,
    cfg: FamilyConfig,
    null_set: HypothesisSet,
    alt_set: HypothesisSet,
    n_rounds: int,
    rng: np.random.Generator,
    resolution: float = DEFAULT_RESOLUTION,
) -> tuple[tuple, np.ndarray]:
    """Sample a fixed-length transcript; return records and engine log SLRs.

    Rounds take the engine's step, so they equal run_sequential_test's for
    the same seed, but this never stops early, which makes it the right
    generator for engine-versus-recomputation comparisons.
    """
    state = new_slr_state(null_set, alt_set, resolution)
    memo: dict = {}
    laws = truth_laws(truth, memo)
    logs = np.empty(n_rounds)
    for t in range(n_rounds):
        plan = next_measurement(policy, state, cfg, rng, memo)
        outcome = sample_outcome(laws.dist(plan.povm, plan.recurs), rng)
        state, _ = observe_round(
            policy, cfg, plan, outcome, state, None, memo
        )
        logs[t] = state.log_slr
    return state.rounds, logs
