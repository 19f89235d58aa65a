"""Sequential test engine: split likelihood ratio, policies, stopping.

The running statistic is kept in log form. After round t,

    log SLR(t) = sum_{i<=t} log Tr((rho_alt^{i-1})^(x)n_i M_i)
               - max over the null grid (refined) of the accumulated
                 log-likelihood sums,

where rho_alt^{i-1} is fitted to rounds 1..i-1 only: it maximizes the
accumulated log likelihood plus a weighted pseudo-outcome regularizer (see
predictable_estimate and PSEUDO_WEIGHT). The regularizer matters because every state in the
family is pure: the raw prefix MLE can sit on an angle that assigns
probability zero to a perfectly possible next outcome, and one such round
would freeze a minus-infinity term into the numerator forever. Each
round's numerator term is frozen when the round is recorded and never
revisited; only the denominator maximization reruns as new rounds arrive.
The test rejects as soon as log SLR >= log(1/eps0).

Numerator probabilities are additionally clamped at NUMERATOR_FLOOR, so a
predicted-impossible outcome that still happens costs log(NUMERATOR_FLOOR)
rather than ending the run. The clamp can only raise the statistic by a
factor (1 + t * NUMERATOR_FLOOR) after t rounds, far inside every
tolerance used here; the denominator is never clamped upward, so validity
is untouched.

Two-sided mode runs a second state with the set roles reversed and accepts
the null when the reversed statistic crosses log(1/eps1). Both statistics
crossing at once raises InvariantViolation: each side's frozen numerator
telescopes against the other side's denominator maximum, so the product of
the two statistics stays below exp(d0 + d1 + t * NUMERATOR_FLOOR), where
each d is the spread of the pseudo-outcome regularizer over that side's
grid (under 0.1 nats for this family). Simultaneous crossing would need
that product to reach 1/(eps0 * eps1), impossible for any eps pair with
log(1/(eps0 * eps1)) above the combined slack.

Randomness: one Generator drives a run. Per round the engine draws, in
order, the aLHT block weight (only when that round is the joint round of a
block) and then the outcome. Nothing else consumes the stream, so runs are
replayable from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantViolation
from .family import (
    DEFAULT_RESOLUTION,
    FamilyConfig,
    HypothesisSet,
    MleResult,
    ParamGrid,
    accumulate,
    build_grid,
    estimation_log_rows,
    log_outcome_prob,
    mle,
    sets_disjoint,
    state_from_angle,
)
from .measurements import (
    HelstromSpec,
    helstrom_povm,
    optimize_lambda,
    optimize_theta,
    variational_povm,
)
from .quantum import (
    DensityMatrix,
    Povm,
    born_distribution,
    computational_basis_povm,
    sample_outcome,
    sic_povm_qubit,
    tensor_power,
)

POLICY_KINDS = ("aLHT", "aLHT+", "aLVT")
ESTIMATION_POVMS = ("computational", "sic")

_est_povm_cache: dict = {}


def estimation_povm(name: str) -> Povm:
    """Single-copy estimation measurement named in ESTIMATION_POVMS, built once."""
    hit = _est_povm_cache.get(name)
    if hit is None:
        if name == "computational":
            hit = computational_basis_povm(1)
        elif name == "sic":
            hit = sic_povm_qubit()
        else:
            raise ConfigError(
                f"unknown estimation POVM {name!r}, expected {ESTIMATION_POVMS}"
            )
        _est_povm_cache[name] = hit
    return hit

NUMERATOR_FLOOR = 1e-12
_LOG_NUMERATOR_FLOOR = math.log(NUMERATOR_FLOOR)

# Prior strength of the pseudo-outcome regularizer on the predictable
# alternative estimate. Large enough to keep early estimates off angles
# that predict probability zero for a possible outcome, small enough that
# two or three observed rounds dominate it.
PSEUDO_WEIGHT = 0.3


def numerator_log_term(
    cfg: FamilyConfig, omega: float, element: np.ndarray, copies: int
) -> float:
    """Clamped log probability frozen into the numerator for one round."""
    return max(log_outcome_prob(cfg, omega, element, copies), _LOG_NUMERATOR_FLOOR)

REJECT = "reject"
ACCEPT = "accept"
BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class PolicyConfig:
    """Adaptive policy: block layout plus the joint-design rule.

    Each block is n_ic single-copy estimation rounds followed by one joint
    round on n_joint fresh copies. aLHT draws the Helstrom weight uniformly
    per block, aLHT+ grid-optimizes it, aLVT grid-optimizes the variational
    angle. initial_alt_angle overrides the pre-data alternative estimate
    (it is snapped to the grid).
    """

    kind: str
    n_ic: int = 6
    n_joint: int = 4
    estimation_povm: str = "computational"
    initial_alt_angle: float | None = None
    lambda_grid_size: int = 99
    theta_grid_size: int = 360

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind {self.kind!r}, expected {POLICY_KINDS}")
        if self.estimation_povm not in ESTIMATION_POVMS:
            raise ConfigError(
                f"unknown estimation POVM {self.estimation_povm!r}, expected {ESTIMATION_POVMS}"
            )
        if self.n_ic < 0:
            raise ConfigError(f"n_ic must be >= 0, got {self.n_ic}")
        if self.n_joint < 1:
            raise ConfigError(f"n_joint must be >= 1, got {self.n_joint}")
        if self.lambda_grid_size < 1 or self.theta_grid_size < 1:
            raise ConfigError("design grid sizes must be >= 1")


@dataclass(frozen=True)
class RoundRecord:
    """One observed round, with its numerator term frozen at record time."""

    index: int
    povm: Povm
    descriptor: str
    copies: int
    outcome: object
    log_numerator_term: float


@dataclass(frozen=True)
class SlrState:
    """Transcript plus the two accumulated grids and the frozen numerator.

    null_mle is the refined null-grid MLE behind the current denominator
    (None before any round).
    """

    null_grid: ParamGrid
    alt_grid: ParamGrid
    frozen_log_numerator: float = 0.0
    rounds: tuple = ()
    null_mle: MleResult | None = None


def new_slr_state(
    null_set: HypothesisSet,
    alt_set: HypothesisSet,
    resolution: float = DEFAULT_RESOLUTION,
) -> SlrState:
    return SlrState(null_grid=build_grid(null_set, resolution), alt_grid=build_grid(alt_set, resolution))


def slr_update(state: SlrState, rec: RoundRecord, cfg: FamilyConfig) -> tuple[SlrState, float]:
    """Fold one round into the state; return it with the new log SLR.

    The record's numerator term must have been computed from the
    alternative MLE fitted on prior rounds only; this function just
    accumulates it. The denominator is the refined null-grid maximum over
    all rounds including this one; the new state keeps that MleResult as
    null_mle, so next_measurement reads the null estimate of a joint round
    from it instead of refining the same grid again.
    """
    if rec.log_numerator_term > 1e-12:
        raise InvariantViolation(
            f"log numerator term {rec.log_numerator_term:.3e} is positive"
        )
    alt = accumulate(state.alt_grid, cfg, rec.povm, rec.copies, rec.outcome)
    null = accumulate(state.null_grid, cfg, rec.povm, rec.copies, rec.outcome)
    frozen = state.frozen_log_numerator + rec.log_numerator_term
    null_mle = mle(null, cfg, refine=True)
    new_state = SlrState(
        null_grid=null,
        alt_grid=alt,
        frozen_log_numerator=frozen,
        rounds=state.rounds + (rec,),
        null_mle=null_mle,
    )
    return new_state, frozen - null_mle.loglik


def record_round(
    state: SlrState,
    cfg: FamilyConfig,
    povm: Povm,
    descriptor: str,
    copies: int,
    outcome,
    est_povm: Povm,
    override_angle: float | None = None,
) -> tuple[SlrState, float]:
    """Record one observed round and fold it into the state.

    The numerator term is frozen from the predictable estimate of the
    rounds already in `state` (see predictable_estimate), before this
    outcome counts toward any fit. Returns slr_update's new state and log
    SLR.
    """
    w = predictable_estimate(
        state.alt_grid, cfg, bool(state.rounds), override_angle, est_povm
    ).omega
    rec = RoundRecord(
        index=len(state.rounds) + 1,
        povm=povm,
        descriptor=descriptor,
        copies=copies,
        outcome=outcome,
        log_numerator_term=numerator_log_term(cfg, w, povm.element(outcome), copies),
    )
    return slr_update(state, rec, cfg)


def _snap_to_grid(grid: ParamGrid, angle: float) -> float:
    j = int(np.argmin(np.abs(grid.angles - angle)))
    return float(grid.angles[j])


def _default_angle(grid: ParamGrid) -> float:
    """Grid angle nearest the midpoint of the widest grid segment."""
    best_mid = None
    best_span = -1.0
    for seg in np.unique(grid.segments):
        pts = grid.angles[grid.segments == seg]
        span = float(pts[-1] - pts[0])
        if span > best_span:
            best_span = span
            best_mid = (float(pts[0]) + float(pts[-1])) / 2.0
    return _snap_to_grid(grid, best_mid)


def _angle_to_piece(angle: float, piece) -> float:
    if piece.contains(angle):
        return 0.0
    return min(abs(angle - piece.start), abs(angle - piece.end))


def conservative_start(state_grid: ParamGrid, opposing: HypothesisSet) -> float:
    """Grid angle of this set closest to the opposing hypothesis set.

    Starting the predictable alternative estimate here makes the first
    block's ratio increments nearly flat: the numerator predicts almost
    the same outcome probabilities as the best null state, so evidence
    only accrues once the estimate has been pulled toward the data. Ties
    resolve to the smallest angle.
    """
    dists = [
        min(_angle_to_piece(float(a), p) for p in opposing.pieces)
        for a in state_grid.angles
    ]
    return float(state_grid.angles[int(np.argmin(dists))])


def _pseudo_loglik(grid: ParamGrid, cfg: FamilyConfig, povm: Povm) -> np.ndarray:
    """Per-angle weighted log probability of one estimation-measurement copy.

    Acts as PSEUDO_WEIGHT pseudo-outcomes added uniformly to the
    likelihood: angles that would predict probability zero for a possible
    estimation outcome (pure states aligned against a projector) score far
    below everything else, so the regularized argmax never lands on them.
    Cached alongside the grid's basis matrices; the vector depends only on
    the grid angles.
    """
    key = ("pseudo", povm.labels)
    hit = grid.basis_cache.get(key)
    if hit is None:
        hit = PSEUDO_WEIGHT * np.mean(estimation_log_rows(grid, cfg, povm), axis=0)
        hit.setflags(write=False)
        grid.basis_cache[key] = hit
    return hit


def predictable_estimate(
    state_grid: ParamGrid,
    cfg: FamilyConfig,
    has_rounds: bool,
    override_angle: float | None = None,
    estimation_povm: Povm | None = None,
) -> MleResult:
    """Predictable angle estimate for the ratio numerator.

    Before any data the estimate is a fixed grid angle: the override if
    given, else the widest-segment midpoint. Once data exists and an
    estimation POVM is supplied, the estimate maximizes the accumulated
    log likelihood plus the pseudo-outcome regularizer of _pseudo_loglik
    (a raw grid MLE without a POVM). The regularizer perturbs each
    prefix's maximizer by a bounded score, so the telescoping bound behind
    the no-simultaneous-crossing argument degrades by at most the
    regularizer's spread (well under 0.1 nats here) against a crossing
    slack of log(1/(eps0*eps1)).
    """
    if not has_rounds:
        w = (
            _snap_to_grid(state_grid, override_angle)
            if override_angle is not None
            else _default_angle(state_grid)
        )
        return MleResult(omega=w, loglik=0.0, state=state_from_angle(cfg, w))
    if estimation_povm is None:
        return mle(state_grid, cfg, refine=False)
    scores = state_grid.per_angle_loglik + _pseudo_loglik(state_grid, cfg, estimation_povm)
    j = int(np.argmax(scores))
    return MleResult(
        omega=float(state_grid.angles[j]),
        loglik=float(state_grid.per_angle_loglik[j]),
        state=state_from_angle(cfg, float(state_grid.angles[j])),
    )


_design_cache: dict = {}


def _joint_design(
    policy: PolicyConfig,
    cfg: FamilyConfig,
    w0: float,
    w1: float,
    rng: np.random.Generator,
) -> tuple[Povm, str]:
    """POVM for a joint round given the current estimates.

    Optimized designs are memoized on (kind, family, angles, sizes); the
    optimizers are pure so this only saves recomputation when the MLEs
    revisit an angle pair. aLHT consumes one uniform draw here.
    """
    if policy.kind == "aLHT":
        lam = rng.random()
        while lam == 0.0:
            lam = rng.random()
        spec = HelstromSpec(
            null_state=state_from_angle(cfg, w0),
            alt_state=state_from_angle(cfg, w1),
            weight=lam,
            copies=policy.n_joint,
        )
        return helstrom_povm(spec), f"helstrom(w0={w0:g},w1={w1:g},lam={lam:.6f})"
    key = (policy.kind, cfg.r_z, cfg.r_x, w0, w1, policy.n_joint,
           policy.lambda_grid_size, policy.theta_grid_size)
    hit = _design_cache.get(key)
    if hit is not None:
        return hit
    if policy.kind == "aLHT+":
        lam = optimize_lambda(
            state_from_angle(cfg, w0),
            state_from_angle(cfg, w1),
            policy.n_joint,
            policy.lambda_grid_size,
        )
        spec = HelstromSpec(
            null_state=state_from_angle(cfg, w0),
            alt_state=state_from_angle(cfg, w1),
            weight=lam,
            copies=policy.n_joint,
        )
        out = (helstrom_povm(spec), f"helstrom(w0={w0:g},w1={w1:g},lam={lam:.6f})")
    else:
        theta = optimize_theta(
            state_from_angle(cfg, w0),
            state_from_angle(cfg, w1),
            policy.n_joint,
            policy.theta_grid_size,
        )
        out = (variational_povm(theta, policy.n_joint), f"variational(theta={theta:.8f})")
    _design_cache[key] = out
    return out


def next_measurement(
    policy: PolicyConfig,
    state: SlrState,
    cfg: FamilyConfig,
    rng: np.random.Generator,
) -> tuple[Povm, int, str]:
    """Measurement for the upcoming round given the transcript so far."""
    pos = len(state.rounds) % (policy.n_ic + 1)
    est = estimation_povm(policy.estimation_povm)
    if pos < policy.n_ic:
        return est, 1, f"{policy.estimation_povm}(n=1)"
    has = bool(state.rounds)
    w0 = state.null_mle.omega if has else _default_angle(state.null_grid)
    w1 = predictable_estimate(
        state.alt_grid, cfg, has, policy.initial_alt_angle, est
    ).omega
    povm, desc = _joint_design(policy, cfg, w0, w1, rng)
    return povm, policy.n_joint, desc


def one_sided_decision(log_slr: float, eps0: float) -> bool:
    """Reject the null iff the SLR has reached 1/eps0 (boundary inclusive)."""
    if not 0.0 < eps0 < 1.0:
        raise ConfigError(f"eps0 must lie in (0,1), got {eps0}")
    return log_slr >= math.log(1.0 / eps0)


def two_sided_decision(log_slr0: float, log_slr1: float, eps0: float, eps1: float) -> str:
    """Ternary decision; simultaneous crossings are impossible and raise."""
    if min(eps0, eps1) >= 1.0 or min(eps0, eps1) <= 0.0:
        raise ConfigError(f"need 0 < min(eps0, eps1) < 1, got ({eps0}, {eps1})")
    cross0 = log_slr0 >= math.log(1.0 / eps0)
    cross1 = log_slr1 >= math.log(1.0 / eps1)
    if cross0 and cross1:
        raise InvariantViolation(
            f"both SLRs crossed: log0={log_slr0:.6g}, log1={log_slr1:.6g}"
        )
    if cross0:
        return REJECT
    if cross1:
        return ACCEPT
    return "continue"


@dataclass(frozen=True)
class TraceRow:
    index: int
    descriptor: str
    copies: int
    outcome: object
    log_slr: float
    log_slr_rev: float | None


@dataclass(frozen=True)
class TestOutcome:
    """Terminal report of one sequential run.

    decision is one of reject / accept / budget_exhausted; the SLR values
    are in log form (the raw ratio overflows well before interesting
    budgets). budget_exhausted counts as a non-rejection.
    """

    decision: str
    copies_used: int
    rounds_used: int
    final_log_slr: float
    final_log_slr_rev: float | None = None
    trace: tuple = ()

    @property
    def rejected(self) -> bool:
        return self.decision == REJECT


def run_sequential_test(
    policy: PolicyConfig,
    truth: DensityMatrix,
    cfg: FamilyConfig,
    null_set: HypothesisSet,
    alt_set: HypothesisSet,
    eps0: float,
    budget: int,
    rng: np.random.Generator,
    eps1: float | None = None,
    resolution: float = DEFAULT_RESOLUTION,
    collect_trace: bool = False,
) -> TestOutcome:
    """Run one sequential test on copies of `truth` until stop or budget.

    The loop stops before any round whose copies would push the total past
    the budget, so copies_used <= budget always holds. With eps1 set the
    reversed statistic runs in lockstep and the test may accept.
    """
    if not 0.0 < eps0 < 1.0:
        raise ConfigError(f"eps0 must lie in (0,1), got {eps0}")
    if eps1 is not None and not 0.0 < eps1 < 1.0:
        raise ConfigError(f"eps1 must lie in (0,1), got {eps1}")
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    if truth.dim != 2:
        raise ConfigError(f"truth must be a single-qubit state, got dim {truth.dim}")
    if not sets_disjoint(null_set, alt_set):
        raise ConfigError(f"hypothesis sets overlap: {null_set} vs {alt_set}")

    s0 = new_slr_state(null_set, alt_set, resolution)
    s1 = new_slr_state(alt_set, null_set, resolution) if eps1 is not None else None
    log0 = 0.0
    log1: float | None = 0.0 if eps1 is not None else None
    copies_used = 0
    decision = None
    truth_powers: dict[int, DensityMatrix] = {}
    est_povm = estimation_povm(policy.estimation_povm)
    est_dist = None
    trace: list[TraceRow] = []

    while True:
        pos = len(s0.rounds) % (policy.n_ic + 1)
        upcoming = 1 if pos < policy.n_ic else policy.n_joint
        if copies_used + upcoming > budget:
            decision = BUDGET_EXHAUSTED
            break
        povm, copies, desc = next_measurement(policy, s0, cfg, rng)
        power = truth_powers.get(copies)
        if power is None:
            power = tensor_power(truth, copies)
            truth_powers[copies] = power
        if pos < policy.n_ic:
            if est_dist is None:
                est_dist = born_distribution(power, povm)
            dist = est_dist
        else:
            dist = born_distribution(power, povm)
        outcome = sample_outcome(dist, rng)
        copies_used += copies

        s0, log0 = record_round(
            s0, cfg, povm, desc, copies, outcome, est_povm, policy.initial_alt_angle
        )
        if s1 is not None:
            s1, log1 = record_round(s1, cfg, povm, desc, copies, outcome, est_povm)

        if collect_trace:
            trace.append(
                TraceRow(
                    index=len(s0.rounds),
                    descriptor=desc,
                    copies=copies,
                    outcome=outcome,
                    log_slr=log0,
                    log_slr_rev=log1,
                )
            )

        if s1 is None:
            if one_sided_decision(log0, eps0):
                decision = REJECT
                break
        else:
            verdict = two_sided_decision(log0, log1, eps0, eps1)
            if verdict != "continue":
                decision = verdict
                break

    return TestOutcome(
        decision=decision,
        copies_used=copies_used,
        rounds_used=len(s0.rounds),
        final_log_slr=log0,
        final_log_slr_rev=log1,
        trace=tuple(trace),
    )
