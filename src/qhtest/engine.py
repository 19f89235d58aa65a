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

An SlrState owns one statistic and its transcript, and log SLR is read
off it (SlrState.log_slr). A run reports the forward state's records and
the statistic after each round (TestOutcome.rounds and log_slrs).

A round is two steps, shared with the oracle's transcript generators.
next_measurement plans it (a RoundPlan). observe_round reduces the observed
outcome M_i to its Fourier coefficient row once (outcome_row), freezes the
numerator term as that row at the predictable angle, and slr_update folds
the same row into the null and the alternative grids, so both sides read
one likelihood; a two-sided run hands the one row to both statistics. The
copy count n_i is never passed along: the POVM is 2^n_i-dimensional, the
row 2 n_i + 1 long.

A trial's runs share one memo dict, so what recurs within a trial is
computed once per trial, not once per round or run; "the trial memo"
below says what it holds and keeps out. It never changes a run's result.

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
from functools import cache

import numpy as np

from .errors import ConfigError, InconsistentTranscript, InvariantViolation
from .family import (
    DEFAULT_RESOLUTION,
    FamilyConfig,
    HypothesisSet,
    MleResult,
    ParamGrid,
    accumulate,
    build_grid,
    estimation_log_rows,
    grid_log_probs,
    log_outcome_prob,
    mle,
    outcome_coeffs,
    row_copies,
    sets_disjoint,
    state_from_angle,
)
from .measurements import (
    helstrom_povm,
    optimize_lambda,
    optimize_theta,
    rotated_basis_tables,
    variational_povm,
)
from .quantum import (
    OutcomeDistribution,
    Povm,
    born_distribution,
    computational_basis_povm,
    sample_outcome,
    sic_povm_qubit,
    tensor_power,
)

POLICY_KINDS = ("aLHT", "aLHT+", "aLVT")
ESTIMATION_POVMS = ("computational", "sic")


@cache
def estimation_povm(name: str) -> Povm:
    """Single-copy estimation measurement named in ESTIMATION_POVMS, built once."""
    if name == "computational":
        return computational_basis_povm(1)
    if name == "sic":
        return sic_povm_qubit()
    raise ConfigError(f"unknown estimation POVM {name!r}, expected {ESTIMATION_POVMS}")


def check_design_settings(estimation: str, lambda_grid_size: int, theta_grid_size: int) -> None:
    """ConfigError for an unknown estimation POVM or an empty design grid."""
    estimation_povm(estimation)
    if lambda_grid_size < 1 or theta_grid_size < 1:
        raise ConfigError("lambda_grid_size and theta_grid_size must be >= 1")


NUMERATOR_FLOOR = 1e-12
_LOG_NUMERATOR_FLOOR = math.log(NUMERATOR_FLOOR)

# Prior strength of the pseudo-outcome regularizer on the predictable
# alternative estimate. Large enough to keep early estimates off angles
# that predict probability zero for a possible outcome, small enough that
# two or three observed rounds dominate it.
PSEUDO_WEIGHT = 0.3


def numerator_log_term(coeffs: np.ndarray, omega: float) -> float:
    """Clamped log probability of a round's outcome row, frozen into the numerator."""
    return max(log_outcome_prob(coeffs, omega), _LOG_NUMERATOR_FLOOR)

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
        check_design_settings(self.estimation_povm, self.lambda_grid_size, self.theta_grid_size)
        if self.n_ic < 0:
            raise ConfigError(f"n_ic must be >= 0, got {self.n_ic}")
        if self.n_joint < 1:
            raise ConfigError(f"n_joint must be >= 1, got {self.n_joint}")

    def is_estimation_round(self, t: int) -> bool:
        """Whether round t (0-based) is a single-copy estimation round, not a joint one."""
        return t % (self.n_ic + 1) < self.n_ic


@dataclass(frozen=True)
class RoundRecord:
    """One observed round, with its numerator term frozen at record time.

    coeffs is the outcome's Fourier coefficient row (family.outcome_coeffs),
    the one likelihood of this round that both the numerator and the grids
    read; copies is read off the row's length.
    """

    povm: Povm
    descriptor: str
    outcome: object
    coeffs: np.ndarray
    log_numerator_term: float

    @property
    def copies(self) -> int:
        return row_copies(self.coeffs)


@dataclass(frozen=True)
class SlrState:
    """One statistic: its RoundRecords, the two accumulated grids and the frozen numerator.

    null_mle is the refined null-grid MLE behind the current denominator
    (None before any round); next_measurement reads a joint round's null
    angle from it, and log_slr subtracts its loglik from the numerator.
    """

    null_grid: ParamGrid
    alt_grid: ParamGrid
    frozen_log_numerator: float = 0.0
    rounds: tuple = ()
    null_mle: MleResult | None = None

    @property
    def log_slr(self) -> float:
        """Current log SLR; 0.0 before any round."""
        if self.null_mle is None:
            return 0.0
        return self.frozen_log_numerator - self.null_mle.loglik


def new_slr_state(
    null_set: HypothesisSet,
    alt_set: HypothesisSet,
    resolution: float = DEFAULT_RESOLUTION,
) -> SlrState:
    return SlrState(null_grid=build_grid(null_set, resolution), alt_grid=build_grid(alt_set, resolution))


def slr_update(
    state: SlrState,
    rec: RoundRecord,
    log_probs: tuple[np.ndarray, np.ndarray] | None = None,
) -> SlrState:
    """Fold one round into the state; the new state's log_slr is the updated statistic.

    The record's numerator term must have been computed from the
    alternative MLE fitted on prior rounds only; this function just
    accumulates it, and folds the record's coefficient row into both
    grids. log_probs, when given, is the row's grid_log_probs on the
    state's (null, alternative) grids, reduced earlier (observe_round
    keeps them per trial). The denominator is the refined null-grid
    maximum over all rounds including this one; the new state keeps that
    MleResult as null_mle, so next_measurement reads the null estimate of
    a joint round from it instead of refining the same grid again.
    """
    if rec.log_numerator_term > 1e-12:
        raise InvariantViolation(
            f"log numerator term {rec.log_numerator_term:.3e} is positive"
        )
    null_log, alt_log = log_probs if log_probs is not None else (None, None)
    alt = accumulate(state.alt_grid, rec.coeffs, alt_log)
    null = accumulate(state.null_grid, rec.coeffs, null_log)
    return SlrState(
        null_grid=null,
        alt_grid=alt,
        frozen_log_numerator=state.frozen_log_numerator + rec.log_numerator_term,
        rounds=state.rounds + (rec,),
        null_mle=mle(null),
    )


def outcome_row(cfg: FamilyConfig, povm: Povm, outcome) -> np.ndarray:
    """Coefficient row (family.outcome_coeffs) of one observed outcome.

    InconsistentTranscript if the POVM does not act on whole qubits or lacks the outcome.
    """
    if povm.dim < 2 or povm.dim & (povm.dim - 1):
        raise InconsistentTranscript(f"POVM dim {povm.dim} is not 2^n for any n >= 1")
    try:
        element = povm.element(outcome)
    except KeyError:
        raise InconsistentTranscript(f"outcome {outcome!r} not among POVM labels") from None
    return outcome_coeffs(cfg, element)


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
    Cached alongside the grid's basis matrices; the vector depends on the
    grid angles, the family and the POVM.
    """
    key = ("pseudo", cfg, povm.labels)
    hit = grid.basis_cache.get(key)
    if hit is None:
        hit = PSEUDO_WEIGHT * np.mean(estimation_log_rows(grid, cfg, povm), axis=0)
        hit.setflags(write=False)
        grid.basis_cache[key] = hit
    return hit


def predictable_estimate(
    state_grid: ParamGrid,
    cfg: FamilyConfig,
    estimation_povm: Povm,
    override_angle: float | None = None,
) -> float:
    """Predictable grid angle for the ratio numerator.

    While state_grid holds no rounds the estimate is a fixed grid angle:
    the override if given, else the widest-segment midpoint. Afterwards it
    maximizes the accumulated log likelihood plus the pseudo-outcome
    regularizer of _pseudo_loglik for estimation_povm. The regularizer
    perturbs each prefix's maximizer by a bounded score, so the
    telescoping bound behind the no-simultaneous-crossing argument
    degrades by at most the regularizer's spread (well under 0.1 nats
    here) against a crossing slack of log(1/(eps0*eps1)).
    """
    if not state_grid.rounds:
        if override_angle is not None:
            return _snap_to_grid(state_grid, override_angle)
        return _default_angle(state_grid)
    scores = state_grid.per_angle_loglik + _pseudo_loglik(state_grid, cfg, estimation_povm)
    return float(state_grid.angles[int(np.argmax(scores))])


# --- the trial memo --------------------------------------------------------
#
# A memo dict serves one trial (harness.make_trial owns one per sequential
# method): one family, policy, hypothesis pair and grid resolution, while
# the budget, the run and even the truth vary. It keeps only what recurs
# within a trial, each built once:
#   "grid angles"             the trial's null- and alternative-grid angles
#   ("power", w)              the n_joint-copy power of the state at grid angle w
#   ("table", w)              its rotated-basis table (aLVT)
#   ("outcome", id(M), x)     outcome x of a recurring POVM M, reduced (_Reduced)
#   "truth"                   the TruthLaws of the last truth seen
# A POVM recurs when it is the estimation POVM or comes from _design_cache,
# i.e. every POVM but aLHT's, whose random weight makes each one new;
# next_measurement decides it once per round (RoundPlan.recurs). What
# does not recur (an aLHT design, a state at a refined off-grid null MLE)
# is built and dropped, so the memo grows with the grid and the design
# cache, not with the rounds. Every float read from the memo is the float
# the build would give, so a memo changes how often work is done, never a
# run's result.


def _memoized(memo: dict, key, build):
    """memo[key], computed by build() on the first lookup."""
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _grid_angles(memo: dict, state: SlrState) -> frozenset:
    """The trial's grid angles: the only angles the memo keys on."""
    build = lambda: frozenset(state.null_grid.angles.tolist() + state.alt_grid.angles.tolist())
    return _memoized(memo, "grid angles", build)


def _at_grid_angle(memo: dict, kind: str, omega: float, build):
    """memo[(kind, omega)], built once, when omega is a grid angle; else build() and drop it."""
    if omega not in memo.get("grid angles", ()):
        return build()
    return _memoized(memo, (kind, omega), build)


class _Reduced:
    """One outcome of one POVM reduced once: its coefficient row and, on
    each grid lattice it is folded into, its grid_log_probs vector.

    The POVM and each lattice's angles are held here, so their ids, the
    keys, are never reused while this lives.
    """

    __slots__ = ("povm", "row", "_logs")

    def __init__(self, povm: Povm, row: np.ndarray):
        self.povm = povm
        self.row = row
        self._logs: dict = {}

    def on(self, grid: ParamGrid) -> np.ndarray:
        hit = self._logs.get(id(grid.angles))
        if hit is None:
            vec = grid_log_probs(grid, self.row)
            vec.setflags(write=False)
            hit = self._logs[id(grid.angles)] = (grid.angles, vec)
        return hit[1]


def _reduced(memo: dict, cfg: FamilyConfig, povm: Povm, outcome, recurs: bool) -> _Reduced:
    """The observed outcome's _Reduced: kept in the memo when its POVM recurs."""
    build = lambda: _Reduced(povm, outcome_row(cfg, povm, outcome))
    return _memoized(memo, ("outcome", id(povm), outcome), build) if recurs else build()


_design_cache: dict = {}


def _joint_design(
    policy: PolicyConfig,
    cfg: FamilyConfig,
    w0: float,
    w1: float,
    rng: np.random.Generator,
    memo: dict,
) -> tuple[Povm, str]:
    """POVM for a joint round given the current estimates.

    Optimized designs are memoized on (kind, family, angles, sizes); the
    optimizers are pure so this only saves recomputation when the MLEs
    revisit an angle pair. aLHT consumes one uniform draw here and is
    never memoized. A design reads each state's n_joint-copy power
    (Helstrom) or rotated-basis table (variational), built after the
    lookup, so a hit builds none; the trial memo keeps those of grid
    angles.
    """
    key = None
    if policy.kind == "aLHT":
        lam = rng.random()
        while lam == 0.0:
            lam = rng.random()
    else:
        key = (policy.kind, cfg.r_z, cfg.r_x, w0, w1, policy.n_joint,
               policy.lambda_grid_size, policy.theta_grid_size)
        hit = _design_cache.get(key)
        if hit is not None:
            return hit
    if policy.kind == "aLVT":
        def table(w):
            build = lambda: rotated_basis_tables(
                cfg, (w,), policy.n_joint, policy.theta_grid_size
            )[1][:, :, 0]
            return _at_grid_angle(memo, "table", w, build)

        theta = optimize_theta(table(w0), table(w1))
        out = (variational_povm(theta, policy.n_joint), f"variational(theta={theta:.8f})")
    else:
        def power(w):
            build = lambda: tensor_power(state_from_angle(cfg, w), policy.n_joint)
            return _at_grid_angle(memo, "power", w, build)

        pow0, pow1 = power(w0), power(w1)
        if policy.kind == "aLHT+":
            lam = optimize_lambda(pow0, pow1, policy.lambda_grid_size)
        out = (helstrom_povm(pow0, pow1, lam), f"helstrom(w0={w0:g},w1={w1:g},lam={lam:.6f})")
    if key is not None:
        _design_cache[key] = out
    return out


@dataclass(frozen=True)
class RoundPlan:
    """One round before its outcome: the measurement, the truth's outcome
    distribution under it, the forward numerator angle (fitted on earlier
    rounds only) that a joint round's design also reads, and whether the
    measurement recurs within the trial (see the trial memo above).
    """

    povm: Povm
    descriptor: str
    dist: OutcomeDistribution
    alt_angle: float
    recurs: bool


class TruthLaws:
    """The truth's estimation-round distribution, its n_joint-copy power,
    and its distribution under each recurring joint POVM measured so far
    (keyed on the POVM's id, with the POVM held so the id stays unique).
    """

    __slots__ = ("truth", "est_dist", "joint_power", "_joint")

    def __init__(self, truth: np.ndarray, est_dist: OutcomeDistribution, joint_power: np.ndarray):
        self.truth = truth
        self.est_dist = est_dist
        self.joint_power = joint_power
        self._joint: dict = {}

    def joint_dist(self, povm: Povm, recurs: bool) -> OutcomeDistribution:
        build = lambda: (povm, born_distribution(self.joint_power, povm))
        return (_memoized(self._joint, id(povm), build) if recurs else build())[1]


def truth_laws(policy: PolicyConfig, truth: np.ndarray, memo: dict) -> TruthLaws:
    """The truth's TruthLaws, built once per trial.

    The memo keeps those of the last truth it saw and rebuilds them when a
    run brings another truth.
    """
    laws = memo.get("truth")
    if laws is None or not np.array_equal(laws.truth, truth):
        est_dist = born_distribution(truth, estimation_povm(policy.estimation_povm))
        laws = memo["truth"] = TruthLaws(truth, est_dist, tensor_power(truth, policy.n_joint))
    return laws


def next_measurement(
    policy: PolicyConfig,
    state: SlrState,
    cfg: FamilyConfig,
    laws: TruthLaws,
    rng: np.random.Generator,
    memo: dict,
) -> RoundPlan:
    """Plan the forward statistic's upcoming round; laws is truth_laws' for this memo.

    The predictable angle is fitted once, for the numerator and the joint
    design; aLHT's weight is drawn here, before the caller draws the outcome.
    """
    est = estimation_povm(policy.estimation_povm)
    w1 = predictable_estimate(state.alt_grid, cfg, est, policy.initial_alt_angle)
    if policy.is_estimation_round(len(state.rounds)):
        return RoundPlan(est, f"{policy.estimation_povm}(n=1)", laws.est_dist, w1, True)
    w0 = state.null_mle.omega if state.rounds else _default_angle(state.null_grid)
    _grid_angles(memo, state)
    povm, desc = _joint_design(policy, cfg, w0, w1, rng, memo)
    recurs = policy.kind != "aLHT"
    return RoundPlan(povm, desc, laws.joint_dist(povm, recurs), w1, recurs)


def observe_round(
    policy: PolicyConfig,
    cfg: FamilyConfig,
    plan: RoundPlan,
    outcome,
    s0: SlrState,
    s1: SlrState | None,
    memo: dict,
) -> tuple[SlrState, SlrState | None]:
    """Fold one outcome of `plan` into the forward state s0 and the reversed state s1, if any.

    Both read the one reduced outcome (its row and its grid vectors).
    s0's numerator term is frozen at plan.alt_angle; s1 fits its own
    angle, never from initial_alt_angle.
    """
    red = _reduced(memo, cfg, plan.povm, outcome, plan.recurs)

    def fold(state: SlrState, angle: float) -> SlrState:
        term = numerator_log_term(red.row, angle)
        rec = RoundRecord(plan.povm, plan.descriptor, outcome, red.row, term)
        return slr_update(state, rec, (red.on(state.null_grid), red.on(state.alt_grid)))

    s0 = fold(s0, plan.alt_angle)
    if s1 is not None:
        est = estimation_povm(policy.estimation_povm)
        s1 = fold(s1, predictable_estimate(s1.alt_grid, cfg, est))
    return s0, s1


def one_sided_decision(log_slr: float, eps0: float) -> bool:
    """Reject the null iff the SLR has reached 1/eps0 (boundary inclusive)."""
    if not 0.0 < eps0 < 1.0:
        raise ConfigError(f"eps0 must lie in (0,1), got {eps0}")
    return log_slr >= math.log(1.0 / eps0)


def two_sided_decision(log_slr0: float, log_slr1: float, eps0: float, eps1: float) -> str:
    """Ternary decision; simultaneous crossings are impossible and raise."""
    if not (0.0 < eps0 < 1.0 and 0.0 < eps1 < 1.0):
        raise ConfigError(f"eps0 and eps1 must each lie in (0,1), got ({eps0}, {eps1})")
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
class TestOutcome:
    """Terminal report of one sequential run.

    decision is one of reject / accept / budget_exhausted (a non-rejection).
    rounds is the forward statistic's SlrState.rounds, log_slrs[i] its log
    SLR after round i + 1 (log form: the raw ratio overflows well before
    interesting budgets); final_log_slr_rev is None for a one-sided run.
    """

    decision: str
    copies_used: int
    rounds: tuple
    log_slrs: tuple
    final_log_slr_rev: float | None = None

    @property
    def rounds_used(self) -> int:
        return len(self.rounds)

    @property
    def final_log_slr(self) -> float:
        return self.log_slrs[-1] if self.log_slrs else 0.0

    @property
    def rejected(self) -> bool:
        return self.decision == REJECT


def run_sequential_test(
    policy: PolicyConfig,
    truth: np.ndarray,
    cfg: FamilyConfig,
    null_set: HypothesisSet,
    alt_set: HypothesisSet,
    eps0: float,
    budget: int,
    rng: np.random.Generator,
    eps1: float | None = None,
    resolution: float = DEFAULT_RESOLUTION,
    memo: dict | None = None,
) -> TestOutcome:
    """Run one sequential test on copies of `truth` until stop or budget.

    The loop stops before any round whose copies would push the total past
    the budget, so copies_used <= budget always holds. With eps1 set the
    reversed statistic runs in lockstep and the test may accept. truth is
    a 2x2 density matrix, raised to n_joint copies once per memo. memo is
    the trial's memo (see the trial memo above); without one the run
    keeps its own, and the result is the same.
    """
    if not 0.0 < eps0 < 1.0:
        raise ConfigError(f"eps0 must lie in (0,1), got {eps0}")
    if eps1 is not None and not 0.0 < eps1 < 1.0:
        raise ConfigError(f"eps1 must lie in (0,1), got {eps1}")
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    if truth.shape != (2, 2):
        raise ConfigError(f"truth must be a single-qubit state, got shape {truth.shape}")
    if not sets_disjoint(null_set, alt_set):
        raise ConfigError(f"hypothesis sets overlap: {null_set} vs {alt_set}")

    memo = {} if memo is None else memo
    s0 = new_slr_state(null_set, alt_set, resolution)
    s1 = new_slr_state(alt_set, null_set, resolution) if eps1 is not None else None
    laws = truth_laws(policy, truth, memo)
    log_slrs: list[float] = []
    copies_used = 0
    decision = "continue"

    while decision == "continue":
        copies = 1 if policy.is_estimation_round(len(s0.rounds)) else policy.n_joint
        if copies_used + copies > budget:
            decision = BUDGET_EXHAUSTED
            break
        plan = next_measurement(policy, s0, cfg, laws, rng, memo)
        s0, s1 = observe_round(policy, cfg, plan, sample_outcome(plan.dist, rng), s0, s1, memo)
        copies_used += copies
        log_slrs.append(s0.log_slr)
        if s1 is None:
            decision = REJECT if one_sided_decision(s0.log_slr, eps0) else "continue"
        else:
            decision = two_sided_decision(s0.log_slr, s1.log_slr, eps0, eps1)

    return TestOutcome(
        decision=decision,
        copies_used=copies_used,
        rounds=s0.rounds,
        log_slrs=tuple(log_slrs),
        final_log_slr_rev=s1.log_slr if s1 is not None else None,
    )
