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
round's numerator term is frozen when the round is folded and never
revisited; only the denominator maximization reruns as new rounds arrive.
The test rejects as soon as log SLR >= log(1/eps0).

An SlrState owns one statistic and its transcript, and log SLR is read
off it (SlrState.log_slr). The refined denominator is never below the null
grid's maximum, so the grid statistic bounds log SLR from above: the run
loop decides from that bound and refines only a state whose bound reaches
its threshold (SlrState.crossing_log_slr), which decides exactly as the
refined statistic would. Each state links to the state before its last
round and holds that round (its plan, outcome and numerator term), so a
run's rounds are its states and each round is stored once; a run reports
its last forward state and reads its rounds and statistics back along the
chain when asked (TestOutcome.rounds and log_slrs).

A round is two steps, shared with the oracle's transcript generators.
next_measurement plans it (a RoundPlan). observe_round reduces the observed
outcome M_i to its Fourier coefficient row once (outcome_row), folds it
once into the forward null and alternative grids and freezes the numerator
term as that row at the predictable angle, so both sides read one
likelihood; a two-sided run's reversed statistic reads the same folded
grids, swapped. The copy count n_i is never passed along: the POVM is
2^n_i-dimensional, the row 2 n_i + 1 long.

A trial's runs share one memo dict, so what recurs within a trial is
computed once per trial, not once per round or run; "the trial memo"
below says what it holds and keeps out. aLVT designs that pick one
rotation angle share one POVM there, and with it the truth's law and each
outcome's row and numerator terms. Its prefix tree goes further: a
round's plan and folded states depend only on the transcript before it,
so runs that open with the same outcomes walk one tree of the prefixes
earlier runs folded, and plan and fold only where it ends ("the prefix
tree" below). Neither ever changes a run's result. A round the tree
serves costs a law lookup, one uniform bisected into the law's
cumulative floats and a child lookup.

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
from dataclasses import dataclass, field
from functools import cached_property

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
    lineage,
    log_outcome_prob,
    mle,
    outcome_coeffs,
    row_copies,
    sets_disjoint,
    state_from_angle,
)
from .measurements import (
    check_design_settings,
    estimation_povm,
    helstrom_povm,
    optimize_lambda,
    optimize_theta,
    rotated_basis_tables,
    truth_laws,
    variational_povm,
)
from .quantum import Povm, memoized, sample_outcome, tensor_power

POLICY_KINDS = ("aLHT", "aLHT+", "aLVT")

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
    angle. initial_alt_angle, finite when given, overrides the pre-data
    alternative estimate (it is snapped to the grid).
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
        if self.initial_alt_angle is not None and not math.isfinite(self.initial_alt_angle):
            raise ConfigError(f"initial_alt_angle must be finite, got {self.initial_alt_angle}")

    def is_estimation_round(self, t: int) -> bool:
        """Whether round t (0-based) is a single-copy estimation round, not a joint one."""
        return t % (self.n_ic + 1) < self.n_ic

    @property
    def random_design(self) -> bool:
        """Whether each block draws its joint design's weight (aLHT): such a
        design never recurs, and none can be planned without a generator."""
        return self.kind == "aLHT"


@dataclass(frozen=True)
class SlrState:
    """One statistic after a round: the two accumulated grids, the frozen
    numerator, the round it folded and a link to the state before it.

    A run's first state has no previous and no round; slr_update links each
    new state to the one it folded (previous) and holds the folded round:
    its plan (shared by every run and both statistics that fold it), its
    outcome and its numerator term, frozen at the predictable angle. The
    round's coefficient row is the one its grids folded (row), and n_rounds
    counts the rounds. A run's rounds are its states, read back along the
    chain (family.lineage), so no round is stored twice and states branched
    from one state (the oracle's enumeration) share its history.

    The denominator is a function of the null grid alone: null_mle is
    mle(null_grid), refined when first read and kept, as
    ParamGrid.round_rows is, so a state nobody reads refines nothing.
    next_measurement reads a joint round's null angle from it, and log_slr
    subtracts its loglik from the numerator. The run loop's crossing check
    reads crossing_log_slr, which refines only when the grid bound reaches
    the threshold.
    """

    null_grid: ParamGrid
    alt_grid: ParamGrid
    frozen_log_numerator: float = 0.0
    previous: SlrState | None = field(default=None, repr=False, compare=False)
    plan: RoundPlan | None = None
    outcome: object = None
    log_numerator_term: float = 0.0
    n_rounds: int = 0

    @property
    def row(self) -> np.ndarray:
        """The folded round's coefficient row (family.outcome_coeffs), which both grids hold."""
        return self.null_grid.row

    @property
    def copies(self) -> int:
        return row_copies(self.row)

    @cached_property
    def null_mle(self) -> MleResult:
        return mle(self.null_grid)

    @property
    def log_slr(self) -> float:
        """Current log SLR; 0.0 before any round, where the null grid's sums are all 0.0."""
        return self.frozen_log_numerator - self.null_mle.loglik

    def crossing_log_slr(self, threshold: float) -> float:
        """log_slr when the grid bound reaches threshold, else that bound.

        mle never returns less than the null grid's maximum and float
        subtraction is monotone, so the unrefined grid statistic bounds
        log_slr from above: below threshold, it decides like log_slr and
        nothing is refined.
        """
        bound = self.frozen_log_numerator - self.null_grid.per_angle_loglik.max()
        return self.log_slr if bound >= threshold else float(bound)


def new_slr_state(
    null_set: HypothesisSet,
    alt_set: HypothesisSet,
    resolution: float = DEFAULT_RESOLUTION,
) -> SlrState:
    return SlrState(null_grid=build_grid(null_set, resolution), alt_grid=build_grid(alt_set, resolution))


def slr_update(
    state: SlrState,
    plan: RoundPlan,
    outcome,
    log_numerator_term: float,
    grids: tuple[ParamGrid, ParamGrid],
) -> SlrState:
    """Fold one round into the state; the new state's log_slr is the updated statistic.

    The numerator term must have been computed from the alternative MLE
    fitted on prior rounds only; this function just accumulates it. grids
    is the state's (null, alternative) grid pair with the outcome's
    coefficient row already folded in (observe_round folds it once per
    run). Nothing is refined here: the new state's denominator, the refined
    null-grid maximum over all rounds including this one, is its null_mle,
    computed by whoever reads it first.
    """
    if log_numerator_term > 1e-12:
        raise InvariantViolation(f"log numerator term {log_numerator_term:.3e} is positive")
    null, alt = grids
    return SlrState(
        null_grid=null,
        alt_grid=alt,
        frozen_log_numerator=state.frozen_log_numerator + log_numerator_term,
        previous=state,
        plan=plan,
        outcome=outcome,
        log_numerator_term=log_numerator_term,
        n_rounds=state.n_rounds + 1,
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
    key = ("pseudo", cfg.r_z, cfg.r_x, povm.labels)
    return memoized(grid.basis_cache, key, _pseudo_build, grid, cfg, povm)


def _pseudo_build(grid: ParamGrid, cfg: FamilyConfig, povm: Povm) -> np.ndarray:
    return PSEUDO_WEIGHT * np.mean(estimation_log_rows(grid, cfg, povm), axis=0)


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
    if state_grid.previous is None:
        if override_angle is not None:
            return _snap_to_grid(state_grid, override_angle)
        return _default_angle(state_grid)
    scores = state_grid.per_angle_loglik + _pseudo_loglik(state_grid, cfg, estimation_povm)
    return float(state_grid.angles[int(np.argmax(scores))])


# --- the trial memo --------------------------------------------------------
#
# A memo dict serves one trial (harness.make_trial owns one per sequential
# method). A run keeps its entries in the sub-memo memo[(cfg, policy,
# null_set, alt_set, resolution, eps0, eps1)], keyed on all it reads but
# the truth, the budget and the generator, and keeps only what recurs:
#   "grid angles"             the angles the memo keys on (_grid_angles)
#   ("power", w)              the n_joint-copy power of the state at such an angle w
#   ("table", w)              its rotated-basis table (aLVT)
#   ("variational povm", theta)  the aLVT design at rotation angle theta, its
#                             one variational POVM and descriptor
#                             (_variational_design): every aLVT design that picks
#                             theta returns it, so the entries keyed on it
#                             below are shared too
#   ("outcome", M, x)         outcome x of a recurring POVM M: its row, its log
#                             vectors on the null and alternative grids and its
#                             numerator term at each predictable angle read so
#                             far (_reduced, _numerator_term)
#   "truth"                   the TruthLaws of the last truth seen
#                             (measurements.truth_laws): its n_joint-copy power
#                             and its law under each recurring POVM, rebuilt
#                             when another truth arrives
#   "prefix tree"             the PrefixTree of the trial's transcript prefixes
#                             (see the prefix tree below), shared by every truth
#                             and budget
# A POVM recurs when it is the estimation POVM or a cached design's (from
# _design_cache, or for aLVT from the memo's design at its angle), i.e.
# every POVM but aLHT's, whose random weight makes each one new;
# next_measurement decides it once per round (RoundPlan.recurs). What
# does not recur (an aLHT design, a state at a refined off-grid null MLE)
# is built and dropped, and so is an alternative angle's state on a
# one-angle null grid (_grid_angles). Apart from the prefix tree, which
# grows with the prefixes runs fold up to PREFIX_TREE_FLOATS, a sub-memo
# grows with the grid and the design cache, not with the rounds: at most
# one power (aLHT, aLHT+) or one (theta_grid_size, 2^n_joint) table (aLVT)
# per angle it keys on, one POVM per angle of the rotation grid, and per
# outcome entry one numerator term per grid angle (predictable angles are
# grid angles).
# Every float read from the memo is the float the build would give, so a
# memo changes how often work is done, never a run's result. Entries are
# stored by quantum.memoized, which makes their arrays read-only.


def _grid_angles(memo: dict, policy: PolicyConfig, state: SlrState) -> frozenset:
    """The angles the memo keys on: the trial's grid angles, less the
    alternative grid's when a cached design meets a one-angle null grid.

    There w0 is that angle on every round, so once a design at (w0, w1) is
    built, _design_cache answers every later lookup and w1's state is never
    read again; it is built and dropped. aLHT's designs are not cached.
    """
    def build():
        angles = state.null_grid.angles.tolist()
        if policy.random_design or len(angles) > 1:
            angles += state.alt_grid.angles.tolist()
        return frozenset(angles)

    return memoized(memo, "grid angles", build)


def _at_grid_angle(memo: dict, angles: frozenset, kind: str, omega: float, build):
    """memo[(kind, omega)], built once, when omega is in angles; else build() and drop it."""
    if omega not in angles:
        return build()
    return memoized(memo, (kind, omega), build)


def _reduced(memo: dict, cfg: FamilyConfig, plan: RoundPlan, outcome, state: SlrState) -> tuple:
    """The outcome's entry on state's (null, alternative) grids
    (_outcome_entry), kept in memo when plan.recurs."""
    null, alt = state.null_grid, state.alt_grid
    if not plan.recurs:
        return _outcome_entry(cfg, plan.povm, outcome, null, alt)
    return memoized(memo, ("outcome", plan.povm, outcome), _outcome_entry,
                    cfg, plan.povm, outcome, null, alt)


def _outcome_entry(
    cfg: FamilyConfig, povm: Povm, outcome, null: ParamGrid, alt: ParamGrid
) -> tuple:
    """The outcome's row, its log vectors on the null and alternative grids
    and its numerator terms by angle (_numerator_term fills that dict)."""
    row = outcome_row(cfg, povm, outcome)
    return row, grid_log_probs(null, row), grid_log_probs(alt, row), {}


def _numerator_term(entry: tuple, angle: float) -> float:
    """numerator_log_term of the entry's row at angle, computed once per entry and angle."""
    terms = entry[3]
    term = terms.get(angle)
    if term is None:
        term = terms[angle] = numerator_log_term(entry[0], angle)
    return term


_design_cache: dict = {}


def _joint_design(
    policy: PolicyConfig,
    cfg: FamilyConfig,
    w0: float,
    w1: float,
    rng: np.random.Generator,
    memo: dict,
    angles: frozenset,
) -> tuple[Povm, str]:
    """POVM for a joint round given the current estimates.

    Optimized designs are memoized on (kind, family, angles, sizes); the
    optimizers are pure so this only saves recomputation when the MLEs
    revisit an angle pair. aLHT consumes one uniform draw here, before
    any lookup, and is never memoized. A design reads each state's
    n_joint-copy power (Helstrom) or rotated-basis table (variational),
    built after the lookup, so a hit builds none; the trial memo keeps
    those at angles, the set _grid_angles returns. For aLVT the cache keeps the
    rotation angle, not a POVM, and the design at that angle is the trial
    memo's, so within a trial every design at one angle returns one Povm,
    whether an earlier trial cached the angle or not.
    """
    def design(lam=None):
        if policy.kind == "aLVT":
            def table(w):
                build = lambda: rotated_basis_tables(
                    cfg, (w,), policy.n_joint, policy.theta_grid_size
                )[1][:, :, 0]
                return _at_grid_angle(memo, angles, "table", w, build)

            return optimize_theta(table(w0), table(w1))

        def power(w):
            build = lambda: tensor_power(state_from_angle(cfg, w), policy.n_joint)
            return _at_grid_angle(memo, angles, "power", w, build)

        pow0, pow1 = power(w0), power(w1)
        if lam is None:
            lam = optimize_lambda(pow0, pow1, policy.lambda_grid_size)
        return helstrom_povm(pow0, pow1, lam), f"helstrom(w0={w0:g},w1={w1:g},lam={lam:.6f})"

    if policy.random_design:
        lam = rng.random()
        while lam == 0.0:
            lam = rng.random()
        return design(lam)
    key = (policy.kind, cfg.r_z, cfg.r_x, w0, w1, policy.n_joint,
           policy.lambda_grid_size, policy.theta_grid_size)
    found = memoized(_design_cache, key, design)
    if policy.kind == "aLVT":
        key = ("variational povm", found)
        return memoized(memo, key, _variational_design, found, policy.n_joint)
    return found


def _variational_design(theta: float, copies: int) -> tuple[Povm, str]:
    """The variational design at rotation angle theta, as the trial memo keeps it."""
    return variational_povm(theta, copies), f"variational(theta={theta:.8f})"


@dataclass(frozen=True)
class RoundPlan:
    """One round before its outcome: the measurement, the forward numerator
    angle (fitted on earlier rounds only) that a joint round's design also
    reads, and whether the measurement recurs within the trial (see the
    trial memo above). A plan holds nothing of the truth: the caller reads
    the truth's law under it from TruthLaws, laws.dist(plan.povm, plan.recurs),
    so a plan the prefix tree keeps serves every truth alike.
    """

    povm: Povm
    descriptor: str
    alt_angle: float
    recurs: bool


def next_measurement(
    policy: PolicyConfig,
    state: SlrState,
    cfg: FamilyConfig,
    rng: np.random.Generator,
    memo: dict,
) -> RoundPlan:
    """Plan the forward statistic's upcoming round.

    The predictable angle is fitted once, for the numerator and the joint
    design; aLHT's weight is drawn here, before the caller draws the outcome.
    """
    est = estimation_povm(policy.estimation_povm)
    w1 = predictable_estimate(state.alt_grid, cfg, est, policy.initial_alt_angle)
    if policy.is_estimation_round(state.n_rounds):
        return RoundPlan(est, f"{policy.estimation_povm}(n=1)", w1, True)
    w0 = state.null_mle.omega if state.n_rounds else _default_angle(state.null_grid)
    angles = _grid_angles(memo, policy, state)
    povm, desc = _joint_design(policy, cfg, w0, w1, rng, memo, angles)
    return RoundPlan(povm, desc, w1, not policy.random_design)


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

    The outcome is folded once into s0's grids; s1 must hold them swapped
    and reads the folded pair swapped. s0's numerator term is frozen at
    plan.alt_angle; s1 fits its own angle, never from initial_alt_angle.
    """
    if s1 is not None and (s1.null_grid is not s0.alt_grid or s1.alt_grid is not s0.null_grid):
        raise InvariantViolation("the reversed state does not hold the forward grids swapped")
    entry = _reduced(memo, cfg, plan, outcome, s0)
    row, null_log, alt_log = entry[:3]
    grids = (accumulate(s0.null_grid, row, null_log), accumulate(s0.alt_grid, row, alt_log))
    s0 = slr_update(s0, plan, outcome, _numerator_term(entry, plan.alt_angle), grids)
    if s1 is not None:
        angle = predictable_estimate(s1.alt_grid, cfg, estimation_povm(policy.estimation_povm))
        s1 = slr_update(s1, plan, outcome, _numerator_term(entry, angle), grids[::-1])
    return s0, s1


def one_sided_decision(log_slr: float, eps0: float) -> bool:
    """Reject the null iff the SLR has reached 1/eps0 (boundary inclusive)."""
    if not 0.0 < eps0 < 1.0:
        raise ConfigError(f"eps0 must lie in (0,1), got {eps0}")
    return _crossed(log_slr, _threshold(eps0))


def two_sided_decision(log_slr0: float, log_slr1: float, eps0: float, eps1: float) -> str:
    """Ternary decision; simultaneous crossings are impossible and raise."""
    if not (0.0 < eps0 < 1.0 and 0.0 < eps1 < 1.0):
        raise ConfigError(f"eps0 and eps1 must each lie in (0,1), got ({eps0}, {eps1})")
    return _ternary(log_slr0, log_slr1, _threshold(eps0), _threshold(eps1))


def _threshold(eps: float) -> float:
    """The log SLR at which a statistic of level eps crosses, log(1/eps)."""
    return math.log(1.0 / eps)


def _crossed(log_slr: float, threshold: float) -> bool:
    """one_sided_decision against its threshold (boundary inclusive)."""
    return log_slr >= threshold


def _ternary(log_slr0: float, log_slr1: float, threshold0: float, threshold1: float) -> str:
    """two_sided_decision against its thresholds."""
    cross0 = _crossed(log_slr0, threshold0)
    cross1 = _crossed(log_slr1, threshold1)
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
    final_state is the forward SlrState after the last round (the run's
    first state if it took none), reversed_state the reversed one (None
    for a one-sided run). Runs of one trial that drew the same outcomes
    may share these states through the prefix tree; states are immutable,
    and a statistic refined through one run is the float any run reads.
    rounds is the forward state after each round, oldest first, read back
    along final_state's chain: rounds[i] holds round i + 1 and its log SLR.
    The statistics are read off the states when asked for: final_log_slr
    refines at most the last state and log_slrs each state not yet refined,
    once. log_slrs[i] is rounds[i].log_slr (log form: the raw ratio
    overflows well before interesting budgets); final_log_slr_rev is None
    for a one-sided run.
    """

    decision: str
    copies_used: int
    final_state: SlrState
    reversed_state: SlrState | None = None

    @property
    def rounds(self) -> tuple:
        return tuple(lineage(self.final_state))

    @property
    def rounds_used(self) -> int:
        return self.final_state.n_rounds

    @property
    def log_slrs(self) -> tuple:
        return tuple(s.log_slr for s in self.rounds)

    @property
    def final_log_slr(self) -> float:
        return self.final_state.log_slr

    @property
    def final_log_slr_rev(self) -> float | None:
        return None if self.reversed_state is None else self.reversed_state.log_slr

    @property
    def rejected(self) -> bool:
        return self.decision == REJECT


# --- the prefix tree -------------------------------------------------------
#
# A round's plan and the states it folds are a function of the transcript
# before it: universal inference lets a design read past data only, and the
# only other input, aLHT's drawn weight, makes a plan that never recurs.
# Neither the truth nor the budget enters, so a trial's runs that draw the
# same opening outcomes plan and fold the same rounds. Each sub-memo of the
# trial memo keeps one PrefixTree ("prefix tree"), whose root is built on
# first use. A node is one transcript prefix: the forward
# and reversed states after it, the decision read there, its plan once the
# plan is seen to recur, and its children keyed by outcome. A run still
# draws every outcome, and plans or folds only where the tree has no plan
# or no child. What the tree keeps:
#   - a prefix the first time a run folds it below a kept node, when the
#     plan there recurs;
#   - nothing below a plan that does not recur (aLHT's joint rounds);
#   - nothing more once PREFIX_TREE_FLOATS (2 MiB of floats per sub-memo)
#     is spent. A kept node costs its two grids' running sums plus
#     _NODE_FLOATS for the objects around them (states, grids, plan, dict:
#     about 1.6 kB). Measured with tracemalloc, what a full tree holds comes
#     within a quarter of its count, so the count bounds the tree's memory.
# A node holds the objects a fresh walk builds, so runs read the same
# floats and draws with or without the tree; runs that end on one kept
# node share its states, which are immutable.

PREFIX_TREE_FLOATS = 1 << 18
_NODE_FLOATS = 200


class _Prefix:
    """One transcript prefix: its states, the decision read there, its
    recurring plan once seen, and children (None off the tree)."""

    __slots__ = ("s0", "s1", "decision", "plan", "children")

    def __init__(self, s0: SlrState, s1: SlrState | None, decision: str):
        self.s0, self.s1, self.decision = s0, s1, decision
        self.plan = None
        self.children = None


class PrefixTree:
    """The prefixes a trial's runs share below root (see the prefix tree above).

    floats counts what the tree has grown by, in grid floats; it stops
    growing at PREFIX_TREE_FLOATS.
    """

    __slots__ = ("root", "floats")

    def __init__(self, root: _Prefix):
        root.children = {}
        self.root, self.floats = root, 0

    def step(self, node: _Prefix, plan: RoundPlan, outcome, fold) -> _Prefix:
        """The prefix after `outcome` of `plan` at node.

        A kept child is returned as kept. fold(node, plan, outcome) builds
        any other; below a kept node and a recurring plan the tree keeps it
        at once, while its grids and _NODE_FLOATS fit in PREFIX_TREE_FLOATS.
        """
        kids = node.children
        if kids is None or not plan.recurs:
            return fold(node, plan, outcome)
        child = kids.get(outcome)
        if child is None:
            child = fold(node, plan, outcome)
            floats = self.floats + _NODE_FLOATS
            floats += child.s0.null_grid.angles.size + child.s0.alt_grid.angles.size
            if floats <= PREFIX_TREE_FLOATS:
                self.floats = floats
                child.children = {}
                kids[outcome] = child
        return child


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
    reversed statistic runs in lockstep and the test may accept. Each round
    decides from the grid bounds (SlrState.crossing_log_slr): a null MLE is
    refined for a joint round's design and where a bound reaches its
    threshold, and the rest only when the outcome's statistics are read.
    Decisions, draws and every reported float are those of a loop that
    refines every state each round. truth is a 2x2 density matrix, raised
    to n_joint copies once per truth. memo is the trial's memo, read at the
    run's configuration (see the trial memo above); without one the run
    keeps its own, and the result is the same. A memo shared across
    configurations keeps one sub-memo per configuration, each with a prefix
    tree of up to PREFIX_TREE_FLOATS floats, for as long as the memo lives:
    a caller that sweeps levels or settings passes one memo per
    configuration, as harness.make_trial does.

    The one run loop walks the memo's prefix tree: each round it draws its
    outcome from the truth's law as ever, reads the plan and the child
    prefix a run before it kept, and calls next_measurement or
    observe_round only where the tree holds none. A run without a memo
    keeps its own path in its own tree until it ends. The returned states
    may be shared with other runs of the trial (see TestOutcome).
    """
    if not 0.0 < eps0 < 1.0:
        raise ConfigError(f"eps0 must lie in (0,1), got {eps0}")
    if eps1 is not None and not 0.0 < eps1 < 1.0:
        raise ConfigError(f"eps1 must lie in (0,1), got {eps1}")
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    if not sets_disjoint(null_set, alt_set):
        raise ConfigError(f"hypothesis sets overlap: {null_set} vs {alt_set}")

    key = (cfg, policy, null_set, alt_set, resolution, eps0, eps1)
    memo = {} if memo is None else memoized(memo, key, dict)
    laws = truth_laws(truth, memo)
    threshold0 = _threshold(eps0)
    threshold1 = _threshold(eps1) if eps1 is not None else None

    def new_tree() -> PrefixTree:
        s0 = new_slr_state(null_set, alt_set, resolution)
        s1 = SlrState(null_grid=s0.alt_grid, alt_grid=s0.null_grid) if eps1 is not None else None
        return PrefixTree(_Prefix(s0, s1, "continue"))

    def fold(node: _Prefix, plan: RoundPlan, outcome) -> _Prefix:
        s0, s1 = observe_round(policy, cfg, plan, outcome, node.s0, node.s1, memo)
        log0 = s0.crossing_log_slr(threshold0)
        if s1 is None:
            return _Prefix(s0, s1, REJECT if _crossed(log0, threshold0) else "continue")
        log1 = s1.crossing_log_slr(threshold1)
        return _Prefix(s0, s1, _ternary(log0, log1, threshold0, threshold1))

    tree = memoized(memo, "prefix tree", new_tree)
    node = tree.root
    copies_used = 0
    while node.decision == "continue":
        copies = 1 if policy.is_estimation_round(node.s0.n_rounds) else policy.n_joint
        if copies_used + copies > budget:
            return TestOutcome(BUDGET_EXHAUSTED, copies_used, node.s0, node.s1)
        plan = node.plan
        if plan is None:
            plan = next_measurement(policy, node.s0, cfg, rng, memo)
            if plan.recurs and node.children is not None:
                node.plan = plan
        outcome = sample_outcome(laws.dist(plan.povm, plan.recurs), rng)
        node = tree.step(node, plan, outcome, fold)
        copies_used += copies
    return TestOutcome(node.decision, copies_used, node.s0, node.s1)
