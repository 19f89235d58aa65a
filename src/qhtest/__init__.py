"""Sequential and fixed-copy hypothesis tests for single-qubit state families.

The package simulates binary tests between composite sets of states drawn
from a one-parameter qubit family: an always-valid sequential ratio test
with adaptive block measurements, plus calibrated fixed-copy baselines,
with a seeded Monte Carlo harness for power and copy-complexity sweeps.
"""

from .baselines import (
    FixedOutcome,
    FixedTestConfig,
    helstrom_calibration,
    run_blht,
    run_blvt,
    run_lht,
    run_lvt,
)
from .engine import (
    ACCEPT,
    BUDGET_EXHAUSTED,
    REJECT,
    PolicyConfig,
    RoundRecord,
    SlrState,
    TestOutcome,
    new_slr_state,
    next_measurement,
    one_sided_decision,
    predictable_estimate,
    run_sequential_test,
    slr_update,
    two_sided_decision,
)
from .errors import (
    ConfigError,
    ConvergenceFailure,
    DimensionMismatch,
    DimensionOverflow,
    EmptyGrid,
    HorizonTooLarge,
    InconsistentTranscript,
    InfeasibleCalibration,
    InvalidBlochVector,
    InvariantViolation,
    IoError,
    NotHermitian,
    NotPSD,
    ParseError,
    QhtError,
    TraceNotOne,
)
from .family import (
    FamilyConfig,
    HypothesisSet,
    MleResult,
    ParamGrid,
    Piece,
    accumulate,
    build_grid,
    log_outcome_prob,
    mle,
    parse_hypothesis_set,
    sets_disjoint,
    state_from_angle,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    emit_results,
    parse_config,
    run_sweep,
)
from .measurements import (
    HelstromSpec,
    expected_log_increment,
    helstrom_povm,
    optimize_lambda,
    optimize_theta,
    variational_povm,
    variational_unitary,
)
from .oracle import (
    enumerate_transcripts,
    eprocess_expectation,
    helstrom_bound,
    helstrom_error,
    recompute_slr,
    sample_transcript,
)
from .quantum import (
    DensityMatrix,
    OutcomeDistribution,
    Povm,
    born_distribution,
    computational_basis_povm,
    hermitian_eig,
    positive_eigenprojector,
    sample_outcome,
    sic_povm_qubit,
    tensor_power,
    trace_norm,
    validate_density,
)

__version__ = "0.1.0"
