"""Measurement designs: the single-copy estimation POVMs, weighted Helstrom
tests and a variational family.

What the sequential engine and the fixed-copy baselines both read of
their measurements lives here: estimation_povm names the single-copy
measurement of a test's estimation rounds (ESTIMATION_POVMS),
check_design_settings validates a config's design settings, and
TruthLaws, kept in a trial's memo by truth_laws, is the one owner of what
depends on the unknown truth: its n-copy powers and its law under each
measurement a run makes. Two parametric joint designs act on blocks of n
fresh copies:

* helstrom_povm: the binary measurement {M_0, M_1} with M_0 the projector
  onto the positive eigenspace of (1 - w) rho_0^(x)n - w rho_1^(x)n. Outcome
  1 votes for the alternative. This minimizes the weighted error
  (1 - w) Tr(rho_0^(x)n M_1) + w Tr(rho_1^(x)n M_0).

* variational_povm: the computational basis conjugated by a hardware-style
  circuit U(theta) = [CNOT chain] [R_y(theta) on every qubit], with the
  chain applying control i -> target i+1 for i ascending and qubit 1 held
  as the most significant bit. The chain only permutes basis states, so up
  to a classical relabelling of outcomes this is a product measurement,
  each copy read out in the R_y(theta)-rotated basis: aLVT, LVT and bLVT
  never use an entangled measurement. PAPER.md holds only the paper's
  abstract, so the paper's gate order cannot be checked.

Both designs are scored by the expected one-round log-likelihood-ratio
increment under the current alternative estimate, and optimized by plain
grid search with deterministic tie-breaking (toward w = 0.5 and then the
smaller w; toward the smaller theta). Both design grids and their outcome
tables are built here only, and `baselines` calibrates on the same tables.
The Helstrom entry points (helstrom_povm, optimize_lambda and
_binary_probs_on_weight_grid) take the two tensor-power matrices
rho_0^(x)n and rho_1^(x)n, so each caller raises its state pair once per
design. The variational design is scored on one rotated-basis table per
state (rotated_basis_tables): optimize_theta takes the null and the
alternative state's tables, so a caller can build each state's table once
and keep it, as the engine's trial memo and the fixed-copy runners do.
expected_log_increment, the single-design reference, takes the states.
The grid searches run on batched eigendecompositions / conjugations; unit
tests pin their selections against exhaustive evaluation through the
single-design operations.

Property tests keep the dense full complex contraction as each table
kernel's reference:

* _rotated_basis_probs contracts mats.real with the real unitaries and
  returns the reference's floats bit for bit, sign bits included: the
  imaginary part of mats reaches the real part of a term only through a
  product with an exact zero. Each cell (t, x, j) is one left-to-right
  fold, over (a, b) in row-major order, of (u[t,x,a] * m[j,a,b]) *
  u[t,x,b]. rotation_grid stores the unitaries once, lane-major: u is a
  view of a C-contiguous (2^n, T 2^n) array whose rows run over the T 2^n
  (t, x) lanes, and the contraction runs on that array with the lanes
  innermost. Every cell is still the same fold in the same order, so the
  floats do not move, but the adds of different lanes no longer wait on
  each other: about 1.1 ms against 2.3 ms per table at n = 4 with 360
  rotations.
* _binary_probs_on_weight_grid works on Schur-Weyl blocks (Keyl & Werner,
  PRA 64, 052311, 2001). rho^(x)n commutes with permutations of the
  copies, so it splits into spin-j blocks of size 2j + 1 <= n + 1, each
  repeated m_j times, and so does the Helstrom operator built from two
  such powers. The table is one small batched eigendecomposition per spin
  instead of one of 2^n x 2^n matrices, and agrees with the dense
  contraction within 1e-12, not bit for bit. No float of the table leaves
  this module or `baselines`, only the grid weight k / (grid_size + 1)
  that optimize_lambda or baselines.helstrom_calibration picks from it,
  and the measurement a run performs is helstrom_povm's, still built
  densely. A test pins those picks against the dense table's on the
  point-null family at radii (1, 1). Where the two tables have been seen
  to pick different weights, at mixed radii, every candidate's
  probabilities were rounding noise, so the dense pick was noise as well.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .family import P_FLOOR, FamilyConfig, state_from_angle
from .quantum import (
    OutcomeDistribution,
    Povm,
    born_distribution,
    computational_basis_povm,
    memoized,
    positive_eigenprojector,
    sic_povm_qubit,
    tensor_power,
    validate_density,
)

PROJECTOR_TOL = 1e-10
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


class TruthLaws:
    """What a test reads of its truth, built once per truth.

    memo holds the truth's n-copy powers under ("power", n), copy count 1
    seeded with the truth itself, and its law under each recurring POVM
    under ("dist", povm), keyed on the POVM itself (Povm hashes by identity).
    Whatever else depends on the truth (a fixed-copy trial's decided block
    tests and its variational laws by rotation angle) is kept in memo too,
    so it is dropped with the truth.
    """

    __slots__ = ("truth", "memo")

    def __init__(self, truth: np.ndarray):
        self.truth = truth
        self.memo: dict = {("power", 1): truth}

    def power(self, copies: int) -> np.ndarray:
        return memoized(self.memo, ("power", copies), tensor_power, self.truth, copies)

    def dist(self, povm: Povm, recurs: bool) -> OutcomeDistribution:
        """The truth's law under povm, on the copies povm's dimension holds; kept when recurs."""
        if recurs:
            return memoized(self.memo, ("dist", povm), self._law, povm)
        return self._law(povm)

    def _law(self, povm: Povm) -> OutcomeDistribution:
        copies = round(math.log(povm.dim, self.truth.shape[0]))
        return born_distribution(self.power(copies), povm)


def truth_laws(truth: np.ndarray, memo: dict) -> TruthLaws:
    """The truth's TruthLaws, kept under memo["truth"].

    The truth must be a single-qubit state (ConfigError otherwise). The
    memo keeps the laws of the last truth it saw, on a read-only copy, and
    rebuilds them when a run brings another truth, even one the caller
    wrote into the array it passed before. Every run of every method asks,
    so the truths are compared as complex bytes, a ninth of the cost of
    np.array_equal; a truth that differs only in the sign of a zero is
    rebuilt too, to the same laws.
    """
    laws = memo.get("truth")
    given = np.asarray(truth, dtype=complex)
    if laws is None or given.shape != laws.truth.shape or given.tobytes() != laws.truth.tobytes():
        if given.shape != (2, 2):
            raise ConfigError(f"truth must be a single-qubit state, got shape {given.shape}")
        laws = memo["truth"] = TruthLaws(validate_density(truth))
    return laws


def helstrom_povm(pow0: np.ndarray, pow1: np.ndarray, weight: float) -> Povm:
    """Binary POVM (labels 0, 1) optimal for the weighted discrimination of pow0 and pow1.

    pow0 and pow1 are the tensor-power matrices of the null and the
    alternative state on the block's copies.
    """
    if not 0.0 < weight < 1.0:
        raise ValueError(f"weight must lie strictly in (0,1), got {weight}")
    if pow0.shape != pow1.shape:
        raise DimensionMismatch(f"state shapes differ: {pow0.shape} vs {pow1.shape}")
    m0 = positive_eigenprojector((1.0 - weight) * pow0 - weight * pow1, tol=PROJECTOR_TOL)
    m1 = np.eye(m0.shape[0], dtype=complex) - m0
    return Povm(labels=(0, 1), elements=(m0, m1))


@cache
def _cnot_chain(n: int) -> np.ndarray:
    """Product of CNOTs, control i -> target i+1, applied for i = 1..n-1."""
    dim = 2**n
    chain = np.eye(dim)
    for i in range(1, n):
        ctrl = 1 << (n - i)
        targ = 1 << (n - i - 1)
        gate = np.zeros((dim, dim))
        for b in range(dim):
            gate[b ^ targ if b & ctrl else b, b] = 1.0
        chain = gate @ chain
    chain.setflags(write=False)
    return chain


def variational_povm(theta: float, copies: int) -> Povm:
    """Computational basis rotated by U(theta): M_x = U^dag |x><x| U."""
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    u = _variational_unitaries(np.array([theta]), copies)[0]
    labels = tuple(format(i, f"0{copies}b") for i in range(u.shape[0]))
    elements = tuple(
        np.outer(u[x, :].conj(), u[x, :]).astype(complex) for x in range(u.shape[0])
    )
    return Povm(labels=labels, elements=elements)


def expected_log_increment(
    alt_state: np.ndarray,
    null_state: np.ndarray,
    povm: Povm,
    copies: int,
) -> float:
    """Mean one-round log-LR increment under the alternative estimate.

    Sum over outcomes of q(x) [log max(q(x), floor) - log max(p(x), floor)]
    with q under alt_state^(x)copies and p under null_state^(x)copies. For
    the Helstrom design with distinct states this is a KL divergence, hence
    nonnegative.
    """
    p1 = tensor_power(alt_state, copies)
    p0 = tensor_power(null_state, copies)
    q = np.einsum("ij,xji->x", p1, povm._stack).real.clip(min=0.0)
    p = np.einsum("ij,xji->x", p0, povm._stack).real.clip(min=0.0)
    terms = q * (np.log(np.maximum(q, P_FLOOR)) - np.log(np.maximum(p, P_FLOOR)))
    return float(terms.sum())


def _lowered(vec: np.ndarray, n: int) -> np.ndarray:
    """The total lowering map sum_i |1><0|_i applied to an n-qubit vector, read off bit strings."""
    index = np.arange(vec.size)
    out = np.zeros_like(vec)
    for q in range(n):
        ones = index[(index >> q) & 1 == 1]
        out[ones] += vec[ones ^ (1 << q)]
    return out


@cache
def _spin_isometries(n: int) -> tuple[tuple[int, np.ndarray], ...]:
    """(m_j, V_j) for j = n/2, n/2 - 1, ..., 0 or 1/2: the spin-j irrep's copies in n qubits,
    m_j = C(n, n/2 - j) - C(n, n/2 - j - 1), and a read-only real isometry V_j, 2^n x (2j + 1).

    The columns of V_j span one copy of the spin-j irrep of the n qubits'
    total spin: a highest-weight vector, singlets on qubit pairs (1, 2),
    (3, 4), ... times |0...0> on the last 2j qubits, and its normalized
    images under the lowering map. Built once per copy count, on first use;
    like _cnot_chain, a constant of the copy count kept by functools.cache.
    """
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    blocks = []
    for pairs in range(n // 2 + 1):
        col = np.zeros(2 ** (n - 2 * pairs))
        col[0] = 1.0
        for _ in range(pairs):
            col = np.kron(singlet, col)
        cols = [col]
        for _ in range(n - 2 * pairs):
            col = _lowered(col, n)
            col /= np.linalg.norm(col)
            cols.append(col)
        v = np.stack(cols, axis=1)
        v.setflags(write=False)
        blocks.append((math.comb(n, pairs) - (math.comb(n, pairs - 1) if pairs else 0), v))
    return tuple(blocks)


def _binary_probs_on_weight_grid(
    pow0: np.ndarray, pow1: np.ndarray, grid_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Weights w = k / (grid_size + 1), k = 1..grid_size, and the outcome-0 table p[k, s].

    p[k, s] is the probability of outcome 0 of the Helstrom design at
    weights[k] under pow0 (s = 0) and pow1 (s = 1), the n-copy tensor
    powers entering its operator. Both commute with permutations of the
    copies, so the operator is block diagonal on _spin_isometries(n), and

        p[k, s] = sum_j m_j sum_{v kept} <v| V_j^T pow_s V_j |v>

    over the eigenvectors v of block j's operator with eigenvalue above
    PROJECTOR_TOL: one batched eigendecomposition of blocks of size
    2j + 1 <= n + 1 per spin instead of one of 2^n x 2^n matrices. Block
    j's operator is (1 - 2w) B_0 + w D, with D = V_j^T (pow0 - pow1) V_j
    projected on its own and B_1 = B_0 - D, not (1 - w) B_0 - w B_1 from
    two projections: for nearly equal states those are rounded apart, and
    near w = 0.5 their small difference is the whole operator. The table
    agrees with the dense contraction over all 2^n eigenvectors within
    1e-12; callers read only the weight they pick from it.
    """
    weights = np.arange(1, grid_size + 1) / (grid_size + 1)
    n = pow0.shape[0].bit_length() - 1
    table = np.zeros((2, grid_size))
    diff = pow0 - pow1
    for mult, v in _spin_isometries(n):
        b0, d = v.T @ pow0 @ v, v.T @ diff @ v
        blocks = np.stack([b0, b0 - d, d])
        blocks = (blocks + blocks.conj().transpose(0, 2, 1)) / 2.0
        a = (1.0 - 2.0 * weights)[:, None, None] * blocks[0] + weights[:, None, None] * blocks[2]
        vals, vecs = np.linalg.eigh(a)
        kept = vecs * (vals > PROJECTOR_TOL)[:, None, :]
        quad = (kept.conj() * (blocks[:2, None] @ kept)).real.sum(axis=(-2, -1))
        table += mult * quad
    return weights, table.T.clip(0.0, 1.0)


def _log_ratio_gain(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """expected_log_increment's sum over the last axis of batched outcome tables q, p."""
    terms = q * (np.log(np.maximum(q, P_FLOOR)) - np.log(np.maximum(p, P_FLOOR)))
    return terms.sum(axis=-1)


def optimize_lambda(pow0: np.ndarray, pow1: np.ndarray, grid_size: int = 99) -> float:
    """Helstrom weight maximizing the expected log increment.

    Searches the weight grid of _binary_probs_on_weight_grid; ties break
    toward the weight closest to 0.5 and then toward the smaller weight,
    so the degenerate case alt == null lands on 0.5.
    """
    weights, p_m0 = _binary_probs_on_weight_grid(pow0, pow1, grid_size)
    probs = np.stack([p_m0, 1.0 - p_m0], axis=-1)  # [weight, state, outcome]
    obj = _log_ratio_gain(probs[:, 1], probs[:, 0])
    best = max(range(grid_size), key=lambda k: (obj[k], -abs(weights[k] - 0.5), -weights[k]))
    return float(weights[best])


def _variational_unitaries(thetas: np.ndarray, copies: int) -> np.ndarray:
    """Stack of U(theta) over a batch of angles, shape (T, 2^copies, 2^copies)."""
    half = np.asarray(thetas) / 2.0
    t = half.shape[0]
    c, s = np.cos(half), np.sin(half)
    ry = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=1)
    full = ry
    for _ in range(copies - 1):
        d = full.shape[1]
        full = np.einsum("tab,tcd->tacbd", full, ry).reshape(t, 2 * d, 2 * d)
    return np.matmul(_cnot_chain(copies), full)


_u_cache: dict = {}


def rotation_grid(grid_size: int, copies: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only thetas = 2 pi k / grid_size, k = 0..grid_size-1, and u[t] = U(thetas[t]).

    Built once per (grid_size, copies) and shared by every caller. The
    unitaries are stored once, lane-major: u is the (T, X, A) view of a
    C-contiguous (A, T X) array, so _rotated_basis_probs reads its lanes
    without a copy.
    """
    def build():
        thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
        u = _variational_unitaries(thetas, copies)
        t, x, a = u.shape
        lanes = np.ascontiguousarray(u.transpose(2, 0, 1).reshape(a, t * x))
        return thetas, lanes.T.reshape(t, x, a)

    return memoized(_u_cache, (grid_size, copies), build)


def _rotated_basis_probs(u: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """p[t, x, j] = Tr(mats[j] M_x) for the rotated-basis POVMs of the unitary stack u.

    u is real, so the imaginary part of mats enters the real part of a term
    only through a product with an exact zero: the real contraction equals
    the real part of the complex one bit for bit. The contraction runs
    with the (t, x) lanes innermost (see the module docstring) on the
    C-contiguous (A, T X) array that rotation_grid's u is a view of; any
    other u is copied into that layout once.
    """
    t, x, a = u.shape
    lanes = np.ascontiguousarray(u.reshape(t * x, a).T)
    p = np.einsum("al,jab,bl->lj", lanes, mats.real, lanes)
    return p.reshape(t, x, mats.shape[0]).clip(min=0.0)


def rotated_basis_tables(
    cfg: FamilyConfig, angles, copies: int, grid_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rotation grid thetas and p[t, x, j] for the `copies`-copy family states at angles[j].

    thetas holds rotation_grid's grid_size angles in radians, and p[t, x, j]
    is the probability of outcome x of the rotated basis at thetas[t].
    Tables built apart equal one stacked table bit for bit, so a caller may
    build each state's table once and keep it: a fixed-copy trial memo keeps
    the null grid's and each fitted angle's, the engine's trial memo each
    grid angle's that it reads again.
    """
    thetas, u = rotation_grid(grid_size, copies)
    mats = np.stack([tensor_power(state_from_angle(cfg, w), copies) for w in angles])
    return thetas, _rotated_basis_probs(u, mats)


def optimize_theta(q0: np.ndarray, q1: np.ndarray) -> float:
    """Variational angle maximizing the expected log increment.

    q0 and q1 are the null and the alternative state's (T, X) tables of
    rotated_basis_tables on one rotation grid of T angles; ties break
    toward the smaller angle.
    """
    thetas, _ = rotation_grid(q0.shape[0], q0.shape[1].bit_length() - 1)
    return float(thetas[int(np.argmax(_log_ratio_gain(q1, q0)))])
