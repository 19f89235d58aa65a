"""Joint measurement designs: weighted Helstrom tests and a variational family.

Two parametric designs act on blocks of n fresh copies:

* helstrom_povm: the binary measurement {M_0, M_1} with M_0 the projector
  onto the positive eigenspace of (1 - w) rho_0^(x)n - w rho_1^(x)n. Outcome
  1 votes for the alternative. This minimizes the weighted error
  (1 - w) Tr(rho_0^(x)n M_1) + w Tr(rho_1^(x)n M_0).

* variational_povm: the computational basis conjugated by a hardware-style
  circuit U(theta) = [CNOT chain] [R_y(theta) on every qubit], with the
  chain applying control i -> target i+1 for i ascending and qubit 1 held
  as the most significant bit.

Both designs are scored by the expected one-round log-likelihood-ratio
increment under the current alternative estimate, and optimized by plain
grid search with deterministic tie-breaking (toward w = 0.5 and then the
smaller w; toward the smaller theta). The grid searches run on batched
eigendecompositions / conjugations; unit tests pin their selections against
exhaustive evaluation through the single-design operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DimensionMismatch
from .family import P_FLOOR
from .quantum import (
    DensityMatrix,
    Povm,
    positive_eigenprojector,
    tensor_power,
)

PROJECTOR_TOL = 1e-10


@dataclass(frozen=True)
class HelstromSpec:
    """Inputs of a weighted Helstrom measurement on `copies` fresh copies."""

    null_state: DensityMatrix
    alt_state: DensityMatrix
    weight: float
    copies: int

    def __post_init__(self):
        if not 0.0 < self.weight < 1.0:
            raise ValueError(f"weight must lie strictly in (0,1), got {self.weight}")
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1, got {self.copies}")
        if self.null_state.dim != self.alt_state.dim:
            raise DimensionMismatch(
                f"state dims differ: {self.null_state.dim} vs {self.alt_state.dim}"
            )


def helstrom_povm(spec: HelstromSpec) -> Povm:
    """Binary POVM (labels 0, 1) optimal for the weighted discrimination."""
    p0 = tensor_power(spec.null_state, spec.copies).mat
    p1 = tensor_power(spec.alt_state, spec.copies).mat
    m0 = positive_eigenprojector(
        (1.0 - spec.weight) * p0 - spec.weight * p1, tol=PROJECTOR_TOL
    )
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


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def variational_unitary(theta: float, copies: int) -> np.ndarray:
    """U(theta) on `copies` qubits: per-qubit R_y rotations, then the CNOT chain."""
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    rot = _ry(theta)
    full = rot
    for _ in range(copies - 1):
        full = np.kron(full, rot)
    return _cnot_chain(copies) @ full


def variational_povm(theta: float, copies: int) -> Povm:
    """Computational basis rotated by U(theta): M_x = U^dag |x><x| U."""
    u = variational_unitary(theta, copies)
    labels = tuple(format(i, f"0{copies}b") for i in range(u.shape[0]))
    elements = tuple(
        np.outer(u[x, :].conj(), u[x, :]).astype(complex) for x in range(u.shape[0])
    )
    return Povm(labels=labels, elements=elements)


def expected_log_increment(
    alt_state: DensityMatrix,
    null_state: DensityMatrix,
    povm: Povm,
    copies: int,
) -> float:
    """Mean one-round log-LR increment under the alternative estimate.

    Sum over outcomes of q(x) [log max(q(x), floor) - log max(p(x), floor)]
    with q under alt_state^(x)copies and p under null_state^(x)copies. For
    the Helstrom design with distinct states this is a KL divergence, hence
    nonnegative.
    """
    p1 = tensor_power(alt_state, copies).mat
    p0 = tensor_power(null_state, copies).mat
    q = np.einsum("ij,xji->x", p1, povm._stack).real.clip(min=0.0)
    p = np.einsum("ij,xji->x", p0, povm._stack).real.clip(min=0.0)
    terms = q * (np.log(np.maximum(q, P_FLOOR)) - np.log(np.maximum(p, P_FLOOR)))
    return float(terms.sum())


def _binary_probs_on_weight_grid(
    pow0: np.ndarray, pow1: np.ndarray, weights: np.ndarray, states: np.ndarray
) -> np.ndarray:
    """Probability of Helstrom outcome 0 for each weight and each state.

    pow0/pow1 are the tensor-power matrices entering the Helstrom operator;
    states is a stack (S, d, d) of density matrices to score. Returns (W, S).
    Runs all weights through one batched eigendecomposition.
    """
    a = (1.0 - weights)[:, None, None] * pow0 - weights[:, None, None] * pow1
    a = (a + a.conj().transpose(0, 2, 1)) / 2.0
    vals, vecs = np.linalg.eigh(a)
    mask = (vals > PROJECTOR_TOL).astype(float)
    quad = np.einsum("lij,sik,lkj->lsj", vecs.conj(), states, vecs).real
    return np.einsum("lsj,lj->ls", quad, mask).clip(0.0, 1.0)


def _increment_from_binary(p_alt: np.ndarray, p_null: np.ndarray) -> np.ndarray:
    """Vectorized expected log increment from outcome-0 probabilities."""
    q = np.stack([p_alt, 1.0 - p_alt], axis=-1)
    p = np.stack([p_null, 1.0 - p_null], axis=-1)
    terms = q * (np.log(np.maximum(q, P_FLOOR)) - np.log(np.maximum(p, P_FLOOR)))
    return terms.sum(axis=-1)


def optimize_lambda(
    null_state: DensityMatrix,
    alt_state: DensityMatrix,
    copies: int,
    grid_size: int = 99,
) -> float:
    """Helstrom weight maximizing the expected log increment.

    Searches w = k / (grid_size + 1) for k = 1..grid_size; ties break toward
    the weight closest to 0.5 and then toward the smaller weight, so the
    degenerate case alt == null lands on 0.5.
    """
    pow0 = tensor_power(null_state, copies).mat
    pow1 = tensor_power(alt_state, copies).mat
    weights = np.arange(1, grid_size + 1) / (grid_size + 1)
    p_m0 = _binary_probs_on_weight_grid(pow0, pow1, weights, np.stack([pow0, pow1]))
    obj = _increment_from_binary(p_m0[:, 1], p_m0[:, 0])
    best_k = 0
    best_key = (obj[0], -abs(weights[0] - 0.5), -weights[0])
    for k in range(1, weights.shape[0]):
        key = (obj[k], -abs(weights[k] - 0.5), -weights[k])
        if key > best_key:
            best_k, best_key = k, key
    return float(weights[best_k])


def _variational_unitaries(thetas: np.ndarray, copies: int) -> np.ndarray:
    """Stack of U(theta) over a batch of angles, shape (T, 2^copies, 2^copies)."""
    half = np.asarray(thetas) / 2.0
    t = half.shape[0]
    ry = np.empty((t, 2, 2))
    ry[:, 0, 0] = np.cos(half)
    ry[:, 0, 1] = -np.sin(half)
    ry[:, 1, 0] = np.sin(half)
    ry[:, 1, 1] = np.cos(half)
    full = ry
    for _ in range(copies - 1):
        d = full.shape[1]
        full = np.einsum("tab,tcd->tacbd", full, ry).reshape(t, 2 * d, 2 * d)
    return np.matmul(_cnot_chain(copies), full)


def _rotated_basis_probs(u: np.ndarray, power_mat: np.ndarray) -> np.ndarray:
    """p[t, x] = Tr(rho M_x) for the rotated-basis POVMs of a unitary stack."""
    return np.einsum("txj,jk,txk->tx", u, power_mat, u.conj()).real.clip(min=0.0)


def optimize_theta(
    null_state: DensityMatrix,
    alt_state: DensityMatrix,
    copies: int,
    grid_size: int = 360,
) -> float:
    """Variational angle maximizing the expected log increment.

    Searches theta = 2 pi k / grid_size for k = 0..grid_size-1; ties break
    toward the smaller angle.
    """
    thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
    u = _variational_unitaries(thetas, copies)
    p0 = _rotated_basis_probs(u, tensor_power(null_state, copies).mat)
    p1 = _rotated_basis_probs(u, tensor_power(alt_state, copies).mat)
    terms = p1 * (np.log(np.maximum(p1, P_FLOOR)) - np.log(np.maximum(p0, P_FLOOR)))
    return float(thetas[int(np.argmax(terms.sum(axis=1)))])
