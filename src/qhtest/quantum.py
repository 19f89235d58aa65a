"""Finite-dimensional density matrices, POVMs, and Born-rule sampling.

Conventions used throughout the package:

* States are density matrices held as plain read-only complex arrays:
  Hermitian, trace one, positive semidefinite. validate_density checks
  those invariants on outside input; tensor_power raises a state to n copies.
* Measurements are POVMs: tuples of Hermitian PSD elements summing to the
  identity, with at least two outcomes.
* Multi-qubit bases are labeled by bit strings with qubit 1 as the most
  significant bit, so "10" means qubit 1 in state 1 and qubit 2 in state 0.

Validation tolerances are module constants. Probabilities may pick up
rounding noise of order 1e-16; negatives above -1e-12 are clamped to zero at
the distribution boundary, anything worse is an error rather than a clamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DimensionOverflow,
    InvariantViolation,
    NotHermitian,
    NotPSD,
    TraceNotOne,
)

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
SUM_TOL = 1e-10
PROB_CLAMP = 1e-12
MAX_TENSOR_DIM = 2**12


def _as_complex_matrix(mat: np.ndarray) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def validate_density(mat: np.ndarray) -> np.ndarray:
    """Check the density matrix invariants; return a read-only complex copy.

    Raises NotHermitian, TraceNotOne, or NotPSD naming the offending
    magnitude; each check uses its own tolerance constant.
    """
    m = _as_complex_matrix(mat)
    defect = _hermiticity_defect(m)
    if defect > HERMITIAN_TOL:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {HERMITIAN_TOL:.0e}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace {tr:.12g} differs from 1 by {abs(tr - 1.0):.3e}")
    low = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)))
    if low < -PSD_TOL:
        raise NotPSD(f"minimum eigenvalue {low:.3e} below -{PSD_TOL:.0e}")
    out = m.copy()
    out.setflags(write=False)
    return out


def tensor_power(rho: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power rho^(x)n, capped at MAX_TENSOR_DIM total dimension.

    n = 1 returns rho itself; larger n a new read-only array.
    """
    if n < 1:
        raise ValueError(f"tensor power needs n >= 1, got {n}")
    d = rho.shape[0]
    if d**n > MAX_TENSOR_DIM:
        raise DimensionOverflow(f"dim {d}^{n} = {d ** n} exceeds cap {MAX_TENSOR_DIM}")
    out = rho
    for _ in range(n - 1):
        out = np.kron(out, rho)
    if n > 1:
        out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Povm:
    """A POVM: outcome labels plus matching Hermitian PSD elements."""

    labels: tuple
    elements: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.elements):
            raise DimensionMismatch(
                f"{len(self.labels)} labels for {len(self.elements)} elements"
            )
        if len(self.labels) < 2:
            raise ValueError("a POVM needs at least two outcomes")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("POVM labels must be distinct")
        elems = tuple(_as_complex_matrix(e) for e in self.elements)
        d = elems[0].shape[0]
        for lab, e in zip(self.labels, elems):
            if e.shape[0] != d:
                raise DimensionMismatch(f"element {lab!r} has dim {e.shape[0]}, expected {d}")
            defect = _hermiticity_defect(e)
            if defect > HERMITIAN_TOL:
                raise NotHermitian(f"element {lab!r} hermiticity defect {defect:.3e}")
            low = float(np.min(np.linalg.eigvalsh((e + e.conj().T) / 2.0)))
            if low < -PSD_TOL:
                raise NotPSD(f"element {lab!r} eigenvalue {low:.3e} below -{PSD_TOL:.0e}")
        total = sum(elems[1:], start=elems[0].copy())
        dev = float(np.max(np.abs(total - np.eye(d))))
        if dev > SUM_TOL:
            raise InvariantViolation(f"POVM elements sum off identity by {dev:.3e}")
        object.__setattr__(self, "elements", elems)
        for e in elems:
            e.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @cached_property
    def _stack(self) -> np.ndarray:
        return np.stack(self.elements)

    @cached_property
    def _index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    def element(self, label) -> np.ndarray:
        return self.elements[self._index[label]]


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over a POVM's outcome labels."""

    labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if len(self.labels) != p.shape[0] or p.ndim != 1:
            raise DimensionMismatch(
                f"{len(self.labels)} labels for probability shape {p.shape}"
            )
        if float(p.min()) < 0.0 or float(p.max()) > 1.0:
            raise InvariantViolation(
                f"probability outside [0,1]: min {p.min():.3e}, max {p.max():.3e}"
            )
        gap = abs(float(p.sum()) - 1.0)
        if gap > SUM_TOL:
            raise InvariantViolation(f"probabilities sum off 1 by {gap:.3e}")
        object.__setattr__(self, "probs", p)
        p.setflags(write=False)

    @cached_property
    def _cum(self) -> np.ndarray:
        return np.cumsum(self.probs)


def born_distribution(rho: np.ndarray, povm: Povm) -> OutcomeDistribution:
    """Outcome distribution p(x) = Tr(rho M_x).

    Negative traces above -PROB_CLAMP are rounding noise and clamp to zero;
    larger violations indicate a broken state or POVM and raise.
    """
    if rho.shape[0] != povm.dim:
        raise DimensionMismatch(f"state dim {rho.shape[0]} vs POVM dim {povm.dim}")
    probs = np.einsum("ij,xji->x", rho, povm._stack).real
    low = float(probs.min())
    if low < -PROB_CLAMP:
        raise InvariantViolation(f"Born probability {low:.3e} below -{PROB_CLAMP:.0e}")
    probs = np.minimum(np.maximum(probs, 0.0), 1.0)
    return OutcomeDistribution(labels=povm.labels, probs=probs)


def sample_outcome(dist: OutcomeDistribution, rng: np.random.Generator):
    """Draw one outcome label. Consumes exactly one uniform from rng."""
    u = rng.random()
    idx = int(np.searchsorted(dist._cum, u, side="right"))
    return dist.labels[min(idx, len(dist.labels) - 1)]


def hermitian_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized as (m + m^dag)/2 before factoring; asymmetry
    beyond HERMITIAN_TOL raises instead. Column i of the returned vectors
    matches eigenvalue i.
    """
    m = _as_complex_matrix(mat)
    defect = _hermiticity_defect(m)
    if defect > HERMITIAN_TOL:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {HERMITIAN_TOL:.0e}")
    h = (m + m.conj().T) / 2.0
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh failed: {exc}") from exc
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def positive_eigenprojector(mat: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors with eigenvalue > tol."""
    vals, vecs = hermitian_eig(mat)
    keep = vecs[:, vals > tol]
    return keep @ keep.conj().T


def trace_norm(mat: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    m = _as_complex_matrix(mat)
    defect = _hermiticity_defect(m)
    if defect > HERMITIAN_TOL:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {HERMITIAN_TOL:.0e}")
    vals = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return float(np.sum(np.abs(vals)))


def computational_basis_povm(n_qubits: int) -> Povm:
    """Projective measurement in the n-qubit computational basis.

    Labels are n-bit strings, qubit 1 most significant.
    """
    if n_qubits < 1:
        raise ValueError(f"need n_qubits >= 1, got {n_qubits}")
    dim = 2**n_qubits
    if dim > MAX_TENSOR_DIM:
        raise DimensionOverflow(f"dim 2^{n_qubits} = {dim} exceeds cap {MAX_TENSOR_DIM}")
    labels = tuple(format(i, f"0{n_qubits}b") for i in range(dim))
    elements = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1.0
        elements.append(e)
    return Povm(labels=labels, elements=tuple(elements))


def sic_povm_qubit() -> Povm:
    """Tetrahedral qubit SIC-POVM: four subnormalized rank-1 elements.

    Elements are (I + a_k . sigma)/4 with the a_k the vertices of a regular
    tetrahedron on the Bloch sphere, so Tr(M_j M_k) = 1/12 for j != k.
    """
    s = np.sqrt(2.0)
    verts = np.array(
        [
            [0.0, 0.0, 1.0],
            [2.0 * s / 3.0, 0.0, -1.0 / 3.0],
            [-s / 3.0, np.sqrt(2.0 / 3.0), -1.0 / 3.0],
            [-s / 3.0, -np.sqrt(2.0 / 3.0), -1.0 / 3.0],
        ]
    )
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    elements = tuple(
        (eye + a[0] * sx + a[1] * sy + a[2] * sz) / 4.0 for a in verts
    )
    return Povm(labels=(0, 1, 2, 3), elements=elements)
