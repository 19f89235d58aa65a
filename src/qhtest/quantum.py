"""Finite-dimensional density matrices, POVMs, and Born-rule sampling.

Conventions used throughout the package:

* States are density matrices held as plain read-only complex arrays:
  Hermitian, trace one, positive semidefinite. validate_density checks
  those invariants on outside input; tensor_power raises a state to n copies.
* Measurements are POVMs: tuples of Hermitian PSD elements summing to the
  identity, with at least two outcomes.
* A value built once and shared is stored by memoized, which makes it read-only.
* Multi-qubit bases are labeled by bit strings with qubit 1 as the most
  significant bit, so "10" means qubit 1 in state 1 and qubit 2 in state 0.

Validation tolerances are module constants. Probabilities may pick up
rounding noise of order 1e-16; negatives above -1e-12 are clamped to zero at
the distribution boundary, anything worse is an error rather than a clamp.
Every check is written so that NaN fails it (`not defect <= tol`), so a NaN
entry is refused where it first meets a check, with no pass of its own.
"""

from __future__ import annotations

from bisect import bisect_right
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
# Bytes of the largest dense array a sweep config may ask for (harness.ExperimentConfig).
MAX_ARRAY_BYTES = 2**30


_MISSING = object()


def memoized(memo: dict, key, build, *args):
    """memo[key], stored as build(*args) on the first lookup; a hit is one dict.get.

    Every value built once into a cache dict goes through here, and what
    is stored is read-only: an ndarray value, and each ndarray in a tuple
    value, has its write flag cleared before it is stored, so no reader of
    a cached value can change what the next reader gets. A stored None is
    a hit like any other value.
    """
    hit = memo.get(key, _MISSING)
    if hit is _MISSING:
        hit = memo[key] = build(*args)
        for item in hit if isinstance(hit, tuple) else (hit,):
            if isinstance(item, np.ndarray):
                item.setflags(write=False)
    return hit


def _as_complex_matrix(mat: np.ndarray) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _hermitian_parts(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mat as a square complex m, and (m + m^dag)/2; NotHermitian beyond HERMITIAN_TOL."""
    m = _as_complex_matrix(mat)
    adj = m.conj().T
    defect = float(np.abs(m - adj).max())
    if not defect <= HERMITIAN_TOL:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {HERMITIAN_TOL:.0e}")
    h = m + adj
    h /= 2.0
    return m, h


def validate_density(mat: np.ndarray) -> np.ndarray:
    """Check the density matrix invariants; return a read-only complex copy.

    Raises NotHermitian, TraceNotOne, or NotPSD naming the offending
    magnitude; each check uses its own tolerance constant.
    """
    m, h = _hermitian_parts(mat)
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise TraceNotOne(f"trace {tr:.12g} differs from 1 by {abs(tr - 1.0):.3e}")
    low = float(np.min(np.linalg.eigvalsh(h)))
    if not low >= -PSD_TOL:
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


@dataclass(frozen=True, eq=False)
class Povm:
    """A POVM: outcome labels plus matching Hermitian PSD elements.

    The elements are stored once, as one read-only (outcomes, dim, dim)
    stack built from copies of the caller's arrays; elements holds
    read-only views of its slices, so the caller's arrays stay as they were.
    A Povm equals and hashes as itself only, so a memo may key on it.
    """

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
        elems = [_as_complex_matrix(e) for e in self.elements]
        d = elems[0].shape[0]
        same = next((i for i, e in enumerate(elems) if e.shape[0] != d), len(elems))
        # One batched check of the elements before the first of another dim,
        # raising for the first offender as an element-by-element loop would.
        stack = np.array(elems[:same])
        adj = stack.conj().transpose(0, 2, 1)
        defects = np.abs(stack - adj).reshape(same, -1).max(axis=1)
        herm = stack + adj
        herm /= 2.0
        lows = np.linalg.eigvalsh(herm).min(axis=1)
        for lab, defect, low in zip(self.labels, defects, lows):
            if not defect <= HERMITIAN_TOL:
                raise NotHermitian(f"element {lab!r} hermiticity defect {defect:.3e}")
            if not low >= -PSD_TOL:
                raise NotPSD(f"element {lab!r} eigenvalue {low:.3e} below -{PSD_TOL:.0e}")
        if same < len(elems):
            lab, dim = self.labels[same], elems[same].shape[0]
            raise DimensionMismatch(f"element {lab!r} has dim {dim}, expected {d}")
        # summing over the stack's first axis adds the elements in order
        total = stack.sum(axis=0)
        total -= np.eye(d)
        dev = float(np.abs(total).max())
        if not dev <= SUM_TOL:
            raise InvariantViolation(f"POVM elements sum off identity by {dev:.3e}")
        stack.setflags(write=False)
        object.__setattr__(self, "elements", tuple(stack))
        object.__setattr__(self, "_stack", stack)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @cached_property
    def _index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    def element(self, label) -> np.ndarray:
        return self.elements[self._index[label]]


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over a POVM's outcome labels.

    _cum holds their running sums (np.cumsum) as a tuple of Python floats,
    which sample_outcome bisects.
    """

    labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if len(self.labels) != p.shape[0] or p.ndim != 1:
            raise DimensionMismatch(
                f"{len(self.labels)} labels for probability shape {p.shape}"
            )
        if not (float(p.min()) >= 0.0 and float(p.max()) <= 1.0):
            raise InvariantViolation(
                f"probability outside [0,1]: min {p.min():.3e}, max {p.max():.3e}"
            )
        gap = abs(float(p.sum()) - 1.0)
        if not gap <= SUM_TOL:
            raise InvariantViolation(f"probabilities sum off 1 by {gap:.3e}")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "_cum", tuple(np.cumsum(p).tolist()))
        p.setflags(write=False)


def born_distribution(rho: np.ndarray, povm: Povm) -> OutcomeDistribution:
    """Outcome distribution p(x) = Tr(rho M_x).

    Negative traces above -PROB_CLAMP are rounding noise and clamp to zero;
    larger violations indicate a broken state or POVM and raise.
    """
    if rho.shape[0] != povm.dim:
        raise DimensionMismatch(f"state dim {rho.shape[0]} vs POVM dim {povm.dim}")
    probs = np.einsum("ij,xji->x", rho, povm._stack).real
    low = float(probs.min())
    if not low >= -PROB_CLAMP:
        raise InvariantViolation(f"Born probability {low:.3e} below -{PROB_CLAMP:.0e}")
    probs = np.minimum(np.maximum(probs, 0.0), 1.0)
    return OutcomeDistribution(labels=povm.labels, probs=probs)


def sample_outcome(dist: OutcomeDistribution, rng: np.random.Generator):
    """Draw one outcome label. Consumes exactly one uniform from rng.

    The label is the first whose cumulative probability exceeds the
    uniform, found by bisection on the cumulative floats (as
    np.searchsorted(cum, u, side="right") would find it), or the last
    label when rounding leaves every cumulative value at or below it.
    """
    idx = bisect_right(dist._cum, rng.random())
    labels = dist.labels
    return labels[idx] if idx < len(labels) else labels[-1]


def hermitian_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized as (m + m^dag)/2 before factoring; asymmetry
    beyond HERMITIAN_TOL raises instead. Column i of the returned vectors
    matches eigenvalue i; both are reversed views of eigh's ascending output.
    """
    _, h = _hermitian_parts(mat)
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh failed: {exc}") from exc
    return vals[::-1], vecs[:, ::-1]


def positive_eigenprojector(mat: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors with eigenvalue > tol."""
    vals, vecs = hermitian_eig(mat)
    keep = vecs[:, vals > tol]
    return keep @ keep.conj().T


def trace_norm(mat: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    _, h = _hermitian_parts(mat)
    vals = np.linalg.eigvalsh(h)
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
