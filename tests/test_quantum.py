"""Checks for the density matrix / POVM layer."""

import numpy as np
import pytest

from qhtest.errors import (
    DimensionMismatch,
    DimensionOverflow,
    InvariantViolation,
    NotHermitian,
    NotPSD,
    TraceNotOne,
)
from qhtest.quantum import (
    MAX_TENSOR_DIM,
    OutcomeDistribution,
    Povm,
    born_distribution,
    computational_basis_povm,
    hermitian_eig,
    memoized,
    positive_eigenprojector,
    sample_outcome,
    sic_povm_qubit,
    tensor_power,
    trace_norm,
    validate_density,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_density(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return validate_density(m / np.trace(m).real)


def test_validate_density_accepts_pure_state():
    rho = validate_density(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert rho.shape == (2, 2)
    assert rho.dtype == complex


def test_validated_matrix_is_read_only():
    rho = validate_density(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        rho[0, 0] = 0.3


def test_validate_density_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        validate_density(np.array([[0.5, 0.1], [0.0, 0.5]]))


def test_validate_density_rejects_bad_trace():
    with pytest.raises(TraceNotOne):
        validate_density(np.eye(2))


def test_validate_density_rejects_negative_eigenvalue():
    with pytest.raises(NotPSD):
        validate_density(np.diag([1.2, -0.2]))


NAN = float("nan")


@pytest.mark.parametrize(
    "mat",
    [np.full((2, 2), NAN), np.diag([NAN, 0.5]), np.array([[0.5, NAN], [NAN, 0.5]])],
)
def test_validate_density_rejects_nan_entries(mat):
    """Every check fails on NaN, so a NaN entry never passes as a state."""
    with pytest.raises((NotHermitian, TraceNotOne, NotPSD)):
        validate_density(mat)


@pytest.mark.parametrize(
    "elements",
    [(np.full((2, 2), NAN), np.eye(2)),
     (np.full((2, 2), NAN), np.full((2, 2), NAN)),
     (np.eye(2) / 2, np.diag([0.5, NAN]))],
)
def test_povm_rejects_nan_elements(elements):
    with pytest.raises((NotHermitian, NotPSD, InvariantViolation)):
        Povm(labels=(0, 1), elements=elements)


@pytest.mark.parametrize("probs", [[NAN, 0.5], [NAN, NAN], [0.5, 0.5, NAN]])
def test_outcome_distribution_rejects_nan_probabilities(probs):
    with pytest.raises(InvariantViolation):
        OutcomeDistribution(labels=tuple(range(len(probs))), probs=np.array(probs))


def test_tensor_power_matches_kron():
    rng = np.random.default_rng(7)
    rho = random_density(rng)
    r3 = tensor_power(rho, 3)
    assert r3.shape == (8, 8)
    expect = np.kron(np.kron(rho, rho), rho)
    assert np.allclose(r3, expect)


def test_tensor_power_returns_one_copy_as_is_and_more_read_only():
    rho = np.eye(2, dtype=complex) / 2.0
    assert tensor_power(rho, 1) is rho
    r2 = tensor_power(rho, 2)
    with pytest.raises(ValueError):
        r2[0, 0] = 0.3
    assert rho.flags.writeable


def test_memoized_builds_once_and_stores_read_only():
    memo, builds = {}, []

    def build(*args):
        builds.append(args)
        return args[0] if len(args) == 1 else (np.zeros(2), "label", np.ones(3))

    arr = memoized(memo, "a", build, np.zeros(2))
    pair = memoized(memo, "t", build, 1, 2)
    assert memoized(memo, "a", build, None) is arr
    assert memoized(memo, "t", build, None) is pair
    # None is a stored value like any other, not a miss
    assert memoized(memo, "n", build, None) is None
    assert memoized(memo, "n", build, 0) is None
    assert len(builds) == 3
    for stored in (arr, pair[0], pair[2]):
        with pytest.raises(ValueError):
            stored[0] = 1.0


def test_tensor_power_respects_dimension_cap():
    rho = validate_density(np.eye(2) / 2.0)
    assert tensor_power(rho, 12).shape[0] == MAX_TENSOR_DIM
    with pytest.raises(DimensionOverflow):
        tensor_power(rho, 13)
    with pytest.raises(ValueError):
        tensor_power(rho, 0)


def test_povm_rejects_broken_completeness():
    half = np.eye(2) * 0.5
    with pytest.raises(InvariantViolation):
        Povm(labels=(0, 1), elements=(half, half * 0.9))


def test_povm_rejects_duplicate_labels():
    half = np.eye(2) * 0.5
    with pytest.raises(ValueError):
        Povm(labels=("a", "a"), elements=(half, half))


def test_povm_rejects_non_psd_element():
    e0 = np.diag([1.5, 0.5])
    e1 = np.eye(2) - e0
    with pytest.raises(NotPSD):
        Povm(labels=(0, 1), elements=(e0, e1))


NON_PSD = np.diag([1.5, -0.5])
NON_HERMITIAN = np.array([[0.5, 0.2], [0.0, 0.5]])
WIDE = np.eye(4) / 4.0


@pytest.mark.parametrize(
    "elements, error, label",
    [
        ((NON_PSD, NON_HERMITIAN, np.eye(2)), NotPSD, "a"),
        ((NON_HERMITIAN, NON_PSD, np.eye(2)), NotHermitian, "a"),
        ((np.eye(2) / 2, NON_PSD, NON_HERMITIAN), NotPSD, "b"),
        ((np.eye(2) / 2, NON_HERMITIAN, WIDE), NotHermitian, "b"),
        ((np.eye(2) / 2, NON_PSD, WIDE), NotPSD, "b"),
        ((np.eye(2) / 2, WIDE, NON_PSD), DimensionMismatch, "b"),
        ((np.eye(2) / 2, np.eye(2) / 2, WIDE), DimensionMismatch, "c"),
    ],
)
def test_povm_names_its_first_offending_element(elements, error, label):
    """With several bad elements, the error is the first one's, checked in label order."""
    with pytest.raises(error, match=f"element '{label}'"):
        Povm(labels=("a", "b", "c"), elements=elements)


def test_povm_element_lookup_by_label():
    povm = computational_basis_povm(2)
    assert povm.labels == ("00", "01", "10", "11")
    assert np.allclose(povm.element("10"), np.diag([0.0, 0.0, 1.0, 0.0]))


def test_born_distribution_plus_state():
    plus = validate_density(np.full((2, 2), 0.5))
    dist = born_distribution(plus, computational_basis_povm(1))
    assert np.allclose(dist.probs, [0.5, 0.5])


def test_born_distribution_dimension_mismatch():
    rho = validate_density(np.eye(2) / 2.0)
    with pytest.raises(DimensionMismatch):
        born_distribution(rho, computational_basis_povm(2))


def test_born_probabilities_sum_to_one_randomized():
    rng = np.random.default_rng(11)
    povm = sic_povm_qubit()
    for _ in range(50):
        rho = random_density(rng)
        dist = born_distribution(rho, povm)
        assert abs(float(dist.probs.sum()) - 1.0) < 1e-10
        assert float(dist.probs.min()) >= 0.0


def test_sample_outcome_frequencies():
    """Empirical frequencies track Born probabilities on a biased state."""
    rho = validate_density(np.diag([0.8, 0.2]))
    dist = born_distribution(rho, computational_basis_povm(1))
    rng = np.random.default_rng(5)
    n = 20000
    hits = sum(sample_outcome(dist, rng) == "0" for _ in range(n))
    assert abs(hits / n - 0.8) < 0.01


def test_sample_outcome_consumes_one_uniform():
    rho = validate_density(np.diag([0.5, 0.5]))
    dist = born_distribution(rho, computational_basis_povm(1))
    a = np.random.default_rng(99)
    b = np.random.default_rng(99)
    sample_outcome(dist, a)
    b.random()
    assert a.random() == b.random()


def test_hermitian_eig_descending_and_consistent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + a.conj().T
        vals, vecs = hermitian_eig(h)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, h)


def test_hermitian_eig_rejects_asymmetric_input():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_positive_eigenprojector_is_projector():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + a.conj().T
        p = positive_eigenprojector(h)
        assert np.allclose(p @ p, p, atol=1e-10)
        assert np.allclose(p, p.conj().T, atol=1e-12)
        # Tr(P h) equals the sum of the positive eigenvalues
        vals = np.linalg.eigvalsh(h)
        assert abs(np.trace(p @ h).real - vals[vals > 0].sum()) < 1e-9


def test_trace_norm_of_pauli_z_difference():
    rho0 = validate_density(np.diag([1.0, 0.0]))
    rho1 = validate_density(np.diag([0.0, 1.0]))
    assert abs(trace_norm(rho0 - rho1) - 2.0) < 1e-12


def test_sic_povm_symmetry():
    povm = sic_povm_qubit()
    assert povm.labels == (0, 1, 2, 3)
    for e in povm.elements:
        # rank one with trace 1/2
        vals = np.linalg.eigvalsh(e)
        assert abs(vals[-1] - 0.5) < 1e-12
        assert abs(vals[:-1]).max() < 1e-12
    for j in range(4):
        for k in range(4):
            overlap = np.trace(povm.elements[j] @ povm.elements[k]).real
            expect = 1.0 / 4.0 if j == k else 1.0 / 12.0
            assert abs(overlap - expect) < 1e-12


def test_sic_povm_reconstructs_bloch_vector():
    """Outcome probabilities of the tetrahedral POVM pin down the state."""
    rng = np.random.default_rng(23)
    povm = sic_povm_qubit()
    for _ in range(25):
        rho = random_density(rng)
        probs = born_distribution(rho, povm).probs
        # linear inversion: rho = sum_k (3 p_k - 1/2) * 2 M_k  (qubit SIC identity)
        rebuilt = sum(
            (3.0 * p - 0.5) * 2.0 * e for p, e in zip(probs, povm.elements)
        )
        assert np.allclose(rebuilt, rho, atol=1e-10)
