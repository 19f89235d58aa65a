"""Tests for the joint measurement designs and their grid optimizers."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhtest import baselines, engine, measurements
from qhtest.baselines import FixedTestConfig, run_lht
from qhtest.engine import PolicyConfig, new_slr_state
from qhtest.errors import DimensionMismatch, InfeasibleCalibration
from qhtest.family import FamilyConfig, build_grid, parse_hypothesis_set, state_from_angle
from qhtest.measurements import (
    _binary_probs_on_weight_grid,
    _rotated_basis_probs,
    _spin_isometries,
    _variational_unitaries,
    expected_log_increment,
    helstrom_povm,
    optimize_lambda,
    optimize_theta,
    rotated_basis_tables,
    rotation_grid,
    variational_povm,
)
from qhtest.quantum import born_distribution, tensor_power, trace_norm, validate_density

KET0 = validate_density(np.diag([1.0, 0.0]))
KET1 = validate_density(np.diag([0.0, 1.0]))
PLUS = validate_density(np.full((2, 2), 0.5))


def random_qubit(rng):
    """Uniformish qubit state: random Bloch vector inside the unit ball."""
    while True:
        b = rng.uniform(-1.0, 1.0, size=3)
        if b @ b <= 1.0:
            break
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return validate_density((np.eye(2) + b[0] * sx + b[1] * sy + b[2] * sz) / 2.0)


def variational_unitary(theta, copies):
    """U(theta) from the batched builder, for one angle."""
    return _variational_unitaries(np.array([theta]), copies)[0]


def powers(rho0, rho1, copies):
    """The tensor-power matrices the design entry points take."""
    return tensor_power(rho0, copies), tensor_power(rho1, copies)


def rotation_tables(rho0, rho1, copies, grid_size):
    """The null and the alternative state's rotated-basis tables optimize_theta takes."""
    _, u = rotation_grid(grid_size, copies)
    p = _rotated_basis_probs(u, np.stack(powers(rho0, rho1, copies)))
    return p[:, :, 0], p[:, :, 1]


def weighted_error(povm, rho0, rho1, weight, copies):
    """(1 - w) P(vote alt | null) + w P(vote null | alt), computed by Born."""
    p0 = born_distribution(tensor_power(rho0, copies), povm)
    p1 = born_distribution(tensor_power(rho1, copies), povm)
    return (1.0 - weight) * p0.probs[1] + weight * p1.probs[0]


class TestHelstrom:
    def test_weight_and_shape_validation(self):
        with pytest.raises(ValueError):
            helstrom_povm(KET0, KET1, 0.0)
        with pytest.raises(ValueError):
            helstrom_povm(KET0, KET1, 1.0)
        with pytest.raises(DimensionMismatch):
            helstrom_povm(KET0, tensor_power(KET1, 2), 0.5)

    def test_orthogonal_states_zero_error(self):
        povm = helstrom_povm(*powers(KET0, KET1, 1), 0.5)
        assert np.allclose(povm.element(0), np.diag([1.0, 0.0]))
        assert weighted_error(povm, KET0, KET1, 0.5, 1) < 1e-12

    def test_spot_value_zero_versus_plus(self):
        """Equal-weight discrimination of |0> and |+>."""
        povm = helstrom_povm(*powers(KET0, PLUS, 1), 0.5)
        err = weighted_error(povm, KET0, PLUS, 0.5, 1)
        assert abs(err - (2.0 - math.sqrt(2.0)) / 4.0) < 1e-12

    def test_achieves_trace_norm_error_bound(self):
        """The measured weighted error hits (1 - trace norm)/2 exactly."""
        rng = np.random.default_rng(31)
        for _ in range(30):
            rho0, rho1 = random_qubit(rng), random_qubit(rng)
            w = float(rng.uniform(0.05, 0.95))
            copies = int(rng.integers(1, 3))
            povm = helstrom_povm(*powers(rho0, rho1, copies), w)
            err = weighted_error(povm, rho0, rho1, w, copies)
            gap = trace_norm(
                (1.0 - w) * tensor_power(rho0, copies)
                - w * tensor_power(rho1, copies)
            )
            assert abs(err - 0.5 * (1.0 - gap)) < 1e-9

    def test_outcome_one_votes_alternative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rho0, rho1 = random_qubit(rng), random_qubit(rng)
            if trace_norm(rho0 - rho1) < 1e-3:
                continue
            povm = helstrom_povm(*powers(rho0, rho1, 1), 0.5)
            p_alt = born_distribution(rho1, povm).probs[1]
            p_null = born_distribution(rho0, povm).probs[1]
            assert p_alt > p_null


class TestVariational:
    def test_theta_zero_two_copies_is_cnot(self):
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
        )
        assert np.allclose(variational_unitary(0.0, 2), cnot)

    def test_theta_pi_single_copy(self):
        assert np.allclose(variational_unitary(math.pi, 1), [[0.0, -1.0], [1.0, 0.0]])

    def test_unitarity(self):
        rng = np.random.default_rng(2)
        for copies in (1, 2, 3):
            for theta in rng.uniform(0.0, 2.0 * np.pi, size=4):
                u = variational_unitary(float(theta), copies)
                assert np.allclose(u @ u.T.conj(), np.eye(2**copies), atol=1e-12)

    def test_povm_elements_are_rotated_projectors(self):
        theta = 1.3
        povm = variational_povm(theta, 2)
        u = variational_unitary(theta, 2)
        assert povm.labels == ("00", "01", "10", "11")
        rng = np.random.default_rng(14)
        rho = tensor_power(random_qubit(rng), 2)
        dist = born_distribution(rho, povm)
        direct = np.diag(u @ rho @ u.T.conj()).real
        assert np.allclose(dist.probs, direct, atol=1e-12)

    def test_copies_must_be_positive(self):
        with pytest.raises(ValueError):
            variational_povm(0.3, 0)


@settings(max_examples=60, deadline=None)
@given(
    grid_size=st.integers(1, 40),
    copies=st.integers(1, 4),
    radii=st.sampled_from([(1.0, 1.0), (0.9, 0.7)]),
    alt_angle=st.floats(0.0, 360.0),
    null_angles=st.lists(st.floats(0.0, 360.0), min_size=1, max_size=4),
)
def test_variational_tables_match_single_design_born(
    grid_size, copies, radii, alt_angle, null_angles
):
    """Every cell of the batched tables equals the Born rule on variational_povm."""
    cfg = FamilyConfig(r_z=radii[0], r_x=radii[1])
    thetas, q = rotated_basis_tables(cfg, (alt_angle,), copies, grid_size)
    q = q[:, :, 0]
    pn = rotated_basis_tables(cfg, null_angles, copies, grid_size)[1]
    assert thetas.shape == (grid_size,) and q.shape == (grid_size, 2**copies)
    assert pn.shape == (grid_size, 2**copies, len(null_angles))
    for t, theta in enumerate(thetas):
        assert theta == 2.0 * math.pi * t / grid_size
        povm = variational_povm(float(theta), copies)
        ref = born_distribution(tensor_power(state_from_angle(cfg, alt_angle), copies), povm)
        assert np.max(np.abs(q[t] - ref.probs)) <= 1e-12
        for j, w in enumerate(null_angles):
            ref = born_distribution(tensor_power(state_from_angle(cfg, w), copies), povm)
            assert np.max(np.abs(pn[t, :, j] - ref.probs)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    radii=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    angles=st.lists(st.floats(0.0, 360.0), min_size=2, max_size=4),
    copies=st.integers(1, 4),
    grid_size=st.integers(1, 40),
    weight=st.floats(0.01, 0.99),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_design_tables_are_probability_tables(radii, angles, copies, grid_size, weight, theta):
    """Each batched rotated-basis column sums to one; the single designs pass Povm's checks.

    The batched tables never go through Povm, so nothing else checks them.
    """
    cfg = FamilyConfig(*radii)
    mats = np.stack([tensor_power(state_from_angle(cfg, w), copies) for w in angles])
    _, u = rotation_grid(grid_size, copies)
    p = _rotated_basis_probs(u, mats)
    assert p.shape == (grid_size, 2**copies, len(angles))
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
    helstrom_povm(mats[0], mats[1], weight)
    variational_povm(theta, copies)


def test_weight_grid_table_matches_single_design_born():
    """Each weight's outcome-0 probabilities equal the Born rule on helstrom_povm."""
    rng = np.random.default_rng(41)
    for _ in range(8):
        rho0, rho1 = random_qubit(rng), random_qubit(rng)
        copies = int(rng.integers(1, 4))
        grid_size = int(rng.integers(1, 30))
        pow0, pow1 = tensor_power(rho0, copies), tensor_power(rho1, copies)
        weights, p = _binary_probs_on_weight_grid(pow0, pow1, grid_size)
        assert p.shape == (grid_size, 2)
        for k, w in enumerate(weights):
            assert w == (k + 1) / (grid_size + 1)
            povm = helstrom_povm(pow0, pow1, float(w))
            assert abs(p[k, 0] - born_distribution(pow0, povm).probs[0]) <= 1e-12
            assert abs(p[k, 1] - born_distribution(pow1, povm).probs[0]) <= 1e-12


def reference_rotated_basis_probs(u, mats):
    """The rotated-basis table as the full complex contraction."""
    return np.einsum("txa,jab,txb->txj", u, mats, u.conj()).real.clip(min=0.0)


def reference_binary_probs(pow0, pow1, grid_size):
    """The weight-grid table as the full complex contraction over every eigenvector."""
    weights = np.arange(1, grid_size + 1) / (grid_size + 1)
    a = (1.0 - weights)[:, None, None] * pow0 - weights[:, None, None] * pow1
    a = (a + a.conj().transpose(0, 2, 1)) / 2.0
    vals, vecs = np.linalg.eigh(a)
    mask = (vals > measurements.PROJECTOR_TOL).astype(float)
    states = np.stack([pow0, pow1])
    quad = np.einsum("lij,sik,lkj->lsj", vecs.conj(), states, vecs).real
    return weights, np.einsum("lsj,lj->ls", quad, mask).clip(0.0, 1.0)


def assert_same_bits(got, want):
    """Equal dtype, shape and floats, and equal sign bits, so -0.0 differs from 0.0."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


design_states = st.builds(
    lambda kind, seed, radii, angles: (
        [state_from_angle(FamilyConfig(*radii), w) for w in angles]
        if kind == "family"
        else [random_qubit(np.random.default_rng([seed, j])) for j in range(len(angles))]
    ),
    st.sampled_from(["family", "complex"]),
    st.integers(0, 2**32 - 1),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.lists(st.floats(0.0, 360.0), min_size=1, max_size=5),
)


@settings(max_examples=40, deadline=None)
@given(states=design_states, copies=st.integers(1, 6), grid_size=st.integers(1, 120))
# nearly equal states, 1e-5 degrees apart: at w = 0.5 the operator is only
# their difference, which projecting each power apart misses by 8.7e-12
@example(
    states=[state_from_angle(FamilyConfig(0.5, 1.0), w) for w in (0.0, 1e-5)],
    copies=2,
    grid_size=1,
)
def test_weight_grid_kernel_matches_full_contraction(states, copies, grid_size):
    """The spin-block table equals the dense full contraction within 1e-12.

    The weights are the same floats. A single drawn state is tested against
    itself, where no weight above 0.5 keeps an eigenvector.
    """
    pow0, pow1 = powers(states[0], states[-1], copies)
    weights, got = _binary_probs_on_weight_grid(pow0, pow1, grid_size)
    want_weights, want = reference_binary_probs(pow0, pow1, grid_size)
    assert_same_bits(weights, want_weights)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


def exact_power(rho, copies):
    """rho^(x)copies as an mpmath matrix, from the float entries of a real state."""
    assert not np.any(rho.imag)
    one = mpmath.matrix(rho.real.tolist())
    out = one
    for _ in range(copies - 1):
        n = out.rows
        out = mpmath.matrix([[out[i // 2, j // 2] * one[i % 2, j % 2] for j in range(2 * n)]
                             for i in range(2 * n)])
    return out


def test_weight_grid_tables_of_a_near_equal_pair_meet_the_eigen_gap_bound():
    """Both float weight tables of a near-equal pair against a 40-digit reference.

    The pair is the family state at radii (0.5, 0.5) and angle 0,
    diag(0.75, 0.25), against the family state whose off-diagonal entry is
    5.33e-7, at 4 copies on the one-weight grid w = 0.5. The property test
    above once drew it, seeded differently, and found the spin-block and the
    dense table 2.06e-12 apart, past its 1e-12 bound; no float kernel is
    known to meet 1e-12 here. At w = 0.5 the Helstrom operator is
    A = (pow0 - pow1) / 2, a 1e-7-sized difference of powers that carry
    rounding of order 1e-17.

    The reference reads pow0 and pow1 as exact numbers and forms,
    decomposes and contracts A at 40 digits. A float kernel forms A with a
    rounding error E: both round the same entrywise difference, which the
    block kernel then conjugates by an isometry, keeping its Frobenius norm
    and adding rounding of order 1e-16 |A|, far below E. By the Davis-Kahan
    sin-theta theorem, the projector onto A's eigenvalues above
    PROJECTOR_TOL moves by at most ||E||_2 / gap, where gap separates those
    eigenvalues from the rest, and so does a probability Tr(pow_s P), pow_s
    being a density matrix. The bound checked is ||E||_F / gap, with E
    measured against the 40-digit operator: about 5e-10 here, against
    errors near 5e-12. The 1e-12 bound stays on the property test.
    """
    cfg = FamilyConfig(0.5, 0.5)
    angle = math.degrees(math.asin(2.0 * 5.33e-7 / cfg.r_x))
    rho0, rho1 = state_from_angle(cfg, 0.0), state_from_angle(cfg, angle)
    assert np.array_equal(rho0, np.diag([0.75, 0.25])) and rho1[0, 1] == 5.33e-7
    pow0, pow1 = powers(rho0, rho1, 4)
    with mpmath.workdps(40):
        exact0, exact1 = exact_power(rho0, 4), exact_power(rho1, 4)
        op = (exact0 - exact1) / 2
        vals, vecs = mpmath.eigsy(op)
        vals = [vals[i] for i in range(op.rows)]
        kept = [i for i, v in enumerate(vals) if v > measurements.PROJECTOR_TOL]
        gap = min(vals[i] for i in kept) - max(v for i, v in enumerate(vals) if i not in kept)
        rounded = 0.5 * pow0.real - 0.5 * pow1.real
        error = mpmath.sqrt(sum((mpmath.mpf(rounded[i, j]) - op[i, j]) ** 2
                                for i in range(op.rows) for j in range(op.cols)))
        bound = float(error / gap)
        reference = np.array([
            float(sum((vecs[:, i].T * exact * vecs[:, i])[0] for i in kept))
            for exact in (exact0, exact1)
        ])
    assert 0.0 < bound < 1e-9
    for kernel in (_binary_probs_on_weight_grid, reference_binary_probs):
        weights, table = kernel(pow0, pow1, 1)
        assert weights.tolist() == [0.5]
        assert np.max(np.abs(table[0] - reference)) <= bound, kernel.__name__


@pytest.mark.parametrize("copies", range(1, 7))
def test_spin_isometries_split_the_tensor_power(copies):
    """Each V_j is an isometry onto an invariant subspace of rho^(x)n, the V_j are
    mutually orthogonal, and the spin blocks with their multiplicities fill 2^n
    dimensions and carry unit trace."""
    mults, isometries = zip(*_spin_isometries(copies))
    stacked = np.hstack(isometries)
    assert np.max(np.abs(stacked.T @ stacked - np.eye(stacked.shape[1]))) <= 1e-12
    assert sum(m * v.shape[1] for m, v in zip(mults, isometries)) == 2**copies
    rng = np.random.default_rng(copies)
    for _ in range(3):
        rho = tensor_power(random_qubit(rng), copies)
        trace = sum(m * np.trace(v.T @ rho @ v) for m, v in zip(mults, isometries))
        assert abs(trace - 1.0) <= 1e-12
        for v in isometries:
            assert np.max(np.abs(rho @ v - v @ (v.T @ rho @ v))) <= 1e-12


@pytest.mark.parametrize("copies", range(1, 5))
def test_block_table_picks_the_dense_tables_weights(copies):
    """optimize_lambda and helstrom_calibration pick the same weight from the spin-block
    table as from the dense one, at null 45 against every angle of the (45,180] grid."""
    cfg = FamilyConfig()
    pow0 = tensor_power(state_from_angle(cfg, 45.0), copies)
    for w1 in build_grid(parse_hypothesis_set("(45,180]")).angles:
        pow1 = tensor_power(state_from_angle(cfg, float(w1)), copies)
        picks = []
        for kernel in (_binary_probs_on_weight_grid, reference_binary_probs):
            weights, p_m0 = kernel(pow0, pow1, 99)
            columns = (weights, 1.0 - p_m0[:, 0], 1.0 - p_m0[:, 1])
            with mock.patch.object(measurements, "_binary_probs_on_weight_grid", kernel):
                pick = [optimize_lambda(pow0, pow1, 99)]
            for blocks in (1, 3, 5, 7):
                try:
                    pick.append(baselines.helstrom_calibration(*columns, 0.05, blocks)[0])
                except InfeasibleCalibration:
                    pick.append(None)
            picks.append(pick)
        assert picks[0] == picks[1], w1


@settings(max_examples=40, deadline=None)
@given(states=design_states, copies=st.integers(1, 5), grid_size=st.integers(1, 400))
def test_rotation_kernel_matches_complex_contraction(states, copies, grid_size):
    """The real contraction on the real unitaries gives the complex one's floats bit for bit."""
    _, u = rotation_grid(grid_size, copies)
    mats = np.stack([tensor_power(rho, copies) for rho in states])
    assert_same_bits(_rotated_basis_probs(u, mats), reference_rotated_basis_probs(u, mats))


class TestExpectedLogIncrement:
    def test_zero_when_states_coincide(self):
        povm = helstrom_povm(*powers(KET0, PLUS, 1), 0.5)
        assert expected_log_increment(PLUS, PLUS, povm, 1) == 0.0

    def test_nonnegative_for_helstrom_designs(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            rho0, rho1 = random_qubit(rng), random_qubit(rng)
            w = float(rng.uniform(0.1, 0.9))
            povm = helstrom_povm(*powers(rho0, rho1, 1), w)
            assert expected_log_increment(rho1, rho0, povm, 1) >= -1e-15


class TestOptimizers:
    def test_lambda_ties_to_half_when_states_equal(self):
        assert optimize_lambda(*powers(PLUS, PLUS, 1), grid_size=99) == 0.5

    def test_lambda_matches_exhaustive_search(self):
        rng = np.random.default_rng(55)
        grid_size = 19
        for _ in range(8):
            rho0, rho1 = random_qubit(rng), random_qubit(rng)
            copies = int(rng.integers(1, 3))
            got = optimize_lambda(*powers(rho0, rho1, copies), grid_size=grid_size)
            best = None
            for k in range(1, grid_size + 1):
                w = k / (grid_size + 1)
                povm = helstrom_povm(*powers(rho0, rho1, copies), w)
                obj = expected_log_increment(rho1, rho0, povm, copies)
                key = (obj, -abs(w - 0.5), -w)
                if best is None or key > best[0]:
                    best = (key, w)
            assert got == best[1]

    def test_theta_matches_exhaustive_search(self):
        """The batched optimizer lands on an exhaustive-search maximizer.

        For one copy the designs at theta and theta + pi are the same POVM
        with relabeled outcomes, an exact mathematical tie that float noise
        may break either way, so we accept any angle whose single-design
        objective matches the exhaustive maximum.
        """
        rng = np.random.default_rng(77)
        grid_size = 24
        for _ in range(6):
            rho0, rho1 = random_qubit(rng), random_qubit(rng)
            copies = int(rng.integers(1, 3))
            got = optimize_theta(*rotation_tables(rho0, rho1, copies, grid_size))
            thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
            objs = np.array(
                [
                    expected_log_increment(
                        rho1, rho0, variational_povm(float(th), copies), copies
                    )
                    for th in thetas
                ]
            )
            assert float(np.min(np.abs(thetas - got))) == 0.0
            got_obj = objs[int(np.argmin(np.abs(thetas - got)))]
            assert got_obj >= objs.max() - 1e-10


@pytest.fixture
def tensor_power_calls(monkeypatch):
    """Copy counts of the tensor_power calls made through engine, measurements and baselines."""
    calls = []

    def counted(rho, n, *args, **kwargs):
        calls.append(n)
        return tensor_power(rho, n, *args, **kwargs)

    for module in (engine, measurements, baselines):
        monkeypatch.setattr(module, "tensor_power", counted)
    return calls


@pytest.mark.parametrize("kind", ["aLHT+", "aLVT"])
def test_joint_design_raises_each_state_once(tensor_power_calls, monkeypatch, kind):
    """A design-cache miss raises the null and the alternative state once each; a hit none.

    The trial memo keeps each grid angle's power (aLHT+) or rotated-basis
    table (aLVT), so a later miss raises only its new state; a state at an
    off-grid angle, such as a refined null MLE, is raised and dropped.
    """
    monkeypatch.setattr(engine, "_design_cache", {})
    policy = PolicyConfig(kind=kind, n_joint=3, theta_grid_size=24)
    rng = np.random.default_rng(0)
    memo = {}
    null, alt = parse_hypothesis_set("[0,45]"), parse_hypothesis_set("(45,180]")
    angles = engine._grid_angles(memo, policy, new_slr_state(null, alt))

    def design(w0, w1):
        return engine._joint_design(policy, FamilyConfig(), w0, w1, rng, memo, angles)

    first = design(45.0, 100.0)
    assert tensor_power_calls == [3, 3]
    assert design(45.0, 100.0) is first
    assert tensor_power_calls == [3, 3]
    design(45.0, 100.5)
    assert tensor_power_calls == [3, 3, 3]
    design(22.3, 100.5)
    design(22.3, 100.0)
    assert tensor_power_calls == [3] * 5
    states = {key[1] for key in memo if isinstance(key, tuple) and key[0] in ("power", "table")}
    assert states == {45.0, 100.0, 100.5}


def test_lht_run_raises_each_state_once(tensor_power_calls):
    """One LHT run raises the null, the fitted alternative and the truth once each."""
    cfg = FamilyConfig()
    out = run_lht(
        FixedTestConfig(12, joint_copies=3), state_from_angle(cfg, 90.0), cfg, 45.0,
        parse_hypothesis_set("(45,180]"), np.random.default_rng(3), memo={},
    )
    assert out.copies_used == 12
    assert tensor_power_calls == [3, 3, 3]


@settings(max_examples=60, deadline=None)
@given(
    copies=st.integers(1, 4),
    radii=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    w0=st.floats(0.0, 360.0),
    w1=st.floats(0.0, 360.0),
    grid_size=st.sampled_from([24, 360]),
)
def test_per_state_rotation_tables_split_the_stacked_table(copies, radii, w0, w1, grid_size):
    """Each state's table equals its column of the stacked table bit for bit, and the
    engine's aLVT design, scored on per-state tables, picks optimize_theta's angle on
    the stacked one."""
    cfg = FamilyConfig(*radii)
    _, stacked = rotated_basis_tables(cfg, (w0, w1), copies, grid_size)
    for j, w in enumerate((w0, w1)):
        _, alone = rotated_basis_tables(cfg, (w,), copies, grid_size)
        assert alone[:, :, 0].tobytes() == stacked[:, :, j].tobytes()
    want = optimize_theta(stacked[:, :, 0], stacked[:, :, 1])
    policy = PolicyConfig(kind="aLVT", n_joint=copies, theta_grid_size=grid_size)
    with mock.patch.dict(engine._design_cache, clear=True):
        _, descriptor = engine._joint_design(policy, cfg, w0, w1, None, {}, frozenset())
    assert descriptor == f"variational(theta={want:.8f})"
