"""Tests for the one-parameter state family, hypothesis sets, and grids."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhtest.errors import (
    EmptyGrid,
    InvalidBlochVector,
    ParseError,
)
from qhtest.family import (
    DEFAULT_RESOLUTION,
    P_FLOOR,
    FamilyConfig,
    HypothesisSet,
    Piece,
    accumulate,
    build_grid,
    grid_size,
    log_outcome_prob,
    loglik_at,
    mle,
    outcome_coeffs,
    parse_hypothesis_set,
    sets_disjoint,
    state_from_angle,
)
from qhtest.measurements import helstrom_povm, variational_povm
from qhtest.quantum import (
    Povm,
    born_distribution,
    computational_basis_povm,
    sic_povm_qubit,
    tensor_power,
)


def direct_tensor_prob(cfg, omega, element, copies):
    """Tr(rho(omega)^(x)copies element) by explicit Kronecker products."""
    rho = state_from_angle(cfg, omega)
    out = rho
    for _ in range(copies - 1):
        out = np.kron(out, rho)
    return float(np.einsum("ab,ba->", out, element).real)


def fold(grid, cfg, povm, outcome):
    """accumulate one observed outcome through its coefficient row."""
    return accumulate(grid, outcome_coeffs(cfg, povm.element(outcome)))


# --- family states --------------------------------------------------------


def test_state_from_angle_reference_points():
    cfg = FamilyConfig()
    assert np.allclose(state_from_angle(cfg, 0.0), np.diag([1.0, 0.0]))
    assert np.allclose(state_from_angle(cfg, 90.0), np.full((2, 2), 0.5))
    assert np.allclose(state_from_angle(cfg, 180.0), np.diag([0.0, 1.0]))


def test_state_from_angle_is_read_only():
    rho = state_from_angle(FamilyConfig(), 30.0)
    assert rho.dtype == complex
    with pytest.raises(ValueError):
        rho[0, 0] = 0.3


def test_state_from_angle_is_always_a_state():
    cfg = FamilyConfig(r_z=0.9, r_x=0.6)
    for omega in np.arange(0.0, 360.0, 7.3):
        rho = state_from_angle(cfg, float(omega))
        vals = np.linalg.eigvalsh(rho)
        assert vals.min() >= -1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_family_config_rejects_bloch_norm_above_one():
    with pytest.raises(InvalidBlochVector):
        FamilyConfig(r_z=1.2)
    with pytest.raises(InvalidBlochVector):
        FamilyConfig(r_z=0.8, r_x=1.05)


# --- pieces and hypothesis sets -------------------------------------------


def test_piece_endpoint_openness():
    p = Piece(45.0, 180.0, closed_start=False, closed_end=True)
    assert not p.contains(45.0)
    assert p.contains(45.0 + 1e-9)
    assert p.contains(180.0)
    assert not p.contains(180.1)


def test_piece_rejects_bad_ranges():
    with pytest.raises(ValueError):
        Piece(200.0, 100.0)
    with pytest.raises(ValueError):
        Piece(-5.0, 10.0)
    with pytest.raises(ValueError):
        Piece(45.0, 45.0, closed_start=False)


def test_hypothesis_set_sorts_and_rejects_overlap():
    hs = HypothesisSet(pieces=(Piece(100.0, 120.0), Piece(10.0, 20.0)))
    assert [p.start for p in hs.pieces] == [10.0, 100.0]
    with pytest.raises(ValueError):
        HypothesisSet(pieces=(Piece(10.0, 20.0), Piece(15.0, 30.0)))


def test_parse_single_interval():
    hs = parse_hypothesis_set("(45,180]")
    assert len(hs.pieces) == 1
    p = hs.pieces[0]
    assert (p.start, p.end, p.closed_start, p.closed_end) == (45.0, 180.0, False, True)


def test_parse_point_group():
    hs = parse_hypothesis_set("{45,135}")
    assert [p.start for p in hs.pieces] == [45.0, 135.0]
    assert all(p.is_point for p in hs.pieces)


def test_parse_union_of_open_intervals():
    hs = parse_hypothesis_set("(45,135) (135,180)")
    assert len(hs.pieces) == 2
    assert not hs.contains(135.0)
    assert hs.contains(134.0)
    assert hs.contains(136.0)


def test_parse_rejects_garbage():
    for bad in ("", "45..90", "(45,180] junk", "[1,2,3]"):
        with pytest.raises(ParseError):
            parse_hypothesis_set(bad)


@pytest.mark.parametrize(
    "text, pieces",
    [
        ("[0,10] [5,20]", "[0,10] and [5,20]"),
        ("{45,45}", "{45} and {45}"),
        ("{45} [0,45]", "[0,45] and {45}"),
    ],
)
def test_parse_rejects_overlapping_pieces_with_a_parse_error(text, pieces):
    """Overlap is a malformed set like any other: a ParseError naming both pieces."""
    with pytest.raises(ParseError) as info:
        parse_hypothesis_set(text)
    assert f"pieces {pieces} overlap" in str(info.value)


def test_str_round_trip():
    for text in (
        "{45}", "(45,180]", "{45} {135}", "[0,10) (20,30]", "(45.000001,180]", "{123.4567}"
    ):
        hs = parse_hypothesis_set(text)
        again = parse_hypothesis_set(str(hs))
        assert again == hs


def test_sets_disjoint_respects_open_endpoints():
    point = parse_hypothesis_set("{45}")
    assert sets_disjoint(point, parse_hypothesis_set("(45,180]"))
    assert not sets_disjoint(point, parse_hypothesis_set("[45,180]"))


# --- grid construction ----------------------------------------------------


def test_build_grid_open_start_steps_inward():
    grid = build_grid(parse_hypothesis_set("(45,180]"), resolution=0.5)
    assert grid.angles[0] == 45.5
    assert grid.angles[-1] == 180.0
    assert np.allclose(np.diff(grid.angles), 0.5)
    assert grid.angles.shape[0] == 270


def test_build_grid_appends_missed_closed_endpoint():
    grid = build_grid(parse_hypothesis_set("[0,1.3]"), resolution=0.5)
    assert np.allclose(grid.angles, [0.0, 0.5, 1.0, 1.3])


def test_build_grid_point_pieces_and_segment_labels():
    grid = build_grid(parse_hypothesis_set("{45,135}"), resolution=0.5)
    assert np.allclose(grid.angles, [45.0, 135.0])
    assert grid.segments.tolist() == [0, 1]


def test_build_grid_empty_interval_raises():
    narrow = parse_hypothesis_set("(45,45.4)")
    with pytest.raises(EmptyGrid):
        build_grid(narrow, resolution=0.5)
    assert grid_size(narrow, resolution=0.5) == 0
    # the open start steps past the closed end by less than _ANGLE_EPS
    past = parse_hypothesis_set("(0,0.0499999999]")
    with pytest.raises(EmptyGrid):
        build_grid(past, resolution=0.05)
    assert grid_size(past, resolution=0.05) == 0


@pytest.mark.parametrize("resolution", [0.5, 0.3, 0.7, 0.01, 0.123, 7.0])
def test_grid_size_counts_the_angles_build_grid_lists(resolution):
    for text in ("{45}", "(45,180]", "[0,45]", "[0,1.3]", "{45,135}",
                 "[0,30] [120,150]", "(30,120) (150,180]", "(45,135) (135,180)"):
        hset = parse_hypothesis_set(text)
        assert grid_size(hset, resolution) == build_grid(hset, resolution).angles.size, text


# --- trigonometric interpolation ------------------------------------------


def test_outcome_coeffs_interpolate_exactly():
    """The outcome probability in omega is a trig polynomial of the copy count.

    Interpolating from 2n+1 equispaced nodes must therefore agree with the
    direct tensor-product trace at arbitrary angles, not just at nodes.
    """
    rng = np.random.default_rng(41)
    for cfg in (FamilyConfig(), FamilyConfig(r_z=0.9, r_x=0.6)):
        for copies in (1, 2, 3):
            dim = 2**copies
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            element = a + a.conj().T
            coeffs = outcome_coeffs(cfg, element)
            assert coeffs.shape == (2 * copies + 1,)
            for omega in rng.uniform(0.0, 360.0, size=12):
                w = math.radians(omega)
                val = coeffs[0]
                for k in range(1, copies + 1):
                    val += coeffs[k] * math.cos(k * w)
                    val += coeffs[copies + k] * math.sin(k * w)
                expect = direct_tensor_prob(cfg, float(omega), element, copies)
                assert abs(val - expect) < 1e-10


def test_log_outcome_prob_matches_born_rule():
    cfg = FamilyConfig()
    povm = computational_basis_povm(2)
    rho = state_from_angle(cfg, 70.0)
    dist = born_distribution(tensor_power(rho, 2), povm)
    for label, p in zip(dist.labels, dist.probs):
        if p > 0:
            got = log_outcome_prob(outcome_coeffs(cfg, povm.element(label)), 70.0)
            assert abs(got - math.log(p)) < 1e-12


def _engine_design(cfg, kind, copies, w0, w1, weight, theta):
    """A POVM of each kind the engine measures with, and its copy count."""
    if kind == "computational":
        return computational_basis_povm(copies), copies
    if kind == "sic":
        return sic_povm_qubit(), 1
    if kind == "helstrom":
        pow0 = tensor_power(state_from_angle(cfg, w0), copies)
        pow1 = tensor_power(state_from_angle(cfg, w1), copies)
        return helstrom_povm(pow0, pow1, weight), copies
    return variational_povm(theta, copies), copies


@settings(deadline=None, max_examples=100)
@given(
    radii=st.sampled_from(((1.0, 1.0), (0.9, 0.6))),
    kind=st.sampled_from(("computational", "sic", "helstrom", "variational")),
    copies=st.integers(1, 4),
    w0=st.floats(0.0, 360.0),
    w1=st.floats(0.0, 360.0),
    weight=st.floats(0.01, 0.99),
    theta=st.floats(0.0, 2.0 * math.pi),
    omega=st.floats(0.0, 360.0),
)
def test_log_outcome_prob_matches_the_kronecker_trace(
    radii, kind, copies, w0, w1, weight, theta, omega
):
    cfg = FamilyConfig(*radii)
    povm, copies = _engine_design(cfg, kind, copies, w0, w1, weight, theta)
    for element in povm.elements:
        row = outcome_coeffs(cfg, element)
        got = math.exp(log_outcome_prob(row, omega))
        assert abs(got - direct_tensor_prob(cfg, omega, element, copies)) < 1e-12


# --- accumulation and maximum likelihood ----------------------------------


def test_accumulate_adds_log_probabilities():
    cfg = FamilyConfig()
    grid = build_grid(parse_hypothesis_set("[0,180]"), resolution=1.0)
    povm = computational_basis_povm(1)
    g1 = fold(grid, cfg, povm, "0")
    g2 = fold(g1, cfg, povm, "1")
    assert grid.per_angle_loglik.max() == 0.0
    # stay away from 0 and 180 where one outcome has exactly zero mass and
    # the clamped log is dominated by interpolation noise
    for j in (30, 45, 90, 150):
        omega = float(grid.angles[j])
        p0 = direct_tensor_prob(cfg, omega, povm.element("0"), 1)
        p1 = direct_tensor_prob(cfg, omega, povm.element("1"), 1)
        expect = math.log(max(p0, 1e-300)) + math.log(max(p1, 1e-300))
        assert abs(g2.per_angle_loglik[j] - expect) < 1e-9


def test_loglik_at_matches_grid_values():
    cfg = FamilyConfig()
    rng = np.random.default_rng(4)
    grid = build_grid(parse_hypothesis_set("[10,170]"), resolution=2.0)
    povm = computational_basis_povm(1)
    for _ in range(6):
        grid = fold(grid, cfg, povm, str(rng.integers(2)))
    for j in rng.integers(0, grid.angles.shape[0], size=10):
        assert abs(loglik_at(grid, float(grid.angles[j])) - grid.per_angle_loglik[j]) < 1e-10


def per_round_loglik_at(grid, omega):
    """Reference: one term per stored round, recomputing cos/sin each time."""
    total = 0.0
    w = math.radians(omega)
    for coeffs in grid.rounds:
        copies = (len(coeffs) - 1) // 2
        val = coeffs[0]
        for k in range(1, copies + 1):
            val += coeffs[k] * math.cos(k * w) + coeffs[copies + k] * math.sin(k * w)
        total += math.log(max(val, P_FLOOR))
    return total


def _round_povms():
    """Single-copy estimation POVMs plus 2- to 4-copy joint designs."""
    cfg = FamilyConfig()
    out = [computational_basis_povm(1), sic_povm_qubit()]
    for copies, (w0, w1, lam, theta) in zip(
        (2, 3, 4), ((10.0, 60.0, 0.4, 0.3), (30.0, 90.0, 0.7, 1.2), (45.0, 50.0, 0.5, 2.9))
    ):
        pow0 = tensor_power(state_from_angle(cfg, w0), copies)
        pow1 = tensor_power(state_from_angle(cfg, w1), copies)
        out.append(helstrom_povm(pow0, pow1, lam))
        out.append(variational_povm(theta, copies))
    return out


ROUND_POVMS = _round_povms()


@settings(deadline=None, max_examples=150)
@given(
    piece=st.sampled_from(("[0,45]", "[10,170]", "(45,180]")),
    # (POVM index, outcome index); a small pool makes outcomes repeat
    rounds=st.lists(
        st.tuples(st.integers(0, len(ROUND_POVMS) - 1), st.integers(0, 15)), max_size=30
    ),
    probes=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_loglik_at_is_bit_exact_against_the_per_round_sum(piece, rounds, probes):
    cfg = FamilyConfig()
    grid = build_grid(parse_hypothesis_set(piece))
    for i, o in rounds:
        povm = ROUND_POVMS[i]
        grid = fold(grid, cfg, povm, povm.labels[o % len(povm.labels)])
    lo, hi = float(grid.angles[0]), float(grid.angles[-1])
    for u in probes:
        omega = lo + u * (hi - lo)
        assert loglik_at(grid, omega) == per_round_loglik_at(grid, omega)


def packed(coeffs):
    """An outcome row as round_rows keeps it: (c0, ((c1, s1), ..., (cn, sn)))."""
    row = coeffs.tolist()
    n = len(row) // 2
    return row[0], tuple(zip(row[1 : n + 1], row[n + 1 :]))


def unpacked(row):
    """The outcome_coeffs array a packed row was made from."""
    c0, pairs = row
    return np.array([c0, *(c for c, _ in pairs), *(s for _, s in pairs)])


def assert_searches_own_rounds(grid, probes=(30.0, 91.3)):
    """loglik_at equals the per-round sum bit for bit, and round_rows
    indexes exactly the grid's own rounds."""
    for omega in probes:
        assert loglik_at(grid, omega) == per_round_loglik_at(grid, omega)
    rows, order, top = grid.round_rows
    assert [rows[i] for i in order] == [packed(c) for c in grid.rounds]
    assert len({unpacked(r).tobytes() for r in rows}) == len(rows)
    assert top == max(((len(c) - 1) // 2 for c in grid.rounds), default=0)


def test_row_index_follows_each_branch_of_accumulated_grids():
    """Grids accumulated from one searched grid, as the oracle's enumeration
    branches, each index their own rounds; an ancestor searched after its
    descendants still reads only its own, whatever the order of the searches."""
    cfg = FamilyConfig()
    povm = ROUND_POVMS[1]
    trunk = build_grid(parse_hypothesis_set("[10,170]"))
    for label in (0, 1, 1):
        trunk = fold(trunk, cfg, povm, label)
    loglik_at(trunk, 50.0)
    branches = [fold(fold(trunk, cfg, povm, label), cfg, ROUND_POVMS[5], "010")
                for label in (2, 0, 2)]
    for grid in (*branches, trunk):
        for omega in (30.0, 91.3):
            assert loglik_at(grid, omega) == per_round_loglik_at(grid, omega)
    assert trunk.round_rows[1][:3] == [0, 1, 1]

    # a searched grid forked into several continuations, each searched and forked again
    forks = [fold(branches[0], cfg, povm, label) for label in (3, 0, 3, 1)]
    for fork in forks:
        assert_searches_own_rounds(fork)
        for label in ("0011", "1111"):
            assert_searches_own_rounds(fold(fork, cfg, ROUND_POVMS[7], label))
    assert_searches_own_rounds(branches[0])

    # a child searched before its parent, a parent after its grandchild
    root = fold(build_grid(parse_hypothesis_set("[0,45]")), cfg, povm, 2)
    child = fold(root, cfg, ROUND_POVMS[5], "001")
    grandchild = fold(child, cfg, povm, 2)
    for grid in (grandchild, child, root, fold(root, cfg, povm, 2)):
        assert_searches_own_rounds(grid, probes=(7.0, 22.3, 44.5))

    # trees of accumulated grids, searched in random orders
    rng = np.random.default_rng(8)
    for piece in ("[0,45]", "[10,170]", "(45,180]"):
        tree = [build_grid(parse_hypothesis_set(piece))]
        for _ in range(16):
            parent = tree[int(rng.integers(len(tree)))]
            p = ROUND_POVMS[int(rng.integers(len(ROUND_POVMS)))]
            tree.append(fold(parent, cfg, p, p.labels[int(rng.integers(len(p.labels)))]))
        lo, hi = float(tree[0].angles[0]), float(tree[0].angles[-1])
        for _ in range(3):
            for j in rng.permutation(len(tree)):
                assert_searches_own_rounds(tree[j], probes=rng.uniform(lo, hi, size=2))


def test_loglik_at_without_rounds_is_zero():
    grid = build_grid(parse_hypothesis_set("[0,45]"))
    assert loglik_at(grid, 22.3) == 0.0


def test_mle_tie_breaks_to_smallest_angle():
    grid = build_grid(parse_hypothesis_set("[0,180]"), resolution=1.0)
    # no data: all logliks are zero, so the first angle wins
    res = mle(grid)
    assert res.omega == 0.0
    assert res.loglik == 0.0


def test_mle_refine_improves_continuous_loglik():
    cfg = FamilyConfig()
    grid = build_grid(parse_hypothesis_set("[0,180]"), resolution=5.0)
    povm = computational_basis_povm(1)
    rng = np.random.default_rng(12)
    truth = state_from_angle(cfg, 62.0)
    for _ in range(40):
        out = born_and_sample(truth, povm, rng)
        grid = fold(grid, cfg, povm, out)
    j = int(np.argmax(grid.per_angle_loglik))
    coarse_omega, coarse_loglik = grid.angles[j], grid.per_angle_loglik[j]
    fine = mle(grid)
    assert fine.loglik >= coarse_loglik
    assert abs(fine.omega - coarse_omega) <= 5.0
    # the refined point really does evaluate to the reported loglik
    assert abs(loglik_at(grid, fine.omega) - fine.loglik) < 1e-10


def born_and_sample(rho, povm, rng):
    from qhtest.quantum import sample_outcome

    return sample_outcome(born_distribution(rho, povm), rng)
