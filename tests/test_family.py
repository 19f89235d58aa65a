"""Tests for the one-parameter state family, hypothesis sets, and grids."""

import math

import numpy as np
import pytest

from qhtest.errors import (
    EmptyGrid,
    InconsistentTranscript,
    InvalidBlochVector,
    ParseError,
)
from qhtest.family import (
    DEFAULT_RESOLUTION,
    FamilyConfig,
    HypothesisSet,
    Piece,
    accumulate,
    build_grid,
    log_outcome_prob,
    loglik_at,
    mle,
    outcome_coeffs,
    parse_hypothesis_set,
    sets_disjoint,
    state_from_angle,
)
from qhtest.quantum import Povm, born_distribution, computational_basis_povm


def direct_tensor_prob(cfg, omega, element, copies):
    """Tr(rho(omega)^(x)copies element) by explicit Kronecker products."""
    rho = state_from_angle(cfg, omega)
    out = rho.mat
    for _ in range(copies - 1):
        out = np.kron(out, rho.mat)
    return float(np.einsum("ab,ba->", out, element).real)


# --- family states --------------------------------------------------------


def test_state_from_angle_reference_points():
    cfg = FamilyConfig()
    assert np.allclose(state_from_angle(cfg, 0.0).mat, np.diag([1.0, 0.0]))
    assert np.allclose(state_from_angle(cfg, 90.0).mat, np.full((2, 2), 0.5))
    assert np.allclose(state_from_angle(cfg, 180.0).mat, np.diag([0.0, 1.0]))


def test_state_from_angle_is_always_a_state():
    cfg = FamilyConfig(r_z=0.9, r_x=0.6)
    for omega in np.arange(0.0, 360.0, 7.3):
        rho = state_from_angle(cfg, float(omega))
        vals = np.linalg.eigvalsh(rho.mat)
        assert vals.min() >= -1e-12
        assert abs(np.trace(rho.mat).real - 1.0) < 1e-12


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


def test_str_round_trip():
    for text in ("{45}", "(45,180]", "{45} {135}", "[0,10) (20,30]"):
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
            coeffs = outcome_coeffs(cfg, element, copies)
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
    from qhtest.quantum import tensor_power

    dist = born_distribution(tensor_power(rho, 2), povm)
    for label, p in zip(dist.labels, dist.probs):
        if p > 0:
            got = log_outcome_prob(cfg, 70.0, povm.element(label), 2)
            assert abs(got - math.log(p)) < 1e-12


# --- accumulation and maximum likelihood ----------------------------------


def test_accumulate_adds_log_probabilities():
    cfg = FamilyConfig()
    grid = build_grid(parse_hypothesis_set("[0,180]"), resolution=1.0)
    povm = computational_basis_povm(1)
    g1 = accumulate(grid, cfg, povm, 1, "0")
    g2 = accumulate(g1, cfg, povm, 1, "1")
    assert grid.per_angle_loglik.max() == 0.0
    # stay away from 0 and 180 where one outcome has exactly zero mass and
    # the clamped log is dominated by interpolation noise
    for j in (30, 45, 90, 150):
        omega = float(grid.angles[j])
        p0 = direct_tensor_prob(cfg, omega, povm.element("0"), 1)
        p1 = direct_tensor_prob(cfg, omega, povm.element("1"), 1)
        expect = math.log(max(p0, 1e-300)) + math.log(max(p1, 1e-300))
        assert abs(g2.per_angle_loglik[j] - expect) < 1e-9


def test_accumulate_rejects_wrong_dimension():
    cfg = FamilyConfig()
    grid = build_grid(parse_hypothesis_set("[0,180]"))
    with pytest.raises(InconsistentTranscript):
        accumulate(grid, cfg, computational_basis_povm(2), 1, "00")


def test_accumulate_rejects_unknown_outcome():
    cfg = FamilyConfig()
    grid = build_grid(parse_hypothesis_set("[0,180]"))
    with pytest.raises(InconsistentTranscript):
        accumulate(grid, cfg, computational_basis_povm(1), 1, "2")


def test_loglik_at_matches_grid_values():
    cfg = FamilyConfig()
    rng = np.random.default_rng(4)
    grid = build_grid(parse_hypothesis_set("[10,170]"), resolution=2.0)
    povm = computational_basis_povm(1)
    for _ in range(6):
        grid = accumulate(grid, cfg, povm, 1, str(rng.integers(2)))
    for j in rng.integers(0, grid.angles.shape[0], size=10):
        assert abs(loglik_at(grid, float(grid.angles[j])) - grid.per_angle_loglik[j]) < 1e-10


def test_mle_tie_breaks_to_smallest_angle():
    grid = build_grid(parse_hypothesis_set("[0,180]"), resolution=1.0)
    # no data: all logliks are zero, so the first angle wins
    res = mle(grid, FamilyConfig())
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
        grid = accumulate(grid, cfg, povm, 1, out)
    coarse = mle(grid, cfg, refine=False)
    fine = mle(grid, cfg, refine=True)
    assert fine.loglik >= coarse.loglik
    assert abs(fine.omega - coarse.omega) <= 5.0
    # the refined point really does evaluate to the reported loglik
    assert abs(loglik_at(grid, fine.omega) - fine.loglik) < 1e-10


def born_and_sample(rho, povm, rng):
    from qhtest.quantum import sample_outcome

    return sample_outcome(born_distribution(rho, povm), rng)
