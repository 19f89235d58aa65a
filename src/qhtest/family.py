"""One-parameter qubit state family, hypothesis sets, and grid MLEs.

The family is

    rho(omega) = 1/2 [[1 + r_z cos(omega),  r_x sin(omega)],
                      [r_x sin(omega),      1 - r_z cos(omega)]]

with omega in degrees on [0, 360) and fixed radii (r_z, r_x). Hypothesis
sets are finite unions of intervals and isolated points of omega. Composite
likelihoods are maximized on a uniform grid (default step 0.5 degrees);
open endpoints are excluded by one step, closed endpoints are included
exactly, and argmax ties break toward the smallest angle.

Likelihood bookkeeping exploits that Tr(rho(omega)^(x)n M) is a
trigonometric polynomial of degree n in omega: each observed outcome is
reduced once to its 2n+1 Fourier coefficients (outcome_coeffs) by exact
interpolation through equispaced node angles, and every likelihood reads
that row. No caller passes n beside a row: it is read off the element's
dimension 2^n and then off the row's length 2n+1 (row_copies). On a
grid (accumulate) it is a single matrix-vector product; at
one angle (log_outcome_prob, and loglik_at for the golden-section
refinement of the null MLE) it is the scalar sum c0 + sum_k (c_k cos kw +
s_k sin kw). loglik_at costs one such term per distinct outcome row:
rounds that saw the same outcome of the same measurement share a
coefficient row, and only the per-round sum walks every round.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import (
    EmptyGrid,
    InvalidBlochVector,
    InvariantViolation,
    ParseError,
)
from .quantum import Povm, memoized, tensor_power

P_FLOOR = 1e-300
DEFAULT_RESOLUTION = 0.5
_ANGLE_EPS = 1e-9


@dataclass(frozen=True)
class FamilyConfig:
    """Radii of the planar Bloch curve traced by the family."""

    r_z: float = 1.0
    r_x: float = 1.0

    def __post_init__(self):
        omegas = np.radians(np.arange(0.0, 360.0, 0.5))
        r2 = (self.r_z * np.cos(omegas)) ** 2 + (self.r_x * np.sin(omegas)) ** 2
        worst = float(r2.max())
        if worst > 1.0 + 1e-12:
            raise InvalidBlochVector(
                f"Bloch norm^2 reaches {worst:.6g} > 1 for (r_z, r_x) = "
                f"({self.r_z}, {self.r_x})"
            )


def state_from_angle(cfg: FamilyConfig, omega: float) -> np.ndarray:
    """Family state at the given angle (degrees), as a read-only 2x2 array."""
    w = math.radians(omega)
    bz = cfg.r_z * math.cos(w)
    bx = cfg.r_x * math.sin(w)
    n2 = bz * bz + bx * bx
    if n2 > 1.0 + 1e-12:
        raise InvalidBlochVector(f"Bloch norm^2 {n2:.6g} > 1 at omega = {omega}")
    mat = 0.5 * np.array([[1.0 + bz, bx], [bx, 1.0 - bz]], dtype=complex)
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class Piece:
    """One interval [start, end] with endpoint openness; a point has start == end."""

    start: float
    end: float
    closed_start: bool = True
    closed_end: bool = True

    def __post_init__(self):
        if not (0.0 <= self.start <= self.end <= 360.0):
            raise ValueError(f"piece ({self.start}, {self.end}) outside [0, 360]")
        if self.start == self.end and not (self.closed_start and self.closed_end):
            raise ValueError("a degenerate piece must be closed on both sides")

    @property
    def is_point(self) -> bool:
        return self.start == self.end

    def contains(self, omega: float) -> bool:
        if omega < self.start or omega > self.end:
            return False
        if omega == self.start and not self.closed_start:
            return False
        if omega == self.end and not self.closed_end:
            return False
        return True

    def __str__(self) -> str:
        if self.is_point:
            return f"{{{_fmt_angle(self.start)}}}"
        lo = "[" if self.closed_start else "("
        hi = "]" if self.closed_end else ")"
        return f"{lo}{_fmt_angle(self.start)},{_fmt_angle(self.end)}{hi}"


def _fmt_angle(a: float) -> str:
    """Short :g text when it parses back to the same float, else repr."""
    text = f"{a:g}"
    return text if float(text) == a else repr(float(a))


def _pieces_overlap(a: Piece, b: Piece) -> bool:
    if a.end < b.start or b.end < a.start:
        return False
    if a.end == b.start:
        return a.closed_end and b.closed_start
    if b.end == a.start:
        return b.closed_end and a.closed_start
    return True


@dataclass(frozen=True)
class HypothesisSet:
    """A finite union of pairwise disjoint pieces of the angle axis."""

    pieces: tuple

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a hypothesis set needs at least one piece")
        ordered = tuple(sorted(self.pieces, key=lambda p: (p.start, p.end)))
        for left, right in zip(ordered, ordered[1:]):
            if _pieces_overlap(left, right):
                raise ValueError(f"pieces {left} and {right} overlap")
        object.__setattr__(self, "pieces", ordered)

    def contains(self, omega: float) -> bool:
        return any(p.contains(omega) for p in self.pieces)

    def __str__(self) -> str:
        return " ".join(str(p) for p in self.pieces)


def sets_disjoint(a: HypothesisSet, b: HypothesisSet) -> bool:
    return not any(_pieces_overlap(pa, pb) for pa in a.pieces for pb in b.pieces)


def parse_hypothesis_set(text: str) -> HypothesisSet:
    """Parse a set from pieces like "(45,180]", "[0,45)", or "{45,135}".

    Pieces are separated by whitespace; a brace group lists isolated points.
    """
    pieces: list[Piece] = []
    rest = text.strip()
    if not rest:
        raise ParseError("empty hypothesis set")
    token_re = re.compile(r"([\[\(][^\]\)]*[\]\)]|\{[^}]*\})")
    pos = 0
    while pos < len(rest):
        if rest[pos].isspace():
            pos += 1
            continue
        m = token_re.match(rest, pos)
        if m is None:
            raise ParseError(f"cannot parse hypothesis set near {rest[pos:]!r}")
        tok = m.group(0)
        pos = m.end()
        try:
            if tok.startswith("{"):
                for part in tok[1:-1].split(","):
                    a = float(part)
                    pieces.append(Piece(a, a))
            else:
                body = tok[1:-1].split(",")
                if len(body) != 2:
                    raise ValueError(f"interval {tok!r} needs two endpoints")
                lo, hi = float(body[0]), float(body[1])
                pieces.append(
                    Piece(lo, hi, closed_start=tok[0] == "[", closed_end=tok[-1] == "]")
                )
        except ValueError as exc:
            raise ParseError(f"bad hypothesis piece {tok!r}: {exc}") from exc
    try:
        return HypothesisSet(pieces=tuple(pieces))
    except ValueError as exc:
        raise ParseError(f"bad hypothesis set {text!r}: {exc}") from exc


# --- trigonometric interpolation of outcome likelihoods ------------------

_node_cache: dict = {}


def _node_powers(cfg: FamilyConfig, copies: int) -> np.ndarray:
    """Stack of rho(node)^(x)copies at 2*copies+1 equispaced node angles."""
    n_nodes = 2 * copies + 1
    build = lambda: np.stack(
        [
            tensor_power(state_from_angle(cfg, 360.0 * j / n_nodes), copies)
            for j in range(n_nodes)
        ]
    )
    return memoized(_node_cache, (cfg.r_z, cfg.r_x, copies), build)


@cache
def _dft_matrix(copies: int) -> np.ndarray:
    """Map of node values to Fourier coefficients [c0, c1..cn, s1..sn]."""
    n_nodes = 2 * copies + 1
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    rows = [np.full(n_nodes, 1.0 / n_nodes)]
    for k in range(1, copies + 1):
        rows.append(2.0 / n_nodes * np.cos(k * theta))
    for k in range(1, copies + 1):
        rows.append(2.0 / n_nodes * np.sin(k * theta))
    mat = np.array(rows)
    mat.setflags(write=False)
    return mat


def _fourier_basis(angles_deg: np.ndarray, copies: int) -> np.ndarray:
    """Rows [1, cos(k w), .., sin(k w), ..] evaluated at each angle."""
    w = np.radians(np.atleast_1d(angles_deg))
    cols = [np.ones_like(w)]
    for k in range(1, copies + 1):
        cols.append(np.cos(k * w))
    for k in range(1, copies + 1):
        cols.append(np.sin(k * w))
    return np.column_stack(cols)


def row_copies(row) -> int:
    """Copy count n of an outcome_coeffs row, whose length is 2n+1."""
    return len(row) // 2


def outcome_coeffs(cfg: FamilyConfig, element: np.ndarray) -> np.ndarray:
    """Fourier coefficients of omega -> Tr(rho(omega)^(x)n element) for a 2^n-dim element.

    The row is read-only: a trial memo, transcripts and grids share it.
    """
    copies = element.shape[0].bit_length() - 1
    traces = np.einsum("nab,ba->n", _node_powers(cfg, copies), element).real
    row = _dft_matrix(copies) @ traces
    row.setflags(write=False)
    return row


def _row_log(coeffs: list, cos: list, sin: list) -> float:
    """Floored log of one coefficient row, given cos(k w) and sin(k w) up to its copy count."""
    copies = row_copies(coeffs)
    val = coeffs[0]
    for k in range(1, copies + 1):
        val += coeffs[k] * cos[k] + coeffs[copies + k] * sin[k]
    return math.log(max(val, P_FLOOR))


def log_outcome_prob(coeffs: np.ndarray, omega: float) -> float:
    """Floored log Tr(rho(omega)^(x)n M), read from M's outcome_coeffs row."""
    w = math.radians(omega)
    top = row_copies(coeffs) + 1
    cos = [math.cos(k * w) for k in range(top)]
    sin = [math.sin(k * w) for k in range(top)]
    return _row_log(coeffs.tolist(), cos, sin)


# --- parameter grids ------------------------------------------------------


def lineage(last) -> list:
    """The nodes of the .previous chain ending at last, oldest first, less the
    first node, which has no previous (a built grid, a run's first state):
    one node per round of a ParamGrid's or an SlrState's history.
    """
    nodes = []
    while last.previous is not None:
        nodes.append(last)
        last = last.previous
    nodes.reverse()
    return nodes


@dataclass(frozen=True)
class ParamGrid:
    """Grid angles, running log-likelihood sums, and a link to the grid before the last fold.

    A built grid has no previous and no row; accumulate links each new grid
    to the one it folded, with row the folded coefficient row, so grids
    branched from one grid (the oracle's enumeration) share its history as
    it is. A grid is read-only apart from basis_cache and round_rows, which
    are computed from its own fields when first read. A grid with a previous
    shares that grid's angles and segments, frozen when the first grid of
    the chain was made, so it freezes only its own sums.
    """

    angles: np.ndarray
    per_angle_loglik: np.ndarray
    segments: np.ndarray
    previous: ParamGrid | None = field(default=None, repr=False, compare=False)
    row: np.ndarray | None = None
    basis_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.per_angle_loglik.setflags(write=False)
        if self.previous is None:
            self.angles.setflags(write=False)
            self.segments.setflags(write=False)

    def basis(self, copies: int) -> np.ndarray:
        return memoized(self.basis_cache, copies, _fourier_basis, self.angles, copies)

    @property
    def rounds(self) -> tuple:
        """Each folded round's coefficient row, oldest first, read back along previous."""
        return tuple(grid.row for grid in lineage(self))

    @cached_property
    def round_rows(self) -> tuple[list, list, int]:
        """Distinct coefficient rows (as lists), each round's row index, and the most copies.

        Rows are keyed by their exact bytes, so equal rows give equal
        terms. The index is built from this grid's rounds when first read
        (only a refining mle reads it), so a grid never searched pays nothing.
        """
        rows: list = []
        order: list = []
        keys: dict = {}
        for coeffs in self.rounds:
            i = keys.setdefault(coeffs.tobytes(), len(rows))
            if i == len(rows):
                rows.append(coeffs.tolist())
            order.append(i)
        return rows, order, max(map(row_copies, rows), default=0)


def grid_log_probs(grid: ParamGrid, coeffs: np.ndarray) -> np.ndarray:
    """Floored log probability of one outcome_coeffs row at every grid angle."""
    return np.log(np.maximum(grid.basis(row_copies(coeffs)) @ coeffs, P_FLOOR))


def estimation_log_rows(grid: ParamGrid, cfg: FamilyConfig, povm: Povm) -> np.ndarray:
    """Floored log probability of each single-copy outcome at each grid angle.

    Row i belongs to povm.elements[i]; columns follow grid.angles.
    """
    return np.stack([grid_log_probs(grid, outcome_coeffs(cfg, e)) for e in povm.elements])


def _lattice(piece: Piece, resolution: float) -> tuple[float, int, bool]:
    """An interval piece's grid at resolution: its first lattice point, how
    many lattice points it covers at that spacing, and whether its closed
    end is appended after them (build_grid lists them, grid_size counts them)."""
    lo = piece.start if piece.closed_start else piece.start + resolution
    hi = piece.end if piece.closed_end else piece.end - resolution
    steps = (hi - lo) / resolution + _ANGLE_EPS
    if lo > hi + _ANGLE_EPS or steps < 0.0:
        return lo, 0, False
    count = math.floor(min(steps, sys.float_info.max)) + 1
    return lo, count, piece.closed_end and hi - (lo + resolution * (count - 1)) > _ANGLE_EPS


def grid_size(hset: HypothesisSet, resolution: float = DEFAULT_RESOLUTION) -> int:
    """How many angles build_grid(hset, resolution) lists, counted without listing them."""
    total = 0
    for piece in hset.pieces:
        if piece.is_point:
            total += 1
        else:
            _, count, end = _lattice(piece, resolution)
            total += count + end
    return total


@lru_cache(maxsize=16)
def build_grid(hset: HypothesisSet, resolution: float = DEFAULT_RESOLUTION) -> ParamGrid:
    """Uniform grid over a hypothesis set.

    Every interval is covered at the given spacing starting from its first
    included lattice point; closed endpoints are appended exactly when the
    lattice misses them, open endpoints are pushed inward by one step.

    Grids are cached on (hset, resolution), so every run over one set
    shares one grid and the basis matrices in its basis_cache.
    """
    if not 0.0 < resolution < math.inf:
        raise ValueError(f"resolution must be finite and positive, got {resolution}")
    angles: list[float] = []
    segs: list[int] = []
    for idx, piece in enumerate(hset.pieces):
        if piece.is_point:
            angles.append(piece.start)
            segs.append(idx)
            continue
        lo, count, end = _lattice(piece, resolution)
        angles.extend((lo + resolution * np.arange(count)).tolist())
        segs.extend([idx] * count)
        if end:
            angles.append(piece.end)
            segs.append(idx)
    if not angles:
        raise EmptyGrid(
            f"set {hset} yields no grid points at resolution {resolution}"
        )
    arr = np.array(angles)
    if np.any(np.diff(arr) <= 0):
        raise InvariantViolation("grid angles not strictly increasing")
    return ParamGrid(
        angles=arr,
        per_angle_loglik=np.zeros(arr.shape[0]),
        segments=np.array(segs, dtype=int),
    )


def accumulate(
    grid: ParamGrid, coeffs: np.ndarray, log_probs: np.ndarray | None = None
) -> ParamGrid:
    """Return a new grid with one observed round's outcome_coeffs row folded into the sums.

    log_probs, when given, is grid_log_probs(grid, coeffs) computed
    earlier (the engine keeps it per trial); adding it gives the same
    floats as computing it here. The new grid links to grid (previous)
    and holds coeffs (row), so folding copies no history; it shares
    grid's basis_cache and builds its own round_rows.
    """
    if log_probs is None:
        log_probs = grid_log_probs(grid, coeffs)
    return ParamGrid(
        angles=grid.angles,
        per_angle_loglik=grid.per_angle_loglik + log_probs,
        segments=grid.segments,
        previous=grid,
        row=coeffs,
        basis_cache=grid.basis_cache,
    )


def loglik_at(grid: ParamGrid, omega: float) -> float:
    """Continuous log-likelihood of the accumulated rounds at one angle.

    Each distinct outcome row of grid.round_rows is evaluated once; the
    per-round terms are then added in round order, so the sum is the same
    float as a walk over every round.
    """
    rows, order, top = grid.round_rows
    w = math.radians(omega)
    cos = [math.cos(k * w) for k in range(top + 1)]
    sin = [math.sin(k * w) for k in range(top + 1)]
    terms = [_row_log(coeffs, cos, sin) for coeffs in rows]
    total = 0.0
    for i in order:
        total += terms[i]
    return total


@dataclass(frozen=True)
class MleResult:
    omega: float
    loglik: float


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, iters: int = 48) -> tuple[float, float]:
    """Deterministic golden-section maximization on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
            cand_x, cand_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
            cand_x, cand_f = d, fd
        if cand_f > best_f:
            best_x, best_f = cand_x, cand_f
    return best_x, best_f


def mle(grid: ParamGrid) -> MleResult:
    """Refined maximum-likelihood angle of the accumulated rounds.

    Starts from the grid argmax, ties toward the smallest angle. When the
    grid holds rounds and the argmax is interior to an interval (both
    neighbors in the same piece), a golden-section pass over the two
    adjacent grid cells replaces the grid value whenever it improves the
    continuous log-likelihood.
    """
    j = int(np.argmax(grid.per_angle_loglik))
    omega = float(grid.angles[j])
    best = float(grid.per_angle_loglik[j])
    if grid.previous is not None and 0 < j < grid.angles.shape[0] - 1:
        seg = grid.segments
        if seg[j - 1] == seg[j] == seg[j + 1]:
            x, fx = _golden_max(
                lambda w: loglik_at(grid, w),
                float(grid.angles[j - 1]),
                float(grid.angles[j + 1]),
            )
            if fx > best:
                omega, best = x, fx
    return MleResult(omega=omega, loglik=best)
