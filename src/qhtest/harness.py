"""Seeded Monte Carlo sweeps over methods and copy budgets.

A sweep runs every (method, budget) cell for a fixed number of independent
trials and reports rejection power plus copy and round statistics. Each
trial draws its generator from the tuple (master_seed, method id, budget
index, run index) with fixed per-method ids, so adding or removing a
method never perturbs another method's results.

METHODS is the one place a method's traits live: its id, the entry point
its runs call, its design and whether its block count grows with the
budget. Fixed-copy methods consume their whole budget; the majority-vote
variants scale their block count as budget // (n_ic + n_joint), one joint
block per full estimation-plus-joint cycle, while LHT and LVT always use
one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# run_* are the entry points METHODS names; make_trial calls them by name.
from .baselines import FixedOutcome, FixedTestConfig, run_blht, run_blvt, run_lht, run_lvt
from .engine import PolicyConfig, conservative_start, run_sequential_test
from .errors import ConfigError, InvalidBlochVector, IoError, ParseError
from .family import (
    DEFAULT_RESOLUTION,
    FamilyConfig,
    HypothesisSet,
    build_grid,
    grid_size,
    parse_hypothesis_set,
    sets_disjoint,
    state_from_angle,
)
from .measurements import check_design_settings
from .quantum import MAX_ARRAY_BYTES, MAX_TENSOR_DIM


@dataclass(frozen=True)
class Method:
    """One method's traits, as validation, make_trial and the CLI read them."""

    seed_id: int  # part of run_rng's seed, fixed so methods never perturb each other
    entry: str  # the harness global each run calls, looked up when the run starts
    design: str  # "sequential", "helstrom" (needs a point null) or "variational"
    block_scaled: bool = False  # budget // (n_ic + n_joint) blocks instead of one


METHODS = {
    "aLHT": Method(0, "run_sequential_test", "sequential"),
    "aLHT+": Method(1, "run_sequential_test", "sequential"),
    "aLVT": Method(2, "run_sequential_test", "sequential"),
    "LHT": Method(3, "run_lht", "helstrom"),
    "bLHT": Method(4, "run_blht", "helstrom", block_scaled=True),
    "LVT": Method(5, "run_lvt", "variational"),
    "bLVT": Method(6, "run_blvt", "variational", block_scaled=True),
}

# Bloch-vector distance below which a null and an alternative grid angle
# count as the same state; they are compared this many null angles at a time.
_SAME_STATE_TOL = 1e-9
_SAME_STATE_ROWS = 64

RESULT_HEADER = "method,budget,power,avg_copies,std_copies,avg_rounds,runs,master_seed"


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep; validated on construction."""

    null_set: HypothesisSet
    alt_set: HypothesisSet
    truth_omega: float
    methods: tuple[str, ...]
    budgets: tuple[int, ...]
    runs: int = 200
    eps0: float = 0.05
    master_seed: int = 0
    r_z: float = 1.0
    r_x: float = 1.0
    grid_resolution: float = DEFAULT_RESOLUTION
    n_ic: int = 6
    n_joint: int = 4
    estimation_povm: str = "computational"
    lambda_grid_size: int = 99
    theta_grid_size: int = 360

    def __post_init__(self):
        if not self.methods:
            raise ConfigError("methods must be nonempty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {sorted(METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"duplicate methods in {self.methods}")
        if not self.budgets:
            raise ConfigError("budgets must be nonempty")
        if any(b <= 0 for b in self.budgets):
            raise ConfigError(f"budgets must be positive, got {self.budgets}")
        if any(b2 <= b1 for b1, b2 in zip(self.budgets, self.budgets[1:])):
            raise ConfigError(f"budgets must be strictly ascending, got {self.budgets}")
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if not 0.0 < self.eps0 < 1.0:
            raise ConfigError(f"eps0 must lie in (0,1), got {self.eps0}")
        for name in ("truth_omega", "r_z", "r_x"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        try:
            self.family()
        except InvalidBlochVector as exc:
            raise ConfigError(str(exc)) from None
        if not 0.0 < self.grid_resolution < math.inf:
            raise ConfigError(
                f"grid_resolution must be finite and positive, got {self.grid_resolution}"
            )
        if self.n_ic < 0:
            raise ConfigError(f"n_ic must be >= 0, got {self.n_ic}")
        if self.n_joint < 1:
            raise ConfigError(f"n_joint must be >= 1, got {self.n_joint}")
        if self.n_joint > math.log2(MAX_TENSOR_DIM):
            raise ConfigError(
                f"n_joint must keep 2^n_joint within {MAX_TENSOR_DIM}, got {self.n_joint}"
            )
        check_design_settings(self.estimation_povm, self.lambda_grid_size, self.theta_grid_size)
        if not sets_disjoint(self.null_set, self.alt_set):
            raise ConfigError(
                f"null set {self.null_set} overlaps alternative set {self.alt_set}"
            )
        for m in self.methods:
            # The copies of the method's first measured round: a smaller
            # budget would report a cell that measured nothing.
            if METHODS[m].design == "sequential":
                floor = 1 if self.n_ic else self.n_joint
            elif METHODS[m].block_scaled:
                floor = self.n_ic + self.n_joint
            else:
                floor = self.n_joint
            low = [b for b in self.budgets if b < floor]
            if low:
                raise ConfigError(f"budgets {low} below minimum {floor} for method {m}")
            size = self._largest_array_bytes(m)
            if size > MAX_ARRAY_BYTES:
                raise ConfigError(
                    f"method {m} at n_joint {self.n_joint} and grid_resolution "
                    f"{self.grid_resolution} builds a {size}-byte array, "
                    f"over MAX_ARRAY_BYTES = {MAX_ARRAY_BYTES}"
                )
        shared = self._shared_state()
        if shared is not None:
            raise ConfigError(
                f"null angle {shared[0]:g} and alternative angle {shared[1]:g} "
                f"give the same state for (r_z, r_x) = ({self.r_z}, {self.r_x})"
            )
        if self.point_null_angle() is None:
            for m in self.methods:
                if METHODS[m].design == "helstrom":
                    raise ConfigError(
                        f"method {m} needs a single-point null set, got {self.null_set}"
                    )

    def _largest_array_bytes(self, method: str) -> int:
        """Bytes of the largest dense array that this check or a run of method
        builds beyond its n_joint-copy powers, counted before any grid is built.

        _shared_state compares _SAME_STATE_ROWS null angles at a time with
        every alternative angle. A sequential run caches family._node_powers'
        2n + 1 complex n-copy powers and each grid's Fourier basis, 2n + 1
        floats per angle. A variational design holds variational_povm's 2^n
        complex elements and rotation_grid's float stack of theta_grid_size
        unitaries; a fixed-copy one also the null grid's rotated-basis table,
        theta_grid_size * 2^n floats per angle, built from a stack of its
        complex n-copy states. A Helstrom weight table (aLHT+, LHT, bLHT;
        measurements._binary_probs_on_weight_grid) holds, per spin block,
        both powers applied to each weight's kept eigenvectors: a complex
        (2, lambda_grid_size, n + 1, n + 1) array for the largest block.
        """
        dim, width = 2**self.n_joint, 2 * self.n_joint + 1
        g0, g1 = (grid_size(s, self.grid_resolution) for s in (self.null_set, self.alt_set))
        sizes = [8 * _SAME_STATE_ROWS * g1]
        if METHODS[method].design == "sequential":
            sizes += [16 * width * dim**2, 8 * width * max(g0, g1)]
        if METHODS[method].design == "variational" or method == "aLVT":
            sizes += [16 * dim**3, 8 * self.theta_grid_size * dim**2]
        if METHODS[method].design == "variational":
            sizes += [8 * self.theta_grid_size * dim * g0, 16 * dim**2 * g0]
        if METHODS[method].design == "helstrom" or method == "aLHT+":
            sizes.append(32 * self.lambda_grid_size * (self.n_joint + 1) ** 2)
        return max(sizes)

    def _shared_state(self) -> tuple[float, float] | None:
        """First (null, alternative) grid-angle pair whose Bloch vectors coincide.

        Distinct angles can name one state: 0 and 360 always do, and with
        r_x = 0 so do w and 360 - w, and with r_z = 0 w and 180 - w. No data
        can tell such sets apart. Blocks of null angles keep memory bounded.
        """
        a0 = build_grid(self.null_set, self.grid_resolution).angles
        a1 = build_grid(self.alt_set, self.grid_resolution).angles
        w0, w1 = np.radians(a0), np.radians(a1)
        cos0, sin0, cos1, sin1 = np.cos(w0)[:, None], np.sin(w0)[:, None], np.cos(w1), np.sin(w1)
        for lo in range(0, len(a0), _SAME_STATE_ROWS):
            rows = slice(lo, lo + _SAME_STATE_ROWS)
            gap = np.hypot(self.r_z * (cos0[rows] - cos1), self.r_x * (sin0[rows] - sin1))
            hits = np.argwhere(gap <= _SAME_STATE_TOL)
            if hits.size:
                i, j = hits[0]
                return float(a0[lo + i]), float(a1[j])
        return None

    def point_null_angle(self) -> float | None:
        pieces = self.null_set.pieces
        if len(pieces) == 1 and pieces[0].is_point:
            return pieces[0].start
        return None

    def family(self) -> FamilyConfig:
        return FamilyConfig(r_z=self.r_z, r_x=self.r_x)


@dataclass(frozen=True)
class ResultRow:
    method: str
    budget: int
    power: float
    avg_copies: float
    std_copies: float
    avg_rounds: float
    runs: int
    master_seed: int
    # Fixed-copy runs whose calibration met no setting and accepted; not in the CSV.
    uncalibrated_runs: int = 0


def _policy(config: ExperimentConfig, method: str) -> PolicyConfig:
    # Start the alternative estimate at the alt angle nearest the null set,
    # so the first block earns its evidence from data instead of from the
    # initializer.
    start = conservative_start(
        build_grid(config.alt_set, config.grid_resolution), config.null_set
    )
    return PolicyConfig(
        kind=method,
        n_ic=config.n_ic,
        n_joint=config.n_joint,
        estimation_povm=config.estimation_povm,
        lambda_grid_size=config.lambda_grid_size,
        theta_grid_size=config.theta_grid_size,
        initial_alt_angle=start,
    )


def _fixed_config(config: ExperimentConfig, method: str, budget: int) -> FixedTestConfig:
    return FixedTestConfig(
        budget,
        blocks=budget // (config.n_ic + config.n_joint) if METHODS[method].block_scaled else 1,
        joint_copies=config.n_joint,
        eps0=config.eps0,
        resolution=config.grid_resolution,
        estimation_povm=config.estimation_povm,
        lambda_grid_size=config.lambda_grid_size,
        theta_grid_size=config.theta_grid_size,
    )


def run_rng(master_seed: int, method: str, budget_index: int, run: int) -> np.random.Generator:
    """Generator of one trial, derived from its place in the sweep."""
    return np.random.default_rng([master_seed, METHODS[method].seed_id, budget_index, run])


def _fixed_null(config: ExperimentConfig, method: str) -> float | HypothesisSet:
    """The null a fixed-copy runner tests: a Helstrom design takes the point's angle."""
    return config.point_null_angle() if METHODS[method].design == "helstrom" else config.null_set


def make_trial(config: ExperimentConfig, method: str):
    """One Monte Carlo trial of `method` as a function of (budget, rng).

    The function returns a TestOutcome or a FixedOutcome; both have
    `rejected`, `copies_used` and `rounds_used`. Each run calls the
    method's METHODS entry, looked up as a module global on every call, so
    rebinding harness.run_lht or another entry (a timing hook, say)
    intercepts every run of the methods that name it.

    Every trial owns one memo dict, passed to every run it makes. The
    memo lives as long as the trial, one method's sweep, and no two trials
    share one. Its runs read one sub-memo, keyed on their configuration,
    whose measurements.TruthLaws holds what depends on the truth for every
    method (rebuilt when another truth arrives); the rest of the sub-memo
    is set out by the engine's trial memo for a sequential method
    and by the baselines module for a fixed-copy one. Like every cache it
    is filled by quantum.memoized, which stores values read-only.
    """
    fam = config.family()
    truth = state_from_angle(fam, config.truth_omega)
    memo: dict = {}
    spec = METHODS[method]
    entry = spec.entry
    if spec.design == "sequential":
        policy = _policy(config, method)

        def trial(budget: int, rng: np.random.Generator):
            return globals()[entry](
                policy,
                truth,
                fam,
                config.null_set,
                config.alt_set,
                config.eps0,
                budget,
                rng,
                resolution=config.grid_resolution,
                memo=memo,
            )

        return trial
    null = _fixed_null(config, method)

    def trial(budget: int, rng: np.random.Generator):
        fcfg = _fixed_config(config, method, budget)
        return globals()[entry](fcfg, truth, fam, null, config.alt_set, rng, memo=memo)

    return trial


def run_sweep(config: ExperimentConfig) -> list[ResultRow]:
    """One ResultRow per (method, budget), deterministic in master_seed."""
    rows = []
    for method in config.methods:
        trial = make_trial(config, method)
        for b_idx, budget in enumerate(config.budgets):
            rejected = uncalibrated = 0
            copies = np.empty(config.runs)
            rounds = np.empty(config.runs)
            for run in range(config.runs):
                out = trial(budget, run_rng(config.master_seed, method, b_idx, run))
                rejected += out.rejected
                uncalibrated += isinstance(out, FixedOutcome) and not out.calibrated
                copies[run] = out.copies_used
                rounds[run] = out.rounds_used
            rows.append(
                ResultRow(
                    method=method,
                    budget=budget,
                    power=rejected / config.runs,
                    avg_copies=float(copies.mean()),
                    std_copies=float(copies.std()),
                    avg_rounds=float(rounds.mean()),
                    runs=config.runs,
                    master_seed=config.master_seed,
                    uncalibrated_runs=uncalibrated,
                )
            )
    return rows


def emit_results(rows: list[ResultRow], path) -> None:
    """Write rows as CSV with a fixed header and 6-significant-digit reals."""
    lines = [RESULT_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    r.method,
                    str(r.budget),
                    f"{r.power:.6g}",
                    f"{r.avg_copies:.6g}",
                    f"{r.std_copies:.6g}",
                    f"{r.avg_rounds:.6g}",
                    str(r.runs),
                    str(r.master_seed),
                )
            )
        )
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
    except OSError as exc:
        raise IoError(f"cannot write results to {path}: {exc}") from exc


def _parse_methods(value: str) -> tuple[str, ...]:
    items = tuple(tok.strip() for tok in value.split(",") if tok.strip())
    if not items:
        raise ValueError("empty method list")
    return items


def _parse_budgets(value: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in value.split(",") if tok.strip())


_KEY_PARSERS = {
    "null_set": parse_hypothesis_set,
    "alt_set": parse_hypothesis_set,
    "truth_omega": float,
    "methods": _parse_methods,
    "budgets": _parse_budgets,
    "runs": int,
    "eps0": float,
    "master_seed": int,
    "r_z": float,
    "r_x": float,
    "grid_resolution": float,
    "n_ic": int,
    "n_joint": int,
    "estimation_povm": str,
    "lambda_grid_size": int,
    "theta_grid_size": int,
}

_REQUIRED_KEYS = ("null_set", "alt_set", "truth_omega", "methods", "budgets")


def parse_config(path) -> ExperimentConfig:
    """Read a line-oriented `key = value` sweep description.

    Blank lines and text after `#` are ignored. Unknown and duplicate keys
    are rejected with their line number; semantic violations surface as
    ConfigError from the constructed ExperimentConfig.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ParseError(f"{path}:{lineno}: expected `key = value`, got {raw.strip()!r}")
        if key not in _KEY_PARSERS:
            raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEY_PARSERS[key](value)
        except ParseError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ParseError(f"{path}: missing required keys {missing}")
    return ExperimentConfig(**values)
