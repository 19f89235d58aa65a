"""Seeded Monte Carlo sweeps over methods and copy budgets.

A sweep runs every (method, budget) cell for a fixed number of independent
trials and reports rejection power plus copy and round statistics. Each
trial draws its generator from the tuple (master_seed, method id, budget
index, run index) with fixed per-method ids, so adding or removing a
method never perturbs another method's results.

Fixed-copy methods consume their whole budget; the majority-vote variants
scale their block count as budget // (n_ic + n_joint), one joint block per
full estimation-plus-joint cycle, while LHT and LVT always use one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import FixedTestConfig, run_blht, run_blvt, run_lht, run_lvt
from .engine import ESTIMATION_POVMS, PolicyConfig, conservative_start, run_sequential_test
from .errors import ConfigError, IoError, ParseError
from .family import (
    DEFAULT_RESOLUTION,
    FamilyConfig,
    HypothesisSet,
    build_grid,
    parse_hypothesis_set,
    sets_disjoint,
    state_from_angle,
)

METHOD_IDS = {"aLHT": 0, "aLHT+": 1, "aLVT": 2, "LHT": 3, "bLHT": 4, "LVT": 5, "bLVT": 6}
SEQUENTIAL_METHODS = ("aLHT", "aLHT+", "aLVT")
POINT_NULL_METHODS = ("LHT", "bLHT")
BLOCK_SCALED_METHODS = ("bLHT", "bLVT")
# Names, not functions: make_trial resolves them when each run starts.
_FIXED_RUNNERS = {"LHT": "run_lht", "bLHT": "run_blht", "LVT": "run_lvt", "bLVT": "run_blvt"}

# Bloch-vector distance below which a null and an alternative grid angle
# count as the same state.
_SAME_STATE_TOL = 1e-9

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
            if m not in METHOD_IDS:
                raise ConfigError(f"unknown method {m!r}; choose from {sorted(METHOD_IDS)}")
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
        if not 0.0 < self.eps0 < 1.0:
            raise ConfigError(f"eps0 must lie in (0,1), got {self.eps0}")
        if not self.grid_resolution > 0.0:
            raise ConfigError(f"grid_resolution must be positive, got {self.grid_resolution}")
        if self.n_ic < 0:
            raise ConfigError(f"n_ic must be >= 0, got {self.n_ic}")
        if self.n_joint < 1:
            raise ConfigError(f"n_joint must be >= 1, got {self.n_joint}")
        if self.lambda_grid_size < 1 or self.theta_grid_size < 1:
            raise ConfigError("lambda_grid_size and theta_grid_size must be >= 1")
        if self.estimation_povm not in ESTIMATION_POVMS:
            raise ConfigError(
                f"unknown estimation POVM {self.estimation_povm!r}, expected {ESTIMATION_POVMS}"
            )
        if not sets_disjoint(self.null_set, self.alt_set):
            raise ConfigError(
                f"null set {self.null_set} overlaps alternative set {self.alt_set}"
            )
        shared = self._shared_state()
        if shared is not None:
            raise ConfigError(
                f"null angle {shared[0]:g} and alternative angle {shared[1]:g} "
                f"give the same state for (r_z, r_x) = ({self.r_z}, {self.r_x})"
            )
        block = self.n_ic + self.n_joint
        for m in self.methods:
            if m in SEQUENTIAL_METHODS:
                continue
            floor = block if m in BLOCK_SCALED_METHODS else self.n_joint
            low = [b for b in self.budgets if b < floor]
            if low:
                raise ConfigError(f"budgets {low} below minimum {floor} for method {m}")
        if self.point_null_angle() is None:
            for m in self.methods:
                if m in POINT_NULL_METHODS:
                    raise ConfigError(
                        f"method {m} needs a single-point null set, got {self.null_set}"
                    )

    def _shared_state(self) -> tuple[float, float] | None:
        """First (null, alternative) grid-angle pair whose Bloch vectors coincide.

        Distinct angles can name one state: 0 and 360 always do, and with
        r_x = 0 so do w and 360 - w. No data can tell such sets apart.
        """
        a0 = build_grid(self.null_set, self.grid_resolution).angles
        a1 = build_grid(self.alt_set, self.grid_resolution).angles
        w0, w1 = np.radians(a0), np.radians(a1)
        gap = np.hypot(
            self.r_z * (np.cos(w0)[:, None] - np.cos(w1)[None, :]),
            self.r_x * (np.sin(w0)[:, None] - np.sin(w1)[None, :]),
        )
        hits = np.argwhere(gap <= _SAME_STATE_TOL)
        if hits.size == 0:
            return None
        i, j = hits[0]
        return float(a0[i]), float(a1[j])

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
    if method in BLOCK_SCALED_METHODS:
        blocks = budget // (config.n_ic + config.n_joint)
    else:
        blocks = 1
    return FixedTestConfig.for_budget(
        budget,
        blocks=blocks,
        joint_copies=config.n_joint,
        eps0=config.eps0,
        resolution=config.grid_resolution,
        estimation_povm=config.estimation_povm,
        lambda_grid_size=config.lambda_grid_size,
        theta_grid_size=config.theta_grid_size,
    )


def run_rng(master_seed: int, method: str, budget_index: int, run: int) -> np.random.Generator:
    """Generator of one trial, derived from its place in the sweep."""
    return np.random.default_rng([master_seed, METHOD_IDS[method], budget_index, run])


def make_trial(config: ExperimentConfig, method: str):
    """One Monte Carlo trial of `method` as a function of (budget, rng).

    The function returns a TestOutcome or a FixedOutcome; both have
    `rejected`, `copies_used` and `rounds_used`. collect_trace only affects
    sequential methods. Run functions are looked up as module globals on
    every call, so rebinding harness.run_lht and the others (a timing hook,
    say) intercepts every run.
    """
    fam = config.family()
    truth = state_from_angle(fam, config.truth_omega)
    if method in SEQUENTIAL_METHODS:
        policy = _policy(config, method)

        def trial(budget: int, rng: np.random.Generator, collect_trace: bool = False):
            return run_sequential_test(
                policy,
                truth,
                fam,
                config.null_set,
                config.alt_set,
                config.eps0,
                budget,
                rng,
                resolution=config.grid_resolution,
                collect_trace=collect_trace,
            )

        return trial
    runner = _FIXED_RUNNERS[method]
    null = config.point_null_angle() if method in POINT_NULL_METHODS else config.null_set

    def trial(budget: int, rng: np.random.Generator, collect_trace: bool = False):
        fcfg = _fixed_config(config, method, budget)
        return globals()[runner](fcfg, truth, fam, null, config.alt_set, rng)

    return trial


def run_sweep(config: ExperimentConfig) -> list[ResultRow]:
    """One ResultRow per (method, budget), deterministic in master_seed."""
    rows = []
    for method in config.methods:
        trial = make_trial(config, method)
        for b_idx, budget in enumerate(config.budgets):
            rejected = 0
            copies = np.empty(config.runs)
            rounds = np.empty(config.runs)
            for run in range(config.runs):
                out = trial(budget, run_rng(config.master_seed, method, b_idx, run))
                rejected += out.rejected
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
