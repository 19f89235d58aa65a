"""Tests for sweep configuration, execution, and the CSV emitter."""

import numpy as np
import pytest

from qhtest import baselines, engine, family, harness, measurements, oracle, quantum
from qhtest.baselines import FixedOutcome
from qhtest.engine import run_sequential_test
from qhtest.errors import ConfigError, IoError, ParseError
from qhtest.family import build_grid, parse_hypothesis_set, state_from_angle
from qhtest.harness import (
    METHODS,
    RESULT_HEADER,
    ExperimentConfig,
    ResultRow,
    emit_results,
    parse_config,
    run_sweep,
)


def small_config(**over):
    base = dict(
        null_set=parse_hypothesis_set("{45}"),
        alt_set=parse_hypothesis_set("(45,180]"),
        truth_omega=90.0,
        methods=("aLHT+", "LHT"),
        budgets=(10, 14),
        runs=3,
        eps0=0.05,
        master_seed=11,
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_accepts_the_reference_setup(self):
        cfg = small_config()
        assert cfg.point_null_angle() == 45.0
        assert cfg.family().r_z == 1.0

    def test_rejects_unknown_and_duplicate_methods(self):
        with pytest.raises(ConfigError):
            small_config(methods=("aLHT+", "zLHT"))
        with pytest.raises(ConfigError):
            small_config(methods=("aLHT+", "aLHT+"))
        with pytest.raises(ConfigError):
            small_config(methods=())

    def test_rejects_bad_budgets(self):
        with pytest.raises(ConfigError):
            small_config(budgets=())
        with pytest.raises(ConfigError):
            small_config(budgets=(10, 10))
        with pytest.raises(ConfigError):
            small_config(budgets=(14, 10))
        with pytest.raises(ConfigError):
            small_config(budgets=(0, 10))

    def test_rejects_bad_scalars(self):
        with pytest.raises(ConfigError):
            small_config(runs=0)
        with pytest.raises(ConfigError):
            small_config(eps0=0.0)
        with pytest.raises(ConfigError):
            small_config(eps0=1.0)
        # shared settings are checked even when no method reads them
        fixed_only = dict(methods=("LHT",), budgets=(10, 14))
        for bad in (
            dict(lambda_grid_size=0),
            dict(theta_grid_size=0),
            dict(grid_resolution=0.0),
            dict(grid_resolution=float("inf")),
            dict(estimation_povm="pauli"),
            dict(n_ic=-1, **fixed_only),
            dict(n_joint=0, **fixed_only),
            dict(truth_omega=float("nan")),
            dict(truth_omega=float("inf")),
            dict(r_z=float("nan")),
            dict(r_x=float("nan")),
            dict(r_z=float("-inf")),
            dict(r_z=1.5),
            dict(r_z=0.9, r_x=1.2),
            dict(master_seed=-1),
            dict(n_joint=13, methods=("aLHT+",)),
        ):
            with pytest.raises(ConfigError):
                small_config(**bad)

    def test_rejects_dense_arrays_past_the_byte_budget(self):
        """Each method's largest n_joint passes and the next fails. Only the
        config is built: running the failing ones would take gigabytes."""
        budgets = (24, 48)
        largest = {"aLHT": 10, "aLHT+": 10, "aLVT": 8, "LHT": 12, "bLHT": 12, "LVT": 8, "bLVT": 8}
        for method, n in largest.items():
            small_config(methods=(method,), n_joint=n, budgets=budgets)
            if n < 12:
                with pytest.raises(ConfigError, match="MAX_ARRAY_BYTES"):
                    small_config(methods=(method,), n_joint=n + 1, budgets=budgets)
        # the rotation grid's stack grows with theta_grid_size: 2048 rotations fill 1 GiB
        for method in ("aLVT", "LVT", "bLVT"):
            small_config(methods=(method,), n_joint=8, theta_grid_size=2048, budgets=budgets)
            with pytest.raises(ConfigError, match="MAX_ARRAY_BYTES"):
                small_config(methods=(method,), n_joint=8, theta_grid_size=2049, budgets=budgets)
        with pytest.raises(ConfigError, match="within 4096, got 13"):
            small_config(methods=("LHT",), n_joint=13, budgets=budgets)

    def test_rejects_helstrom_weight_tables_past_the_byte_budget(self):
        """A Helstrom weight table holds a complex (2, lambda_grid_size,
        n + 1, n + 1) array: at n_joint 4, 1,342,177 weights fit in 1 GiB
        and 1,342,178 do not. aLHT draws its weights and builds no table.
        Only the configs are built: the failing ones would take 80 GB."""
        budgets = (24, 48)
        for method in ("aLHT+", "LHT", "bLHT"):
            small_config(methods=(method,), n_joint=4, lambda_grid_size=1_342_177, budgets=budgets)
            with pytest.raises(ConfigError, match="MAX_ARRAY_BYTES"):
                small_config(methods=(method,), n_joint=4, lambda_grid_size=1_342_178,
                             budgets=budgets)
        small_config(methods=("aLHT",), n_joint=4, lambda_grid_size=10**8, budgets=budgets)

    def test_rejects_grids_past_the_byte_budget_before_building_them(self, monkeypatch):
        """Arrays that scale with a grid count against MAX_ARRAY_BYTES, and
        each grid's size is counted from its set before any grid is built.
        Only configs are built, with build_grid refusing to run: the configs
        that fail would take gigabytes, and at resolution 1e-9 build_grid
        would list 1.35e11 angles."""
        class Built(Exception):
            pass

        def refuse(*args):
            raise Built

        monkeypatch.setattr(family, "build_grid", refuse)
        monkeypatch.setattr(harness, "build_grid", refuse)
        interval = dict(null_set=parse_hypothesis_set("[0,45]"), budgets=(24, 48))
        # a fixed-copy variational trial's null-grid table takes 46,080 bytes
        # per null angle at n_joint 4: 23,301 angles fit in 1 GiB, 23,302 do not
        fits, over = 45 / 23300, 45 / 23301
        assert [family.grid_size(interval["null_set"], r) for r in (fits, over)] == [23301, 23302]
        for method in ("LVT", "bLVT"):
            with pytest.raises(Built):  # past the byte budget, on to the shared-state check
                small_config(methods=(method,), grid_resolution=fits, **interval)
            with pytest.raises(ConfigError, match="MAX_ARRAY_BYTES"):
                small_config(methods=(method,), grid_resolution=over, **interval)
        for method, spec in METHODS.items():
            sets = {} if spec.design == "helstrom" else interval
            for resolution in (1e-9, 1e-320):  # at 1e-320 the angle count passes any float
                with pytest.raises(ConfigError, match="MAX_ARRAY_BYTES"):
                    small_config(methods=(method,), grid_resolution=resolution, **sets)

    def test_rejects_overlapping_sets(self):
        with pytest.raises(ConfigError):
            small_config(alt_set=parse_hypothesis_set("[45,180]"))

    def test_rejects_sets_that_share_a_state(self):
        # 0 and 360 degrees are one state for every radius pair
        with pytest.raises(ConfigError):
            small_config(
                null_set=parse_hypothesis_set("{0}"),
                alt_set=parse_hypothesis_set("{360}"),
                methods=("aLHT+",),
            )
        # with r_x = 0 the family folds: w and 360 - w coincide
        with pytest.raises(ConfigError):
            small_config(alt_set=parse_hypothesis_set("{315}"), r_x=0.0)
        small_config(alt_set=parse_hypothesis_set("{315}"))
        # with r_z = 0 it folds the other way: w and 180 - w coincide
        fold = dict(null_set=parse_hypothesis_set("{30}"), alt_set=parse_hypothesis_set("{150}"))
        with pytest.raises(ConfigError, match="null angle 30 and alternative angle 150"):
            small_config(**fold, r_z=0.0)
        small_config(**fold)
        # the first pair in row-major order, past the first block of null angles
        far = dict(
            null_set=parse_hypothesis_set("[0,40] [100,180]"),
            alt_set=parse_hypothesis_set("(40,100)"),
            methods=("aLHT+",),
        )
        with pytest.raises(ConfigError, match="null angle 100 and alternative angle 80 "):
            small_config(**far, r_z=0.0)

    def test_fixed_methods_need_room_for_their_blocks(self):
        # bLHT scales blocks by n_ic + n_joint = 10 copies
        with pytest.raises(ConfigError):
            small_config(methods=("bLHT",), budgets=(8, 20))
        # LHT only needs the joint round itself
        small_config(methods=("LHT",), budgets=(4, 20))
        with pytest.raises(ConfigError):
            small_config(methods=("LHT",), budgets=(3, 20))

    def test_sequential_methods_need_room_for_their_first_round(self):
        # with no estimation rounds the first round is the n_joint = 4-copy joint round
        with pytest.raises(ConfigError):
            small_config(methods=("aLHT+",), n_ic=0, budgets=(3, 8))
        small_config(methods=("aLHT+",), n_ic=0, budgets=(4, 8))
        # otherwise the first round measures one estimation copy
        small_config(methods=("aLHT+",), n_ic=1, budgets=(1, 8))

    def test_point_null_methods_need_a_point_null(self):
        two = parse_hypothesis_set("{45,135}")
        split = parse_hypothesis_set("(45,135) (135,180)")
        cfg = small_config(null_set=two, alt_set=split, methods=("aLVT", "LVT"))
        assert cfg.point_null_angle() is None
        with pytest.raises(ConfigError):
            small_config(null_set=two, alt_set=split, methods=("LHT",))


class TestRunSweep:
    def test_row_layout_and_fixed_method_accounting(self):
        cfg = small_config()
        rows = run_sweep(cfg)
        assert [(r.method, r.budget) for r in rows] == [
            ("aLHT+", 10), ("aLHT+", 14), ("LHT", 10), ("LHT", 14),
        ]
        for r in rows:
            assert r.runs == 3
            assert r.master_seed == 11
            assert 0.0 <= r.power <= 1.0
            assert r.avg_copies <= r.budget
        for r in rows[2:]:
            # fixed-copy methods always consume the whole budget
            assert r.avg_copies == r.budget
            assert r.std_copies == 0.0
            assert r.avg_rounds == (r.budget - 4) + 1

    def test_sweep_is_deterministic(self):
        cfg = small_config()
        assert run_sweep(cfg) == run_sweep(cfg)

    def test_adding_a_method_leaves_other_rows_alone(self):
        both = run_sweep(small_config())
        alone = run_sweep(small_config(methods=("aLHT+",)))
        assert alone == both[:2]

    def test_every_run_goes_through_the_module_level_entry_points(self, monkeypatch):
        # Rebinding these harness names must intercept every Monte Carlo run.
        calls = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                key = args[0].kind if name == "run_sequential_test" else name
                calls[key] = calls.get(key, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("run_sequential_test", "run_lht", "run_blht", "run_lvt", "run_blvt"):
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        cfg = small_config(methods=tuple(METHODS), budgets=(10, 14), runs=2)
        run_sweep(cfg)
        per_method = cfg.runs * len(cfg.budgets)
        assert calls == dict.fromkeys(
            ("aLHT", "aLHT+", "aLVT", "run_lht", "run_blht", "run_lvt", "run_blvt"), per_method
        )

    def test_single_run_population_std_is_zero(self):
        cfg = small_config(methods=("aLHT+",), runs=1)
        (r1, r2) = run_sweep(cfg)
        assert r1.std_copies == 0.0
        assert r2.std_copies == 0.0


class TestFixedCopyMemo:
    """A trial's memo changes how often a calibration runs, never what a run returns."""

    FIXED = ("LHT", "bLHT", "LVT", "bLVT")

    @staticmethod
    def recalibrating(config, method, budget, rng):
        """The run a fresh memo makes: every calibration is computed anew."""
        fam = config.family()
        null = harness._fixed_null(config, method)
        runner = getattr(baselines, harness.METHODS[method].entry)
        fcfg = harness._fixed_config(config, method, budget)
        return runner(fcfg, state_from_angle(fam, config.truth_omega), fam, null,
                      config.alt_set, rng, memo={})

    def assert_trial_matches_recalibrating_runs(self, config, monkeypatch):
        """Every trial run equals a fresh-memo run, and the trial builds each
        table once per fitted angle and calibrates once per (angle, blocks).

        Returns the outcomes and, per method, the number of distinct fitted
        angles and of distinct (angle, blocks) pairs."""
        log, distinct = [], {}
        for name in ("_fit_alternative", "helstrom_calibration", "_calibrate_variational",
                     "_binary_probs_on_weight_grid", "rotated_basis_tables"):
            fn = getattr(baselines, name)

            def counted(*a, name=name, fn=fn):
                if name != "_fit_alternative":
                    log.append((name, None))
                out = fn(*a)
                if name == "_fit_alternative":
                    log.append((name, out))
                return out

            monkeypatch.setattr(baselines, name, counted)
        outs = []
        for method in config.methods:
            trial = harness.make_trial(config, method)
            start, keys = len(log), []
            for b_idx, budget in enumerate(config.budgets):
                blocks = harness._fixed_config(config, method, budget).blocks
                for run in range(config.runs):
                    rng = lambda: harness.run_rng(config.master_seed, method, b_idx, run)
                    outs.append(trial(budget, rng()))
                    w1 = next(v for n, v in reversed(log) if n == "_fit_alternative")
                    keys.append((w1, blocks))
                    before = len(log)
                    want = self.recalibrating(config, method, budget, rng())
                    del log[before:]
                    assert outs[-1] == want, (method, budget, run)
            events = [name for name, _ in log[start:]]
            fitted = {w1 for name, w1 in log[start:] if name == "_fit_alternative"}
            assert len(keys) == events.count("_fit_alternative")
            if harness.METHODS[method].design == "helstrom":
                assert events.count("_binary_probs_on_weight_grid") == len(fitted), method
                assert events.count("helstrom_calibration") == len(set(keys)), method
            else:
                # plus the null grid's table, built once per trial
                assert events.count("rotated_basis_tables") == len(fitted) + 1, method
                assert events.count("_calibrate_variational") == len(set(keys)), method
            assert len(set(keys)) < len(keys), f"the {method} memo never hit"
            distinct[method] = (len(fitted), len(set(keys)))
        return outs, distinct

    def test_point_null_all_fixed_methods_with_several_block_counts(self, monkeypatch):
        # bLHT/bLVT run 1, 2 and 3 blocks at these budgets
        cfg = small_config(methods=self.FIXED, budgets=(10, 20, 30), runs=4, theta_grid_size=36)
        assert [harness._fixed_config(cfg, "bLVT", b).blocks for b in cfg.budgets] == [1, 2, 3]
        for method in ("LHT", "LVT"):
            assert [harness._fixed_config(cfg, method, b).blocks for b in cfg.budgets] == [1, 1, 1]
        outs, distinct = self.assert_trial_matches_recalibrating_runs(cfg, monkeypatch)
        assert all(o.calibrated for o in outs)
        # some fitted angle recurs across block counts, and its table is not rebuilt
        for method in ("bLHT", "bLVT"):
            angles, calibrations = distinct[method]
            assert angles < calibrations, method

    @pytest.mark.parametrize(
        "null_text, alt_text",
        [("[0,45]", "(45,180]"), ("{45,135}", "(45,135) (135,180)")],
    )
    def test_composite_nulls(self, null_text, alt_text, monkeypatch):
        cfg = small_config(
            null_set=parse_hypothesis_set(null_text),
            alt_set=parse_hypothesis_set(alt_text),
            methods=("LVT", "bLVT"),
            budgets=(10, 20),
            runs=4,
            theta_grid_size=36,
        )
        self.assert_trial_matches_recalibrating_runs(cfg, monkeypatch)

    def test_infeasible_calibration(self, monkeypatch):
        # For these mixed states no rotation, and for most fitted angles no
        # weight, meets eps0 = 1e-9
        cfg = small_config(
            methods=("LHT", "LVT"), budgets=(10,), runs=8, eps0=1e-9, r_z=0.9, r_x=0.7,
            theta_grid_size=36,
        )
        outs, _ = self.assert_trial_matches_recalibrating_runs(cfg, monkeypatch)
        assert not any(o.rejected for o in outs if not o.calibrated)
        uncalibrated = [sum(not o.calibrated for o in outs[i:i + 8]) for i in (0, 8)]
        assert uncalibrated[0] > 0 and uncalibrated[1] == 8
        assert [r.uncalibrated_runs for r in run_sweep(cfg)] == uncalibrated

    def test_each_trial_owns_its_memo(self, monkeypatch):
        memos = []

        def spy(fcfg, *args, memo):
            memos.append(memo)
            return FixedOutcome(0, fcfg.total_budget, fcfg.estimation_copies + 1)

        monkeypatch.setattr(harness, "run_lht", spy)
        cfg = small_config(methods=("LHT",))
        first, second = harness.make_trial(cfg, "LHT"), harness.make_trial(cfg, "LHT")
        rng = np.random.default_rng(0)
        first(10, rng)
        first(14, rng)
        second(10, rng)
        assert memos[0] is memos[1]
        assert memos[2] is not memos[0]

    def test_a_sweep_grows_no_module_level_dict(self):
        def sizes():
            return {
                (m.__name__, name): len(value)
                for m in (baselines, harness)
                for name, value in vars(m).items()
                if isinstance(value, dict) and not name.startswith("__")
            }

        before = sizes()
        run_sweep(small_config(methods=self.FIXED, budgets=(10, 20), runs=2, theta_grid_size=36))
        after = sizes()
        assert after.keys() == before.keys()
        grown = {k for k in after if after[k] > before[k]}
        # the rotation grids are shared by every caller, one per (grid size, copies)
        assert grown <= {("qhtest.baselines", "_u_cache")}


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def module_dict_sizes(modules) -> dict:
    return {
        (m.__name__, name): len(value)
        for m in modules
        for name, value in vars(m).items()
        if isinstance(value, dict) and not name.startswith("__")
    }


class TestSequentialMemo:
    """A sequential trial's memo changes how often work is done, never what a run returns."""

    SETS = {
        "point": ("{45}", "(45,180]"),
        "interval": ("[0,45]", "(45,180]"),
        "two points": ("{45,135}", "(45,135) (135,180)"),
    }

    @staticmethod
    def config(kind, sets, estimation, radii):
        return small_config(
            null_set=parse_hypothesis_set(sets[0]),
            alt_set=parse_hypothesis_set(sets[1]),
            truth_omega=50.0,
            methods=(kind,),
            budgets=(12, 24),
            runs=3,
            n_ic=2,
            n_joint=2,
            estimation_povm=estimation,
            r_z=radii[0],
            r_x=radii[1],
            lambda_grid_size=9,
            theta_grid_size=36,
        )

    @staticmethod
    def run(config, kind, budget, rng, memo, eps1=None, truth=None):
        fam = config.family()
        if truth is None:
            truth = state_from_angle(fam, config.truth_omega)
        return run_sequential_test(
            harness._policy(config, kind), truth, fam, config.null_set, config.alt_set,
            config.eps0, budget, rng, eps1=eps1, resolution=config.grid_resolution,
            memo=memo,
        )

    @staticmethod
    def assert_same_outcome(got, want):
        """Equal bit for bit: decision, copies, each round and every statistic."""
        assert (got.decision, got.copies_used) == (want.decision, want.copies_used)
        assert len(got.rounds) == len(want.rounds)
        for a, b in zip(got.rounds, want.rounds):
            assert (a.plan.descriptor, a.outcome) == (b.plan.descriptor, b.outcome)
            assert bits(a.row) == bits(b.row)
            assert bits(a.log_numerator_term) == bits(b.log_numerator_term)
        assert bits(got.log_slrs) == bits(want.log_slrs)
        if want.final_log_slr_rev is None:
            assert got.final_log_slr_rev is None
        else:
            assert bits(got.final_log_slr_rev) == bits(want.final_log_slr_rev)

    @pytest.mark.parametrize("two_sided", [False, True])
    @pytest.mark.parametrize("sets", ["point", "interval", "two points"])
    @pytest.mark.parametrize("kind", ["aLHT", "aLHT+", "aLVT"])
    def test_shared_memo_runs_equal_fresh_memo_runs(self, kind, sets, two_sided):
        for estimation in ("computational", "sic"):
            for radii in ((1.0, 1.0), (0.9, 0.7)):
                config = self.config(kind, self.SETS[sets], estimation, radii)
                eps1 = 0.05 if two_sided else None
                # make_trial runs one-sided tests only; a two-sided trial shares a dict
                shared = {}
                trial = harness.make_trial(config, kind)
                for b_idx, budget in enumerate(config.budgets):
                    for run in range(config.runs):
                        rng = lambda: harness.run_rng(config.master_seed, kind, b_idx, run)
                        if two_sided:
                            got = self.run(config, kind, budget, rng(), shared, eps1)
                        else:
                            got = trial(budget, rng())
                        want = self.run(config, kind, budget, rng(), {}, eps1)
                        self.assert_same_outcome(got, want)

    def test_a_memo_shared_across_truths_rebuilds_the_truth_laws(self, run_memo):
        """As in criterion 3, one memo may serve runs of different truths.

        The caller here passes one array and rewrites it in place between
        runs; the memo must notice the new truth all the same.
        """
        config = self.config("aLHT+", self.SETS["point"], "computational", (1.0, 1.0))
        fam = config.family()
        memo = {}
        passed = np.zeros((2, 2), dtype=complex)
        for k, angle in enumerate((50.0, 120.0, 50.0, 170.0)):
            truth = state_from_angle(fam, angle)
            passed[...] = truth
            rng = lambda: np.random.default_rng([7, k])
            got = self.run(config, "aLHT+", 24, rng(), memo, 0.05, passed)
            want = self.run(config, "aLHT+", 24, rng(), {}, 0.05, truth)
            self.assert_same_outcome(got, want)
            assert np.array_equal(run_memo(memo)["truth"].truth, truth)

    def test_each_trial_owns_its_memo(self, monkeypatch):
        memos = []

        def spy(*args, memo, **kwargs):
            memos.append(memo)
            return run_sequential_test(*args, memo=memo, **kwargs)

        monkeypatch.setattr(harness, "run_sequential_test", spy)
        cfg = small_config(methods=("aLHT+",))
        first, second = harness.make_trial(cfg, "aLHT+"), harness.make_trial(cfg, "aLHT+")
        rng = np.random.default_rng(0)
        first(10, rng)
        first(14, rng)
        second(10, rng)
        assert memos[0] is memos[1]
        assert memos[2] is not memos[0]

    def test_a_sweep_grows_no_module_level_dict(self):
        modules = (baselines, engine, family, harness, measurements, oracle, quantum)
        before = module_dict_sizes(modules)
        run_sweep(small_config(
            null_set=parse_hypothesis_set("[0,45]"), truth_omega=22.3,
            methods=("aLHT", "aLHT+", "aLVT"), budgets=(10, 20), runs=3, theta_grid_size=36,
        ))
        after = module_dict_sizes(modules)
        assert after.keys() == before.keys()
        grown = {k for k in after if after[k] > before[k]}
        # the design cache stays module-level (the sweep benchmark counts its
        # entries); the rotation grids (also bound as baselines._u_cache) and
        # the interpolation nodes are one per copy count
        assert grown <= {
            ("qhtest.engine", "_design_cache"),
            ("qhtest.measurements", "_u_cache"),
            ("qhtest.baselines", "_u_cache"),
            ("qhtest.family", "_node_cache"),
        }

    def test_a_returned_row_cannot_change_the_next_run(self):
        """A transcript's coefficient row is the one the trial memo keeps, so it is read-only."""
        config = self.config("aLHT+", self.SETS["point"], "computational", (1.0, 1.0))
        trial = harness.make_trial(config, "aLHT+")
        rng = lambda: np.random.default_rng(5)
        first = trial(24, rng())
        with pytest.raises(ValueError):
            first.rounds[0].row[0] += 0.5
        want = self.run(config, "aLHT+", 24, rng(), {})
        self.assert_same_outcome(first, want)
        self.assert_same_outcome(trial(24, rng()), want)

    @pytest.mark.parametrize("kind", ["aLHT", "aLHT+", "aLVT"])
    def test_the_memo_keys_only_grid_angles(self, kind, monkeypatch, run_memo):
        """Refined null MLEs fall between grid angles; their states are built and dropped."""
        config = self.config(kind, self.SETS["interval"], "computational", (1.0, 1.0))
        grid = set(build_grid(config.null_set).angles) | set(build_grid(config.alt_set).angles)
        null_angles = []
        real = engine._joint_design

        def spy(policy, cfg, w0, w1, rng, memo, angles):
            null_angles.append(w0)
            return real(policy, cfg, w0, w1, rng, memo, angles)

        monkeypatch.setattr(engine, "_joint_design", spy)
        memo = {}
        for run in range(4):
            self.run(config, kind, 24, np.random.default_rng([3, run]), memo, 0.05)
        assert any(w0 not in grid for w0 in null_angles)
        angle_keys = [key[1] for key in run_memo(memo) if key[0] in ("power", "table")]
        assert angle_keys
        assert set(angle_keys) <= grid

    @pytest.mark.parametrize("sets", ["point", "interval"])
    @pytest.mark.parametrize("kind", ["aLHT", "aLHT+", "aLVT"])
    def test_alternative_angles_are_kept_only_where_reread(self, kind, sets, monkeypatch, run_memo):
        """On a point null a cached design is found before its alternative
        angle's state would be read again, so aLHT+ and aLVT build and drop
        that state; aLHT, whose designs are drawn, and interval nulls keep it."""
        monkeypatch.setattr(engine, "_design_cache", {})
        config = self.config(kind, self.SETS[sets], "computational", (1.0, 1.0))
        null_angles = set(build_grid(config.null_set).angles)
        memo = {}
        for run in range(4):
            rng = lambda: np.random.default_rng([5, run])
            got = self.run(config, kind, 24, rng(), memo, 0.05)
            self.assert_same_outcome(got, self.run(config, kind, 24, rng(), {}, 0.05))
        angle_keys = {key[1] for key in run_memo(memo) if key[0] in ("power", "table")}
        assert angle_keys & null_angles
        if sets == "point" and kind != "aLHT":
            assert angle_keys <= null_angles
        else:
            assert angle_keys - null_angles


def arrays_in(value, seen: set):
    """Every ndarray reachable from value through containers and qhtest objects' attributes."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from arrays_in(key, seen)
            yield from arrays_in(item, seen)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            yield from arrays_in(item, seen)
    elif type(value).__module__.startswith("qhtest."):
        slots = getattr(type(value), "__slots__", ())
        attrs = [getattr(value, name) for name in slots]
        for item in attrs + list(getattr(value, "__dict__", {}).values()):
            yield from arrays_in(item, seen)


def test_every_cached_array_is_read_only(monkeypatch):
    """After a sweep of all seven methods, nothing a cache stores can be written into."""
    memos = []
    for name in ("run_sequential_test", "run_lht", "run_blht", "run_lvt", "run_blvt"):
        real = getattr(harness, name)

        def spy(*args, memo, real=real, **kwargs):
            memos.append(memo)
            return real(*args, memo=memo, **kwargs)

        monkeypatch.setattr(harness, name, spy)
    config = small_config(
        methods=tuple(METHODS), budgets=(10, 20), runs=2, lambda_grid_size=9,
        theta_grid_size=36,
    )
    run_sweep(config)
    grids = [build_grid(s, config.grid_resolution) for s in (config.null_set, config.alt_set)]
    caches = {
        "trial memos": memos,
        "node cache": family._node_cache,
        "rotation grids": measurements._u_cache,
        "design cache": engine._design_cache,
        "grid bases": [g.basis_cache for g in grids],
    }
    for name, cache in caches.items():
        arrays = list(arrays_in(cache, set()))
        assert arrays, name
        assert not any(a.flags.writeable for a in arrays), name


class TestEmitResults:
    def test_header_and_formatting(self, tmp_path):
        rows = [
            ResultRow(
                method="LHT", budget=10, power=1.0 / 3.0, avg_copies=10.0,
                std_copies=0.0, avg_rounds=7.0, runs=3, master_seed=11,
            ),
            ResultRow(
                method="aLHT+", budget=14, power=0.5, avg_copies=10.123456789,
                std_copies=1.23456789, avg_rounds=8.25, runs=3, master_seed=11,
            ),
        ]
        path = tmp_path / "rows.csv"
        emit_results(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == RESULT_HEADER
        assert lines[0] == "method,budget,power,avg_copies,std_copies,avg_rounds,runs,master_seed"
        assert lines[1] == "LHT,10,0.333333,10,0,7,3,11"
        assert lines[2] == "aLHT+,14,0.5,10.1235,1.23457,8.25,3,11"
        assert len(lines) == 3

    def test_unwritable_path_raises_io_error(self, tmp_path):
        with pytest.raises(IoError):
            emit_results([], tmp_path / "missing" / "dir" / "x.csv")


CONFIG_TEXT = """\
# reference sweep, comments and blank lines allowed

null_set = {45}
alt_set = (45,180]   # everything past the null point
truth_omega = 90
methods = aLHT+,LHT
budgets = 10,14
runs = 3
eps0 = 0.05
master_seed = 11
"""


class TestParseConfig:
    def test_parses_the_reference_file(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(CONFIG_TEXT)
        assert parse_config(path) == small_config()

    def test_unknown_key_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_TEXT + "mystery = 3\n")
        with pytest.raises(ParseError, match=":11: unknown key"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text(CONFIG_TEXT + "runs = 5\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_config(path)

    def test_missing_required_keys(self, tmp_path):
        path = tmp_path / "short.cfg"
        path.write_text("null_set = {45}\n")
        with pytest.raises(ParseError, match="missing"):
            parse_config(path)

    def test_bad_value_reports_key(self, tmp_path):
        path = tmp_path / "val.cfg"
        path.write_text(CONFIG_TEXT.replace("runs = 3", "runs = three"))
        with pytest.raises(ParseError, match="runs"):
            parse_config(path)

    def test_line_without_equals_sign(self, tmp_path):
        path = tmp_path / "fmt.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ParseError):
            parse_config(path)

    def test_semantic_errors_come_from_the_config_class(self, tmp_path):
        path = tmp_path / "overlap.cfg"
        path.write_text(CONFIG_TEXT.replace("(45,180]", "[45,180]"))
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_file_raises_io_error(self, tmp_path):
        with pytest.raises(IoError):
            parse_config(tmp_path / "nope.cfg")
