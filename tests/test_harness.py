"""Tests for sweep configuration, execution, and the CSV emitter."""

import numpy as np
import pytest

from qhtest import harness
from qhtest.errors import ConfigError, IoError, ParseError
from qhtest.family import parse_hypothesis_set
from qhtest.harness import (
    METHOD_IDS,
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
            dict(estimation_povm="pauli"),
            dict(n_ic=-1, **fixed_only),
            dict(n_joint=0, **fixed_only),
        ):
            with pytest.raises(ConfigError):
                small_config(**bad)

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

    def test_fixed_methods_need_room_for_their_blocks(self):
        # bLHT scales blocks by n_ic + n_joint = 10 copies
        with pytest.raises(ConfigError):
            small_config(methods=("bLHT",), budgets=(8, 20))
        # LHT only needs the joint round itself
        small_config(methods=("LHT",), budgets=(4, 20))
        with pytest.raises(ConfigError):
            small_config(methods=("LHT",), budgets=(3, 20))

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
        cfg = small_config(methods=tuple(METHOD_IDS), budgets=(10, 14), runs=2)
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
