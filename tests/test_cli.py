"""End-to-end tests of the command line interface."""

import re
from pathlib import Path

import pytest

from qhtest import baselines
from qhtest.cli import main
from qhtest.harness import METHODS, RESULT_HEADER

CONFIG_TEXT = """\
null_set = {45}
alt_set = (45,180]
truth_omega = 90
methods = aLHT+,LHT
budgets = 10,14
runs = 2
eps0 = 0.05
master_seed = 7
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


def test_sweep_writes_csv(config_path, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["sweep", config_path, "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert "wrote 4 rows" in captured.out
    assert captured.err == ""
    lines = out.read_text().splitlines()
    assert lines[0] == RESULT_HEADER
    assert len(lines) == 5
    assert lines[1].startswith("aLHT+,10,")
    assert all(line.endswith(",2,7") for line in lines[1:])


def test_sweep_seed_override_and_reproducibility(config_path, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sweep", config_path, "-o", str(a), "--seed", "99"]) == 0
    assert main(["sweep", config_path, "-o", str(b), "--seed", "99"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert all(line.endswith(",2,99") for line in a.read_text().splitlines()[1:])


def test_single_sequential_with_trace(config_path, capsys):
    assert main(["single", config_path, "--method", "aLHT+", "--budget", "10",
                 "--trace"]) == 0
    out = capsys.readouterr().out
    assert "aLHT+ budget 10:" in out
    assert "round   1" in out
    assert "computational(n=1)" in out


def test_single_fixed_method(config_path, capsys):
    assert main(["single", config_path, "--method", "LHT", "--budget", "14"]) == 0
    captured = capsys.readouterr()
    assert "LHT budget 14:" in captured.out
    assert "14 copies" in captured.out
    assert captured.err == ""


def test_single_unknown_method_fails_cleanly(config_path, capsys):
    assert main(["single", config_path, "--method", "xLHT", "--budget", "10"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_fails_cleanly(tmp_path, capsys):
    missing = str(tmp_path / "absent.cfg")
    assert main(["sweep", missing, "-o", str(tmp_path / "out.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_rejects_a_non_finite_truth_angle(tmp_path, capsys):
    path = tmp_path / "nan.cfg"
    path.write_text(CONFIG_TEXT.replace("truth_omega = 90", "truth_omega = nan"))
    out = tmp_path / "out.csv"
    assert main(["sweep", str(path), "-o", str(out)]) == 2
    assert "truth_omega must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_a_negative_seed_override(config_path, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["sweep", config_path, "-o", str(out), "--seed", "-1"]) == 2
    assert "master_seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_prints_reference_settings(config_path, tmp_path, capsys):
    assert main(["calibrate", config_path]) == 0
    out = capsys.readouterr().out
    assert "reference null angle 45" in out
    assert "reference alternative angle 112.5" in out
    assert "LHT: blocks 1, weight" in out
    # With n_ic = 0 round 1 is a joint round, planned before any data
    path = tmp_path / "joint_first.cfg"
    path.write_text(CONFIG_TEXT.replace("aLHT+,LHT", "aLHT+,aLVT,LHT") + "n_ic = 0\n")
    assert main(["calibrate", str(path)]) == 0
    out = capsys.readouterr().out
    designs = dict(re.findall(r"^(aLHT\+|aLVT): pre-data joint round (\S+)$", out, re.M))
    for method in ("aLHT+", "aLVT"):
        assert main(["single", str(path), "--method", method, "--budget", "10", "--trace"]) == 0
        round_one = re.search(r"^  round   1  (\S+) ", capsys.readouterr().out, re.M)
        assert designs.get(method) == round_one.group(1), method


def test_calibrate_builds_one_weight_table_per_method(monkeypatch, capsys):
    """LHT and bLHT's four block counts read one weight table per method."""
    tables = []
    real = baselines._binary_probs_on_weight_grid
    monkeypatch.setattr(baselines, "_binary_probs_on_weight_grid",
                        lambda *a: tables.append(1) or real(*a))
    demo = Path(__file__).resolve().parents[1] / "demos" / "point_null_sweep.cfg"
    assert main(["calibrate", str(demo)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "reference null angle 45, reference alternative angle 112.5",
        "aLHT+: pre-data joint round helstrom(w0=45,w1=45.5,lam=0.010000)",
        "LHT: blocks 1, weight 0.45, block size 0.04847, block power 0.9256",
        "bLHT: blocks 1, weight 0.45, block size 0.04847, block power 0.9256",
        "bLHT: blocks 2, weight 0.98, block size 0.2214, block power 0.9999",
        "bLHT: blocks 4, weight 0.99, block size 0.2249, block power 1",
        "bLHT: blocks 8, weight 0.99, block size 0.2249, block power 1",
    ]
    assert len(tables) == 2


def test_calibrate_reports_an_infeasible_helstrom_size(tmp_path, capsys):
    # Neither a weight nor a rotation meets eps0 = 1e-9; sweep runs LHT and LVT as
    # always-accept, so calibrate must not fail and must say so for both
    path = tmp_path / "infeasible.cfg"
    path.write_text(
        CONFIG_TEXT.replace("aLHT+,LHT", "LVT,LHT").replace("budgets = 10,14", "budgets = 10")
        .replace("eps0 = 0.05", "eps0 = 1e-9") + "r_z = 0.9\nr_x = 0.7\n"
    )
    assert main(["calibrate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "LVT: blocks 1, no rotation meets size 1e-09, so the test always accepts" in out
    assert "LHT: blocks 1, no weight meets size 1e-09, so the test always accepts" in out


def test_sweep_names_the_cells_whose_calibration_failed(tmp_path, capsys):
    # No rotation, and no weight for some fitted angles, meets eps0 = 1e-9:
    # the CSV stays as it was, and stderr says which runs accepted untested.
    path = tmp_path / "infeasible.cfg"
    path.write_text(
        CONFIG_TEXT.replace("aLHT+,LHT", "LVT,LHT").replace("eps0 = 0.05", "eps0 = 1e-9")
        + "r_z = 0.9\nr_x = 0.7\n"
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", str(path), "-o", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == [
        "LVT,10,0,10,0,7,2,7",
        "LVT,14,0,14,0,11,2,7",
        "LHT,10,0,10,0,7,2,7",
        "LHT,14,0,14,0,11,2,7",
    ]
    assert capsys.readouterr().err.splitlines() == [
        "LVT budget 10: 2 of 2 runs found no rotation meeting eps0 1e-09 and accepted",
        "LVT budget 14: 2 of 2 runs found no rotation meeting eps0 1e-09 and accepted",
        "LHT budget 10: 1 of 2 runs found no weight meeting eps0 1e-09 and accepted",
        "LHT budget 14: 1 of 2 runs found no weight meeting eps0 1e-09 and accepted",
    ]


def test_single_says_when_its_run_found_no_calibration(tmp_path, capsys):
    # Run 0 of the budget-10 cells in the sweep test above found no setting meeting eps0.
    path = tmp_path / "infeasible.cfg"
    path.write_text(
        CONFIG_TEXT.replace("aLHT+,LHT", "LVT,LHT").replace("eps0 = 0.05", "eps0 = 1e-9")
        + "r_z = 0.9\nr_x = 0.7\n"
    )
    for method, setting in (("LVT", "rotation"), ("LHT", "weight")):
        assert main(["single", str(path), "--method", method, "--budget", "10"]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"{method} budget 10: accept, 10 copies, 7 measurement rounds\n"
        assert captured.err == (
            f"{method} budget 10: the run found no {setting} meeting eps0 1e-09 and accepted\n"
        )


def test_verify_self_checks_pass(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_single_rejects_a_method_the_config_cannot_run(tmp_path, capsys):
    # LHT needs a single-point null; the file lists only methods that fit it
    path = tmp_path / "two_point.cfg"
    path.write_text(
        CONFIG_TEXT.replace("{45}", "{45,135}")
        .replace("(45,180]", "(45,135) (135,180]")
        .replace("aLHT+,LHT", "aLVT,LVT")
    )
    assert main(["single", str(path), "--method", "LHT", "--budget", "40"]) == 2
    assert "single-point null" in capsys.readouterr().err


def test_a_budget_below_the_first_round_fails_cleanly(tmp_path, capsys):
    # with n_ic = 0 the first aLHT+ round measures n_joint = 4 copies
    path = tmp_path / "no_estimation.cfg"
    text = CONFIG_TEXT.replace("aLHT+,LHT", "aLHT+") + "n_ic = 0\n"
    path.write_text(text.replace("budgets = 10,14", "budgets = 3,8"))
    assert main(["sweep", str(path), "-o", str(tmp_path / "out.csv")]) == 2
    assert "below minimum 4" in capsys.readouterr().err
    path.write_text(text.replace("budgets = 10,14", "budgets = 8"))
    assert main(["single", str(path), "--method", "aLHT+", "--budget", "3"]) == 2
    assert "below minimum 4" in capsys.readouterr().err


ALL_METHODS_TEXT = CONFIG_TEXT.replace("aLHT+,LHT", ",".join(METHODS)).replace(
    "budgets = 10,14", "budgets = 10,20"
).replace("runs = 2", "runs = 1")

SINGLE_SEQUENTIAL = re.compile(r"budget \d+: (\w+) after (\d+) rounds, (\d+) copies")
SINGLE_FIXED = re.compile(r"budget \d+: (\w+), (\d+) copies, (\d+) measurement rounds")


def test_single_replays_run_zero_of_the_sweep_cell(tmp_path, capsys):
    cfg = tmp_path / "all.cfg"
    cfg.write_text(ALL_METHODS_TEXT)
    csv = tmp_path / "all.csv"
    assert main(["sweep", str(cfg), "-o", str(csv)]) == 0
    cells = {}
    for line in csv.read_text().splitlines()[1:]:
        method, budget, power, copies, _, rounds, _, _ = line.split(",")
        cells[method, int(budget)] = (power == "1", float(copies), float(rounds))
    assert len(cells) == 2 * len(METHODS)
    capsys.readouterr()
    for method, budget in cells:
        assert main(["single", str(cfg), "--method", method, "--budget", str(budget)]) == 0
        out = capsys.readouterr().out
        seq = SINGLE_SEQUENTIAL.search(out)
        if seq:
            decision, rounds, copies = seq.groups()
        else:
            decision, copies, rounds = SINGLE_FIXED.search(out).groups()
        got = (decision == "reject", float(copies), float(rounds))
        assert got == cells[method, budget], (method, budget, out)
