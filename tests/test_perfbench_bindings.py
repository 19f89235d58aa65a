"""The names the sweep benchmark binds to must exist with the shapes it reads.

perfbench/tracer.py wraps qhtest functions by name and reads some of
their positional arguments; perfbench/child.py rebinds the harness entry
points and reads the module-level caches. A rename here would otherwise
only surface when the benchmark runs.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from qhtest import baselines, engine, family, harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load("tracer")
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"qhtest.{layer}")
        for name in names:
            target = module.Povm.__post_init__ if name == "povm_init" else getattr(module, name)
            assert callable(target), f"{layer}.{name}"


def test_run_entry_points_are_harness_globals():
    child = load("child")
    for name in child.RUN_ENTRY_POINTS:
        assert callable(getattr(harness, name)), name


def test_the_harness_entry_points_are_the_run_roots():
    """perfbench/tracer.py opens a run at each of RUN_ROOTS, so a wrapper
    between a harness entry point and its runner would open none."""
    assert harness.run_lht is harness.run_blht is baselines._run_helstrom_family
    assert harness.run_lvt is harness.run_blvt is baselines._run_variational_family
    assert harness.run_sequential_test is engine.run_sequential_test


def test_counted_caches_are_dicts():
    assert type(engine._design_cache) is dict
    assert type(baselines._u_cache) is dict
    assert type(family._node_cache) is dict


@pytest.mark.parametrize(
    "fn, position, name",
    [
        (engine._joint_design, 0, "policy"),
        (family.loglik_at, 0, "grid"),
        (baselines.helstrom_calibration, 4, "blocks"),
        (baselines._calibrate_variational, 3, "blocks"),
    ],
)
def test_probed_arguments_keep_their_positions(fn, position, name):
    assert list(inspect.signature(fn).parameters)[position] == name


def test_an_accumulated_grid_counts_its_folds():
    """The tracer's loglik_at probe counts a grid's round terms as len(grid.rounds)."""
    cfg = family.FamilyConfig()
    grid = family.build_grid(family.parse_hypothesis_set("[0,45]"))
    assert len(grid.rounds) == 0
    rows = [family.outcome_coeffs(cfg, e) for e in engine.estimation_povm("sic").elements]
    for folds, row in enumerate(rows + rows[:2], start=1):
        grid = family.accumulate(grid, row)
        assert len(grid.rounds) == folds


def test_a_refining_mle_calls_loglik_at_once_per_probe(monkeypatch):
    """perfbench/tracer.py times the refined MLE by rebinding family.loglik_at,
    so mle must reach it through the module global, once per golden-section
    probe (2 + 48), and not evaluate the probes inline."""
    cfg = family.FamilyConfig()
    grid = family.build_grid(family.parse_hypothesis_set("[0,90]"))
    povm = engine.estimation_povm("computational")
    for label in ("0", "0", "0", "1"):
        grid = family.accumulate(grid, family.outcome_coeffs(cfg, povm.element(label)))
    probes = []
    loglik_at = family.loglik_at
    monkeypatch.setattr(
        family, "loglik_at", lambda g, omega: probes.append(omega) or loglik_at(g, omega)
    )
    family.mle(grid)
    assert len(probes) == 50
