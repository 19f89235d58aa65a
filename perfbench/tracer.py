"""Span tracer that wraps qhtest's functions from outside the package.

Tracing replaces module attributes with timing wrappers; nothing inside
`qhtest` changes. Because the package binds names with `from .x import y`,
one function object can sit under several module attributes (for example
`family.accumulate`, `engine.accumulate` and `oracle.accumulate`), so every
attribute of every loaded `qhtest` module that holds the original object is
replaced. Calls inside one module go through that module's globals, which
are the same attributes, so `family.mle` -> `family.loglik_at` is covered
too. `Povm.__post_init__` is a class attribute and is replaced on the class.

Each wrapped call records one span: name, start, end, parent span and the
Monte Carlo run it belongs to. A run starts at the outermost call of one of
RUN_ROOTS, and every span inside it shares that run's id; spans outside
any run carry id 0. Spans stay in memory until `save` writes them out.
A span's self time is its duration minus the durations of its direct
children, which nest inside it because the sweep is single-threaded.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# The modules on the sweep path and the functions traced in each.
# `oracle` and `cli` are off that path.
LAYERS = {
    "harness": ("run_sweep", "parse_config", "emit_results"),
    "engine": (
        "run_sequential_test",
        "slr_update",
        "next_measurement",
        "_joint_design",
        "numerator_log_term",
        "predictable_estimate",
    ),
    "family": (
        "accumulate",
        "mle",
        "loglik_at",
        "outcome_coeffs",
        "log_outcome_prob",
        "build_grid",
        "state_from_angle",
    ),
    "measurements": (
        "optimize_lambda",
        "optimize_theta",
        "helstrom_povm",
        "variational_povm",
        "_binary_probs_on_weight_grid",
        "_rotated_basis_probs",
    ),
    "baselines": (
        "helstrom_calibration",
        "_calibrate_variational",
        "_fit_alternative",
        "_run_helstrom_family",
        "_run_variational_family",
    ),
    "quantum": (
        "tensor_power",
        "born_distribution",
        "sample_outcome",
        "positive_eigenprojector",
        "povm_init",
    ),
}

# Functions entered once per Monte Carlo run by the harness.
RUN_ROOTS = (
    "engine.run_sequential_test",
    "baselines._run_helstrom_family",
    "baselines._run_variational_family",
)

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    """In-memory span store plus the counters read by the probes."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.raised: list[int] = []
        self.stack: list[int] = []
        self.current_run = 0
        self.runs_started = 0
        self.counters = {
            "cacheable_designs": 0,
            "loglik_round_terms": 0,
            "variational_infeasible": 0,
        }
        self.last_w1 = None
        self.calibration_keys: list[tuple] = []

    def wrap(self, name, fn, probe=None, on_raise=None):
        """Timing wrapper around fn.

        probe(args, kwargs, result) runs after a call returns and
        on_raise(args, kwargs) after it raises; neither is timed.
        """
        nid = len(self.names)
        self.names.append(name)
        self.raised.append(0)
        is_root = name in RUN_ROOTS
        now = time.perf_counter_ns
        starts, ends, parents, runs, names, stack = (
            self.start, self.end, self.parent, self.run, self.name_id, self.stack,
        )
        tracer = self

        def wrapper(*args, **kwargs):
            opens_run = is_root and tracer.current_run == 0
            if opens_run:
                tracer.runs_started += 1
                tracer.current_run = tracer.runs_started
            i = len(starts)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.current_run)
            names.append(nid)
            ends.append(0)
            stack.append(i)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = now()
                stack.pop()
                if opens_run:
                    tracer.current_run = 0
                tracer.raised[nid] += 1
                if on_raise is not None:
                    on_raise(args, kwargs)
                raise
            ends[i] = now()
            stack.pop()
            if opens_run:
                tracer.current_run = 0
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return wrapper

    # --- probes: counts measured where the work happens -----------------

    def _probe_joint_design(self, args, kwargs, result):
        policy = args[0] if args else kwargs["policy"]
        if policy.kind != "aLHT":
            self.counters["cacheable_designs"] += 1

    def _probe_loglik_at(self, args, kwargs, result):
        grid = args[0] if args else kwargs["grid"]
        self.counters["loglik_round_terms"] += len(grid.rounds)

    def _probe_fit_alternative(self, args, kwargs, result):
        self.last_w1 = result

    def _probe_helstrom_calibration(self, args, kwargs, result=None):
        blocks = args[4] if len(args) > 4 else kwargs.get("blocks", 1)
        self.calibration_keys.append(("helstrom", self.last_w1, blocks))

    def _probe_calibrate_variational(self, args, kwargs, result):
        blocks = args[3] if len(args) > 3 else kwargs["blocks"]
        self.calibration_keys.append(("variational", self.last_w1, blocks))
        _, tau = result
        if not np.isfinite(tau).any():
            self.counters["variational_infeasible"] += 1

    # --- installation ----------------------------------------------------

    def install(self):
        """Wrap every function in LAYERS wherever qhtest binds it."""
        mods = [m for n, m in sys.modules.items() if n == "qhtest" or n.startswith("qhtest.")]
        probes = {
            "engine._joint_design": self._probe_joint_design,
            "family.loglik_at": self._probe_loglik_at,
            "baselines._fit_alternative": self._probe_fit_alternative,
            "baselines.helstrom_calibration": self._probe_helstrom_calibration,
            "baselines._calibrate_variational": self._probe_calibrate_variational,
        }
        originals = []
        for name in SPAN_NAMES:
            layer, fn_name = name.split(".", 1)
            module = sys.modules[f"qhtest.{layer}"]
            if fn_name == "povm_init":
                orig = module.Povm.__post_init__
                module.Povm.__post_init__ = self.wrap(name, orig)
                originals.append(orig)
                continue
            orig = getattr(module, fn_name)
            on_raise = (
                self._probe_helstrom_calibration
                if name == "baselines.helstrom_calibration"
                else None
            )
            wrapped = self.wrap(name, orig, probes.get(name), on_raise)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
            originals.append(orig)
        leftover = [
            f"{mod.__name__}.{attr}"
            for mod in mods
            for attr, value in vars(mod).items()
            if any(value is orig for orig in originals)
        ]
        if leftover:
            raise RuntimeError(f"unwrapped bindings remain: {leftover}")

    # --- results ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start_ns": np.asarray(self.start, dtype=np.int64),
            "end_ns": np.asarray(self.end, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "run": np.asarray(self.run, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write all spans; `names` maps name_id to the span name."""
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def summary(self, window_s: float) -> dict:
        """Per-function, per-layer and derived metrics from the recorded spans.

        window_s is the traced wall time that the shares are taken of.
        """
        a = self.arrays()
        nid, parent = a["name_id"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
        self_ns = dur - child
        n_names = len(self.names)
        calls = np.bincount(nid, minlength=n_names)
        self_by_name = np.bincount(nid, weights=self_ns, minlength=n_names) / 1e9
        out: dict = {}
        layer_self: dict = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_by_name[i])
            layer_self[name.split(".", 1)[0]] += float(self_by_name[i])
        for layer, s in layer_self.items():
            out[f"{layer}.self_s"] = s
            out[f"{layer}.self_share"] = s / window_s
        out["trace.coverage_share"] = sum(layer_self.values()) / window_s
        out["trace.spans"] = int(dur.size)

        index = {name: i for i, name in enumerate(self.names)}
        optimizer_calls = int(
            calls[index["measurements.optimize_lambda"]]
            + calls[index["measurements.optimize_theta"]]
        )
        designs = self.counters["cacheable_designs"]
        out["engine.design_cache.lookups"] = designs
        out["engine.design_cache.hit_ratio"] = (
            1.0 - optimizer_calls / designs if designs else 0.0
        )
        mle_calls = int(calls[index["family.mle"]])
        loglik_spans = nid == index["family.loglik_at"]
        refined = np.unique(parent[loglik_spans]).size
        out["family.mle.refine_share"] = refined / mle_calls if mle_calls else 0.0
        out["family.loglik_at.round_terms"] = self.counters["loglik_round_terms"]
        keys = self.calibration_keys
        out["baselines.calibration.calls"] = len(keys)
        out["baselines.calibration.repeat_share"] = (
            (len(keys) - len(set(keys))) / len(keys) if keys else 0.0
        )
        infeasible = (
            self.raised[index["baselines.helstrom_calibration"]]
            + self.counters["variational_infeasible"]
        )
        out["baselines.calibration.infeasible_share"] = infeasible / len(keys) if keys else 0.0
        return out
