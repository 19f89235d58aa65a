"""Sweep benchmark for qhtest: end-to-end metrics untraced, per-layer metrics traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload seq_power_point --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Every workload is a closed loop: one process runs one sweep at a time, and
every repetition is a fresh interpreter (perfbench/child.py), so the
package's memo dicts start empty as in a `qhtest sweep` process. BLAS and
OpenMP are pinned to one thread in the child environment. The program is
imported from ./src; nothing needs building.

A run of one workload:

1. A warm-up child sweeps the workload at REFERENCE_SEED and its CSV is
   compared cell by cell with perfbench/reference/<workload>.csv, whose
   SHA-256 is recorded in perfbench/reference/SHA256SUMS. Any result change
   at all, in any cell, shows here whatever --seed is. This child also
   compiles bytecode and warms the file cache; it is not timed.
2. With --trace 0, children in timed mode sweep the workload at master
   seed --seed for --seconds (at least MIN_REPS of them). Every one must
   emit the same CSV as the first. The end-to-end metrics:
     setup_s                 fresh interpreter start to a parsed config:
                             `import qhtest` plus `harness.parse_config`
     runs_per_s              Monte Carlo runs per second of sweep time
     ms_per_run.helstrom     sweep time per run of the Helstrom-design
                             methods (aLHT, aLHT+, LHT, bLHT)
     ms_per_run.variational  sweep time per run of the variational-design
                             methods (aLVT, LVT, bLVT)
     peak_rss_mb             peak resident memory (MiB) of the sweep process
                             plus its largest child process
     matched_cell_share      share of (method, budget) cells, over all
                             children of the run, whose CSV row is present,
                             passes the row invariants and equals the
                             reference row
   Times are taken at reference host speed. Other tenants of a shared host
   slow this process by up to half, for seconds to minutes, so raw wall
   times of the same work drift far more between runs than any bound worth
   having. Each child therefore times every Monte Carlo run and runs a
   fixed speed probe between runs (child.speed_probe_ns); each run's time
   is scaled by REFERENCE_PROBE_NS / the probe next to it, and set-up time
   by the child's median probe. Every repetition runs the same runs, so a
   run counts with the median of its scaled times; setup_s and
   peak_rss_mb are medians over repetitions. The raw wall figures
   (wall.*), the probe time and per-method times (ms_per_run.<method>,
   `+` spelled `plus`) are printed above the result line and kept, with
   the host record and every repetition's timings, in perfbench/out/.
3. With --trace 1, an untraced child and a traced child alternate for
   --seconds (at least one pair). The traced child's CSV must
   equal the untraced one byte for byte. Per-layer metrics (perfbench/
   tracer.py) are medians over traced children; trace.overhead_ratio is
   the median traced / untraced wall of the harness window (parse_config
   through emit_results). The run fails when a function the workload must
   call records no call, when a bypassed function records any, or when the
   per-layer self times cover less than MIN_COVERAGE of the traced window.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A cell or check that fails makes
`correct` false and the exit code 1; an error that prevents measuring
(for example, no ./src/qhtest) exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE_SEED = 20260815
MIN_REPS = 2
MIN_COVERAGE = 0.90
DEADLINE_S = 170.0
# Time of child.speed_probe_ns() on an idle core of the host the benchmark
# was defined on (Intel Xeon, 2 vCPUs). Reported times are scaled to it.
REFERENCE_PROBE_NS = 125_000

METHOD_GROUPS = {
    "helstrom": ("aLHT", "aLHT+", "LHT", "bLHT"),
    "variational": ("aLVT", "LVT", "bLVT"),
}
FIXED_METHODS = ("LHT", "bLHT", "LVT", "bLVT")


def _traced(layer: str, *functions: str) -> tuple:
    """Span names of `functions` in `layer`, or of all its traced functions."""
    return tuple(f"{layer}.{fn}" for fn in functions or LAYERS[layer])


_SEQ_FAMILY = _traced(
    "family", "accumulate", "mle", "outcome_coeffs", "log_outcome_prob",
    "build_grid", "state_from_angle",
)

# Functions each workload must call, and the bypassed ones it must not.
WORKLOADS = {
    "seq_power_point": {
        "must_call": _traced("harness") + _traced("engine") + _SEQ_FAMILY
        + _traced("measurements") + _traced("quantum"),
        "bypassed": _traced("family", "loglik_at") + _traced("baselines"),
    },
    "seq_size_interval": {
        "must_call": _traced("harness") + _traced("engine") + _SEQ_FAMILY
        + _traced("family", "loglik_at") + _traced("measurements") + _traced("quantum"),
        "bypassed": _traced("baselines"),
    },
    "fixed_power_point": {
        "must_call": _traced("harness") + _traced("baselines") + _traced("quantum")
        + _traced("family", "build_grid", "state_from_angle", "outcome_coeffs")
        + _traced(
            "measurements", "helstrom_povm", "variational_povm",
            "_binary_probs_on_weight_grid", "_rotated_basis_probs",
        ),
        "bypassed": _traced("family", "loglik_at") + _traced("engine"),
    },
}

CACHE_METRICS = (
    "engine.design_cache.entries",
    "baselines.u_cache.entries",
    "family.node_cache.entries",
)


class BenchError(Exception):
    """Measuring could not proceed; no result is printed."""


def unit_of(per_layer_metric: str) -> str:
    if per_layer_metric.endswith("_s"):
        return "s"
    if per_layer_metric.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def metric_name(method: str) -> str:
    return method.replace("+", "plus")


def read_config(path: Path) -> dict:
    """The few config keys the benchmark needs, as written in the file."""
    values = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return {
        "methods": tuple(m.strip() for m in values["methods"].split(",")),
        "budgets": tuple(int(b) for b in values["budgets"].split(",")),
        "runs": int(values["runs"]),
    }


def write_config(workload: str, seed: int) -> Path:
    """The workload's config with its master seed replaced by `seed`."""
    text = (HERE / "workloads" / f"{workload}.cfg").read_text()
    text, n = re.subn(r"(?m)^master_seed\s*=.*$", f"master_seed = {seed}", text)
    if n != 1:
        raise BenchError(f"{workload}.cfg must set master_seed exactly once")
    path = OUT / f"{workload}.seed{seed}.cfg"
    path.write_text(text)
    return path


def load_reference(workload: str) -> str:
    """Reference CSV text, checked against its recorded SHA-256."""
    sums = {}
    for line in (HERE / "reference" / "SHA256SUMS").read_text().splitlines():
        digest, name = line.split()
        sums[name] = digest
    name = f"{workload}.csv"
    data = (HERE / "reference" / name).read_bytes()
    if hashlib.sha256(data).hexdigest() != sums.get(name):
        raise BenchError(f"reference/{name} does not match its SHA-256 in SHA256SUMS")
    return data.decode("ascii")


def csv_cells(text: str) -> dict:
    lines = text.splitlines()[1:]
    return {(ln.split(",")[0], ln.split(",")[1]): ln for ln in lines if ln}


def row_ok(line: str, method: str, budget: int, runs: int, seed: int) -> bool:
    """Invariants every sweep row satisfies whatever the seed."""
    f = line.split(",")
    if len(f) != 8 or f[0] != method or f[1] != str(budget):
        return False
    power, avg_copies, std_copies, avg_rounds = map(float, f[2:6])
    ok = (
        0.0 <= power <= 1.0
        and 0.0 < avg_copies <= budget
        and std_copies >= 0.0
        and avg_rounds > 0.0
        and int(f[6]) == runs
        and int(f[7]) == seed
    )
    if method in FIXED_METHODS:
        ok = ok and avg_copies == budget and std_copies == 0.0
    return ok


def compare_cells(cfg: dict, seed: int, csv_text: str, reference: str) -> tuple[int, int]:
    """(matched, checked) over the expected (method, budget) cells."""
    got, want = csv_cells(csv_text), csv_cells(reference)
    matched = checked = 0
    for method in cfg["methods"]:
        for budget in cfg["budgets"]:
            key = (method, str(budget))
            checked += 1
            line = got.get(key)
            if (
                line is not None
                and line == want.get(key)
                and row_ok(line, method, budget, cfg["runs"], seed)
            ):
                matched += 1
    return matched, checked


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(mode: str, cfg_path: Path, csv_path: Path, deadline: float,
          spans: Path | None = None, importtime: bool = False) -> dict:
    """Run one child (see child.py for the modes) and return its JSON report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next repetition")
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "child.py"), mode, str(cfg_path), str(csv_path)]
    spawn_ns = time.monotonic_ns()
    cmd.append(str(spawn_ns))
    if spans is not None:
        cmd.append(str(spans))
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=remaining,
            env=child_env(), cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {remaining:.0f} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"child exited with {proc.returncode}: {tail}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if importtime:
        report["importtime_s"] = parse_importtime(proc.stderr)
    return report


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds per module from `python -X importtime`."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            parts = line[len("import time:"):].split("|")
            if parts[1].strip().isdigit():
                out[parts[2].strip()] = int(parts[1]) / 1e6
    return out


def method_seconds(reps: list, method: str, at_reference_speed: bool = True) -> float:
    """Sweep time of one method: per-run medians over the repetitions.

    Every repetition runs the same seeded Monte Carlo runs from cold
    caches, so each run is charged the median of its times over the
    repetitions, and the time the sweep spent outside its runs (less the
    probes) is charged the same way. With at_reference_speed, every time is
    first scaled by REFERENCE_PROBE_NS / the speed probe measured next to it.
    """
    per_rep = [r["runs"][method] for r in reps]

    def scale(x: dict) -> list:
        if not at_reference_speed:
            return [1.0] * len(x["probe_ns"])
        return [REFERENCE_PROBE_NS / p for p in x["probe_ns"]]

    in_runs = sum(
        statistics.median(col)
        for col in zip(*([t * f for t, f in zip(x["run_ns"], scale(x))] for x in per_rep))
    )
    outside = statistics.median(
        (r["method_wall_s"][method] * 1e9 - sum(x["run_ns"]) - x["probe_total_ns"])
        * statistics.median(scale(x))
        for r, x in zip(reps, per_rep)
    )
    return (in_runs + outside) / 1e9


def probe_median_ns(report: dict) -> float:
    return statistics.median(p for x in report["runs"].values() for p in x["probe_ns"])


def ms_per_run(reps: list, methods, at_reference_speed: bool = True) -> float:
    methods = [m for m in reps[0]["runs"] if m in methods]
    runs = sum(len(reps[0]["runs"][m]["run_ns"]) for m in methods)
    seconds = sum(method_seconds(reps, m, at_reference_speed) for m in methods)
    return 1000.0 * seconds / runs


def median_of(dicts: list, key) -> float:
    """Median over repetitions; of an even count, the lower middle value."""
    return statistics.median_low(key(d) for d in dicts)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the result object plus the details to print."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    cfg = read_config(HERE / "workloads" / f"{workload}.cfg")
    reference = load_reference(workload)
    csv_path = OUT / f"{workload}.csv"
    failures: list[str] = []
    tally = {"cells": 0, "matched": 0, "checks": 0, "failed_checks": 0}

    def check(report: dict, run_seed: int, expected: str, label: str) -> None:
        for method, err in report["errors"].items():
            failures.append(f"{label}: {method} raised {err}")
        m, c = compare_cells(cfg, run_seed, report["csv"], expected)
        tally["cells"] += c
        tally["matched"] += m
        if m != c:
            failures.append(f"{label}: {c - m} of {c} cells differ from the reference")

    def require(ok: bool, message: str) -> None:
        tally["checks"] += 1
        if not ok:
            tally["failed_checks"] += 1
            failures.append(message)

    warm = spawn("plain", write_config(workload, REFERENCE_SEED), csv_path, deadline)
    check(warm, REFERENCE_SEED, reference, "reference child")
    require(warm["csv"] == reference, "reference child: CSV bytes differ from the recorded SHA-256")
    cfg_path = write_config(workload, seed)
    reps, traced = [], []
    t0 = time.monotonic()

    def time_left_for_another() -> bool:
        # Start another repetition only if one as long as the average so far
        # still ends within --seconds.
        spent = time.monotonic() - t0
        return spent + spent / max(len(traced) or len(reps), 1) <= seconds

    if not trace:
        while len(reps) < MIN_REPS or time_left_for_another():
            reps.append(spawn("timed", cfg_path, csv_path, deadline))
        for i, rep in enumerate(reps):
            check(rep, seed, reps[0]["csv"], f"repetition {i}")
    else:
        while not traced or time_left_for_another():
            k = len(traced)
            reps.append(spawn("plain", cfg_path, csv_path, deadline, importtime=True))
            spans = OUT / f"{workload}.spans{k}.npz"
            traced.append(spawn("traced", cfg_path, csv_path, deadline, spans=spans))
        for i, (rep, tr) in enumerate(zip(reps, traced)):
            check(rep, seed, reps[0]["csv"], f"untraced child {i}")
            require(tr["csv"] == rep["csv"], f"traced child {i}: CSV differs from the untraced CSV")

    metrics = {}
    if not trace:
        metrics["setup_s"] = (
            median_of(reps, lambda r: r["setup_s"] * REFERENCE_PROBE_NS / probe_median_ns(r)), "s"
        )
        metrics["runs_per_s"] = (1000.0 / ms_per_run(reps, cfg["methods"]), "runs/s")
        for group, methods in METHOD_GROUPS.items():
            metrics[f"ms_per_run.{group}"] = (ms_per_run(reps, methods), "ms")
        metrics["peak_rss_mb"] = (median_of(reps, lambda r: r["peak_rss_mb"]), "MB")
        metrics["matched_cell_share"] = (tally["matched"] / tally["cells"], "ratio")
        details = {
            f"ms_per_run.{metric_name(m)}": (ms_per_run(reps, (m,)), "ms")
            for m in cfg["methods"]
        }
        details["setup.import_qhtest_s"] = (median_of(reps, lambda r: r["import_qhtest_s"]), "s")
        details["setup.parse_config_s"] = (median_of(reps, lambda r: r["parse_config_s"]), "s")
        details["host.speed_probe_us"] = (median_of(reps, probe_median_ns) / 1e3, "us")
        details["wall.setup_s"] = (median_of(reps, lambda r: r["setup_s"]), "s")
        details["wall.runs_per_s"] = (
            1000.0 / ms_per_run(reps, cfg["methods"], at_reference_speed=False), "runs/s"
        )
        for group, methods in METHOD_GROUPS.items():
            details[f"wall.ms_per_run.{group}"] = (ms_per_run(reps, methods, False), "ms")
    else:
        spec = WORKLOADS[workload]
        summaries = [t["trace"] for t in traced]
        for key in summaries[0]:
            metrics[key] = (median_of(summaries, lambda s: s[key]), unit_of(key))
        for key in CACHE_METRICS:
            metrics[key] = (median_of(reps, lambda r: r["cache_entries"][key]), unit_of(key))
        metrics["setup.import_scipy_stats_s"] = (
            median_of(reps, lambda r: r["importtime_s"].get("scipy.stats", 0.0)), "s"
        )
        metrics["setup.import_qhtest_s"] = (median_of(reps, lambda r: r["import_qhtest_s"]), "s")
        metrics["setup.parse_config_s"] = (median_of(reps, lambda r: r["parse_config_s"]), "s")
        metrics["trace.overhead_ratio"] = (
            statistics.median(t["window_s"] / r["window_s"] for r, t in zip(reps, traced)),
            "ratio",
        )
        for i, summary in enumerate(summaries):
            for fn in spec["must_call"]:
                require(summary[f"{fn}.calls"] > 0,
                        f"traced child {i}: {fn} must be called but recorded 0 calls")
            for fn in spec["bypassed"]:
                calls = summary[f"{fn}.calls"]
                require(calls == 0, f"traced child {i}: bypassed {fn} recorded {calls} calls")
            coverage = summary["trace.coverage_share"]
            require(coverage >= MIN_COVERAGE,
                    f"traced child {i}: self times cover {coverage:.3f} of the traced window")
        details = {}

    result = {
        "correct": not failures,
        "attempted": tally["cells"] + tally["checks"],
        "failed": tally["cells"] - tally["matched"] + tally["failed_checks"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "repetitions": len(reps),
        "traced_repetitions": len(traced),
        "host": warm["host"],
        "per_repetition": [
            {k: r[k] for k in ("setup_s", "import_qhtest_s", "window_s",
                               "method_wall_s", "runs", "peak_rss_mb")}
            for r in reps + traced
        ],
        "failures": failures,
        "result": result,
        "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
    }
    (OUT / f"{workload}.seed{seed}.trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def print_record(record: dict) -> None:
    host = record["host"]
    print(
        f"host: nproc={host['nproc']} usable={host['cpus_usable']} cpu={host['cpu_model']!r} "
        f"python={host['python']} numpy={host['numpy']} scipy={host['scipy']} "
        f"blas={host['blas']!r} threads={host['threads']}"
    )
    print(
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{record['repetitions']} untraced and {record['traced_repetitions']} traced repetitions"
    )
    rows = {**record["result"]["metrics"], **record["details"]}
    for name, m in rows.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, help=f"one of {sorted(WORKLOADS)} or all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print_record(record)
    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {
                f"{r['workload']}/{k}": v for r in records for k, v in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
