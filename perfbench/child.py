"""One benchmark repetition in a fresh interpreter.

Run by run.py, never imported by it, so qhtest's module-level memo dicts
start empty as they do in a `qhtest sweep` process. The script imports
qhtest, parses the workload config through the public harness, runs
`harness.run_sweep` once per method with the full budget tuple, writes the
concatenated rows with `harness.emit_results`, and prints one JSON line
with its timings, the CSV text, cache sizes and peak memory.

Modes:
  plain   no instrumentation
  timed   every Monte Carlo run is timed at the harness boundary, and the
          speed probe below runs between runs to record how fast the host
          was running this process at the time
  traced  the functions in tracer.LAYERS are wrapped before the config is
          parsed; the spans are written to SPANS after the sweep and the JSON
          line carries tracer.Tracer.summary()

Usage: child.py MODE CONFIG CSV_OUT SPAWN_NS [SPANS]
where SPAWN_NS is time.monotonic_ns() in the parent just before it started
this process.
"""

import dataclasses
import json
import math
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")

# The functions `harness.run_sweep` calls once per Monte Carlo run.
RUN_ENTRY_POINTS = ("run_sequential_test", "run_lht", "run_blht", "run_lvt", "run_blvt")

# Runs finishing less than this long after the last probe share the next one.
PROBE_EVERY_NS = 20_000_000


def main(argv):
    mode, config_path, csv_path, spawn_ns = argv[0], argv[1], argv[2], int(argv[3])
    if mode not in ("plain", "timed", "traced"):
        raise SystemExit(f"unknown mode {mode!r}")

    t0 = time.perf_counter()
    import qhtest
    from qhtest import baselines, engine, family, harness

    t_import = time.perf_counter() - t0
    if not os.path.realpath(qhtest.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported qhtest from {qhtest.__file__}, expected it under {SRC}")

    tracer = timer = None
    if mode == "traced":
        from tracer import Tracer  # perfbench/ is sys.path[0] for this script

        tracer = Tracer()
        tracer.install()
    elif mode == "timed":
        timer = RunTimer(harness)

    t_window = time.perf_counter()
    config = harness.parse_config(config_path)
    setup_end_ns = time.monotonic_ns()
    t_parse = time.perf_counter() - t_window

    walls, runs, errors, rows = {}, {}, {}, []
    for method in config.methods:
        sub = dataclasses.replace(config, methods=(method,))
        t = time.perf_counter()
        try:
            method_rows = harness.run_sweep(sub)
        except Exception as exc:  # a failed method leaves its cells missing
            errors[method] = f"{type(exc).__name__}: {exc}"
            method_rows = []
        if timer:
            runs[method] = timer.take()
        walls[method] = time.perf_counter() - t
        rows.extend(method_rows)
    harness.emit_results(rows, csv_path)
    window_s = time.perf_counter() - t_window

    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(csv_path, encoding="ascii") as fh:
        csv_text = fh.read()
    result = {
        "setup_s": (setup_end_ns - spawn_ns) / 1e9,
        "import_qhtest_s": t_import,
        "parse_config_s": t_parse,
        "window_s": window_s,
        "method_wall_s": walls,
        "runs": runs,
        "errors": errors,
        "csv": csv_text,
        "peak_rss_mb": (self_rss + child_rss) / 1024.0,
        "cache_entries": {
            "engine.design_cache.entries": len(engine._design_cache),
            "baselines.u_cache.entries": len(baselines._u_cache),
            "family.node_cache.entries": len(family._node_cache),
        },
        "host": host_info(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary(window_s)
        tracer.save(argv[4])
    print(json.dumps(result))


_PROBE_DATA = []


def _probe_once() -> float:
    import numpy as np

    if not _PROBE_DATA:
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        _PROBE_DATA.extend((m + m.conj().T, rng.standard_normal(64)))
    mat, vec = _PROBE_DATA
    total = 0.0
    for i in range(6):
        total += float(np.linalg.eigvalsh(mat)[0]) + float(vec @ vec) + math.cos(i)
    return total


def speed_probe_ns() -> int:
    """Time of a fixed computation owned by the benchmark, after a warm-up call.

    The mix of small numpy calls, a LAPACK eigensolve and interpreter work
    resembles the sweep's own, so its time tracks how fast the host runs this
    process right now. It reads no qhtest state and draws nothing from the
    sweep's random generators.
    """
    _probe_once()
    t = time.perf_counter_ns()
    _probe_once()
    return time.perf_counter_ns() - t


class RunTimer:
    """Times each Monte Carlo run and the host speed around it.

    One clock pair brackets each run's entry call from `harness.run_sweep`.
    After a run, once PROBE_EVERY_NS has passed since the last probe, the
    speed probe runs and its time is assigned to every run since the
    previous probe. Probe time is kept apart from run time.
    """

    def __init__(self, harness):
        self.run_ns: list[int] = []
        self.probe_ns: list[int] = []
        self.probe_total_ns = 0
        self._last_probe = time.perf_counter_ns()
        for name in RUN_ENTRY_POINTS:
            setattr(harness, name, self._timed(getattr(harness, name)))

    def _timed(self, fn):
        now = time.perf_counter_ns

        def call(*args, **kwargs):
            t = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                self.run_ns.append(end - t)
                if end - self._last_probe >= PROBE_EVERY_NS:
                    self._probe()

        return call

    def _probe(self):
        t = time.perf_counter_ns()
        probe = speed_probe_ns()
        self.probe_ns.extend([probe] * (len(self.run_ns) - len(self.probe_ns)))
        self._last_probe = time.perf_counter_ns()
        self.probe_total_ns += self._last_probe - t

    def take(self) -> dict:
        """This method's run and probe times; resets for the next method."""
        if len(self.probe_ns) < len(self.run_ns):
            self._probe()
        out = {
            "run_ns": self.run_ns,
            "probe_ns": self.probe_ns,
            "probe_total_ns": self.probe_total_ns,
        }
        self.run_ns, self.probe_ns, self.probe_total_ns = [], [], 0
        return out


def host_info():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


if __name__ == "__main__":
    main(sys.argv[1:])
