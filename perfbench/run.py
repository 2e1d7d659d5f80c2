"""flowlag benchmark: one workload per run, end to end or traced per module.

Usage, from the repository root:

    python3 perfbench/run.py --workload {train,lag-sweep,oracle-sweep} \\
        --seed N --seconds S --trace {0,1}

The BLAS/OpenMP thread cap (min(2, nproc)) is set before numpy is
imported.  The program is imported from ``src/`` of this checkout.  With
``--trace 0`` the run times imports plus setup in this process and in
COLD_SETUPS - 1 fresh child processes, so every timed setup is the first
in its process, then runs whole rounds of the workload's operations
while the next round is predicted to end within ``--seconds`` (at least
one), and reports the end-to-end metrics.
With ``--trace 1`` it runs operations untraced for about half of
``--seconds``, then one round traced, and reports the per-layer metrics;
the spans go to ``.perfbench/trace-<workload>-seed<N>.json``.  Every run
checks each operation's output; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import platform
import resource
import shutil
import subprocess
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
COLD_SETUPS = 3
MAX_THREADS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("train", "lag-sweep", "oracle-sweep")
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: import and set up only, then print the cold setup time
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cap_threads() -> tuple:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cap = max(1, min(MAX_THREADS, nproc or 1))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap, nproc


def env_stamp(cap: int, nproc: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.26 has no dict mode
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"), "thread_cap": cap,
            "nproc": nproc, "python": platform.python_version(), "cpu": cpu}


def child_setup_s(args) -> float:
    """Imports plus setup, timed in a fresh process of this script."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_op(op, tracer=None):
    """Time one operation, then check its output outside the timed (and traced) part.

    Returns (wall seconds, failure messages, rank-deficiency warnings).
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = perf_counter()
        try:
            result, failures = op.run(), None
        except Exception as exc:   # an operation that raises is a failed operation
            result, failures = None, [f"{type(exc).__name__}: {exc}"]
        wall = perf_counter() - start
    rank = sum("rank-deficient" in str(w.message) for w in caught)
    if failures is None:
        with tracer.paused() if tracer is not None else nullcontext():
            try:
                failures = op.check(result)
            except Exception as exc:
                failures = [f"check raised {type(exc).__name__}: {exc}"]
    return wall, [f"{op.label}: {f}" for f in failures], rank


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []     # one entry per failed operation

    def add(self, failures) -> None:
        self.attempted += 1
        if failures:
            self.failures.append("; ".join(failures))
            print(f"FAILED {self.failures[-1]}", file=sys.stderr)


def measure(workload, seconds: float, tally: Tally) -> dict:
    start = perf_counter()
    walls, work = [], []
    while True:
        ops = workload.ops()
        round_wall = 0.0
        for op in ops:
            wall, failures, _ = run_op(op)
            tally.add(failures)
            round_wall += wall
        walls.append(round_wall)
        work.append(sum(op.work for op in ops))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(walls) > seconds:
            return {"rounds": len(walls), "walls": walls, "work": work}


def measure_traced(workload, seconds: float, tally: Tally, modules):
    from perfbench.spans import Tracer

    untraced = []
    start = perf_counter()
    for op in workload.ops():
        wall, failures, _ = run_op(op)
        tally.add(failures)
        untraced.append(wall)
        if perf_counter() - start >= seconds / 2:
            break
    tracer = Tracer()
    traced, rank_warnings = [], 0
    with tracer.instrument(modules):
        for op in workload.ops():
            wall, failures, rank = run_op(op, tracer)
            tally.add(failures)
            traced.append(wall)
            rank_warnings += rank
    n = len(untraced)
    overhead_pct = 100.0 * (sum(traced[:n]) / sum(untraced) - 1.0)
    return tracer.spans, sum(traced), overhead_pct, rank_warnings


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "flowlag" / "__init__.py").is_file():
        print(f"benchmark error: no flowlag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("benchmark error: --seconds must be positive", file=sys.stderr)
        return 2
    cap, nproc = cap_threads()

    t0 = perf_counter()
    import numpy as np

    import flowlag
    modules = [importlib.import_module(f"flowlag.{m.name}")
               for m in pkgutil.iter_modules(flowlag.__path__)]
    from perfbench.workloads import WORKLOADS
    import_s = perf_counter() - t0

    out_dir = ROOT / ".perfbench"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        t = perf_counter()
        workload.setup()
        setup_s = import_s + perf_counter() - t
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        from perfbench import layers
        stamp = env_stamp(cap, nproc)
        print("env " + json.dumps(stamp))
        tally = Tally()
        if args.trace:
            spans, traced_wall, overhead_pct, rank_warnings = measure_traced(
                workload, args.seconds, tally, modules)
            metrics = layers.layer_metrics(spans, workload.layer_context(), traced_wall,
                                           overhead_pct, rank_warnings)
            # every span's self time together must account for the traced wall
            # time, up to what tracing itself adds; counted as one more check
            slack = max(metrics["trace_overhead_pct"], 1.0)
            gap = metrics["trace_unattributed_pct"]
            tally.add([] if -0.5 <= gap <= slack else
                      [f"span self times leave {gap:.3g}% of the traced wall time "
                       f"unattributed (allowed {slack:.3g}%)"])
            from perfbench.spans import write_spans
            write_spans(out_dir / f"trace-{args.workload}-seed{args.seed}.json", spans,
                        {"workload": args.workload, "seed": args.seed, "env": stamp,
                         "traced_wall_s": traced_wall})
            units = layers.UNITS
            summary = {}
        else:
            setup_s = float(np.median([setup_s] + [child_setup_s(args)
                                                    for _ in range(COLD_SETUPS - 1)]))
            run = measure(workload, args.seconds, tally)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rate = float(np.median(np.divide(run["work"], run["walls"])))
            metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "work_per_s": rate}
            units = END_TO_END_UNITS
            extra = workload.summary(run["walls"]) if hasattr(workload, "summary") else {}
            summary = {workload.rate_name: (rate, "1/s"), **extra,
                       "rounds": (run["rounds"], "count")}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(tally.failures)
    summary = {"setup_s": (setup_s, "s"), **summary,
               "ops_failed_ratio": (failed / max(tally.attempted, 1),
                                    f"of {tally.attempted} ops")}
    for name, (value, unit) in summary.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "workload": args.workload, "seed": args.seed, "env": stamp,
                    "work_unit": workload.work_unit,
                    "summary": {k: v[0] for k, v in summary.items()},
                    "failures": tally.failures[:20]}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    sys.exit(main())
