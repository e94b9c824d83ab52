"""One benchmark process: imports the package from the checkout and runs a workload.

Started by run.py, one process per workload run, so that peak RSS belongs
to that workload alone. Modes:

- ``setup``: import chaoticity, parse and validate the configs, print
  ``ready`` and exit.
- ``measure``: run passes of the workload (every config through
  ``run_experiment``, ``parallel = 1``) for about ``--seconds`` and check
  every table. Between passes, time cold starts of ``setup`` workers;
  spreading them over the run follows the machine's speed through it.
- ``trace``: alternate untraced and traced passes; report per-layer metrics
  of the median traced pass and write its spans.
- ``reference``: write the reference rows at the default seed.

The last line on stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402

import chaoticity  # noqa: E402
from chaoticity import linalg, parse_config, run_experiment  # noqa: E402

if not Path(chaoticity.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"chaoticity was imported from {chaoticity.__file__}, not from {SRC}")

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
# Cold starts timed before the first pass and after each pass.
PROBES_PER_GAP = 2
# A wrong kernel for --fault: trace norms off by one part in 1e8.
FAULT_SCALE = 1.0 + 1e-8


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def inject_fault() -> None:
    """Rebind linalg.trace_norm to a slightly wrong version everywhere."""
    original = linalg.trace_norm

    def wrong_trace_norm(m):
        return original(m) * FAULT_SCALE

    tracer.rebind(original, wrong_trace_norm)


class Checker:
    """Checks every table; counts attempted and failed experiment runs.

    At the default seed each table is compared with the checked-in
    reference rows. At any other seed the first pass becomes the reference
    and later passes must reproduce its rows byte for byte. Bound and
    Gronwall flags must hold in every table.
    """

    def __init__(self, workload: str, size: str, seed: int):
        self.reference = (workloads.load_reference(workload, size)
                          if seed == workloads.DEFAULT_SEED else None)
        self.first_rows: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.max_abs_delta = 0.0

    def check_pass(self, tables) -> None:
        rows = [workloads.rows_bytes(t) for t in tables]
        for i, table in enumerate(tables):
            self.attempted += 1
            problems = workloads.check_flags(table)
            if "error" in table.metadata:
                problems.append(f"{table.metadata['kind']}: {table.metadata['error']}")
            if self.reference is not None:
                found, delta = workloads.compare_to_reference(table, self.reference[i])
                problems += found
                self.max_abs_delta = max(self.max_abs_delta, delta)
            elif self.first_rows is not None and rows[i] != self.first_rows[i]:
                problems.append(f"{table.metadata['kind']}: rows differ from the first pass")
            if problems:
                self.failed += 1
                self.failures += problems[:5]
        if self.first_rows is None:
            self.first_rows = rows


def run_pass(configs) -> tuple[float, list]:
    start = time.perf_counter()
    tables = [run_experiment(c, parallel=1) for c in configs]
    return time.perf_counter() - start, tables


def keep_going(elapsed: float, times: list[float], seconds: float, min_passes: int) -> bool:
    """Another pass fits in the time left, or too few passes ran yet."""
    return len(times) < min_passes or elapsed + statistics.median(times) <= seconds


def setup_seconds(setup_argv: list[str]) -> float:
    """Process start to an imported package and parsed configs, in a fresh process."""
    start = time.perf_counter()
    with subprocess.Popen(setup_argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up worker failed (exit {code})")
    return elapsed


def measure(configs, checker: Checker, seconds: float, setup_argv: list[str]) -> dict:
    times: list[float] = []
    setups = [setup_seconds(setup_argv) for _ in range(PROBES_PER_GAP)]
    start = time.perf_counter()
    while keep_going(time.perf_counter() - start, times, seconds, MIN_PASSES):
        elapsed, tables = run_pass(configs)
        times.append(elapsed)
        checker.check_pass(tables)
        setups += [setup_seconds(setup_argv) for _ in range(PROBES_PER_GAP)]
    return {"pass_s": times, "setup_s": setups, "window_s": time.perf_counter() - start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def trace(configs, checker: Checker, seconds: float, spans_path: Path) -> dict:
    tr = tracer.Tracer()
    plain: list[float] = []
    traced: list[tuple[float, dict, list]] = []
    problems: list[str] = []
    start = time.perf_counter()
    while keep_going(time.perf_counter() - start, [p + t[0] for p, t in zip(plain, traced)], seconds, 2):
        elapsed, plain_tables = run_pass(configs)
        plain.append(elapsed)
        checker.check_pass(plain_tables)
        tr.reset()
        tr.install()
        try:
            elapsed, traced_tables = run_pass(configs)
        finally:
            tr.uninstall()
        checker.check_pass(traced_tables)
        if [workloads.rows_bytes(t) for t in traced_tables] != [workloads.rows_bytes(t) for t in plain_tables]:
            problems.append("traced rows differ from untraced rows")
        traced.append((elapsed, tracer.layer_metrics(tr.spans, tr.counters, elapsed), list(tr.spans)))

    counts = {m: [t[1][m] for t in traced] for m in tracer.COMPUTED_METRICS}
    for metric, values in counts.items():
        if len(set(values)) != 1:
            problems.append(f"computed counter {metric} changed between passes: {values}")
    if problems:
        checker.failed += 1
        checker.failures += problems

    traced.sort(key=lambda t: t[0])
    run_s, layers, spans = traced[(len(traced) - 1) // 2]
    layers["trace.run_s"] = run_s
    layers["trace.overhead_frac"] = statistics.median(t[0] for t in traced) / statistics.median(plain) - 1.0
    layers["rows.max_abs_delta"] = checker.max_abs_delta
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"], "pass_s": run_s,
                   "spans": [[n, round(s, 9), round(e, 9), p] for n, s, e, p in spans]}, fh)
    return {"pass_s": plain, "traced_s": sorted(t[0] for t in traced),
            "layers": layers, "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "reference"), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--fault", action="store_true", help="run with a deliberately wrong trace norm")
    ap.add_argument("--spans", default=".bench_out/spans.json")
    args = ap.parse_args(argv)

    configs = [parse_config(text) for text in
               workloads.config_documents(args.workload, args.size, args.seed)]
    if args.mode == "setup":
        print("ready", flush=True)
        return 0
    if args.fault:
        inject_fault()
    if args.mode == "reference":
        _, tables = run_pass(configs)
        checker = Checker(args.workload, args.size, seed=-1)
        checker.check_pass(tables)
        if checker.failed:
            sys.exit("refusing to write failing rows: " + "; ".join(checker.failures))
        path = workloads.write_reference(args.workload, args.size, tables)
        print(json.dumps({"written": str(path.relative_to(ROOT))}))
        return 0

    checker = Checker(args.workload, args.size, args.seed)
    if args.mode == "measure":
        setup_argv = [sys.executable, str(Path(__file__).resolve()), "--mode", "setup",
                      "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
        result = measure(configs, checker, args.seconds, setup_argv)
    else:
        result = trace(configs, checker, args.seconds, ROOT / args.spans)
    result.update(attempted=checker.attempted, failed=checker.failed,
                  failures=checker.failures[:20], max_abs_delta=checker.max_abs_delta,
                  env=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
