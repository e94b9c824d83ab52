"""Benchmark of the chaoticity experiment kinds, end to end and layer by layer.

    python3 bench/run.py --workload propagate-n10 --seed 12345 --seconds 35 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another
    python3 bench/run.py --self-check              # tiny sizes, checks the benchmark itself
    python3 bench/run.py --write-reference         # regenerate the reference rows

Each workload run gets its own worker process (worker.py), so that its peak
RSS belongs to that workload alone; set-up time is the median of cold
starts of further worker processes, timed between its passes. With ``--trace 0`` the last stdout line carries the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
metrics of a traced run. Every table is checked (see worker.Checker); the
exit code is 1 when any check fails and 2 when the checkout has no package
to benchmark. Results and spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

# A workload run must end within this many seconds, set-up included.
RUN_DEADLINE_S = 170.0


def fail_setup(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    """Workers run BLAS on one thread.

    One thread is at or below nproc on any machine, and it gave steadier
    pass times on a shared two-core box than two threads did.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker_args(mode: str, workload: str, seed: int, size: str) -> list[str]:
    return [sys.executable, str(WORKER), "--mode", mode, "--workload", workload,
            "--seed", str(seed), "--size", size]


def run_worker(argv: list[str], timeout: float) -> dict:
    proc = subprocess.run(argv, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def distribution(values: list[float]) -> dict | None:
    """Median, quartiles and count of a sample, as the report prints them."""
    if not values:
        return None
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1 else (values[0], values[0]))
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "samples": values}


def run_workload(workload: str, seed: int, seconds: float, traced: bool, size: str,
                 fault: bool) -> dict:
    """Measure one workload; returns {'correct', 'attempted', 'failed', 'metrics', ...}."""
    name = f"{workload}-seed{seed}" + ("-tiny" if size != "full" else "")
    argv = worker_args("trace" if traced else "measure", workload, seed, size)
    argv += ["--seconds", str(seconds), "--spans", str((OUT / f"{name}.spans.json").relative_to(ROOT))]
    if fault:
        argv.append("--fault")
    res = run_worker(argv, RUN_DEADLINE_S)

    if traced:
        metrics = res["layers"]
    else:
        metrics = {"run_s": statistics.median(res["pass_s"]),
                   "setup_s": statistics.median(res["setup_s"]),
                   "peak_rss_mb": res["peak_rss_mb"]}
    summary = {
        "workload": workload, "seed": seed, "size": size, "traced": traced,
        "correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
        "fail_frac": res["failed"] / res["attempted"],
        "run_s": distribution(res["pass_s"]),
        "setup_s": distribution(res.get("setup_s", [])),
        "peak_rss_mb": res.get("peak_rss_mb"),
        "metrics": metrics, "failures": res["failures"],
        "env": dict(res["env"], git_sha=git_sha()),
    }
    if traced:
        summary["traced_s"] = res["traced_s"]
        summary["spans_file"] = res["spans_file"]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-trace{int(traced)}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def print_report(s: dict, spec: dict) -> None:
    env = s["env"]
    print(f"== {s['workload']} (seed {s['seed']}, {s['size']}, trace {int(s['traced'])}) "
          f"git {env['git_sha'][:12]}, python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']} x{env['blas_threads']} threads, nproc {env['nproc']}")
    for name in ("run_s", "setup_s"):
        d = s[name]
        if d is not None:
            print(f"  {name:12s} {d['median']:.4f} s   "
                  f"(median; q1 {d['q1']:.4f}, q3 {d['q3']:.4f}, n={d['n']})")
    if s["peak_rss_mb"] is not None:
        print(f"  peak_rss_mb  {s['peak_rss_mb']:.1f} MB")
    print(f"  fail_frac    {s['fail_frac']:.4f}   ({s['failed']} of {s['attempted']} experiment runs failed)")
    if s["traced"]:
        for m in spec["per_layer"]:
            label = " (computed)" if m["name"] in tracer.COMPUTED_METRICS else ""
            print(f"  {m['name']:32s} {s['metrics'].get(m['name'], float('nan')):.6g} {m['unit']}{label}")
    for line in s["failures"]:
        print(f"  FAILED: {line}")


def result_line(s: dict, spec: dict) -> dict:
    kind = "per_layer" if s["traced"] else "end_to_end"
    metrics = {m["name"]: {"value": s["metrics"][m["name"]], "unit": m["unit"]} for m in spec[kind]}
    return {"correct": s["correct"], "attempted": s["attempted"], "failed": s["failed"],
            "metrics": metrics}


def self_check(spec: dict) -> int:
    """Tiny runs of every workload: names, units, predicted zeros, failing row checks."""
    with open(HERE / "predictions.json", encoding="utf-8") as fh:
        predictions = json.load(fh)
    problems = []
    for w in workloads.WORKLOADS:
        for traced in (False, True):
            s = run_workload(w, workloads.DEFAULT_SEED, 1.0, traced, "tiny", fault=False)
            print_report(s, spec)
            line = result_line(s, spec)
            if not s["correct"]:
                problems.append(f"{w}: tiny run failed its checks")
            kind = "per_layer" if traced else "end_to_end"
            if set(s["metrics"]) != {m["name"] for m in spec[kind]}:
                problems.append(f"{w}: emitted {sorted(s['metrics'])}, BENCHMARK.json names "
                                f"{sorted(m['name'] for m in spec[kind])}")
            if not all(isinstance(v["value"], (int, float)) and v["unit"] for v in line["metrics"].values()):
                problems.append(f"{w}: a metric lacks a numeric value or a unit")
            if traced:
                m = s["metrics"]
                parts = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
                if abs(parts + m["experiments.self_s"] - m["trace.run_s"]) > 1e-9 * max(1.0, m["trace.run_s"]):
                    problems.append(f"{w}: layer self times do not add up to the traced run_s")
                for p in predictions:
                    if w in p["zero_on"]:
                        problems += [f"{w}: {name} = {m[name]}, predicted 0"
                                     for name in p["layer_metrics"] if m[name] != 0]
    for w in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", w,
                               "--seconds", "1", "--size", "tiny", "--fault"],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_DEADLINE_S)
        if proc.returncode == 0:
            problems.append(f"{w}: a wrong trace norm passed the row check")
        else:
            print(f"== {w} with a wrong trace norm: exit {proc.returncode}, as required")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--fault", action="store_true",
                    help="run with a deliberately wrong kernel; the row check must fail")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "chaoticity" / "__init__.py").is_file():
        return fail_setup(f"no package at {ROOT / 'src' / 'chaoticity'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail_setup(f"no BENCHMARK.json in {ROOT}")
    spec = load_spec()

    if args.self_check:
        return self_check(spec)
    if args.write_reference:
        for w in workloads.WORKLOADS:
            for size in ("full", "tiny"):
                print(run_worker(worker_args("reference", w, workloads.DEFAULT_SEED, size),
                                 600)["written"])
        return 0

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for w in names:
        s = run_workload(w, args.seed, args.seconds, bool(args.trace), args.size, args.fault)
        print_report(s, spec)
        summaries.append(s)
    lines = [result_line(s, spec) for s in summaries]
    if len(lines) == 1:
        result = lines[0]
    else:
        result = {"correct": all(x["correct"] for x in lines),
                  "attempted": sum(x["attempted"] for x in lines),
                  "failed": sum(x["failed"] for x in lines),
                  "metrics": {f"{s['workload']}.{k}": v for s, x in zip(summaries, lines)
                              for k, v in x["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
