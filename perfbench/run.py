"""Benchmark of daverify: time to verdict on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs cold passes of one workload, one after another, each in a fresh worker
process (worker.py), until S seconds have gone by. Checks every pass's
output, then prints one JSON line per run: first the machine record and the
per-pass figures, last the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, as
medians over the passes; each pass is preceded by set-up probes, so setup_s
is a median over several samples per pass. With --trace 1 passes alternate
between traced and untraced, and the metrics are the per-layer metrics:
medians over the traced passes, plus the CPU time and the tracing overhead
from the untraced ones. The spans of the last traced pass are left in
.perfbench-spans/ of the checkout. See README.md for the metrics and why each
workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_TIMEOUT_S = 170.0
SETUP_PROBES_PER_PASS = 2


class BenchmarkError(RuntimeError):
    pass


def worker_env() -> dict:
    """The environment of a worker: one BLAS thread per usable CPU."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def run_worker(args: list[str], env: dict) -> tuple[float, str]:
    """Start one worker and wait for it. Returns its set-up time, from the
    start of the interpreter to the worker's ``ready`` line, and the rest of
    its output."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready != "ready\n" or code != 0:
        raise BenchmarkError(f"worker {' '.join(args)} exited with code {code}")
    return setup_s, rest


def run_pass(workload: str, seed: int, traced: bool, workdir: str, env: dict) -> dict:
    """One timed pass. An untraced pass is preceded by set-up probes: workers
    that exit once ready, so that setup_s has several samples per pass."""
    args = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
    probes = [] if traced else [run_worker(args + ["--setup-only"], env)[0]
                                for _ in range(SETUP_PROBES_PER_PASS)]
    if traced:
        args += ["--trace", "1", "--spans", str(spans_path(workload, seed))]
    setup_s, rest = run_worker(args, env)
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_samples"] = [*probes, setup_s]
    result["traced"] = traced
    return result


def spans_path(workload: str, seed: int) -> Path:
    """Where a traced run leaves the spans of its last traced pass."""
    return ROOT / ".perfbench-spans" / f"{workload}-seed{seed}.json.gz"


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Passes until `seconds` have gone by; a traced run alternates traced
    and untraced passes and has at least one of each."""
    env = worker_env()
    passes: list[dict] = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        while True:
            traced = trace and len(passes) % 2 == 0
            passes.append(run_pass(workload, seed, traced, workdir, env))
            enough = len(passes) >= (2 if trace else 1)
            if enough and time.perf_counter() - start >= seconds:
                return passes


def metrics_of(passes: list[dict], trace: bool) -> dict[str, float]:
    plain = [p for p in passes if not p["traced"]]
    if not trace:
        return {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(t for p in plain for t in p["setup_samples"]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    traced = [p for p in passes if p["traced"]]
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    metrics["cli.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running worker is
    # killed and waited for, and the work directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "daverify" / "__init__.py").is_file():
        print(f"error: no daverify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = metrics_of(passes, bool(args.trace))
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    checks = [(name, ok) for p in passes for name, ok in p["checks"]]
    # Passes of one seed must give byte-identical output, where the workload
    # has one (the report, for verdict-default).
    if passes[0]["digest"]:
        checks.append(("run/output-identical-across-passes",
                       len({p["digest"] for p in passes}) == 1))
    failed = [name for name, ok in checks if not ok]
    for name in sorted(set(failed)):
        print(f"check failed: {name}", file=sys.stderr)

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "machine": passes[0]["machine"],
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "spans": (str(spans_path(args.workload, args.seed).relative_to(ROOT))
                  if args.trace else None),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_setup_s": [p["setup_samples"] for p in passes],
        "pass_peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
