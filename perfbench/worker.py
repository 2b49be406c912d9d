"""One pass of a benchmark workload, in a fresh interpreter.

Started by run.py, one worker at a time. Prints the line ``ready`` once
daverify is imported and the workload's seeded inputs are built (run.py
times this as set-up), then times one cold pass and prints its result as one
JSON line. With --setup-only it exits once ready. A traced pass writes its
spans to the --spans file after the timed region.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --workdir DIR
                                [--setup-only] [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def machine_record() -> dict:
    affinity = sorted(os.sched_getaffinity(0))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(affinity),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workloads.reset_caches()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        # `daverify all` prints one line per stage; keep it off the protocol.
        with contextlib.redirect_stdout(io.StringIO()):
            cpu0, t0 = time.process_time(), time.perf_counter()
            outputs = workload.run(inputs, args.workdir)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, digest = workload.check(outputs)
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "digest": digest,
        "machine": machine_record(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if args.spans is not None:
            tracer.dump_spans(args.spans, workload=args.workload, seed=args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
