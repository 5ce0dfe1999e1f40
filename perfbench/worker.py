"""One benchmark repetition in a fresh process: set up, one timed pass, checks.

Started by run.py, never by hand. Prints one JSON object on standard output.
Set-up time runs from the parent's clock reading just before it started
this process (``--t0``, CLOCK_MONOTONIC is shared by all processes) to the
first timed operation, so it covers interpreter start, imports, input
generation, writing the edge lists and computing the references.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    # self-test switches: tiny inputs, and a reference made wrong on purpose
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    if args.workload not in workloads.SETUPS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.SETUPS)}")

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        ops = workloads.SETUPS[args.workload](
            args.seed, workdir, tiny=args.tiny, corrupt=args.corrupt_reference)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s, "env": environment(args.seed)}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        latencies = []
        problems = []
        output_bytes = 0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.op = None
            if isinstance(out, workloads.CliOutput):
                output_bytes += len(out.text.encode())
            found = [error] if error else op.check(out)
            if found:
                problems.append([op.label, found])
            del out

    wall_s = sum(latencies)
    result.update({
        "wall_s": wall_s,
        "latencies": latencies,
        "failed": len(problems),
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer is not None:
        layers = tracing.layer_metrics(
            tracer.spans, wall_s, tracing.op_vertex_counts(tracer.spans, len(ops)),
            output_bytes)
        result["layers"] = layers
        # self times of the spans inside operations cannot exceed the pass
        result["trace_consistent"] = layers["trace.outside_s"] >= 0
        if args.spans_out:
            tracing.write_spans(tracer.spans, args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
