"""gammaconn benchmark: one run of one workload.

    python3 perfbench/run.py --workload sparse_compute --seed 20240801 --seconds 40 --trace 0

Run from the root of a source checkout. Each repetition is a fresh worker
process (worker.py) that sets up its inputs and makes one closed-loop pass
over the workload's batch: one client, one operation at a time. Passes
repeat until the next one would end past ``--seconds`` (at least two run).
BLAS and OpenMP threads are pinned to one.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced passes. ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics from the traced ones, plus the tracing
overhead. The last line of standard output is the JSON result; the exit
code is 1 if any output check failed, 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # every worker is stopped by then


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def _spawn(workload, seed, flags, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0", **{k: "1" for k in THREAD_VARS})
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker passed the {RUN_LIMIT_S} s run limit") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchmarkError("worker printed no result") from None


def _percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(untraced, setups):
    # Each operation's latency is its median over the run's passes, which
    # drops a stall that hit one pass; wall_s and the percentiles use these.
    per_op = [statistics.median(lat) for lat in zip(*(p["latencies"] for p in untraced))]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_op),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_p99_ms": 1e3 * _percentile(per_op, 99),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }


def per_layer(untraced, traced):
    names = traced[0]["layers"]
    out = {k: statistics.median(p["layers"][k] for p in traced) for k in names}
    plain = statistics.median(p["wall_s"] for p in untraced)
    out["trace.overhead_frac"] = statistics.median(p["wall_s"] for p in traced) / plain - 1
    return out


def run(workload, seed, seconds, trace, worker_flags=()):
    """Run one workload; returns (result dict, lines to print before it)."""
    if not (ROOT / "src" / "gammaconn" / "__init__.py").is_file():
        raise BenchmarkError(f"no gammaconn sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        flags = list(worker_flags)
        if traced:
            spans = ROOT / ".perfbench" / f"spans-{workload}-{len(passes)}.jsonl"
            flags += ["--trace", "--spans-out", str(spans)]
        began = time.monotonic()
        result = _spawn(workload, seed, flags, deadline)
        result["traced"] = traced
        passes.append(result)
        now = time.monotonic()
        if len(passes) >= MIN_PASSES and now - start + (now - began) > seconds:
            break
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    setups = [p["setup_s"] for p in untraced]
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(workload, seed, [*worker_flags, "--setup-only"],
                                 deadline)["setup_s"])

    if trace:
        values, declared = per_layer(untraced, traced), spec["per_layer"]
    else:
        values, declared = end_to_end(untraced, setups), spec["end_to_end"]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    consistent = all(p["trace_consistent"] for p in traced)

    lines = [f"# workload={workload} seed={seed} seconds={seconds} trace={int(trace)}"
             f" passes={len(untraced)} untraced + {len(traced)} traced",
             "# env " + json.dumps(passes[0]["env"], sort_keys=True)]
    for i, p in enumerate(passes):
        lines.append(f"# pass {i} traced={p['traced']} setup_s={p['setup_s']:.4f}"
                     f" wall_s={p['wall_s']:.4f} failed={p['failed']}")
        for label, problems in p["problems"]:
            lines.append(f"# FAILED {label}: {'; '.join(problems)}")
    if not consistent:
        lines.append("# FAILED span self times exceed the pass wall time")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        lines.append(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    lines.append(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} operations)")
    result = {"correct": failed == 0 and consistent, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None, worker_flags=()):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20240801)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace),
                            worker_flags)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
