"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted on every workload,
that a reference made wrong on purpose is counted as a failed operation and
makes the command exit nonzero, that span self times stay within the pass
wall time, and that the tracer reaches functions imported by name.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import tracing

TINY = ["--tiny"]
SEED = 7


def check_metrics(spec, failures):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, _ = run.run(workload, SEED, 1, trace, TINY)
            where = f"{workload} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                failures.append(f"{where}: checks failed on correct inputs")
            missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
            if missing:
                failures.append(f"{where}: metrics not emitted: {missing}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    failures.append(f"{where}: {name} is not a number")
            if trace and result["metrics"]["trace.outside_s"]["value"] < 0:
                failures.append(f"{where}: span self times exceed the pass wall time")


def check_wrong_reference(spec, failures):
    for workload in (w["name"] for w in spec["workloads"]):
        out = io.StringIO()
        argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "0"]
        with contextlib.redirect_stdout(out):
            code = run.main(argv, worker_flags=[*TINY, "--corrupt-reference"])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        if code == 0 or result["correct"] or result["failed"] < 1:
            failures.append(f"{workload}: a wrong reference was not counted as failed")


def check_self_times(failures):
    # root [0, 10] > child [2, 5] > grandchild [3, 4], plus a second root [11, 12]
    spans = [["a", None, 0, 0.0, 10.0, 0, 0, False],
             ["b", 0, 0, 2.0, 5.0, 0, 0, False],
             ["c", 1, 0, 3.0, 4.0, 0, 0, False],
             ["d", None, 0, 11.0, 12.0, 0, 0, False]]
    if tracing.self_times(spans) != [7.0, 2.0, 1.0, 1.0]:
        failures.append(f"self times wrong: {tracing.self_times(spans)}")


def check_install(failures):
    sys.path.insert(0, str(run.ROOT / "src"))
    tracer = tracing.Tracer()
    if tracer.install() == 0:
        failures.append("tracer replaced no bindings")
    import gammaconn
    from gammaconn import cli, graph, invariants

    for module, name in ((graph, "transmission_table"), (invariants, "transmission_table"),
                         (cli, "transmission_table"), (cli, "is_connected"),
                         (gammaconn, "transmission_table"), (invariants, "gamma")):
        if not hasattr(getattr(module, name), "__wrapped__"):
            failures.append(f"{module.__name__}.{name} is not traced")
    g = gammaconn.generate(gammaconn.FamilySpec("path", (5,)))
    tracer.op = 0
    invariants.gamma(g)
    names = [s[tracing.NAME] for s in tracer.spans if s[tracing.OP] == 0]
    if names.count("graph.transmission_table") != 1 or "graph.is_connected" not in names:
        failures.append(f"spans under gamma missing: {names}")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    check_self_times(failures)
    check_metrics(spec, failures)
    check_wrong_reference(spec, failures)
    check_install(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
