"""Outside-in tracing of the gammaconn package, and the per-layer metrics.

The tracer replaces every public function of the traced layers with a
wrapper that records a span: name, parent span, operation id, start, end,
the vertex count of a Graph argument, a work count taken from the result,
and whether an exception escaped. Wrappers are installed in every gammaconn
namespace that binds the function, so calls made through a name imported
elsewhere (``invariants.transmission_table``, ``cli.is_connected``, the
package re-exports) are seen too. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

PROGRAM_LAYERS = ("edgelist", "graph", "invariants", "lp", "families", "cli")
# random_graphs only builds the inputs, in set-up
LAYERS = PROGRAM_LAYERS + ("random_graphs",)

# span fields
NAME, PARENT, OP, START, END, N, WORK, ERROR = range(8)

# work counts read from public call arguments or results
_WORK = {
    "edgelist.parse_edge_list": lambda args, result: len(args[0]),
    "edgelist.format_edge_list": lambda args, result: len(result),
    "graph.components": lambda args, result: len(result),
    "invariants.algebraic_connectivity": lambda args, result: result.iterations,
    "invariants.normalized_laplacian_mu": lambda args, result: result.iterations,
    "invariants.distance_spectral_radius": lambda args, result: result.iterations,
    "lp.simplex_solve": lambda args, result: result.iterations,
}

# BFS sweeps a public graph function performs, from its arguments (computed)
_SWEEPS = {
    "graph.is_connected": lambda n, work: 1 if n > 1 else 0,
    "graph.transmission_table": lambda n, work: n,
    "graph.distance_matrix": lambda n, work: n,
    "graph.diameter": lambda n, work: n,
    "graph.bfs_distances": lambda n, work: 1,
    "graph.shells": lambda n, work: 1,
    "graph.components": lambda n, work: work,
}

# self-time metrics: metric name -> span names summed
_SELF_TIMES = {
    "edgelist.parse_s": ("edgelist.parse_edge_list", "edgelist.read_edge_list"),
    "edgelist.format_s": ("edgelist.format_edge_list", "edgelist.write_edge_list"),
    "graph.build_s": ("graph.from_edge_list",),
    "graph.transmission_s": ("graph.transmission_table",),
    "graph.connectivity_s": ("graph.is_connected",),
    "graph.distance_matrix_s": ("graph.distance_matrix",),
    "families.closed_form_s": ("families.closed_form_gamma",),
    "invariants.gamma_self_s": ("invariants.gamma",),
    "invariants.objective_s": ("invariants.gamma_objective",),
    "invariants.cheeger_s": ("invariants.cheeger_constant",),
    "invariants.eigen_s": ("invariants.algebraic_connectivity",
                           "invariants.normalized_laplacian_mu"),
    "invariants.spectral_radius_s": ("invariants.distance_spectral_radius",),
    "invariants.bound_report_self_s": ("invariants.bound_report",),
    "lp.simplex_s": ("lp.simplex_solve",),
    "lp.build_s": ("lp.build_lp_k",),
    "lp.oracle_self_s": ("lp.gamma_lp_details", "lp.gamma_via_lp", "lp.solve_lp_k",
                         "lp.b_small_oracle"),
}

_CALLS = {
    "graph.transmission_calls": "graph.transmission_table",
    "graph.connectivity_calls": "graph.is_connected",
    "invariants.cheeger_calls": "invariants.cheeger_constant",
    "lp.simplex_solves": "lp.simplex_solve",
}

_WORK_SUMS = {
    "edgelist.bytes": ("edgelist.parse_edge_list", "edgelist.format_edge_list"),
    "invariants.jacobi_sweeps": ("invariants.algebraic_connectivity",
                                 "invariants.normalized_laplacian_mu"),
    "invariants.power_iterations": ("invariants.distance_spectral_radius",),
    "lp.simplex_pivots": ("lp.simplex_solve",),
}


class Tracer:
    """Span recorder for one process; spans stay in memory until written out."""

    def __init__(self):
        self.spans = []
        self.op = None  # id of the operation being timed, None in set-up
        self._current = None

    def install(self):
        """Wrap the layers' public functions wherever a gammaconn module binds them.

        Returns the number of bindings replaced.
        """
        from gammaconn.graph import Graph

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gammaconn.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn, Graph)
        bound = 0
        for modname, module in list(sys.modules.items()):
            if modname != "gammaconn" and not modname.startswith("gammaconn."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    bound += 1
        return bound

    def _wrap(self, name, fn, graph_type):
        spans = self.spans
        work_of = _WORK.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = 0
            for a in args:
                if isinstance(a, graph_type):
                    n = a.n
                    break
            parent = tracer._current
            record = [name, parent, tracer.op, 0.0, 0.0, n, 0, False]
            tracer._current = len(spans)
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[ERROR] = True
                raise
            finally:
                record[END] = perf_counter()
                tracer._current = parent
            if work_of is not None:
                record[WORK] = work_of(args, result)
            return result

        return traced


def self_times(spans):
    """Span duration minus the time its direct children cover, per span."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans, op_wall_s, op_n, output_bytes):
    """Per-layer metrics of one pass.

    ``op_wall_s`` is the summed latency of the pass's operations, ``op_n``
    the vertex count of each operation's graph, and ``output_bytes`` what
    the CLI wrote to standard output.
    """
    selfs = self_times(spans)
    by_name = defaultdict(lambda: [0.0, 0, 0])  # self seconds, calls, work
    layer_self = defaultdict(float)
    errors = defaultdict(int)
    sweeps = 0
    setup_random_s = 0.0
    in_ops = 0.0
    for span, own in zip(spans, selfs):
        layer = span[NAME].split(".", 1)[0]
        if span[OP] is None:
            if layer == "random_graphs":
                setup_random_s += own
            continue
        in_ops += own
        agg = by_name[span[NAME]]
        agg[0] += own
        agg[1] += 1
        agg[2] += span[WORK]
        layer_self[layer] += own
        parent = span[PARENT]
        if span[ERROR] and (parent is None or not spans[parent][NAME].startswith(layer + ".")):
            errors[layer] += 1
        sweeps_of = _SWEEPS.get(span[NAME])
        if sweeps_of is not None and not span[ERROR]:
            sweeps += sweeps_of(span[N], span[WORK])

    m = {}
    for metric, names in _SELF_TIMES.items():
        m[metric] = sum(by_name[x][0] for x in names)
    for metric, name in _CALLS.items():
        m[metric] = by_name[name][1]
    for metric, names in _WORK_SUMS.items():
        m[metric] = sum(by_name[x][2] for x in names)
    for layer in PROGRAM_LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.errors"] = errors[layer]
    m["families.generate_s"] = (layer_self["families"] - m["families.closed_form_s"]
                                - by_name["families.gamma_harmonic"][0])
    m["invariants.cheeger_masks"] = sum(
        2 ** (s[N] - 1) for s in spans
        if s[OP] is not None and s[NAME] == "invariants.cheeger_constant" and not s[ERROR])
    vertices = sum(op_n)
    m["graph.bfs_sweeps"] = sweeps
    m["graph.sweeps_per_vertex"] = sweeps / vertices if vertices else 0.0
    m["graph.sweep_useful_frac"] = vertices / sweeps if sweeps else 0.0
    m["lp.pivots_per_solve"] = (m["lp.simplex_pivots"] / m["lp.simplex_solves"]
                                if m["lp.simplex_solves"] else 0.0)
    m["cli.output_bytes"] = output_bytes
    m["random_graphs.generate_s"] = setup_random_s
    m["trace.spans"] = sum(1 for s in spans if s[OP] is not None)
    m["trace.outside_s"] = op_wall_s - in_ops
    return m


def op_vertex_counts(spans, num_ops):
    """Largest Graph-argument vertex count seen in each operation."""
    out = [0] * num_ops
    for s in spans:
        if s[OP] is not None and s[N] > out[s[OP]]:
            out[s[OP]] = s[N]
    return out


def write_spans(spans, path):
    """One JSON array per line: name, parent, op, start, end, n, work, error."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
