"""Command-line front end: compute | verify | generate | product | bench.

Exit codes: 0 success, 1 verification failure (verify: a failed bound,
certificate or oracle; bench: a row whose formula and LP values disagree),
2 input error, 3 size-cap violation. JSON output is schema-stable: analyses
that did not run appear as {"skipped": reason} rather than being omitted.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import invariants, lp
from .edgelist import MAX_VERTICES, read_edge_list, write_edge_list
from .errors import FixedLimit, GammaConnError, TooLarge
from .families import FamilySpec, cartesian_product, generate
# is_connected is unused here; perfbench/selftest.py checks that its tracer wraps cli.is_connected
from .graph import is_connected, is_tree, transmission_table  # noqa: F401

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_CAP = 3

_BENCH_LP_CAP = 60  # bench's dense LP size cap; compute --lp runs one graph uncapped
_LP_AGREEMENT = 1e-6  # how far the LP optimum may sit from the exact invariant

_BENCH_FAMILIES = ("path", "cycle", "complete", "star", "hypercube")
_TRANSMISSION_KEYS = ("wiener", "max_transmission", "transmission_argmax", "transmission_regular")
_SPECTRAL_KEYS = ("distance_spectral_radius", "algebraic_connectivity", "normalized_laplacian_mu")


def _cheeger_cap():
    """The exact-expansion size cap: GAMMA_MAX_N if set (the user assumes the cost)."""
    raw = os.environ.get("GAMMA_MAX_N")
    if raw is None:
        return invariants._CHEEGER_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        raise GammaConnError(f"GAMMA_MAX_N must be an integer, got {raw!r}") from None
    if cap < 1:
        raise GammaConnError(f"GAMMA_MAX_N must be a positive integer, got {raw!r}")
    return cap


def _tolerance(raw):
    """A --tol value: a finite float above 0; argparse exits 2 on any other."""
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {raw!r}")
    return tol


def _fraction_doc(fr):
    return {"num": fr.numerator, "den": fr.denominator, "approx": float(fr)}


def _shell_entries(cert):
    """One _fraction_doc per witness shell, from the certificate's integers.

    Every |shell_nums[s]| is at most witness_den, so below 2^53 the int64
    quotient of the reduced pair is float(Fraction): both operands convert
    to float64 exactly and IEEE division rounds correctly, as Python's int
    true division does. From 2^53 on the arrays hold Python ints.
    """
    den = cert.witness_den
    nums = np.array(cert.shell_nums, dtype=np.int64 if den < 2 ** 53 else object)
    common = np.gcd(nums, den)
    nums //= common
    dens = den // common
    return [{"num": a, "den": b, "approx": x}
            for a, b, x in zip(nums.tolist(), dens.tolist(), (nums / dens).tolist())]


def _vector_entry_json(d):
    """A _fraction_doc in the witness vector as json.dumps(doc, indent=2) prints it.

    The integers and the finite float print as their repr, as json prints them.
    """
    return (f'\n      {{\n        "num": {d["num"]},\n        "den": {d["den"]},'
            f'\n        "approx": {d["approx"]!r}\n      }}')


def _skipped(reason):
    return {"skipped": reason}


def build_result_document(g, *, command, tol, with_lp=False, with_spectral=False,
                          with_cheeger=False):
    cert = invariants.gamma(g)
    connected = cert.connected
    # one entry dict per witness shell, shared by the shell's vertices
    entries = _shell_entries(cert)
    doc = {
        "command": command,
        "graph": {"n": g.n, "m": g.m, "connected": connected, "tree": is_tree(g)},
        "gamma": _fraction_doc(cert.gamma),
        "attaining_vertex": cert.attaining_vertex,
        "witness": {
            "valid": cert.witness_valid,
            "vector": list(map(entries.__getitem__, cert.shells)),
            "residuals": {
                "zero_sum": _fraction_doc(cert.residuals.zero_sum),
                "sup_deviation": _fraction_doc(cert.residuals.sup_deviation),
                "edge_gap": _fraction_doc(cert.residuals.edge_gap),
            },
        },
    }

    # first, so that a graph over the Cheeger cap fails before the spectral work
    if not with_cheeger:
        cheeger = _skipped("not requested (pass --cheeger)")
    elif not connected:
        cheeger = _skipped("graph is disconnected")
    else:
        value, subset = invariants.cheeger_constant(g, max_n=_cheeger_cap())
        cheeger = {"value": value, "subset": subset}

    inv = {}
    if connected:
        table = transmission_table(g)
        inv["wiener"] = table.wiener
        inv["max_transmission"] = table.d_max
        inv["transmission_argmax"] = list(table.argmax)
        inv["transmission_regular"] = invariants.is_transmission_regular(g)
    else:
        inv.update((key, _skipped("graph is disconnected")) for key in _TRANSMISSION_KEYS)

    if not with_spectral:
        inv.update((key, _skipped("not requested (pass --spectral)")) for key in _SPECTRAL_KEYS)
    elif not connected:
        reason = "graph is disconnected"
        inv["distance_spectral_radius"] = _skipped(reason)
        inv["algebraic_connectivity"] = asdict(invariants.algebraic_connectivity(g, tol))
        inv["normalized_laplacian_mu"] = _skipped(reason)
    else:
        inv["distance_spectral_radius"] = asdict(invariants.distance_spectral_radius(g, tol))
        inv["algebraic_connectivity"] = asdict(invariants.algebraic_connectivity(g, tol))
        inv["normalized_laplacian_mu"] = asdict(invariants.normalized_laplacian_mu(g, tol))
    inv["cheeger"] = cheeger
    doc["invariants"] = inv

    if command != "verify":
        doc["bounds"] = _skipped("bound report is produced by the verify command")
    else:
        report = invariants.bound_report(g, tol, cheeger_max_n=_cheeger_cap())
        doc["bounds"] = {
            "entries": [asdict(e) for e in report.entries],
            "all_hold": report.all_hold,
        }

    if not with_lp:
        doc["oracle"] = _skipped("not requested (pass --lp)")
    elif not connected:
        doc["oracle"] = _skipped("graph is disconnected")
    else:
        value, per_k, best_k = lp.gamma_lp_details(g)
        doc["oracle"] = {
            "gamma": value,
            "per_k": per_k,
            "best_k": best_k,
            "agrees": abs(value - float(cert.gamma)) <= _LP_AGREEMENT,
        }
    return doc


def _render_fraction(d):
    return f"{d['num']}/{d['den']} ({d['approx']:.6g})"


def _render_estimate(s):
    return (f"{s['value']:.10g} (residual {s['residual']:.2e},"
            f" {s['iterations']} iterations, converged={s['converged']})")


def _render_bound(e):
    if e["skipped"]:
        return f"  {e['name']}: skipped ({e['reason']})"
    eq = ""
    if e["equality_attained"] is not None:
        eq = (f" equality_attained={e['equality_attained']}"
              f" equality_expected={e['equality_expected']}")
    return f"  {e['name']}: {e['lhs']:.10g} {e['relation']} {e['rhs']:.10g} holds={e['holds']}{eq}"


def _render_bounds(b):
    return "\n".join([f"all_hold={b['all_hold']}", *map(_render_bound, b["entries"])])


# each block of the text output, in order, with the formatter of a block that ran
_BLOCK_FORMATS = {
    **dict.fromkeys(_TRANSMISSION_KEYS, str),
    **dict.fromkeys(_SPECTRAL_KEYS, _render_estimate),
    "cheeger": lambda c: f"{c['value']:.10g} subset={c['subset']}",
    "bounds": _render_bounds,
    "oracle": lambda o: f"gamma={o['gamma']:.10g} best_k={o['best_k']} agrees={o['agrees']}",
}


def _render_block(key, value):
    if isinstance(value, dict) and "skipped" in value:
        return f"{key}: skipped ({value['skipped']})"
    return f"{key}: {_BLOCK_FORMATS[key](value)}"


def render_text(doc):
    gr = doc["graph"]
    blocks = {**doc["invariants"], "bounds": doc["bounds"], "oracle": doc["oracle"]}
    return "\n".join([
        f"graph: n={gr['n']} m={gr['m']} connected={gr['connected']} tree={gr['tree']}",
        f"gamma: {_render_fraction(doc['gamma'])}",
        f"attaining vertex: {doc['attaining_vertex']}",
        f"witness valid: {doc['witness']['valid']}",
        *(_render_block(key, blocks[key]) for key in _BLOCK_FORMATS),
    ])


def _emit(doc, as_json):
    if not as_json:
        print(render_text(doc))
        return
    # json.dumps(doc, indent=2), byte for byte: an indent sends json to its
    # pure-Python encoder, so the per-vertex lists are left out and spliced
    # back in. The transmission argmax (a skip dict when disconnected) prints
    # one int per line; each distinct witness entry (by identity) is rendered
    # once, at the indent of doc["witness"]["vector"]. Neither list is empty.
    vector = doc["witness"]["vector"]
    argmax = doc["invariants"]["transmission_argmax"]
    shell = {**doc, "witness": {**doc["witness"], "vector": []}}
    if isinstance(argmax, list):
        shell["invariants"] = {**doc["invariants"], "transmission_argmax": []}
    text = json.dumps(shell, indent=2)
    if isinstance(argmax, list):
        ints = ",\n      ".join(map(str, argmax))
        text = text.replace('"transmission_argmax": []',
                            f'"transmission_argmax": [\n      {ints}\n    ]', 1)
    head, tail = text.split('"vector": []', 1)
    distinct = dict(zip(map(id, vector), vector))
    rendered = {key: _vector_entry_json(e) for key, e in distinct.items()}
    items = ",".join(map(rendered.__getitem__, map(id, vector)))
    print(f'{head}"vector": [{items}\n    ]{tail}')


def _cmd_analyse(args):
    """compute and verify: verify adds the bound report and an exit-1 verdict."""
    g = read_edge_list(args.input)
    doc = build_result_document(
        g, command=args.command, tol=args.tol, with_lp=args.lp,
        with_spectral=args.spectral, with_cheeger=args.cheeger)
    _emit(doc, args.json)
    if args.command != "verify":
        return EXIT_OK
    oracle = doc["oracle"]
    passed = (doc["bounds"]["all_hold"] and doc["witness"]["valid"]
              and ("skipped" in oracle or oracle["agrees"]))
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _parse_params(raw):
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _check_writable(n):
    """Refuse, before anything is built, a graph that read_edge_list would refuse."""
    if n > MAX_VERTICES:
        raise FixedLimit(f"edge-list files are capped at n <= {MAX_VERTICES}, got n={n}")


def _write_graph(args, n, build, label, **fields):
    """Check the vertex count n, then build the graph and write it."""
    _check_writable(n)
    g = build()
    write_edge_list(g, args.output)
    if args.json:
        doc = {"command": args.command, **fields, "path": args.output, "n": g.n, "m": g.m}
        print(json.dumps(doc, indent=2))
    else:
        print(f"wrote {label}: n={g.n} m={g.m} -> {args.output}")
    return EXIT_OK


def _cmd_generate(args):
    spec = FamilySpec(args.family, _parse_params(args.params))
    return _write_graph(args, spec.n, lambda: generate(spec), str(spec), family=str(spec))


def _cmd_product(args):
    if len(args.inputs) < 2:
        print("error: product needs at least 2 input graphs", file=sys.stderr)
        return EXIT_INPUT
    factors = [read_edge_list(path) for path in args.inputs]
    return _write_graph(args, math.prod(f.n for f in factors),
                        lambda: cartesian_product(factors), "product",
                        factors=[f.n for f in factors])


def _parse_sizes(raw):
    sizes = []
    for tok in raw.split(","):
        tok = tok.strip()
        if ".." in tok:
            lo, hi = tok.split("..", 1)
            sizes.extend(range(int(lo), int(hi) + 1))
        elif tok:
            sizes.append(int(tok))
    if not sizes:
        raise GammaConnError("no sizes given")
    return sizes


def _cmd_bench(args):
    if args.family not in _BENCH_FAMILIES:
        print(f"error: bench supports single-parameter families {_BENCH_FAMILIES}",
              file=sys.stderr)
        return EXIT_INPUT
    rows = []
    for size in _parse_sizes(args.sizes):
        spec = FamilySpec(args.family, (size,))
        _check_writable(spec.n)
        if args.method in ("lp", "both") and spec.n > _BENCH_LP_CAP:
            raise FixedLimit(f"LP benchmark capped at n <= {_BENCH_LP_CAP}")
        g = generate(spec)
        row = {"family": args.family, "size": size, "n": g.n, "m": g.m,
               "formula_seconds": None, "formula_gamma": None,
               "lp_seconds": None, "lp_gamma": None, "agree": None}
        if args.method in ("formula", "both"):
            t0 = time.perf_counter()
            cert = invariants.gamma(g)
            row["formula_seconds"] = time.perf_counter() - t0
            row["formula_gamma"] = float(cert.gamma)
        if args.method in ("lp", "both"):
            t0 = time.perf_counter()
            row["lp_gamma"] = lp.gamma_lp_details(g)[0]
            row["lp_seconds"] = time.perf_counter() - t0
        if row["formula_gamma"] is not None and row["lp_gamma"] is not None:
            row["agree"] = abs(row["formula_gamma"] - row["lp_gamma"]) <= _LP_AGREEMENT
        rows.append(row)
    if args.json:
        print(json.dumps({"command": "bench", "rows": rows}, indent=2))
    else:
        print(f"{'size':>6} {'n':>6} {'m':>8} {'formula_s':>12} {'lp_s':>12} {'agree':>6}")
        for r in rows:
            fs = f"{r['formula_seconds']:.6f}" if r["formula_seconds"] is not None else "-"
            ls = f"{r['lp_seconds']:.6f}" if r["lp_seconds"] is not None else "-"
            ag = "-" if r["agree"] is None else str(r["agree"])
            print(f"{r['size']:>6} {r['n']:>6} {r['m']:>8} {fs:>12} {ls:>12} {ag:>6}")
    return EXIT_VERIFY_FAILED if any(r["agree"] is False for r in rows) else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gammaconn",
        description="Exact max-transmission connectivity invariant of simple graphs.")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument("--tol", type=_tolerance, default=1e-9,
                        help="residual tolerance of the spectral estimates (default 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, help_text in (("compute", "invariant and certificate of one graph"),
                               ("verify", "evaluate every comparison bound")):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("input", help="edge-list file")
        p.add_argument("--lp", action="store_true", help="also run the LP oracle")
        p.add_argument("--spectral", action="store_true", help="also run spectral estimates")
        p.add_argument("--cheeger", action="store_true", help="also run exact expansion")
        p.set_defaults(func=_cmd_analyse)

    p = sub.add_parser("generate", help="write a family member to disk")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="", help="comma-separated integers")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("product", help="Cartesian product of 2+ graphs")
    p.add_argument("inputs", nargs="+", help="edge-list files (2 or more)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("bench", help="time the formula pipeline against the LP oracle")
    p.add_argument("--family", required=True)
    p.add_argument("--sizes", required=True, help="e.g. '10,20' or '10..50'")
    p.add_argument("--method", choices=("formula", "lp", "both"), default="both")
    p.set_defaults(func=_cmd_bench)
    return parser


@functools.cache
def _main_parser():
    """main's parser, built on first use and kept: parse_args does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        return args.func(args)
    except TooLarge as exc:
        hint = "" if isinstance(exc, FixedLimit) else " (override with GAMMA_MAX_N)"
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_CAP
    except (GammaConnError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
