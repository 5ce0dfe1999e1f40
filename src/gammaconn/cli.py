"""Command-line front end: compute | verify | generate | product | bench.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 size-cap
violation. JSON output is schema-stable: analyses that did not run appear
as {"skipped": reason} rather than being omitted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import invariants, lp
from .edgelist import read_edge_list, write_edge_list
from .errors import GammaConnError, TooLarge
from .families import FamilySpec, cartesian_product, generate
# is_connected is unused here; perfbench/selftest.py checks that its tracer wraps cli.is_connected
from .graph import is_connected, is_tree, transmission_table  # noqa: F401

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_CAP = 3

_DEFAULT_CHEEGER_CAP = 24
_DEFAULT_BENCH_LP_CAP = 60

_BENCH_FAMILIES = ("path", "cycle", "complete", "star", "hypercube")
_TRANSMISSION_KEYS = ("wiener", "max_transmission", "transmission_argmax", "transmission_regular")
_SPECTRAL_KEYS = ("distance_spectral_radius", "algebraic_connectivity", "normalized_laplacian_mu")


def _size_cap(default):
    """Size caps honour the GAMMA_MAX_N override (the user assumes the cost)."""
    raw = os.environ.get("GAMMA_MAX_N")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise GammaConnError(f"GAMMA_MAX_N must be an integer, got {raw!r}") from None


def _fraction_doc(fr):
    return {"num": fr.numerator, "den": fr.denominator, "approx": float(fr)}


def _spectral_doc(est):
    return {
        "value": est.value,
        "residual": est.residual,
        "iterations": est.iterations,
        "converged": est.converged,
    }


def _skipped(reason):
    return {"skipped": reason}


def _entry_doc(e):
    return {
        "name": e.name,
        "lhs": e.lhs,
        "rhs": e.rhs,
        "relation": e.relation,
        "holds": e.holds,
        "equality_attained": e.equality_attained,
        "equality_expected": e.equality_expected,
        "skipped": e.skipped,
        "reason": e.reason,
    }


def build_result_document(g, *, command, tol, with_lp=False, with_spectral=False,
                          with_cheeger=False, with_bounds=False):
    cert = invariants.gamma(g)
    connected = cert.connected
    doc = {
        "command": command,
        "graph": {"n": g.n, "m": g.m, "connected": connected, "tree": is_tree(g)},
        "gamma": _fraction_doc(cert.gamma),
        "attaining_vertex": cert.attaining_vertex,
        "witness": {
            "valid": cert.witness_valid,
            "vector": [_fraction_doc(w) for w in cert.witness],
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
        cap = _size_cap(_DEFAULT_CHEEGER_CAP)
        value, subset = invariants.cheeger_constant(g, max_n=cap)
        cheeger = {"value": value, "subset": subset}

    inv = {}
    if connected:
        table = transmission_table(g)
        inv["wiener"] = table.wiener
        inv["max_transmission"] = table.d_max
        inv["transmission_argmax"] = list(table.argmax)
        inv["transmission_regular"] = bool((table.tr == table.tr[0]).all())
    else:
        inv.update((key, _skipped("graph is disconnected")) for key in _TRANSMISSION_KEYS)

    if not with_spectral:
        inv.update((key, _skipped("not requested (pass --spectral)")) for key in _SPECTRAL_KEYS)
    elif not connected:
        reason = "graph is disconnected"
        inv["distance_spectral_radius"] = _skipped(reason)
        inv["algebraic_connectivity"] = _spectral_doc(
            invariants.algebraic_connectivity(g, tol))
        inv["normalized_laplacian_mu"] = _skipped(reason)
    else:
        inv["distance_spectral_radius"] = _spectral_doc(
            invariants.distance_spectral_radius(g, tol))
        inv["algebraic_connectivity"] = _spectral_doc(
            invariants.algebraic_connectivity(g, tol))
        inv["normalized_laplacian_mu"] = _spectral_doc(
            invariants.normalized_laplacian_mu(g, tol))
    inv["cheeger"] = cheeger
    doc["invariants"] = inv

    if not with_bounds:
        doc["bounds"] = _skipped("bound report is produced by the verify command")
    else:
        report = invariants.bound_report(
            g, tol, cheeger_max_n=_size_cap(_DEFAULT_CHEEGER_CAP))
        doc["bounds"] = {
            "entries": [_entry_doc(e) for e in report.entries],
            "all_hold": report.all_hold,
        }

    if not with_lp:
        doc["oracle"] = _skipped("not requested (pass --lp)")
    elif not connected:
        doc["oracle"] = _skipped("graph is disconnected")
    else:
        value, per_k, best_k, _ = lp.gamma_lp_details(g)
        doc["oracle"] = {
            "gamma": value,
            "per_k": per_k,
            "best_k": best_k,
            "agrees": abs(value - float(cert.gamma)) <= 1e-6,
        }
    return doc


def _render_fraction(d):
    return f"{d['num']}/{d['den']} ({d['approx']:.6g})"


def _render_block(key, value, out):
    if isinstance(value, dict) and "skipped" in value:
        out.append(f"{key}: skipped ({value['skipped']})")
    else:
        out.append(f"{key}: {value}")


def render_text(doc):
    out = []
    gr = doc["graph"]
    out.append(f"graph: n={gr['n']} m={gr['m']} connected={gr['connected']} tree={gr['tree']}")
    out.append(f"gamma: {_render_fraction(doc['gamma'])}")
    out.append(f"attaining vertex: {doc['attaining_vertex']}")
    out.append(f"witness valid: {doc['witness']['valid']}")
    inv = doc["invariants"]
    for key in _TRANSMISSION_KEYS:
        _render_block(key, inv[key], out)
    for key in _SPECTRAL_KEYS:
        if isinstance(inv[key], dict) and "skipped" in inv[key]:
            _render_block(key, inv[key], out)
        else:
            s = inv[key]
            out.append(f"{key}: {s['value']:.10g} (residual {s['residual']:.2e},"
                       f" {s['iterations']} iterations, converged={s['converged']})")
    if isinstance(inv["cheeger"], dict) and "skipped" in inv["cheeger"]:
        _render_block("cheeger", inv["cheeger"], out)
    else:
        out.append(f"cheeger: {inv['cheeger']['value']:.10g} subset={inv['cheeger']['subset']}")
    bounds = doc["bounds"]
    if isinstance(bounds, dict) and "skipped" in bounds:
        _render_block("bounds", bounds, out)
    else:
        out.append(f"bounds: all_hold={bounds['all_hold']}")
        for e in bounds["entries"]:
            if e["skipped"]:
                out.append(f"  {e['name']}: skipped ({e['reason']})")
            else:
                eq = ""
                if e["equality_attained"] is not None:
                    eq = (f" equality_attained={e['equality_attained']}"
                          f" equality_expected={e['equality_expected']}")
                out.append(f"  {e['name']}: {e['lhs']:.10g} {e['relation']} {e['rhs']:.10g}"
                           f" holds={e['holds']}{eq}")
    oracle = doc["oracle"]
    if isinstance(oracle, dict) and "skipped" in oracle:
        _render_block("oracle", oracle, out)
    else:
        out.append(f"oracle: gamma={oracle['gamma']:.10g} best_k={oracle['best_k']}"
                   f" agrees={oracle['agrees']}")
    return "\n".join(out)


def _emit(doc, as_json):
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        print(render_text(doc))


def _cmd_compute(args):
    g = read_edge_list(args.input)
    doc = build_result_document(
        g, command="compute", tol=args.tol, with_lp=args.lp,
        with_spectral=args.spectral, with_cheeger=args.cheeger)
    _emit(doc, args.json)
    return EXIT_OK


def _cmd_verify(args):
    g = read_edge_list(args.input)
    doc = build_result_document(
        g, command="verify", tol=args.tol, with_lp=args.lp,
        with_spectral=args.spectral, with_cheeger=args.cheeger, with_bounds=True)
    _emit(doc, args.json)
    return EXIT_OK if doc["bounds"]["all_hold"] else EXIT_VERIFY_FAILED


def _parse_params(raw):
    if not raw:
        return ()
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _cmd_generate(args):
    spec = FamilySpec(args.family, _parse_params(args.params))
    g = generate(spec)
    write_edge_list(g, args.output)
    doc = {"command": "generate", "family": str(spec), "path": args.output,
           "n": g.n, "m": g.m}
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"wrote {str(spec)}: n={g.n} m={g.m} -> {args.output}")
    return EXIT_OK


def _cmd_product(args):
    if len(args.inputs) < 2:
        print("error: product needs at least 2 input graphs", file=sys.stderr)
        return EXIT_INPUT
    factors = [read_edge_list(path) for path in args.inputs]
    g = cartesian_product(factors)
    write_edge_list(g, args.output)
    doc = {"command": "product", "factors": [f.n for f in factors],
           "path": args.output, "n": g.n, "m": g.m}
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"wrote product: n={g.n} m={g.m} -> {args.output}")
    return EXIT_OK


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
    sizes = _parse_sizes(args.sizes)
    lp_cap = _size_cap(_DEFAULT_BENCH_LP_CAP)
    rows = []
    for size in sizes:
        spec = FamilySpec(args.family, (size,))
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
            if g.n > lp_cap:
                raise TooLarge(f"LP benchmark capped at n <= {lp_cap}")
            t0 = time.perf_counter()
            row["lp_gamma"] = lp.gamma_via_lp(g)
            row["lp_seconds"] = time.perf_counter() - t0
        if row["formula_gamma"] is not None and row["lp_gamma"] is not None:
            row["agree"] = abs(row["formula_gamma"] - row["lp_gamma"]) <= 1e-6
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
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gammaconn",
        description="Exact max-transmission connectivity invariant of simple graphs.")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="residual tolerance of the spectral estimates (default 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariant and certificate of one graph")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--lp", action="store_true", help="also run the LP oracle")
    p.add_argument("--spectral", action="store_true", help="also run spectral estimates")
    p.add_argument("--cheeger", action="store_true", help="also run exact expansion")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("verify", help="evaluate every comparison bound")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--lp", action="store_true")
    p.add_argument("--spectral", action="store_true")
    p.add_argument("--cheeger", action="store_true")
    p.set_defaults(func=_cmd_verify)

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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TooLarge as exc:
        print(f"error: {exc} (override with GAMMA_MAX_N)", file=sys.stderr)
        return EXIT_CAP
    except (GammaConnError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
