"""The benchmark's workloads: inputs built from a seed, operations, and checks.

Each workload's set-up returns a list of operations. An operation's ``run``
is the timed call into gammaconn; its ``check`` compares the output with a
reference that shares no code with the package's BFS or eigensolver
(scipy's csgraph shortest paths, numpy's LAPACK ``eigvalsh``, or the
closed forms). Every library call goes through a module attribute, so the
tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from gammaconn import cli, edgelist, families, invariants, random_graphs
from gammaconn.families import FamilySpec

SPECTRAL_TOL = 1e-8
# A random tree's diameter, and with it the cost of the BFS on it, moves by
# about 20% from one draw to the next, which would swamp the slowest-operation
# latency; sparse_compute therefore draws its tree once, at the acceptance seed.
TREE_SEED = 20240801


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class CliOutput:
    code: int
    text: str


# ---------------------------------------------------------------------------
# independent references

def _read_edges(path):
    """Vertex count and edge array, read without the package's parser."""
    with open(path, encoding="utf-8") as fh:
        nums = np.array(fh.read().split(), dtype=np.int64)
    return int(nums[0]), nums[2:].reshape(-1, 2)


def _csgraph(n, edges):
    return csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))


def reference_gamma(n, edges, chunk=256):
    """n over the largest distance row sum, from scipy's BFS in row chunks."""
    a = _csgraph(n, edges)
    best = 0
    for start in range(0, n, chunk):
        rows = np.arange(start, min(n, start + chunk))
        d = shortest_path(a, directed=False, unweighted=True, indices=rows)
        if not np.isfinite(d).all():
            raise ValueError("benchmark inputs must be connected")
        best = max(best, int(round(d.sum(axis=1).max())))
    return Fraction(n, best)


def reference_spectra(n, edges):
    """The CLI's three spectral values, from numpy's LAPACK eigvalsh."""
    d = shortest_path(_csgraph(n, edges), directed=False, unweighted=True)
    adj = np.zeros((n, n))
    adj[edges[:, 0], edges[:, 1]] = adj[edges[:, 1], edges[:, 0]] = 1.0
    deg = adj.sum(axis=1)
    lap = np.diag(deg) - adj
    scale = deg ** -0.5
    return {
        "distance_spectral_radius": float(np.linalg.eigvalsh(d)[-1]),
        "algebraic_connectivity": float(np.linalg.eigvalsh(lap)[1]),
        "normalized_laplacian_mu": float(
            np.linalg.eigvalsh(lap * scale[:, None] * scale[None, :])[1]),
    }


# ---------------------------------------------------------------------------
# CLI operations

def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return CliOutput(code, buf.getvalue())


def _cli_check(gamma_ref, spectra=None, bounds=False, oracle=False):
    def check(out):
        if out.code != 0:
            return [f"exit code {out.code}"]
        try:
            doc = json.loads(out.text)
        except ValueError:
            return ["output is not valid JSON"]
        problems = []
        try:
            if doc["witness"]["valid"] is not True:
                problems.append("witness.valid is not true")
            got = Fraction(doc["gamma"]["num"], doc["gamma"]["den"])
            if got != gamma_ref:
                problems.append(f"gamma {got} != reference {gamma_ref}")
            if bounds and doc["bounds"].get("all_hold") is not True:
                problems.append("bounds.all_hold is not true")
            if oracle and doc["oracle"].get("agrees") is not True:
                problems.append("oracle.agrees is not true")
            for key, want in (spectra or {}).items():
                value = doc["invariants"][key]["value"]
                if not abs(value - want) <= SPECTRAL_TOL:
                    problems.append(f"{key} {value!r} differs from eigvalsh {want!r}")
        except (KeyError, TypeError, AttributeError) as exc:
            problems.append(f"malformed document: {exc!r}")
        return problems
    return check


def _cli_ops(workdir, members, corrupt):
    """Write each member's edge list; members are (label, graph, command, flags)."""
    ops = []
    for label, g, command, flags in members:
        path = os.path.join(workdir, f"{label}.txt")
        edgelist.write_edge_list(g, path)
        n, edges = _read_edges(path)
        gamma_ref = reference_gamma(n, edges)
        if corrupt and not ops:
            gamma_ref += 1
        spectra = reference_spectra(n, edges) if "--spectral" in flags else None
        argv = ["--json", command, *flags, path]
        ops.append(Op(
            label=label,
            run=lambda argv=argv: _run_cli(argv),
            check=_cli_check(gamma_ref, spectra, bounds=command == "verify",
                             oracle="--lp" in flags),
        ))
    return ops


def sparse_compute(seed, workdir, tiny=False, corrupt=False):
    if tiny:
        members = [
            ("gnm", random_graphs.gnm_connected(60, 150, seed + 5)),
            ("torus", families.generate(FamilySpec("torus", (4, 5)))),
            ("tree", random_graphs.random_tree(40, TREE_SEED)),
            ("path", families.generate(FamilySpec("path", (30,)))),
        ]
    else:
        members = [
            ("gnm2000", random_graphs.gnm_connected(2000, 10000, seed + 5)),
            ("torus30x40", families.generate(FamilySpec("torus", (30, 40)))),
            ("tree1200", random_graphs.random_tree(1200, TREE_SEED)),
            ("path999", families.generate(FamilySpec("path", (999,)))),
        ]
    return _cli_ops(workdir, [(label, g, "compute", ()) for label, g in members], corrupt)


def full_verify(seed, workdir, tiny=False, corrupt=False):
    every = ("--spectral", "--cheeger", "--lp")
    if tiny:
        members = [
            ("cycle8", families.generate(FamilySpec("cycle", (8,))), "verify", every),
            ("k5", families.generate(FamilySpec("complete", (5,))), "verify", every),
            ("gnm16", random_graphs.gnm_connected(16, 32, seed + 7), "verify", ("--spectral",)),
            ("gnm10", random_graphs.gnm_connected(10, 20, seed + 8), "compute", ("--lp",)),
        ]
    else:
        members = [
            ("torus4x6", families.generate(FamilySpec("torus", (4, 6))), "verify", every),
            ("petersen", families.generate(FamilySpec("petersen", ())), "verify", every),
            ("gnm80", random_graphs.gnm_connected(80, 240, seed + 7), "verify",
             ("--spectral",)),
            ("gnm40", random_graphs.gnm_connected(40, 100, seed + 8), "compute", ("--lp",)),
        ]
    return _cli_ops(workdir, members, corrupt)


# ---------------------------------------------------------------------------
# library operations on the closed-form corpus

def closed_form_specs(max_n):
    """The closed-form acceptance corpus, restricted to at most max_n vertices."""
    specs = []
    specs += [FamilySpec("complete", (n,)) for n in range(2, max_n + 1)]
    specs += [FamilySpec("cycle", (n,)) for n in range(3, max_n + 1)]
    specs += [FamilySpec("path", (n,)) for n in range(2, max_n + 1)]
    specs += [FamilySpec("star", (n,)) for n in range(2, max_n + 1)]
    bip = set()
    for total in range(2, max_n + 1):
        for small in {1, total // 3, total // 2}:
            if 1 <= small <= total - small:
                bip.add(FamilySpec("complete_bipartite", (total - small, small)))
    for total in range(2, min(max_n, 40) + 1):
        for small in range(1, total // 2 + 1):
            bip.add(FamilySpec("complete_bipartite", (total - small, small)))
    specs += sorted(bip, key=lambda s: s.params)
    specs += [FamilySpec("hypercube", (t,)) for t in range(1, 8) if 2 ** t <= max_n]
    specs += [FamilySpec("hamming", (t, s))
              for t in range(2, 8) for s in range(2, 15) if s ** t <= max_n]
    specs += [FamilySpec("grid3", (l, m, n))
              for l in range(1, 7) for m in range(l, max_n + 1) for n in range(m, max_n + 1)
              if 2 <= l * m * n <= max_n]
    specs += [FamilySpec("torus", (m, n))
              for m in range(3, 15) for n in range(m, 67) if m * n <= max_n]
    if max_n >= 10:
        specs.append(FamilySpec("petersen", ()))
    return specs


def _family_run(spec):
    g = families.generate(spec)
    text = edgelist.format_edge_list(g)
    parsed = edgelist.parse_edge_list(text)
    cert = invariants.gamma(parsed)
    objective = invariants.gamma_objective(parsed, cert.witness)
    return g, parsed, cert, objective, families.closed_form_gamma(spec)


def _family_check(shift):
    def check(out):
        g, parsed, cert, objective, closed = out
        problems = []
        if parsed != g:
            problems.append("edge list does not round-trip")
        if not cert.witness_valid:
            problems.append("witness is not valid")
        if cert.gamma != closed + shift:
            problems.append(f"gamma {cert.gamma} != closed form {closed + shift}")
        if objective != cert.gamma:
            problems.append(f"witness objective {objective} != gamma {cert.gamma}")
        return problems
    return check


def family_corpus(seed, workdir, tiny=False, corrupt=False):
    # the corpus is fixed; the seed changes nothing here
    specs = closed_form_specs(12 if tiny else 100)
    return [Op(str(spec), run=lambda spec=spec: _family_run(spec),
               check=_family_check(1 if corrupt and i == 0 else 0))
            for i, spec in enumerate(specs)]


SETUPS = {
    "sparse_compute": sparse_compute,
    "family_corpus": family_corpus,
    "full_verify": full_verify,
}
