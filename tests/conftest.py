"""Shared fixtures and independent oracles.

Oracles here deliberately avoid the package's own machinery: distances come
from Floyd-Warshall on a dense table, spectra from numpy's eigensolver,
expansion from a plain subset loop. Tests compare package output against
these, never against itself.
"""

from fractions import Fraction

import pytest

from gammaconn import FamilySpec, from_edge_list, generate

INF = 10 ** 9


def naive_distances(n, edges):
    """Floyd-Warshall oracle, O(n^3); independent of the package BFS."""
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            row = d[i]
            for j in range(n):
                if dik + dk[j] < row[j]:
                    row[j] = dik + dk[j]
    return d


def naive_gamma(n, edges):
    """The invariant straight from the dense distance table (None if disconnected)."""
    d = naive_distances(n, edges)
    if max(map(max, d)) >= INF:
        return None
    return Fraction(n, max(sum(row) for row in d))


def naive_cheeger(n, edges):
    """Exact expansion by a plain subset loop with vertex 0 pinned.

    Returns (value, subset): the first minimising subset in ascending order
    of its bitmask over the vertices.
    """
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    total = sum(deg)
    best = best_side = None
    for mask in range(2 ** (n - 1)):
        side = {0} | {v for v in range(1, n) if mask >> (v - 1) & 1}
        if len(side) == n:
            continue
        cut = sum(1 for u, v in edges if (u in side) != (v in side))
        vol = sum(deg[v] for v in side)
        h = Fraction(cut, min(vol, total - vol))
        if best is None or h < best:
            best, best_side = h, sorted(side)
    return best, best_side


def edge_list(g):
    return [(int(u), int(v)) for u, v in g.edges]


def family(kind, *params):
    return generate(FamilySpec(kind, tuple(params)))


@pytest.fixture
def p4():
    return family("path", 4)


@pytest.fixture
def k5():
    return family("complete", 5)


@pytest.fixture
def c6():
    return family("cycle", 6)


@pytest.fixture
def s6():
    return family("star", 6)


@pytest.fixture
def two_k2():
    return from_edge_list(4, [(0, 1), (2, 3)])


def small_family_corpus(max_n=10):
    """One member per family kind and size up to max_n vertices."""
    specs = []
    specs += [FamilySpec("path", (n,)) for n in range(2, max_n + 1)]
    specs += [FamilySpec("cycle", (n,)) for n in range(3, max_n + 1)]
    specs += [FamilySpec("complete", (n,)) for n in range(2, max_n + 1)]
    specs += [FamilySpec("star", (n,)) for n in range(3, max_n + 1)]
    specs += [FamilySpec("complete_bipartite", (m, n))
              for m in range(1, max_n) for n in range(1, m + 1) if 2 <= m + n <= max_n]
    specs += [FamilySpec("hypercube", (t,)) for t in (1, 2, 3) if 2 ** t <= max_n]
    if 9 <= max_n:
        specs.append(FamilySpec("hamming", (2, 3)))
    if 8 <= max_n:
        specs.append(FamilySpec("grid3", (2, 2, 2)))
    if 9 <= max_n:
        specs.append(FamilySpec("torus", (3, 3)))
    if 10 <= max_n:
        specs.append(FamilySpec("petersen", ()))
    return specs
