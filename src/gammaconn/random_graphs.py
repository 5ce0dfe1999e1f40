"""Seeded random graph corpora for tests and benchmarks."""

from __future__ import annotations

import heapq
from itertools import combinations

import numpy as np

from .graph import Graph, from_edge_list, is_connected


def _rng(seed_or_rng):
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def gnp(n, p, seed) -> Graph:
    """Each of the n(n-1)/2 pairs is an edge independently with probability p."""
    rng = _rng(seed)
    pairs = list(combinations(range(n), 2))
    mask = rng.random(len(pairs)) < p
    return from_edge_list(n, [pair for pair, keep in zip(pairs, mask) if keep])


def _draw_until(draw, connected, max_tries, params) -> Graph:
    """The first of up to max_tries draw() results g with is_connected(g) == connected."""
    for _ in range(max_tries):
        g = draw()
        if is_connected(g) == connected:
            return g
    kind = "connected" if connected else "disconnected"
    raise RuntimeError(f"no {kind} draw in {max_tries} tries ({params})")


def gnp_connected(n, p, seed, max_tries=10_000) -> Graph:
    rng = _rng(seed)
    return _draw_until(lambda: gnp(n, p, rng), True, max_tries, f"n={n}, p={p}")


def gnp_disconnected(n, p, seed, max_tries=10_000) -> Graph:
    rng = _rng(seed)
    return _draw_until(lambda: gnp(n, p, rng), False, max_tries, f"n={n}, p={p}")


def gnm(n, m, seed) -> Graph:
    """Exactly m distinct edges drawn uniformly."""
    rng = _rng(seed)
    if m > n * (n - 1) // 2:
        raise ValueError("more edges than pairs")
    chosen = set()
    while len(chosen) < m:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u != v:
            chosen.add((u, v) if u < v else (v, u))
    return from_edge_list(n, sorted(chosen))


def gnm_connected(n, m, seed, max_tries=1000) -> Graph:
    rng = _rng(seed)
    return _draw_until(lambda: gnm(n, m, rng), True, max_tries, f"n={n}, m={m}")


def random_tree(n, seed) -> Graph:
    """Uniform labeled tree via a random code sequence of length n - 2."""
    rng = _rng(seed)
    if n == 1:
        return from_edge_list(1, [])
    if n == 2:
        return from_edge_list(2, [(0, 1)])
    code = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    for a in code:
        degree[a] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for a in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(a)))
        degree[a] -= 1
        if degree[a] == 1:
            heapq.heappush(leaves, int(a))
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return from_edge_list(n, edges)
