"""Simple undirected graphs, BFS distance machinery, and transmissions.

The Graph object is immutable after construction and safe to share across
concurrent readers; every routine here is a pure function of the graph.
Distances are exact hop counts, transmissions exact integers.

Costly analyses are memoised per Graph (_cached); the memo keeps sharing
safe, as cached values are immutable (frozen dataclasses, tuples, read-only
arrays) and readers racing on a missing key all get the first value stored.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraph,
    DuplicateEdge,
    NotATree,
    SelfLoop,
    VertexOutOfRange,
)

#: Sentinel for vertices not reachable from the BFS source. Kept distinct
#: (negative) so it can never be mistaken for a hop count.
UNREACHABLE = -1

#: Byte budget for one level's (2m, B) uint64 gather in the all-sources BFS;
#: sets the source block width B and so caps the kernel's working set.
_GATHER_BYTES = 32 << 20


class Graph:
    """Simple undirected graph on vertices 0..n-1 with sorted adjacency.

    Stored in CSR form (indptr/indices) plus a lexicographically sorted
    (u, v) edge array with u < v. No mutation after construction.
    """

    __slots__ = ("n", "m", "_indptr", "_indices", "_adj", "_edges", "_memo")

    def __init__(self, n, indptr, indices, edges):
        self.n = n
        self.m = len(edges)
        self._indptr = indptr
        self._indices = indices
        # native int lists: the scalar BFS iterates these far faster than
        # numpy slices
        self._adj = [indices[indptr[v]:indptr[v + 1]].tolist() for v in range(n)]
        self._edges = edges
        self._memo = {}

    @property
    def adjacency(self):
        """Per-vertex sorted tuple of neighbor ids."""
        return tuple(tuple(nbrs) for nbrs in self._adj)

    @property
    def edges(self):
        """m x 2 array of edges with u < v, sorted lexicographically."""
        return self._edges

    def neighbors(self, u):
        if not 0 <= u < self.n:
            raise VertexOutOfRange(f"vertex {u} not in [0, {self.n})")
        return self._indices[self._indptr[u]:self._indptr[u + 1]]

    def degrees(self):
        return np.diff(self._indptr)

    def degree(self, u):
        if not 0 <= u < self.n:
            raise VertexOutOfRange(f"vertex {u} not in [0, {self.n})")
        return int(self._indptr[u + 1] - self._indptr[u])

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._edges, other._edges)

    def __hash__(self):
        return hash((self.n, self._edges.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def from_edge_list(n, pairs):
    """Build a Graph from (u, v) pairs, rejecting invalid input outright.

    Raises VertexOutOfRange, SelfLoop, or DuplicateEdge; never repairs.
    """
    if n < 1:
        raise VertexOutOfRange(f"vertex count must be >= 1, got {n}")
    arr = pairs if isinstance(pairs, np.ndarray) else np.array(list(pairs), dtype=np.int64)
    arr = arr.astype(np.int64, copy=False).reshape(-1, 2)
    if arr.size:
        bad = (arr < 0) | (arr >= n)
        if bad.any():
            u, v = arr[int(np.argmax(bad.any(axis=1)))]
            raise VertexOutOfRange(f"edge ({u}, {v}) has endpoint outside [0, {n})")
        loops = arr[:, 0] == arr[:, 1]
        if loops.any():
            raise SelfLoop(f"self-loop at vertex {arr[int(np.argmax(loops)), 0]}")
    edges = np.stack([arr.min(axis=1), arr.max(axis=1)], axis=1)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    if len(edges) > 1:
        dup = (np.diff(edges[:, 0]) == 0) & (np.diff(edges[:, 1]) == 0)
        if dup.any():
            u, v = edges[int(np.argmax(dup))]
            raise DuplicateEdge(f"edge ({u}, {v}) given more than once")
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    indices = dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(n, indptr, indices, edges)


def _cached(g, key, compute):
    """g's memoised result for key, from compute() on first use; errors are not cached.

    Checks of call arguments (size caps) go before the call, outside the key.
    """
    return g._memo[key] if key in g._memo else g._memo.setdefault(key, compute())


def _bfs(g, source):
    # plain single-source deque BFS over native int adjacency lists
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    adj = g._adj
    queue = deque([source])
    pop = queue.popleft
    push = queue.append
    while queue:
        v = pop()
        dv1 = dist[v] + 1
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dv1
                push(w)
    return np.array(dist, dtype=np.int64)


def _all_sources_levels(g):
    """Bit-parallel BFS from every source at once (multi-source BFS).

    Sources are packed one bit each into uint64 words, and a block of B
    words advances level-synchronously: per level every vertex ORs the
    frontier words of its neighbours and keeps the bits not yet seen. Yields
    (first_source, level, nxt) for levels >= 1, where bit j of word w in
    nxt[v] is set iff dist(v, first_source + 64*w + j) == level; distances
    are symmetric, so row v lists the block's sources at that distance.
    B keeps the (2m, B) gather within _GATHER_BYTES. reduceat needs degree
    >= 1 everywhere, so callers pass connected graphs; n = 1 yields nothing.
    """
    n, indptr, indices = g.n, g._indptr, g._indices
    if n < 2:
        return
    words = -(-n // 64)
    block = max(1, min(words, _GATHER_BYTES // (8 * len(indices))))
    for w0 in range(0, words, block):
        width = min(block, words - w0)
        first = 64 * w0
        src = np.arange(min(n - first, 64 * width), dtype=np.uint64)
        frontier = np.zeros((n, width), dtype=np.uint64)
        frontier[first + src, src >> 6] = np.uint64(1) << (src & 63)
        unseen = ~frontier
        for level in range(1, n):  # no distance reaches n
            nxt = np.bitwise_or.reduceat(frontier[indices], indptr[:-1], axis=0)
            nxt &= unseen
            if not nxt.any():
                break
            unseen ^= nxt
            yield first, level, nxt
            frontier = nxt


@dataclass(frozen=True)
class DistanceProfile:
    """Single-source BFS result: exact hop counts plus derived scalars."""

    source: int
    dist: np.ndarray
    eccentricity: int
    transmission: int | None  # None when some vertex is unreachable


def bfs_distances(g, u):
    """Exact shortest-path hop counts from u; UNREACHABLE marks absent paths."""
    if not 0 <= u < g.n:
        raise VertexOutOfRange(f"vertex {u} not in [0, {g.n})")
    dist = _bfs(g, u)
    reachable = dist >= 0
    ecc = int(dist[reachable].max())
    tr = int(dist.sum()) if bool(reachable.all()) else None
    return DistanceProfile(source=u, dist=dist, eccentricity=ecc, transmission=tr)


def is_connected(g):
    """True iff one BFS from vertex 0 reaches all n vertices (n=1 is connected)."""
    if g.n == 1:
        return True
    return bool((_bfs(g, 0) >= 0).all())


def components(g):
    """Connected components as sorted vertex lists, ordered by smallest member."""
    out = []
    seen = np.zeros(g.n, dtype=bool)
    for v in range(g.n):
        if not seen[v]:
            member = _bfs(g, v) >= 0
            seen |= member
            out.append([int(w) for w in np.flatnonzero(member)])
    return out


@dataclass(frozen=True)
class TransmissionTable:
    """Per-vertex transmissions (read-only) with their maximum, argmax set, and Wiener index."""

    tr: np.ndarray
    d_max: int
    argmax: tuple[int, ...]
    wiener: int


def _table_from_transmissions(tr):
    tr.flags.writeable = False
    d_max = int(tr.max())
    argmax = tuple(int(v) for v in np.flatnonzero(tr == d_max))
    total = int(tr.sum())
    return TransmissionTable(tr=tr, d_max=d_max, argmax=argmax, wiener=total // 2)


def transmission_table(g):
    """All vertex transmissions from one bit-parallel all-sources BFS.

    Each level adds level * popcount(nxt[v]) to tr[v]. Working memory is one
    level's (2m, B) uint64 gather, which the block width B keeps within
    _GATHER_BYTES (32 MiB) up to 2m = 4M (then B = 1: 16m bytes), plus a few
    (n, B) uint64 arrays, each no larger than the gather since n <= 2m.
    Memoised per graph.
    """
    return _cached(g, "transmission_table", lambda: _transmission_table(g))


def _transmission_table(g):
    if not is_connected(g):
        raise DisconnectedGraph("transmissions are defined for connected graphs only")
    tr = np.zeros(g.n, dtype=np.int64)
    for _, level, nxt in _all_sources_levels(g):
        tr += level * np.bitwise_count(nxt).sum(axis=1, dtype=np.int64)
    return _table_from_transmissions(tr)


def shells(g, u):
    """Partition of V by distance from u: list of sorted vertex lists, index = distance."""
    if not 0 <= u < g.n:
        raise VertexOutOfRange(f"vertex {u} not in [0, {g.n})")
    dist = _bfs(g, u)
    if (dist < 0).any():
        raise DisconnectedGraph("shells are defined for connected graphs only")
    ecc = int(dist.max())
    return [sorted(int(v) for v in np.flatnonzero(dist == r)) for r in range(ecc + 1)]


def diameter(g):
    """Maximum eccentricity over all sources."""
    if not is_connected(g):
        raise DisconnectedGraph("diameter is defined for connected graphs only")
    return max((level for _, level, _ in _all_sources_levels(g)), default=0)


def pendant_vertices(g):
    """All degree-1 vertices, ascending."""
    return [int(v) for v in np.flatnonzero(g.degrees() == 1)]


def is_tree(g):
    """True iff connected with exactly n - 1 edges."""
    return g.m == g.n - 1 and is_connected(g)


def tree_transmissions(g):
    """Transmission table of a tree in linear time by two-pass rerooting.

    Pass one accumulates subtree sizes and root-to-subtree distance sums
    bottom-up; pass two rewrites the sum when the root moves across an edge
    (tr[child] = tr[parent] + n - 2*size[child]). Output matches
    transmission_table entrywise.
    """
    if not is_tree(g):
        raise NotATree("tree_transmissions requires a connected graph with m = n - 1")
    n = g.n
    if n == 1:
        return _table_from_transmissions(np.zeros(1, dtype=np.int64))
    indptr, indices = g._indptr, g._indices
    parent = np.full(n, -1, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    order[0] = 0
    parent[0] = 0
    pos = 0
    filled = 1
    while pos < filled:
        v = order[pos]
        pos += 1
        for w in indices[indptr[v]:indptr[v + 1]]:
            if parent[w] < 0:
                parent[w] = v
                order[filled] = w
                filled += 1
    parent[0] = -1

    size = np.ones(n, dtype=np.int64)
    down = np.zeros(n, dtype=np.int64)  # sum of distances to own subtree
    for i in range(n - 1, 0, -1):
        v = order[i]
        p = parent[v]
        size[p] += size[v]
        down[p] += down[v] + size[v]

    tr = np.zeros(n, dtype=np.int64)
    tr[0] = down[0]
    for i in range(1, n):
        v = order[i]
        tr[v] = tr[parent[v]] + n - 2 * size[v]
    return _table_from_transmissions(tr)


def distance_matrix(g):
    """Dense n x n hop-count matrix; materialised only when asked for."""
    if not is_connected(g):
        raise DisconnectedGraph("distance matrix is defined for connected graphs only")
    out = np.zeros((g.n, g.n), dtype=np.int64)
    for first, level, nxt in _all_sources_levels(g):
        bits = np.unpackbits(nxt.astype("<u8", copy=False).view(np.uint8), axis=1,
                             count=min(g.n - first, 64 * nxt.shape[1]), bitorder="little")
        out[:, first:first + bits.shape[1]][bits.view(bool)] = level
    return out
