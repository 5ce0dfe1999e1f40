"""Simple undirected graphs, BFS distance machinery, and transmissions.

The Graph object is immutable after construction and safe to share across
concurrent readers; every routine here is a pure function of the graph.
Distances are exact hop counts, transmissions exact integers.

Costly analyses are memoised per Graph (_cached); the memo keeps sharing
safe, as cached values are immutable (frozen dataclasses, tuples, read-only
arrays) and readers racing on a missing key all get the first value stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import (
    DisconnectedGraph,
    DuplicateEdge,
    FixedLimit,
    NotATree,
    SelfLoop,
    VertexOutOfRange,
)

#: Sentinel for vertices not reachable from the BFS source. Kept distinct
#: (negative) so it can never be mistaken for a hop count.
UNREACHABLE = -1

#: Byte budget that sets the all-sources BFS's source block width B: a
#: gather of every vertex's neighbour words, a (2m, B) uint64 array, stays
#: within it. The kernel builds that full gather only on graphs too small
#: to sweep (see _SWEEP_WORDS); elsewhere B sizes its (n, B) buffers.
_GATHER_BYTES = 32 << 20

#: Fewest words (rows x block width) a neighbour position must cover for
#: the all-sources BFS to sweep it with one np.take and one OR; the later
#: positions go to one reduceat over the rows left. The two calls cost
#: about 2 us whatever their size, about what that reduceat spends on 4096
#: words of a dense graph's long segments: with 256, complete(300)'s kernel
#: took 2.5x its all-reduceat time, with 2048 complete(410)'s 1.5x (AMD EPYC).
_SWEEP_WORDS = 4096

#: Largest n for which a dense n x n matrix (distances, the Laplacians) is
#: built: one float64 matrix is 134 MB there, and one LAPACK eigh on it
#: took 13 s on one Xeon core.
_DENSE_MAX_N = 4096

#: Largest vertex count whose edge keys lo*n + hi (< n*n) fit in int64.
_MAX_N = math.isqrt(2**63 - 1)


class Graph:
    """Simple undirected graph on vertices 0..n-1 with sorted adjacency.

    Stored in CSR form (indptr/indices) plus a lexicographically sorted
    (u, v) edge array with u < v. No mutation after construction.
    """

    __slots__ = ("n", "m", "_indptr", "_indices", "_edges", "_memo")

    def __init__(self, n, indptr, indices, edges):
        self.n = n
        self.m = len(edges)
        self._indptr = indptr
        self._indices = indices
        self._edges = edges
        self._memo = {}

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

    Raises VertexOutOfRange (also for any pair that is not two integers),
    SelfLoop, or DuplicateEdge; never repairs. Edges are sorted by the one
    int64 key lo*n + hi (lo < hi), which orders them lexicographically and
    makes duplicates equal neighbouring keys. The key is below n*n, so n
    past _MAX_N (isqrt(2^63 - 1), about 3.04e9) raises FixedLimit instead
    of overflowing it. The CSR comes from one plain sort of the 2m keys
    row*n + neighbour over both orientations, which lists each row's
    neighbours ascending; row r starts at the first key >= r*n.
    """
    if n < 1:
        raise VertexOutOfRange(f"vertex count must be >= 1, got {n}")
    if n > _MAX_N:
        raise FixedLimit(f"vertex count must be <= {_MAX_N} (int64 edge keys), got {n}")
    if isinstance(pairs, np.ndarray):
        arr = pairs
    else:
        pairs = list(pairs)
        arr = np.array(pairs)
    if arr.size and arr.dtype.kind not in "iu":
        # name the first pair that is not two in-range integers as given
        rows = pairs.reshape(-1, 2).tolist() if pairs is arr else pairs
        u, v = next((p for p in rows if not all(_is_vertex(x, n) for x in p)), rows[0])
        raise VertexOutOfRange(f"edge ({u!r}, {v!r}) is not a pair of integers in [0, {n})")
    arr = arr.astype(np.int64, copy=False).reshape(-1, 2)
    lo, hi = np.minimum(arr[:, 0], arr[:, 1]), np.maximum(arr[:, 0], arr[:, 1])
    if arr.size and (lo.min() < 0 or hi.max() >= n):
        u, v = arr[int(np.argmax((lo < 0) | (hi >= n)))]
        raise VertexOutOfRange(f"edge ({u}, {v}) has endpoint outside [0, {n})")
    loops = lo == hi
    if loops.any():
        raise SelfLoop(f"self-loop at vertex {lo[int(np.argmax(loops))]}")
    keys = lo * n
    keys += hi
    keys.sort()
    dup = keys[1:] == keys[:-1]
    if dup.any():
        u, v = divmod(int(keys[int(np.argmax(dup))]), n)
        raise DuplicateEdge(f"edge ({u}, {v}) given more than once")
    edges = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, n, out=(edges[:, 0], edges[:, 1]))
    indices = np.concatenate([keys, hi * n + lo])
    indices.sort()
    indptr = np.searchsorted(indices, np.arange(n + 1) * n)
    indices %= n
    return Graph(n, indptr, indices, edges)


def _is_vertex(x, n):
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and 0 <= x < n


def _cached(g, key, compute):
    """g's memoised result for key, from compute() on first use; errors are not cached.

    Checks of call arguments (size caps) go before the call, outside the key.
    """
    return g._memo[key] if key in g._memo else g._memo.setdefault(key, compute())


def _adjacency(g):
    """Each vertex's neighbours as a tuple of native ints; memoised per graph.

    The scalar BFS iterates these far faster than numpy slices, and slicing
    one tuple beats n array slices. Built on first use: most graphs (family
    members, product factors) never run a BFS.
    """
    def build():
        ptr, nbrs = g._indptr.tolist(), tuple(g._indices.tolist())
        return tuple(nbrs[a:b] for a, b in zip(ptr, ptr[1:]))
    return _cached(g, "adjacency", build)


def _bfs(g, source, dist, adj=None):
    """BFS over the component of source; returns the visit order, source first.

    Fills dist, the caller's list (UNREACHABLE where not yet visited), with
    hop counts from source. The order list doubles as the queue. A caller
    that runs many BFSs passes adj, g's _adjacency, fetched once.
    """
    dist[source] = 0
    if adj is None:
        adj = _adjacency(g)
    order = [source]
    push = order.append
    for v in order:
        dv1 = dist[v] + 1
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dv1
                push(w)
    return order


def _distances(g, source):
    """Hop counts from source as an int64 array, UNREACHABLE off its component."""
    dist = [UNREACHABLE] * g.n
    _bfs(g, source, dist)
    return np.array(dist, dtype=np.int64)


def _all_sources_levels(g):
    """Bit-parallel BFS from every source at once (multi-source BFS).

    Sources are packed one bit each into uint64 words, and a block of B
    words advances level-synchronously: per level every vertex ORs the
    frontier words of its neighbours and keeps the bits not yet seen. A
    block is stored vertex-major, as an (n, B) array with vertex v in row
    rank[v]. Returns (rank, levels); rank is None when rows are in vertex
    order. levels yields (first_source, level, nxt) for levels >= 1, where
    bit j of nxt[rank[v], w] is set iff dist(v, first_source + 64*w + j) ==
    level; nxt is a buffer of the generator, valid until it advances.

    Rows are sorted by descending degree (jagged-diagonal layout), so the
    k-th neighbours of all vertices of degree > k fill one prefix of rows:
    one np.take and one OR per position k while that prefix holds at least
    _SWEEP_WORDS words, then one reduceat over the remaining neighbours of
    the few vertices left. A graph with n*B below _SWEEP_WORDS sweeps no
    position and keeps vertex order: one (2m, B) gather and one reduceat per
    level. B keeps that gather within _GATHER_BYTES. Every vertex needs a
    neighbour, so callers pass connected graphs; n = 1 yields nothing.
    """
    n, indptr, indices = g.n, g._indptr, g._indices
    if n < 2:
        return None, iter(())
    words = -(-n // 64)
    block = max(1, min(words, _GATHER_BYTES // (8 * len(indices))))
    rows = -(-_SWEEP_WORDS // block)  # fewest rows of a swept position
    if rows > n:
        rank, diagonals, tail, tail_ptr = None, [], indices, indptr[:-1]
    else:
        deg = np.diff(indptr)
        order = np.argsort(-deg, kind="stable")
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        deg, start, nbr = deg[order], indptr[order], rank[indices]
        swept = int(deg[rows - 1])  # positions 0..swept-1 each cover >= rows rows
        ends = np.searchsorted(-deg, -np.arange(swept + 1))  # rows of degree > k
        diagonals = [nbr[start[:ends[k]] + k] for k in range(swept)]
        rest = deg[:ends[swept]] - swept
        tail_ptr = np.zeros(len(rest), dtype=np.intp)
        np.cumsum(rest[:-1], out=tail_ptr[1:])
        tail = nbr[np.repeat(start[:len(rest)] + swept - tail_ptr, rest) + np.arange(rest.sum())]
    return rank, _levels(n, words, block, rank, diagonals, tail, tail_ptr)


def _levels(n, words, block, rank, diagonals, tail, tail_ptr):
    """_all_sources_levels' level loop over blocks of B source words.

    Row r's k-th neighbour is row diagonals[k][r]; rows 0..len(tail_ptr)-1
    OR their remaining neighbours, listed in tail from tail_ptr on. Each
    block allocates its buffers once, and frontier and nxt swap every level;
    np.take runs with mode="clip" because under the default "raise" it
    copies through a temporary instead of writing out directly. unseen
    holds the (vertex, source) pairs not yet reached, without the bits of
    the last word past source n - 1, so a block ends with the level that
    reaches its last pair (on a connected graph; otherwise at level n - 1).
    """
    for w0 in range(0, words, block):
        width = min(block, words - w0)
        first = 64 * w0
        src = np.arange(min(n - first, 64 * width), dtype=np.uint64)
        frontier = np.zeros((n, width), dtype=np.uint64)
        frontier[first + src if rank is None else rank[first + src], src >> 6] = (
            np.uint64(1) << (src & 63))
        unseen = ~frontier
        if len(src) % 64:  # no source sits in the last word's high bits
            unseen[:, -1] &= np.uint64((1 << len(src) % 64) - 1)
        nxt = np.empty_like(frontier)
        spare = np.empty((len(diagonals[1]), width), np.uint64) if len(diagonals) > 1 else None
        gather = np.empty((len(tail), width), np.uint64)
        part = np.empty((len(tail_ptr), width), np.uint64) if diagonals else None
        for level in range(1, n):  # no distance reaches n
            if diagonals:
                np.take(frontier, diagonals[0], axis=0, out=nxt, mode="clip")
            for d in diagonals[1:]:
                np.take(frontier, d, axis=0, out=spare[:len(d)], mode="clip")
                nxt[:len(d)] |= spare[:len(d)]
            if len(tail_ptr):
                np.take(frontier, tail, axis=0, out=gather, mode="clip")
                if diagonals:
                    nxt[:len(tail_ptr)] |= np.bitwise_or.reduceat(gather, tail_ptr, axis=0, out=part)
                else:
                    np.bitwise_or.reduceat(gather, tail_ptr, axis=0, out=nxt)
            nxt &= unseen
            unseen ^= nxt
            yield first, level, nxt
            if not unseen.any():
                break
            frontier, nxt = nxt, frontier


def _root_bfs(g):
    """Vertex 0's BFS as read-only tuples (order, dist); memoised per graph."""
    def run():
        dist = [UNREACHABLE] * g.n
        order = _bfs(g, 0, dist)
        return tuple(order), tuple(dist)
    return _cached(g, "root_bfs", run)


def is_connected(g):
    """True iff vertex 0's memoised BFS reaches all n vertices (n=1 is connected)."""
    return len(_root_bfs(g)[0]) == g.n


def components(g):
    """Connected components as sorted vertex lists, ordered by smallest member.

    One dist list serves every source, so each vertex is visited once and
    the whole partition costs O(n + m).
    """
    dist = [UNREACHABLE] * g.n
    label = [0] * g.n
    adj = _adjacency(g)
    out = []
    for v in range(g.n):
        if dist[v] < 0:
            for w in _bfs(g, v, dist, adj):
                label[w] = len(out)
            out.append([])
        out[label[v]].append(v)
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
    """All vertex transmissions: O(n) rerooting on trees, else the all-sources BFS.

    A connected graph with m = n - 1 is a tree and goes to tree_transmissions.
    Every other graph takes the bit-parallel kernel, where each level adds
    level * popcount of v's row to tr[v]. The kernel's working memory is four
    vertex-major (n, B) uint64 arrays per block of B source words, two (n, B)
    arrays of per-word totals (32-bit below n = 2^26), and a gather of the
    tail's neighbour words: the remaining neighbours of the few vertices of
    highest degree, or, when n*B < _SWEEP_WORDS, a full (2m, B) gather.
    Either gather is at most (2m, B), which the block width B keeps within
    _GATHER_BYTES (32 MiB) up to 2m = 4M (then B = 1: 16m bytes); on
    gnm(2000, 10000) the call peaks at 2.9 MB, under one full gather's 5.12.
    Memoised per graph.
    """
    return _cached(g, "transmission_table", lambda: _transmission_table(g))


def _transmission_table(g):
    if not is_connected(g):
        raise DisconnectedGraph("transmissions are defined for connected graphs only")
    return tree_transmissions(g) if g.m == g.n - 1 else _kernel_transmissions(g)


def _kernel_transmissions(g):
    """Transmission table of a connected graph from the all-sources BFS.

    Within a block, level * popcount accumulates per word, elementwise, and
    each row is summed once at the block's end: a sum along the short word
    axis at every level cost more than the level's elementwise update. A
    word's total is at most 64 sources times n - 1, which sets its dtype.
    """
    rank, levels = _all_sources_levels(g)
    dtype = np.min_scalar_type(64 * g.n)
    tr = np.zeros(g.n, dtype=np.int64)
    for _, block in groupby(levels, key=itemgetter(0)):
        _, _, nxt = next(block)  # level 1: weight 1
        per_word = np.bitwise_count(nxt).astype(dtype)
        weighted = np.empty_like(per_word)
        for _, level, nxt in block:
            np.bitwise_count(nxt, out=weighted)
            weighted *= level
            per_word += weighted
        tr += per_word.sum(axis=1, dtype=np.int64)
    return _table_from_transmissions(tr if rank is None else tr[rank])


def is_tree(g):
    """True iff connected with exactly n - 1 edges."""
    return g.m == g.n - 1 and is_connected(g)


def tree_transmissions(g):
    """Transmission table of a tree in linear time by rerooting.

    Vertex 0's memoised BFS, the one is_connected reads, gives the visit
    order and the depths, which are vertex 0's distances, so tr[0] = sum of
    dist; each edge's parent is its endpoint of smaller dist. Subtree sizes
    are summed over the reversed order, then the root moves across each
    edge top-down: tr[child] = tr[parent] + n - 2*size[child].
    transmission_table takes this path for every tree.
    """
    if not is_tree(g):
        raise NotATree("tree_transmissions requires a connected graph with m = n - 1")
    n = g.n
    order, dist = _root_bfs(g)
    parent = [0] * n
    for u, v in g.edges.tolist():
        up, child = (u, v) if dist[u] < dist[v] else (v, u)
        parent[child] = up
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    tr = [0] * n
    tr[0] = sum(dist)
    for v in order[1:]:
        tr[v] = tr[parent[v]] + n - 2 * size[v]
    return _table_from_transmissions(np.array(tr, dtype=np.int64))


def _check_dense(g):
    """Raise FixedLimit when g is too large for a dense n x n matrix."""
    if g.n > _DENSE_MAX_N:
        raise FixedLimit(f"dense matrices capped at n <= {_DENSE_MAX_N}")


def distance_matrix(g):
    """Dense n x n hop-count matrix (n <= _DENSE_MAX_N); materialised only when asked for."""
    _check_dense(g)
    if not is_connected(g):
        raise DisconnectedGraph("distance matrix is defined for connected graphs only")
    rank, levels = _all_sources_levels(g)
    out = np.zeros((g.n, g.n), dtype=np.int64)
    for first, level, nxt in levels:
        bits = np.unpackbits(nxt.astype("<u8", copy=False).view(np.uint8), axis=1,
                             count=min(g.n - first, 64 * nxt.shape[1]), bitorder="little")
        np.copyto(out[:, first:first + bits.shape[1]], level, where=bits.view(bool))
    if rank is not None:  # rows back to vertex order, 64 columns at a time
        for c in range(0, g.n, 64):
            out[:, c:c + 64] = out[rank, c:c + 64]
    return out
