import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from gammaconn import (
    UNREACHABLE,
    FamilySpec,
    closed_form_gamma,
    components,
    gamma,
    distance_matrix,
    from_edge_list,
    generate,
    is_connected,
    is_tree,
    transmission_table,
    tree_transmissions,
)
from gammaconn.errors import (
    DisconnectedGraph,
    DuplicateEdge,
    FixedLimit,
    GammaConnError,
    NotATree,
    SelfLoop,
    VertexOutOfRange,
)
from gammaconn import graph
from gammaconn.random_graphs import gnm_connected, gnp, random_tree

from conftest import INF, counted, edge_list, family, naive_distances, naive_from_edge_list


@st.composite
def shuffled_edges(draw, max_n=30):
    """(n, pairs): distinct edges in random order, each drawn in either orientation,
    plus up to two arbitrary pairs that may repeat an edge, loop or leave [0, n)."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
    for u, v in draw(st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=2)):
        edges.insert(draw(st.integers(0, len(edges))), (u, v))
    return n, edges


class TestFromEdgeList:
    def test_path_construction(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2
        assert [g.neighbors(u).tolist() for u in range(3)] == [[1], [0, 2], [1]]

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            from_edge_list(2, [(0, 0)])

    def test_duplicate_rejected_either_orientation(self):
        with pytest.raises(DuplicateEdge):
            from_edge_list(4, [(0, 1), (1, 0)])
        with pytest.raises(DuplicateEdge):
            from_edge_list(4, [(2, 3), (2, 3)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRange):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(VertexOutOfRange):
            from_edge_list(3, [(-1, 2)])
        with pytest.raises(VertexOutOfRange):
            from_edge_list(0, [])

    def test_adjacency_sorted_and_edges_canonical(self):
        g = from_edge_list(4, [(3, 1), (2, 0), (1, 0)])
        assert [g.neighbors(u).tolist() for u in range(4)] == [[1, 2], [0, 3], [0], [1]]
        assert [(int(u), int(v)) for u, v in g.edges] == [(0, 1), (0, 2), (1, 3)]

    @pytest.mark.parametrize("n, pairs, error, message", [
        (5, [(0, 1), (4, 4), (9, 2), (2, 7)], VertexOutOfRange,
         "edge (9, 2) has endpoint outside [0, 5)"),
        (5, [(0, 1), (3, 3), (2, 2)], SelfLoop, "self-loop at vertex 3"),
        (5, [(3, 4), (1, 0), (4, 3), (0, 1)], DuplicateEdge, "edge (0, 1) given more than once"),
    ])
    def test_first_fault_named(self, n, pairs, error, message):
        # range before loops before duplicates; the lexicographically first duplicate
        with pytest.raises(error) as exc:
            from_edge_list(n, pairs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("n, pairs, message", [
        (3, [(0, 1.5), (1, 2)], "edge (0, 1.5) is not a pair of integers in [0, 3)"),
        (3, [(0, 1), (1, 2.0)], "edge (1, 2.0) is not a pair of integers in [0, 3)"),
        (3, [("0", "1")], "edge ('0', '1') is not a pair of integers in [0, 3)"),
        (3, np.array([[0.0, 1.0]]), "edge (0.0, 1.0) is not a pair of integers in [0, 3)"),
        (3, [(1, 2), (0, 2 ** 70)],
         f"edge (0, {2 ** 70}) is not a pair of integers in [0, 3)"),
    ])
    def test_non_integer_pairs_refused(self, n, pairs, message):
        # no pair is rounded, parsed or converted into an edge
        with pytest.raises(VertexOutOfRange) as exc:
            from_edge_list(n, pairs)
        assert str(exc.value) == message

    def test_empty_pairs_accepted(self):
        for pairs in ([], (), np.zeros((0, 2), dtype=np.int64)):
            assert from_edge_list(1, pairs).m == 0

    @given(shuffled_edges(), st.booleans())
    def test_matches_sorted_python_builder(self, case, as_array):
        n, pairs = case

        def outcome(build):
            try:
                return build()
            except GammaConnError as exc:
                return type(exc), str(exc)

        def package():
            g = from_edge_list(n, np.array(pairs, dtype=np.int64) if as_array else pairs)
            return edge_list(g), g._indptr.tolist(), g._indices.tolist()

        assert outcome(package) == outcome(lambda: naive_from_edge_list(n, pairs))

    def test_vertex_count_past_int64_keys_refused(self):
        # edges sort by the key lo*n + hi < n*n, which must fit in int64
        assert graph._MAX_N ** 2 <= 2 ** 63 - 1 < (graph._MAX_N + 1) ** 2
        with pytest.raises(FixedLimit):
            from_edge_list(graph._MAX_N + 1, [])


class TestBfs:
    def test_disconnected_sentinel(self, two_k2):
        assert graph._distances(two_k2, 0).tolist() == [0, 1, UNREACHABLE, UNREACHABLE]

    def test_matches_floyd_warshall_oracle(self):
        g = gnp(12, 0.3, seed=7)
        oracle = naive_distances(g.n, [(int(u), int(v)) for u, v in g.edges])
        for u in range(g.n):
            got = graph._distances(g, u)
            want = [d if d < 10 ** 9 else UNREACHABLE for d in oracle[u]]
            assert got.tolist() == want

    @pytest.mark.parametrize("seed", range(6))
    def test_visit_order(self, seed):
        # each reachable vertex once, source first, distances never decreasing
        g = gnp(25, 0.08, seed=seed)
        oracle = naive_distances(g.n, edge_list(g))
        for u in range(0, 25, 6):
            dist = [UNREACHABLE] * g.n
            order = graph._bfs(g, u, dist)
            assert order[0] == u
            assert sorted(order) == [v for v in range(g.n) if oracle[u][v] < INF]
            assert all(dist[a] <= dist[b] for a, b in zip(order, order[1:]))
            assert dist == [d if d < INF else UNREACHABLE for d in oracle[u]]

    def test_both_implementations_agree(self):
        # the single-source BFS and, on connected draws, the all-sources
        # kernel, each against the Floyd-Warshall oracle
        for seed in range(5):
            g = gnp(30, 0.15, seed=seed)
            oracle = naive_distances(g.n, edge_list(g))
            for u in range(0, 30, 7):
                want = [d if d < INF else UNREACHABLE for d in oracle[u]]
                assert graph._distances(g, u).tolist() == want
            if is_connected(g):
                assert distance_matrix(g).tolist() == oracle


class TestConnectivity:
    def test_examples(self, two_k2):
        assert is_connected(family("path", 5))
        assert not is_connected(two_k2)
        assert is_connected(from_edge_list(1, []))

    def test_components(self, two_k2):
        assert components(two_k2) == [[0, 1], [2, 3]]
        assert components(from_edge_list(3, [])) == [[0], [1], [2]]

    @pytest.mark.parametrize("g", [gnp(20, 0.08, seed=s) for s in range(8)]
                             + [from_edge_list(7, []), from_edge_list(1, [])])
    def test_components_match_oracle(self, g):
        # the component of v is the set of vertices at finite distance from v
        oracle = naive_distances(g.n, edge_list(g))
        want = []
        for v in range(g.n):
            if not any(v in c for c in want):
                want.append([w for w in range(g.n) if oracle[v][w] < INF])
        assert components(g) == want
        assert is_connected(g) == (len(want) == 1)

    def test_edgeless_graph_within_budget(self):
        # one visit per vertex; a partition that scans an n-array per component
        # needs about 40 s on this graph
        g = from_edge_list(50_000, [])
        start = time.perf_counter()
        cert = gamma(g)
        assert time.perf_counter() - start < 5.0
        assert cert.gamma == 0 and cert.witness_valid


class TestTransmissionTable:
    def test_star_center_first(self, s6):
        table = transmission_table(s6)
        assert table.tr.tolist() == [5, 9, 9, 9, 9, 9]
        assert table.d_max == 9
        assert table.argmax == (1, 2, 3, 4, 5)

    def test_cycle_transmission_regular(self, c6):
        table = transmission_table(c6)
        assert table.tr.tolist() == [9] * 6
        assert table.d_max == 9

    def test_petersen(self):
        # 3 neighbours at distance 1 plus 6 vertices at distance 2
        table = transmission_table(family("petersen"))
        assert table.tr.tolist() == [15] * 10

    def test_disconnected_rejected(self, two_k2):
        with pytest.raises(DisconnectedGraph):
            transmission_table(two_k2)

    def test_memoised_and_read_only(self, c6):
        table = transmission_table(c6)
        assert transmission_table(c6) is table
        with pytest.raises(ValueError):
            table.tr[0] = 0

    def test_wiener_identity(self):
        for seed in range(4):
            g = gnp(9, 0.5, seed=seed)
            if not is_connected(g):
                continue
            table = transmission_table(g)
            assert 2 * table.wiener == int(table.tr.sum())


def assert_all_sources_match_oracle(g):
    d = naive_distances(g.n, edge_list(g))
    assert distance_matrix(g).tolist() == d
    assert graph._kernel_transmissions(g).tr.tolist() == [sum(row) for row in d]
    assert transmission_table(g).tr.tolist() == [sum(row) for row in d]


def preferential_attachment(n, k, seed):
    """Each new vertex joins k distinct earlier vertices drawn by degree (Barabasi-Albert)."""
    rng = np.random.default_rng(seed)
    edges = list(combinations(range(k + 1), 2))
    ends = [w for e in edges for w in e]  # each vertex once per incident edge
    for v in range(k + 1, n):
        targets = set()
        while len(targets) < k:
            targets.add(ends[rng.integers(len(ends))])
        edges += [(u, v) for u in sorted(targets)]
        ends += [w for u in sorted(targets) for w in (u, v)]
    return from_edge_list(n, edges)


class TestAllSourcesKernel:
    """The bit-parallel kernel's two callers against Floyd-Warshall.

    Trees reach transmission_table through the rerooting, so the kernel's
    transmissions are checked through _kernel_transmissions directly.
    """

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 129])
    def test_word_boundaries(self, n):
        assert_all_sources_match_oracle(gnm_connected(n, min(2 * n, n * (n - 1) // 2), seed=n))

    def test_tree_and_path(self):
        assert_all_sources_match_oracle(random_tree(90, seed=3))
        assert_all_sources_match_oracle(family("path", 70))

    def test_single_vertex(self):
        g = from_edge_list(1, [])
        assert graph._kernel_transmissions(g).tr.tolist() == [0]
        assert transmission_table(g).tr.tolist() == [0]
        assert distance_matrix(g).tolist() == [[0]]

    @pytest.mark.parametrize("words_per_block", [1, 2])
    def test_several_source_blocks(self, monkeypatch, words_per_block):
        g = gnm_connected(150, 300, seed=11)  # 3 words of sources
        monkeypatch.setattr(graph, "_GATHER_BYTES", words_per_block * 8 * 2 * g.m)
        assert_all_sources_match_oracle(g)

    @pytest.mark.parametrize("g,one_word_blocks,sweep_words", [
        pytest.param(g, one, words, id=f"{name}-{one}" + (f"-{split}" if split else ""))
        for name, g in [
            # hub of degree n - 1 beside 129 rim vertices of degree 3: 3 words of sources
            ("wheel130", from_edge_list(130, [(0, v) for v in range(1, 130)]
                                        + [(v, v % 129 + 1) for v in range(1, 130)])),
            # heavy-tailed: 17 distinct degrees, from 2 to 27
            ("preferential150", preferential_attachment(150, 2, seed=4)),
            ("torus6x7", family("torus", 6, 7)),
            ("cycle65", family("cycle", 65)),
        ]
        # _SWEEP_WORDS: 1 sweeps every neighbour position; 256 sweeps the low
        # positions of 3-word blocks and leaves the hubs' rest to the reduceat
        # tail; 2**62 sweeps none
        for split, words in [("", None), ("all-swept", 1), ("mixed", 256), ("all-tail", 2**62)]
        for one in (False, True)
    ])
    def test_skewed_degrees(self, monkeypatch, g, one_word_blocks, sweep_words):
        if one_word_blocks:
            monkeypatch.setattr(graph, "_GATHER_BYTES", 8 * 2 * g.m)
        if sweep_words is not None:
            monkeypatch.setattr(graph, "_SWEEP_WORDS", sweep_words)
        assert_all_sources_match_oracle(g)

    @pytest.mark.parametrize("sweep_words", [None, 1, 256, 2**62],
                             ids=["default", "all-swept", "mixed", "all-tail"])
    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    @pytest.mark.parametrize("kind", ["cycle", "complete"])
    def test_blocks_end_at_their_last_level(self, monkeypatch, kind, n, sweep_words):
        # a block stops once every (vertex, source) pair is reached, so the
        # sources past n - 1 in the last word must not count as unreached
        if sweep_words is not None:
            monkeypatch.setattr(graph, "_SWEEP_WORDS", sweep_words)
        g = family(kind, n)
        assert_all_sources_match_oracle(g)
        diameter = n // 2 if kind == "cycle" else 1  # every source's eccentricity
        blocks = {}
        for first, level, _ in graph._all_sources_levels(g)[1]:
            blocks.setdefault(first, []).append(level)
        assert list(blocks.values()) == [list(range(1, diameter + 1))] * len(blocks)

    def test_working_memory_below_one_gather(self):
        # one level's (B, 2m) uint64 gather of every vertex's neighbour
        # words, at this graph's block width B = 32, is 5.12 MB
        g = gnm_connected(2000, 10000, seed=5)
        tracemalloc.start()
        try:
            graph._kernel_transmissions(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 32 * 2 * g.m

    @pytest.mark.parametrize("g", [gnm_connected(2000, 10000, seed=5),
                                   preferential_attachment(2000, 3, seed=4)],
                             ids=["gnm2000", "preferential2000"])
    def test_default_regime_matches_scipy(self, g):
        # at size, under the default block and sweep settings, against
        # scipy's unweighted all-pairs search (the preferential graph's
        # largest degree is 137, so its hubs reach the reduceat tail)
        u, v = g.edges[:, 0], g.edges[:, 1]
        adjacency = csr_matrix((np.ones(g.m), (u, v)), shape=(g.n, g.n))
        want = shortest_path(adjacency, directed=False, unweighted=True).astype(np.int64)
        assert np.array_equal(graph._kernel_transmissions(g).tr, want.sum(axis=1))
        assert np.array_equal(distance_matrix(g), want)


class TestPendantsAndTrees:
    def test_is_tree(self, two_k2):
        assert is_tree(family("path", 5))
        assert not is_tree(family("cycle", 5))
        assert not is_tree(two_k2)
        assert is_tree(from_edge_list(1, []))

    def test_tree_transmissions_examples(self):
        assert tree_transmissions(family("path", 5)).tr.tolist() == [10, 7, 6, 7, 10]
        assert tree_transmissions(family("star", 6)).tr.tolist() == [5, 9, 9, 9, 9, 9]
        assert tree_transmissions(family("path", 2)).tr.tolist() == [1, 1]

    @pytest.mark.parametrize("t", [
        from_edge_list(1, []), family("path", 2), family("path", 3), family("path", 17),
        family("star", 3), family("star", 12), from_edge_list(5, [(3, 4), (2, 3), (0, 4), (1, 2)]),
    ] + [random_tree(n, seed=n) for n in (4, 9, 25, 40)])
    def test_tree_transmissions_match_floyd_warshall(self, t):
        want = [sum(row) for row in naive_distances(t.n, edge_list(t))]
        table = tree_transmissions(t)
        assert table.tr.tolist() == want
        assert table.d_max == max(want) and table.wiener == sum(want) // 2
        assert table.argmax == tuple(v for v in range(t.n) if want[v] == max(want))

    def test_tree_transmissions_rejects_non_tree(self, c6, two_k2):
        with pytest.raises(NotATree):
            tree_transmissions(c6)
        with pytest.raises(NotATree):
            tree_transmissions(two_k2)

    def test_rerooting_matches_bfs_table(self):
        for seed in range(10):
            t = random_tree(60, seed=seed)
            assert tree_transmissions(t).tr.tolist() == graph._kernel_transmissions(t).tr.tolist()

    def test_rerooting_reuses_connectivity_bfs(self, monkeypatch):
        t = random_tree(50, seed=7)
        sweeps = counted(monkeypatch, graph, "_bfs")
        assert is_connected(t)
        tree_transmissions(t)
        assert len(sweeps) == 1

    def test_long_path_within_budget(self):
        # the all-sources kernel would advance 50,000 levels here
        spec = FamilySpec("path", (50_000,))
        start = time.perf_counter()
        cert = gamma(generate(spec))
        assert time.perf_counter() - start < 5.0
        assert cert.gamma == closed_form_gamma(spec) and cert.witness_valid

    def test_tree_argmax_is_pendant(self):
        for seed in range(10):
            t = random_tree(40, seed=100 + seed)
            table = tree_transmissions(t)
            leaves = set(np.flatnonzero(t.degrees() == 1).tolist())
            assert set(table.argmax) <= leaves


class TestDistanceMatrix:
    def test_triangle(self):
        d = distance_matrix(family("complete", 3))
        assert d.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_path3_rows(self):
        d = distance_matrix(family("path", 3))
        assert d.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_cycle5_row_sums(self):
        d = distance_matrix(family("cycle", 5))
        assert d.sum(axis=1).tolist() == [6] * 5

    def test_row_sums_are_transmissions(self):
        g = gnp(11, 0.4, seed=3)
        if is_connected(g):
            d = distance_matrix(g)
            assert d.sum(axis=1).tolist() == transmission_table(g).tr.tolist()
            assert (d == d.T).all() and (np.diag(d) == 0).all()

    def test_disconnected_rejected(self, two_k2):
        with pytest.raises(DisconnectedGraph):
            distance_matrix(two_k2)
