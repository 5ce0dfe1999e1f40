import numpy as np
import pytest

from gammaconn import (
    UNREACHABLE,
    bfs_distances,
    components,
    diameter,
    distance_matrix,
    from_edge_list,
    is_connected,
    is_tree,
    pendant_vertices,
    shells,
    transmission_table,
    tree_transmissions,
)
from gammaconn.errors import (
    DisconnectedGraph,
    DuplicateEdge,
    NotATree,
    SelfLoop,
    VertexOutOfRange,
)
from gammaconn import graph
from gammaconn.random_graphs import gnm_connected, gnp, random_tree

from conftest import INF, edge_list, family, naive_distances


class TestFromEdgeList:
    def test_path_construction(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2
        assert g.adjacency == ((1,), (0, 2), (1,))

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
        assert g.adjacency == ((1, 2), (0, 3), (0,), (1,))
        assert [(int(u), int(v)) for u, v in g.edges] == [(0, 1), (0, 2), (1, 3)]


class TestBfs:
    def test_path_endpoint(self):
        prof = bfs_distances(family("path", 4), 0)
        assert prof.dist.tolist() == [0, 1, 2, 3]
        assert prof.transmission == 6
        assert prof.eccentricity == 3

    def test_complete_graph_transmission(self):
        # every vertex of a complete graph sees all others at distance 1
        g = family("complete", 5)
        for u in range(5):
            assert bfs_distances(g, u).transmission == 4

    def test_disconnected_sentinel(self, two_k2):
        prof = bfs_distances(two_k2, 0)
        assert prof.dist.tolist() == [0, 1, UNREACHABLE, UNREACHABLE]
        assert prof.transmission is None
        assert prof.eccentricity == 1

    def test_source_out_of_range(self, p4):
        with pytest.raises(VertexOutOfRange):
            bfs_distances(p4, 4)

    def test_matches_floyd_warshall_oracle(self):
        g = gnp(12, 0.3, seed=7)
        oracle = naive_distances(g.n, [(int(u), int(v)) for u, v in g.edges])
        for u in range(g.n):
            got = bfs_distances(g, u).dist
            want = [d if d < 10 ** 9 else UNREACHABLE for d in oracle[u]]
            assert got.tolist() == want

    def test_both_implementations_agree(self):
        # the single-source BFS and, on connected draws, the all-sources
        # kernel, each against the Floyd-Warshall oracle
        for seed in range(5):
            g = gnp(30, 0.15, seed=seed)
            oracle = naive_distances(g.n, edge_list(g))
            for u in range(0, 30, 7):
                want = [d if d < INF else UNREACHABLE for d in oracle[u]]
                assert bfs_distances(g, u).dist.tolist() == want
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
    assert transmission_table(g).tr.tolist() == [sum(row) for row in d]
    assert diameter(g) == max(map(max, d))


class TestAllSourcesKernel:
    """The bit-parallel kernel's three callers against Floyd-Warshall."""

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 129])
    def test_word_boundaries(self, n):
        assert_all_sources_match_oracle(gnm_connected(n, min(2 * n, n * (n - 1) // 2), seed=n))

    def test_tree_and_path(self):
        assert_all_sources_match_oracle(random_tree(90, seed=3))
        assert_all_sources_match_oracle(family("path", 70))

    def test_single_vertex(self):
        g = from_edge_list(1, [])
        assert transmission_table(g).tr.tolist() == [0]
        assert distance_matrix(g).tolist() == [[0]]
        assert diameter(g) == 0

    @pytest.mark.parametrize("words_per_block", [1, 2])
    def test_several_source_blocks(self, monkeypatch, words_per_block):
        g = gnm_connected(150, 300, seed=11)  # 3 words of sources
        monkeypatch.setattr(graph, "_GATHER_BYTES", words_per_block * 8 * 2 * g.m)
        assert_all_sources_match_oracle(g)


class TestShells:
    def test_cycle_shell_sizes(self, c6):
        assert [len(s) for s in shells(c6, 0)] == [1, 2, 2, 1]

    def test_complete_graph(self):
        assert [len(s) for s in shells(family("complete", 4), 0)] == [1, 3]

    def test_path_endpoint(self, p4):
        assert shells(p4, 0) == [[0], [1], [2], [3]]

    def test_disconnected_rejected(self, two_k2):
        with pytest.raises(DisconnectedGraph):
            shells(two_k2, 0)


class TestDiameter:
    def test_examples(self):
        assert diameter(family("complete", 7)) == 1
        assert diameter(family("path", 9)) == 8
        assert diameter(family("hypercube", 3)) == 3

    def test_disconnected_rejected(self, two_k2):
        with pytest.raises(DisconnectedGraph):
            diameter(two_k2)


class TestPendantsAndTrees:
    def test_pendants(self, s6, c6, p4):
        assert pendant_vertices(s6) == [1, 2, 3, 4, 5]
        assert pendant_vertices(c6) == []
        assert pendant_vertices(p4) == [0, 3]

    def test_is_tree(self, two_k2):
        assert is_tree(family("path", 5))
        assert not is_tree(family("cycle", 5))
        assert not is_tree(two_k2)
        assert is_tree(from_edge_list(1, []))

    def test_tree_transmissions_examples(self):
        assert tree_transmissions(family("path", 5)).tr.tolist() == [10, 7, 6, 7, 10]
        assert tree_transmissions(family("star", 6)).tr.tolist() == [5, 9, 9, 9, 9, 9]
        assert tree_transmissions(family("path", 2)).tr.tolist() == [1, 1]

    def test_tree_transmissions_rejects_non_tree(self, c6, two_k2):
        with pytest.raises(NotATree):
            tree_transmissions(c6)
        with pytest.raises(NotATree):
            tree_transmissions(two_k2)

    def test_rerooting_matches_bfs_table(self):
        for seed in range(10):
            t = random_tree(60, seed=seed)
            assert tree_transmissions(t).tr.tolist() == transmission_table(t).tr.tolist()

    def test_tree_argmax_is_pendant(self):
        for seed in range(10):
            t = random_tree(40, seed=100 + seed)
            table = tree_transmissions(t)
            leaves = set(pendant_vertices(t))
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
