from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest

from gammaconn import (
    FamilySpec,
    Graph,
    cartesian_product,
    closed_form_gamma,
    gamma,
    gamma_harmonic,
    generate,
    is_transmission_regular,
    transmission_table,
)
from gammaconn.errors import EmptyFactor, InvalidSpec, NonPositiveInput

from conftest import edge_list, family, naive_distances, small_family_corpus


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            FamilySpec("moebius", (5,))

    def test_arity(self):
        with pytest.raises(InvalidSpec):
            FamilySpec("path", ())
        with pytest.raises(InvalidSpec):
            FamilySpec("petersen", (1,))

    def test_constraints(self):
        with pytest.raises(InvalidSpec):
            FamilySpec("cycle", (2,))
        with pytest.raises(InvalidSpec):
            FamilySpec("complete_bipartite", (2, 3))  # wants m >= n
        with pytest.raises(InvalidSpec):
            FamilySpec("hamming", (2, 1))
        with pytest.raises(InvalidSpec):
            FamilySpec("torus", (2, 5))
        with pytest.raises(InvalidSpec):
            FamilySpec("path", (0,))

    def test_str(self):
        assert str(FamilySpec("torus", (3, 4))) == "torus(3,4)"

    def test_vertex_count_matches_the_built_member(self):
        specs = small_family_corpus() + [FamilySpec("hamming", (3, 4)),
                                         FamilySpec("grid3", (2, 3, 4)),
                                         FamilySpec("torus", (3, 5))]
        for spec in specs:
            assert generate(spec).n == spec.n, spec
        assert FamilySpec("hypercube", (40,)).n == 2 ** 40  # known without building
        assert str(FamilySpec("petersen", ())) == "petersen"


class TestGenerate:
    def test_hypercube(self):
        g = family("hypercube", 3)
        assert (g.n, g.m) == (8, 12)
        assert all(g.degree(v) == 3 for v in range(8))

    def test_torus(self):
        g = family("torus", 3, 4)
        assert (g.n, g.m) == (12, 24)
        assert all(g.degree(v) == 4 for v in range(12))

    def test_petersen(self):
        g = family("petersen")
        assert (g.n, g.m) == (10, 15)
        assert all(g.degree(v) == 3 for v in range(10))
        # girth 5: no triangles or 4-cycles in the Kneser construction
        adj = [set(g.neighbors(u).tolist()) for u in range(10)]
        assert all(not (adj[u] & adj[v]) for u in range(10) for v in adj[u])
        for u in range(10):
            two_step = {w for v in adj[u] for w in adj[v] if w != u}
            assert all(len(adj[u] & adj[w]) <= 1 for w in two_step)

    def test_grid(self):
        g = family("grid3", 2, 3, 4)
        assert g.n == 24 and all(g.degree(v) <= 6 for v in range(24))

    def test_single_factor_products(self):
        assert family("hypercube", 1).m == 1
        assert family("hamming", 1, 4).m == 6


class TestCartesianProduct:
    def test_square(self):
        g = cartesian_product([family("complete", 2), family("complete", 2)])
        assert (g.n, g.m) == (4, 4)
        assert gamma(g).gamma == closed_form_gamma(FamilySpec("cycle", (4,)))

    def test_grid_2x3(self):
        g = cartesian_product([family("path", 2), family("path", 3)])
        assert (g.n, g.m) == (6, 7)

    def test_cube_from_three_edges(self):
        g = cartesian_product([family("complete", 2)] * 3)
        q3 = family("hypercube", 3)
        assert g == q3  # same row-major labels by construction

    def test_needs_two_factors(self):
        with pytest.raises(ValueError):
            cartesian_product([family("path", 3)])

    def test_empty_factor_is_named(self):
        # the public constructor accepts a graph with no vertices; without the
        # guard the product's own from_edge_list would refuse vertex count 0,
        # naming the product instead of the factor
        empty = Graph(0, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64),
                      np.zeros((0, 2), dtype=np.int64))
        for factors in ([empty, family("path", 2)], [family("path", 2), empty]):
            with pytest.raises(EmptyFactor, match="every factor must have at least one vertex"):
                cartesian_product(factors)

    def test_row_major_ids(self):
        # vertex (u, v) of A x B is u * |B| + v: check a known adjacency
        a, b = family("path", 2), family("path", 3)
        g = cartesian_product([a, b])
        assert set(int(w) for w in g.neighbors(0)) == {1, 3}  # (0,0) ~ (0,1), (1,0)

    def test_fold_is_associative_up_to_labels(self):
        a, b, c = family("path", 2), family("cycle", 3), family("path", 3)
        left = cartesian_product([cartesian_product([a, b]), c])
        flat = cartesian_product([a, b, c])
        assert left == flat

    def test_distance_additivity(self):
        a, b = family("cycle", 5), family("path", 4)
        g = cartesian_product([a, b])
        da = naive_distances(a.n, edge_list(a))[2]
        db = naive_distances(b.n, edge_list(b))[1]
        dg = naive_distances(g.n, edge_list(g))[2 * 4 + 1]
        for u in range(a.n):
            for v in range(b.n):
                assert dg[u * 4 + v] == da[u] + db[v]

    def test_transmission_regular_closure(self):
        for sa, sb in iter_product(
                [FamilySpec("cycle", (5,)), FamilySpec("complete", (4,))],
                [FamilySpec("cycle", (4,)), FamilySpec("hypercube", (2,))]):
            g = cartesian_product([generate(sa), generate(sb)])
            assert is_transmission_regular(g)

    def test_product_transmission_formula(self):
        # tr((u,v)) = |H| tr(u) + |G| tr(v), spot-checked entrywise
        a, b = family("path", 3), family("cycle", 4)
        g = cartesian_product([a, b])
        ta, tb = transmission_table(a).tr, transmission_table(b).tr
        tg = transmission_table(g).tr
        for u in range(a.n):
            for v in range(b.n):
                assert tg[u * b.n + v] == b.n * ta[u] + a.n * tb[v]


class TestClosedForms:
    @pytest.mark.parametrize("spec,expected", [
        (FamilySpec("hamming", (2, 3)), Fraction(3, 4)),
        (FamilySpec("grid3", (2, 3, 4)), Fraction(1, 3)),
        (FamilySpec("torus", (3, 4)), Fraction(3, 5)),
        (FamilySpec("petersen", ()), Fraction(2, 3)),
        (FamilySpec("complete", (5,)), Fraction(5, 4)),
        (FamilySpec("cycle", (7,)), Fraction(7, 12)),
        (FamilySpec("path", (9,)), Fraction(1, 4)),
        (FamilySpec("star", (7,)), Fraction(7, 11)),
        (FamilySpec("complete_bipartite", (4, 2)), Fraction(6, 8)),
        (FamilySpec("hypercube", (5,)), Fraction(2, 5)),
    ])
    def test_values(self, spec, expected):
        assert closed_form_gamma(spec) == expected

    def test_matches_computation(self):
        for spec in [FamilySpec("hamming", (2, 4)), FamilySpec("grid3", (3, 3, 3)),
                     FamilySpec("torus", (3, 5)), FamilySpec("hypercube", (4,)),
                     FamilySpec("star", (2,)), FamilySpec("grid3", (1, 2, 5))]:
            assert gamma(generate(spec)).gamma == closed_form_gamma(spec)

    def test_too_small_for_formula(self):
        with pytest.raises(InvalidSpec):
            closed_form_gamma(FamilySpec("complete", (1,)))
        with pytest.raises(InvalidSpec):
            closed_form_gamma(FamilySpec("path", (1,)))
        with pytest.raises(InvalidSpec):
            closed_form_gamma(FamilySpec("grid3", (1, 1, 1)))


class TestHarmonic:
    def test_pair(self):
        assert gamma_harmonic([Fraction(2), Fraction(2)]) == 1

    def test_triple_matches_cube(self):
        assert gamma_harmonic([2, 2, 2]) == Fraction(2, 3)
        assert gamma_harmonic([2, 2, 2]) == closed_form_gamma(FamilySpec("hypercube", (3,)))

    def test_singleton(self):
        assert gamma_harmonic([Fraction(5, 7)]) == Fraction(5, 7)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveInput):
            gamma_harmonic([Fraction(1), Fraction(0)])
        with pytest.raises(NonPositiveInput):
            gamma_harmonic([])

    def test_product_law_on_families(self):
        pairs = [
            (FamilySpec("path", (4,)), FamilySpec("cycle", (5,))),
            (FamilySpec("star", (5,)), FamilySpec("complete", (4,))),
            (FamilySpec("complete_bipartite", (3, 2)), FamilySpec("path", (3,))),
        ]
        for sa, sb in pairs:
            g = cartesian_product([generate(sa), generate(sb)])
            lhs = gamma(g).gamma
            rhs = gamma_harmonic([gamma(generate(sa)).gamma, gamma(generate(sb)).gamma])
            assert lhs == rhs
