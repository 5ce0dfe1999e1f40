import math
from fractions import Fraction

import numpy as np
import pytest

from gammaconn import (
    algebraic_connectivity,
    bound_report,
    cheeger_constant,
    distance_spectral_radius,
    from_edge_list,
    gamma,
    gamma_objective,
    is_connected,
    is_transmission_regular,
    normalized_laplacian_mu,
    transmission_table,
    wiener_index,
)
from gammaconn.errors import (
    DisconnectedGraph,
    InfeasibleVector,
    NoConvergence,
    TooLarge,
    TooSmall,
)
from gammaconn.invariants import (
    adjacency_matrix,
    laplacian_matrix,
    normalized_laplacian_matrix,
)
from gammaconn.random_graphs import gnp, gnp_connected, random_tree

from conftest import edge_list, family, naive_cheeger, naive_gamma


class TestGamma:
    @pytest.mark.parametrize("kind,params,expected", [
        ("complete", (5,), Fraction(5, 4)),
        ("cycle", (6,), Fraction(2, 3)),
        ("path", (5,), Fraction(1, 2)),
        ("star", (6,), Fraction(2, 3)),
        ("complete_bipartite", (3, 2), Fraction(5, 6)),
    ])
    def test_closed_form_examples(self, kind, params, expected):
        cert = gamma(family(kind, *params))
        assert cert.gamma == expected
        assert cert.connected and cert.witness_valid

    def test_value_is_n_over_max_transmission(self):
        for seed in range(8):
            g = gnp_connected(8, 0.4, seed=seed)
            cert = gamma(g)
            assert cert.gamma == Fraction(g.n, transmission_table(g).d_max)
            assert cert.gamma == naive_gamma(g.n, edge_list(g))

    def test_attaining_vertex_is_smallest_argmax(self, s6):
        cert = gamma(s6)
        assert cert.attaining_vertex == 1  # leaves carry the maximum; smallest id wins

    def test_witness_is_shell_vector(self, c6):
        cert = gamma(c6)
        # shells of vertex 0 at distances 0,1,2,3 with value 1 - r * 2/3
        g = Fraction(2, 3)
        assert cert.witness == (1, 1 - g, 1 - 2 * g, 1 - 3 * g, 1 - 2 * g, 1 - g)
        assert cert.residuals.zero_sum == 0
        assert cert.residuals.sup_deviation == 0
        assert cert.residuals.edge_gap == 0

    def test_witness_objective_equals_gamma_exactly(self):
        for seed in range(6):
            g = gnp_connected(7, 0.45, seed=20 + seed)
            cert = gamma(g)
            assert gamma_objective(g, cert.witness) == cert.gamma

    def test_disconnected_two_block_witness(self, two_k2):
        cert = gamma(two_k2)
        assert cert.gamma == 0 and not cert.connected
        assert cert.attaining_vertex is None
        assert cert.witness == (1, 1, -1, -1)
        assert cert.witness_valid

    def test_disconnected_unequal_components(self):
        g = from_edge_list(5, [(0, 1), (2, 3), (3, 4)])
        cert = gamma(g)
        assert cert.witness == (1, 1, Fraction(-2, 3), Fraction(-2, 3), Fraction(-2, 3))
        assert cert.witness_valid

    def test_isolated_vertices(self):
        cert = gamma(from_edge_list(3, []))
        assert cert.gamma == 0
        assert cert.witness == (1, Fraction(-1, 2), Fraction(-1, 2))
        assert cert.witness_valid

    def test_too_small(self):
        with pytest.raises(TooSmall):
            gamma(from_edge_list(1, []))


class TestGammaObjective:
    def test_direct_evaluation(self):
        assert gamma_objective(family("path", 3), [1.0, 0.0, -1.0]) == 1.0

    def test_complete3_witness(self):
        val = gamma_objective(family("complete", 3),
                              [Fraction(1), Fraction(-1, 2), Fraction(-1, 2)])
        assert val == Fraction(3, 2)

    def test_infeasible_sum(self):
        with pytest.raises(InfeasibleVector):
            gamma_objective(family("path", 3), [1.0, 1.0, 1.0])

    def test_infeasible_norm(self):
        with pytest.raises(InfeasibleVector):
            gamma_objective(family("path", 3), [0.5, 0.0, -0.5])

    def test_exact_input_checked_exactly(self):
        p2 = family("path", 2)
        eps = Fraction(1, 10 ** 12)
        with pytest.raises(InfeasibleVector):
            gamma_objective(p2, [1, -1 + eps])
        with pytest.raises(InfeasibleVector):
            gamma_objective(p2, [1 + eps, -1 - eps])
        # float input keeps the documented 1e-9 tolerance
        assert gamma_objective(p2, [1.0, -1.0 + 1e-12]) == pytest.approx(2.0)

    def test_length_mismatch(self):
        with pytest.raises(InfeasibleVector):
            gamma_objective(family("path", 3), [1.0, -1.0])


class TestWiener:
    def test_examples(self):
        assert wiener_index(family("complete", 4)) == 6
        assert wiener_index(family("path", 4)) == 10
        assert wiener_index(family("cycle", 5)) == 15

    def test_disconnected(self, two_k2):
        with pytest.raises(DisconnectedGraph):
            wiener_index(two_k2)


class TestTransmissionRegular:
    def test_examples(self):
        assert is_transmission_regular(family("cycle", 7))
        assert not is_transmission_regular(family("star", 5))
        assert is_transmission_regular(family("petersen"))


class TestSpectral:
    def test_distance_radius_complete(self):
        est = distance_spectral_radius(family("complete", 5), tol=1e-10)
        assert est.converged and abs(est.value - 4.0) <= 1e-8
        assert est.residual <= 1e-10

    def test_distance_radius_cycle_is_row_sum(self):
        est = distance_spectral_radius(family("cycle", 6), tol=1e-10)
        assert abs(est.value - 9.0) <= 1e-8

    def test_distance_radius_path3(self):
        est = distance_spectral_radius(family("path", 3), tol=1e-12)
        assert abs(est.value - (1 + math.sqrt(3))) <= 1e-9

    def test_distance_radius_matches_eigh(self):
        for seed in range(5):
            g = gnp_connected(10, 0.35, seed=seed)
            from gammaconn.graph import distance_matrix

            oracle = float(np.linalg.eigvalsh(distance_matrix(g).astype(float)).max())
            est = distance_spectral_radius(g, tol=1e-11)
            assert abs(est.value - oracle) <= 1e-7

    def test_radius_never_exceeds_max_transmission(self):
        for seed in range(5):
            g = gnp_connected(9, 0.4, seed=50 + seed)
            est = distance_spectral_radius(g, tol=1e-10)
            assert est.value <= transmission_table(g).d_max + 1e-8

    def test_algebraic_connectivity_complete(self):
        est = algebraic_connectivity(family("complete", 5), tol=1e-10)
        assert est.converged and abs(est.value - 5.0) <= 1e-8

    def test_algebraic_connectivity_edge(self):
        assert abs(algebraic_connectivity(family("path", 2)).value - 2.0) <= 1e-8

    def test_algebraic_connectivity_disconnected_is_zero(self, two_k2):
        assert abs(algebraic_connectivity(two_k2).value) <= 1e-8

    def test_algebraic_connectivity_matches_eigh(self):
        for seed in range(5):
            g = gnp(10, 0.4, seed=seed)
            oracle = float(np.sort(np.linalg.eigvalsh(laplacian_matrix(g)))[1])
            assert abs(algebraic_connectivity(g).value - oracle) <= 1e-8

    def test_normalized_mu_examples(self):
        assert abs(normalized_laplacian_mu(family("path", 2)).value - 2.0) <= 1e-8
        assert abs(normalized_laplacian_mu(family("cycle", 6)).value - 0.5) <= 1e-8
        assert abs(normalized_laplacian_mu(family("complete", 5)).value - 1.25) <= 1e-8

    def test_normalized_mu_matches_eigh(self):
        for seed in range(5):
            g = gnp_connected(9, 0.4, seed=seed)
            oracle = float(np.sort(np.linalg.eigvalsh(normalized_laplacian_matrix(g)))[1])
            assert abs(normalized_laplacian_mu(g).value - oracle) <= 1e-8

    # Closed-form spectra, an eigen oracle independent of LAPACK: the
    # Laplacian multiset, and for the normalized Laplacian either the
    # multiset or the degree r of a regular graph (spectrum = Laplacian / r).
    CLOSED_FORM_SPECTRA = [
        (("cycle", 3), [2 - 2 * math.cos(2 * math.pi * k / 3) for k in range(3)], 2),
        (("cycle", 8), [2 - 2 * math.cos(2 * math.pi * k / 8) for k in range(8)], 2),
        (("cycle", 13), [2 - 2 * math.cos(2 * math.pi * k / 13) for k in range(13)], 2),
        (("hypercube", 3), [2 * k for k in range(4) for _ in range(math.comb(3, k))], 3),
        (("hypercube", 5), [2 * k for k in range(6) for _ in range(math.comb(5, k))], 5),
        (("complete_bipartite", 4, 3), [0] + [4] * 2 + [3] * 3 + [7],
         [0] + [1] * 5 + [2]),
        (("complete_bipartite", 6, 2), [0] + [6] * 1 + [2] * 5 + [8],
         [0] + [1] * 6 + [2]),
        (("complete_bipartite", 5, 1), [0] + [5] * 0 + [1] * 4 + [6], [0] + [1] * 4 + [2]),
        (("petersen",), [0] + [2] * 5 + [5] * 4, 3),
    ]

    @pytest.mark.parametrize("spec,lap,norm", CLOSED_FORM_SPECTRA)
    def test_closed_form_spectrum(self, spec, lap, norm):
        g = family(*spec)
        norm = sorted(x / norm for x in lap) if isinstance(norm, int) else sorted(norm)
        lap = sorted(lap)
        assert len(lap) == len(norm) == g.n
        assert np.allclose(np.linalg.eigvalsh(laplacian_matrix(g)), lap, atol=1e-9)
        assert np.allclose(np.linalg.eigvalsh(normalized_laplacian_matrix(g)), norm, atol=1e-9)
        for est, want in ((algebraic_connectivity(g), lap[1]),
                          (normalized_laplacian_mu(g), norm[1])):
            assert abs(est.value - want) <= 1e-9
            assert est.converged and est.residual <= 1e-10 and est.iterations == 1

    def test_lapack_failure_skips_bound_entries(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergence):
            algebraic_connectivity(family("cycle", 5))
        rep = bound_report(family("cycle", 6))
        for name in ("laplacian_gap_upper", "expansion_vs_mu_upper", "expansion_vs_mu_lower"):
            assert rep.entry(name).skipped
        assert rep.all_hold

    def test_matrices(self):
        g = family("path", 3)
        assert adjacency_matrix(g).tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        assert laplacian_matrix(g).tolist() == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]


class TestCheeger:
    def test_examples(self):
        val, subset = cheeger_constant(family("complete", 4))
        assert val == pytest.approx(2 / 3, abs=0) and len(subset) == 2
        val, subset = cheeger_constant(family("cycle", 6))
        assert val == pytest.approx(1 / 3, abs=0)
        val, subset = cheeger_constant(family("complete", 2))
        assert val == 1.0 and subset == [0]
        val, _ = cheeger_constant(family("petersen"))
        assert val == pytest.approx(1 / 3, abs=0)

    def test_matches_subset_oracle(self):
        for seed in range(6):
            g = gnp_connected(8, 0.4, seed=seed)
            val, subset = cheeger_constant(g)
            want, _ = naive_cheeger(g.n, edge_list(g))
            assert Fraction(val).limit_denominator(10 ** 6) == want
            # the returned subset really attains the value
            side = set(subset)
            cut = sum(1 for u, v in edge_list(g) if (u in side) != (v in side))
            deg = g.degrees()
            vol = int(deg[list(side)].sum())
            assert val == cut / min(vol, 2 * g.m - vol)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_value_and_first_subset_match_oracle(self, n):
        # odd and even n put the pinned vertex's half and the other half at
        # equal or unequal sizes; cycles and circulants are regular, random
        # graphs and trees are not
        graphs = [gnp_connected(n, 0.4, seed=n), random_tree(n, seed=n)]
        if n >= 3:
            graphs.append(family("cycle", n))
        if n >= 5:
            graphs.append(from_edge_list(n, [(v, (v + s) % n) for v in range(n) for s in (1, 2)]))
        for g in graphs:
            val, subset = cheeger_constant(g)
            want, want_subset = naive_cheeger(g.n, edge_list(g))
            assert val == float(want)
            assert subset == want_subset

    def test_torus_4x6_pinned(self):
        val, subset = cheeger_constant(family("torus", 4, 6))
        assert val == 1 / 6
        assert subset == [0, 1, 2, 6, 7, 8, 12, 13, 14, 18, 19, 20]

    def test_memo_hands_out_fresh_subsets(self):
        g = family("cycle", 6)
        _, subset = cheeger_constant(g)
        subset.append(99)
        assert cheeger_constant(g)[1] == [0, 1, 2]

    def test_too_large(self):
        with pytest.raises(TooLarge):
            cheeger_constant(family("cycle", 30))

    def test_disconnected(self, two_k2):
        with pytest.raises(DisconnectedGraph):
            cheeger_constant(two_k2)


class TestBoundReport:
    def test_complete_graph_spectral_equality(self, k5):
        rep = bound_report(k5)
        e = rep.entry("spectral_radius_upper")
        assert e.holds and e.equality_attained and e.equality_expected
        assert rep.all_hold

    def test_star_tree_equality(self, s6):
        e = bound_report(s6).entry("tree_upper")
        assert e.holds and e.equality_attained and e.equality_expected

    def test_path_lower_equality(self):
        e = bound_report(family("path", 6)).entry("global_lower")
        assert e.holds and e.equality_attained and e.equality_expected

    def test_cycle_all_hold(self, c6):
        rep = bound_report(c6)
        assert rep.all_hold
        assert not rep.entry("expansion_upper").skipped  # cycles are regular
        assert rep.entry("tree_upper").skipped

    def test_non_regular_skips_expansion(self, s6):
        assert bound_report(s6).entry("expansion_upper").skipped

    def test_caps_mark_skipped(self):
        rep = bound_report(family("cycle", 14), b_oracle_max_n=12, cheeger_max_n=12)
        assert rep.entry("l1_variation_upper").skipped
        assert rep.entry("expansion_vs_mu_upper").skipped
        assert rep.all_hold  # skipped entries do not fail the report

    def test_wiener_equality_iff_transmission_regular(self):
        for seed in range(8):
            g = gnp_connected(8, 0.45, seed=seed)
            e = bound_report(g, b_oracle_max_n=2).entry("wiener_upper")
            assert e.equality_attained == is_transmission_regular(g)
            assert e.equality_attained == e.equality_expected

    def test_k2_boundary_case_within_slack(self):
        # the Laplacian bound degenerates to equality on a single edge; the
        # strict comparison is kept green by the documented 1e-9 slack
        rep = bound_report(family("complete", 2))
        e = rep.entry("laplacian_gap_upper")
        assert e.holds and abs(e.lhs - e.rhs) <= 1e-9

    def test_disconnected_rejected(self, two_k2):
        with pytest.raises(DisconnectedGraph):
            bound_report(two_k2)

    def test_suboperation_failure_skips_entry_only(self, c6, monkeypatch):
        # a non-converging eigensolver must not abort the rest of the report
        import gammaconn.invariants as inv
        from gammaconn.errors import NoConvergence

        def boom(*args, **kwargs):
            raise NoConvergence("forced for the test")

        monkeypatch.setattr(inv, "normalized_laplacian_mu", boom)
        rep = inv.bound_report(c6)
        assert rep.entry("expansion_vs_mu_upper").skipped
        assert rep.entry("expansion_vs_mu_lower").skipped
        assert not rep.entry("wiener_upper").skipped
        assert rep.all_hold


class TestDisconnectionCharacterization:
    def test_zero_iff_disconnected_across_densities(self):
        # densities straddling the connectivity threshold of G(10, p)
        for i, p in enumerate((0.05, 0.1, 0.15, 0.2, 0.3, 0.5)):
            for seed in range(5):
                g = gnp(10, p, seed=1000 * i + seed)
                cert = gamma(g)
                assert (cert.gamma == 0) == (not is_connected(g))
                assert cert.witness_valid


class TestMonotonicity:
    def test_adding_edges_never_decreases_gamma(self):
        for seed in range(6):
            g = gnp_connected(8, 0.35, seed=70 + seed)
            base = gamma(g).gamma
            present = {tuple(e) for e in edge_list(g)}
            missing = [(u, v) for u in range(8) for v in range(u + 1, 8)
                       if (u, v) not in present]
            for extra in missing:
                h = from_edge_list(8, edge_list(g) + [extra])
                assert gamma(h).gamma >= base
