import math
import sys
import threading
import tracemalloc
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
    generate,
    graph,
    invariants,
    is_connected,
    is_transmission_regular,
    normalized_laplacian_mu,
    transmission_table,
)
from gammaconn.errors import (
    DisconnectedGraph,
    FixedLimit,
    InfeasibleVector,
    NoConvergence,
    TooLarge,
    TooSmall,
)
from gammaconn.graph import distance_matrix
from gammaconn.invariants import (
    laplacian_matrix,
    normalized_laplacian_matrix,
)
from gammaconn.random_graphs import gnm_connected, gnp, gnp_connected, gnp_disconnected, random_tree

from conftest import (
    INF,
    edge_list,
    family,
    naive_cheeger,
    naive_distances,
    naive_gamma,
    naive_objective,
    naive_squared_norm,
    small_family_corpus,
)


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

    def test_witness_equals_floyd_warshall_shells(self):
        graphs = [generate(spec) for spec in small_family_corpus()]
        rng = np.random.default_rng(20240806)
        graphs += [gnp_connected(int(rng.integers(2, 17)), 0.4, rng) for _ in range(100)]
        graphs += [gnp_disconnected(int(rng.integers(4, 21)), 0.15, rng) for _ in range(30)]
        for g in graphs:
            d = naive_distances(g.n, edge_list(g))
            rows = [sum(row) for row in d]
            if max(rows) < INF:  # 1 - r * gamma on the shells of the first maximiser
                value = Fraction(g.n, max(rows))
                expected = tuple(1 - r * value for r in d[rows.index(max(rows))])
            else:  # 1 on a smallest component, the first on ties; -k / (n - k) off it
                comps = {tuple(v for v in range(g.n) if d[s][v] < INF) for s in range(g.n)}
                small = min(comps, key=lambda c: (len(c), c[0]))
                rest = Fraction(-len(small), g.n - len(small))
                expected = tuple(Fraction(1) if v in small else rest for v in range(g.n))
            cert = gamma(g)
            assert cert.witness == expected
            assert type(cert.witness) is tuple
            assert all(type(w) is Fraction for w in cert.witness)
            # one shared object per shell, built once
            assert len(set(map(id, cert.witness))) == len(set(expected))
            assert cert.witness is cert.witness

    def test_racing_readers_get_one_witness(self):
        cert = gamma(family("path", 3000))  # 3000 shells: a long first build
        readers = 8
        barrier = threading.Barrier(readers, timeout=30)
        seen = []

        def read():
            barrier.wait()
            seen.append(cert.witness)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(readers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == readers and all(w is seen[0] for w in seen)


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

    def test_nan_entry_rejected(self):
        # neither tolerance check fires on NaN, so finiteness is checked first
        with pytest.raises(InfeasibleVector, match="finite"):
            gamma_objective(family("path", 3), [1.0, math.nan, -1.0])

    def test_inf_entry_rejected(self):
        with pytest.raises(InfeasibleVector):
            gamma_objective(family("path", 3), [1.0, math.inf, -1.0])


def _outcome(fn, *args):
    """The value of fn(*args), or the class of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the class is what is compared
        return type(exc)


def _feasible_rational(rng, dens):
    """A zero-sum, sup-norm-1 vector of Fractions drawn over the given denominators."""
    while True:
        y = [Fraction(int(rng.integers(-d, d + 1)), d) for d in dens]
        mean = sum(y) / len(y)
        z = [v - mean for v in y]
        sup = max(map(abs, z))
        if sup:
            return [v / sup for v in z]


class TestObjectiveAgainstOracle:
    """gamma_objective equals the per-edge loop in conftest exactly, or raises as it does."""

    def assert_agrees(self, g, x):
        expected = _outcome(naive_objective, g.n, edge_list(g), x)
        got = _outcome(gamma_objective, g, x)
        if isinstance(expected, type):
            assert got is expected, (g, x)
        else:
            assert got == expected, (g, x)
            exact = all(isinstance(v, (int, Fraction, np.integer)) for v in x)
            assert type(got) is (Fraction if exact else float)
        return got

    def test_shared_unshared_and_mixed_entries(self):
        g = family("path", 4)
        half = Fraction(1, 2)
        feasible = [
            [half, half, Fraction(-1), Fraction(0)],  # one object, twice
            [Fraction(1, 2), Fraction(1, 2), Fraction(-1), Fraction(0)],
            [1, Fraction(-1, 2), np.int64(0), Fraction(-1, 2)],
        ]
        values = [self.assert_agrees(g, x) for x in feasible]
        assert values == [Fraction(3, 2), Fraction(3, 2), Fraction(3, 2)]
        infeasible = [
            ([half, half, half, Fraction(-1)], "entries sum to 0.5, not 0"),
            ([Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-1)],
             "entries sum to 0.5, not 0"),
            ([half, half, -half, -half], "sup norm is 0.5, not 1"),
            ([1, np.int64(1), Fraction(-1, 2), 0], "entries sum to 1.5, not 0"),
        ]
        for x, message in infeasible:
            with pytest.raises(InfeasibleVector) as want:
                naive_objective(g.n, edge_list(g), x)
            with pytest.raises(InfeasibleVector) as got:
                gamma_objective(g, x)
            assert str(got.value) == str(want.value) == message

    def test_witnesses_of_family_and_random_corpora(self):
        graphs = [generate(spec) for spec in small_family_corpus()]
        rng = np.random.default_rng(20240806)
        graphs += [gnp_connected(int(rng.integers(2, 17)), 0.4, rng) for _ in range(100)]
        graphs += [gnp_disconnected(int(rng.integers(4, 21)), 0.15, rng) for _ in range(30)]
        graphs.append(from_edge_list(3, []))
        for g in graphs:
            cert = gamma(g)
            assert self.assert_agrees(g, cert.witness) == cert.gamma
            self.assert_agrees(g, [float(w) for w in cert.witness])

    @pytest.mark.parametrize("huge", [False, True], ids=["small_den", "huge_den"])
    def test_seeded_rational_vectors(self, huge):
        rng = np.random.default_rng(20240807 + huge)
        for _ in range(60):
            n = int(rng.integers(3, 13))  # on 2 vertices every feasible x is (1, -1)
            g = gnp(n, 0.5, rng)
            if huge:  # consecutive integers are coprime, so the lcm is far past 2^62
                dens = [2 ** 62 + int(rng.integers(0, 1000)) + i for i in range(n)]
            else:
                dens = [int(d) for d in rng.integers(1, 13, size=n)]
            x = _feasible_rational(rng, dens)
            assert (math.lcm(*(v.denominator for v in x)) >= 2 ** 62) == huge
            self.assert_agrees(g, x)
            # infeasible: the sum is off, the sup norm is off, or both
            eps = Fraction(1, dens[0] * 7 + 1)
            i = int(rng.integers(0, n))
            for bad in (x[:i] + [x[i] + eps] + x[i + 1:],
                        [v * (1 - eps) for v in x],
                        [v * (1 + eps) for v in x],
                        x[:-1]):
                assert _outcome(gamma_objective, g, bad) is InfeasibleVector
                self.assert_agrees(g, bad)

    def test_int_and_numpy_int_entries(self):
        c4, p3 = family("cycle", 4), family("path", 3)
        for g, x in [(c4, [1, -1, 1, -1]),
                     (c4, [1, 0, -1, 0]),
                     (c4, np.array([1, 0, 0, -1], dtype=np.int64)),
                     (c4, [np.int32(-1), np.int32(1), np.int32(0), np.int32(0)]),
                     (p3, [1, 0, -1]),
                     (p3, np.array([0, 1, -1], dtype=np.int8)),
                     (p3, [1, 1, -1]),
                     (p3, np.array([2, 0, -2])),
                     (p3, [Fraction(1), np.int64(0), -1])]:
            self.assert_agrees(g, x)
        assert gamma_objective(c4, [1, -1, 1, -1]) == 2

    def test_huge_denominator_literal(self):
        tiny = Fraction(1, 2 ** 70)
        x = [Fraction(1), -1 + tiny, -tiny]
        assert self.assert_agrees(family("path", 3), x) == 2 - tiny
        assert self.assert_agrees(family("cycle", 3), x) == 2 - tiny

    def test_sup_check_precedes_any_fixed_width_array(self):
        # a scaled numerator past int64 must fail the sup check, not overflow
        with pytest.raises(InfeasibleVector, match="sup norm"):
            gamma_objective(family("path", 3), [2 ** 70, 0, -2 ** 70])
        self.assert_agrees(family("path", 3), [2 ** 70, 0, -2 ** 70])

    def test_float_entries_keep_the_tolerance(self):
        p2 = family("path", 2)
        for x in ([1.0, -1.0 + 1e-12], [1.0, -1.0 + 1e-6], [1.0 + 1e-6, -1.0 - 1e-6],
                  [Fraction(1), -1.0], [1, -0.5]):
            self.assert_agrees(p2, x)
        assert gamma_objective(from_edge_list(2, []), [1.0, -1.0]) == 0


class TestWiener:
    def test_examples(self):
        assert transmission_table(family("complete", 4)).wiener == 6
        assert transmission_table(family("path", 4)).wiener == 10
        assert transmission_table(family("cycle", 5)).wiener == 15

    def test_disconnected(self, two_k2):
        with pytest.raises(DisconnectedGraph):
            transmission_table(two_k2)


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

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-9])
    def test_distance_radius_refuses_tol(self, tol):
        with pytest.raises(ValueError):
            distance_spectral_radius(family("cycle", 6), tol)

    def test_dense_cap_covers_every_matrix(self, monkeypatch):
        # one setting caps the distance and both Laplacian matrices
        monkeypatch.setattr(graph, "_DENSE_MAX_N", 5)
        small, large = family("cycle", 5), family("cycle", 6)
        builders = (distance_matrix, laplacian_matrix, normalized_laplacian_matrix)
        for build in builders:
            assert build(small).shape == (5, 5)
            with pytest.raises(FixedLimit, match=r"dense matrices capped at n <= 5"):
                build(large)
        rep = bound_report(large, cheeger_max_n=5)
        for name in ("spectral_radius_upper", "laplacian_gap_upper"):
            assert rep.entry(name).skipped
            assert rep.entry(name).reason == "dense matrices capped at n <= 5"

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

    @pytest.mark.parametrize("build", [laplacian_matrix, normalized_laplacian_matrix])
    def test_laplacian_built_in_one_matrix(self, build):
        g = gnm_connected(600, 3000, seed=5)
        tracemalloc.start()
        try:
            build(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * g.n * g.n * 8

    def test_matrices(self):
        g = family("path", 3)
        assert laplacian_matrix(g).tolist() == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        lap = laplacian_matrix(family("cycle", 6))
        assert not np.signbit(lap[lap == 0]).any()  # no -0.0 from negating zeros


def _cheeger_oracle_graphs(n):
    # odd and even n put the pinned vertex's half and the other half at
    # equal or unequal sizes; cycles and circulants are regular, random
    # graphs and trees are not
    graphs = [gnp_connected(n, 0.4, seed=n), random_tree(n, seed=n)]
    if n >= 3:
        graphs.append(family("cycle", n))
    if n >= 5:
        graphs.append(from_edge_list(n, [(v, (v + s) % n) for v in range(n) for s in (1, 2)]))
    return graphs


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
        for g in _cheeger_oracle_graphs(n):
            val, subset = cheeger_constant(g)
            want, want_subset = naive_cheeger(g.n, edge_list(g))
            assert val == float(want)
            assert subset == want_subset

    @pytest.mark.parametrize("block", [2, 64])
    def test_many_blocks_keep_value_and_first_subset(self, block, monkeypatch):
        # block 2 gives one b row per block; block 64 several rows per block
        # and several blocks from n = 8 on; the tied minima of the symmetric
        # graphs check that the first one is kept across block boundaries
        monkeypatch.setattr(invariants, "_CHEEGER_BLOCK", block)
        graphs = [g for n in range(2, 15) for g in _cheeger_oracle_graphs(n)]
        graphs += [family("cycle", 12), family("hypercube", 3), family("complete", 8)]
        for g in graphs:
            want, want_subset = naive_cheeger(g.n, edge_list(g))
            assert invariants._exact_cheeger(g) == (float(want), tuple(want_subset))

    def test_irregular_volume_classes_at_n_15_and_16(self, monkeypatch):
        # the scan ranks least boundaries per low-half volume class; regular
        # graphs have one class per subset size, these 16 and 22 classes of
        # many sizes each
        broom = from_edge_list(16, [(v, v + 1) for v in range(5)] + [(5, v) for v in range(6, 16)])
        for g in (random_tree(15, seed=6), broom):
            want, want_subset = naive_cheeger(g.n, edge_list(g))
            for block in (invariants._CHEEGER_BLOCK, 2, 64):
                monkeypatch.setattr(invariants, "_CHEEGER_BLOCK", block)
                assert invariants._exact_cheeger(g) == (float(want), tuple(want_subset))

    def test_tie_across_volume_classes_keeps_the_first_mask(self):
        # the first minimising mask, {0, 1, 3, 5, 7, 9}, shares its high-half
        # row with a minimiser of smaller low-half volume, {0, 2, 3, 5, 7, 9}:
        # the winning row is rescanned in bitmask order, not read off its class
        g = gnp_connected(12, 0.35, seed=37)
        want, want_subset = naive_cheeger(g.n, edge_list(g))
        assert want_subset == [0, 1, 3, 5, 7, 9]
        assert invariants._exact_cheeger(g) == (float(want), tuple(want_subset))

    def test_enumeration_memory_stays_small(self):
        g = family("torus", 4, 6)
        tracemalloc.start()
        try:
            invariants._exact_cheeger(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_int16_counts_cover_the_width_cap(self):
        # 2m of the complete graph at the cap bounds every count the
        # enumeration forms, which it keeps in int16
        width = invariants._CHEEGER_WIDTH
        assert width * (width - 1) < 2 ** 15

    def test_float32_orders_every_quotient_at_the_width_cap(self):
        # every quotient the scan compares is cut / min(vol S, vol S-bar),
        # a p / q in [0, 1] with q <= m <= width (width - 1) / 2; the scan
        # ranks them in float32, which must keep their exact order and ties
        width = invariants._CHEEGER_WIDTH
        top = width * (width - 1) // 2
        p = np.concatenate([np.arange(k + 1) for k in range(1, top + 1)])
        q = np.concatenate([np.full(k + 1, k) for k in range(1, top + 1)])
        reduced = np.gcd(p, q) == 1
        p, q = p[reduced], q[reduced]
        order = np.argsort(p / q, kind="stable")
        p, q = p[order], q[order]
        # exact order, by cross-multiplication in int64
        assert (p[:-1] * q[1:] < p[1:] * q[:-1]).all()
        ratios = np.divide(p.astype(np.int16), q.astype(np.int16), dtype=np.float32)
        assert (np.diff(ratios) > 0).all()
        doubled = np.divide((2 * p).astype(np.int16), (2 * q).astype(np.int16), dtype=np.float32)
        assert (doubled == ratios).all()

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
    def test_witness_norm_is_the_fraction_sum(self):
        rng = np.random.default_rng(20240808)
        graphs = [family("path", 2000), family("torus", 4, 6)]
        graphs += [gnp_connected(int(rng.integers(2, 17)), 0.4, rng) for _ in range(50)]
        graphs += [gnp_disconnected(int(rng.integers(4, 21)), 0.15, rng) for _ in range(20)]
        for g in graphs:
            witness = gamma(g).witness
            assert naive_squared_norm(witness) == sum((w * w for w in witness), Fraction(0))

    def test_witness_norm_entry_from_shells(self):
        rng = np.random.default_rng(20240809)
        graphs = [family("path", 40), family("torus", 4, 6), family("complete", 6),
                  family("star", 7), family("complete_bipartite", 5, 3)]
        graphs += [gnp_connected(int(rng.integers(2, 17)), 0.4, rng) for _ in range(20)]
        for g in graphs:
            norm = naive_squared_norm(gamma(g).witness)
            e = bound_report(g, cheeger_max_n=2).entry("witness_norm_lower")
            assert e.rhs == float(norm)
            assert e.holds and e.equality_attained == (norm == Fraction(g.n, g.n - 1))

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
        rep = bound_report(family("cycle", 14), cheeger_max_n=12)
        assert rep.entry("l1_variation_upper").skipped
        assert rep.entry("expansion_vs_mu_upper").skipped
        assert rep.all_hold  # skipped entries do not fail the report

    def test_wiener_equality_iff_transmission_regular(self):
        for seed in range(8):
            g = gnp_connected(8, 0.45, seed=seed)
            e = bound_report(g).entry("wiener_upper")
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
