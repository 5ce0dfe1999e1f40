import math

import numpy as np
import pytest

from gammaconn import b_small_oracle, gamma, transmission_table
from gammaconn import lp as lp_module
from gammaconn.errors import DisconnectedGraph, TooLarge, TooSmall
from gammaconn.lp import (
    EQUAL,
    GREATER_EQ,
    INFEASIBLE,
    LESS_EQ,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    gamma_lp_details,
    simplex_solve,
    simplex_solve_many,
)
from gammaconn.random_graphs import gnm_connected, gnp_connected, random_tree

from conftest import (  # noqa: F401
    build_lp_k,
    counted,
    edge_list,
    family,
    naive_distances,
    naive_l1_cut,
    naive_l1_lp,
    naive_lp,
    solve_lp_k,
    two_k2,
)

INF = math.inf


class TestSimplex:
    def test_bounded_maximization(self):
        lp = LinearProgram(1, (-1.0,), (), ((0.0, 1.0),))
        sol = simplex_solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-1.0, abs=1e-9)
        assert sol.assignment[0] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram(1, (1.0,), (((1.0,), LESS_EQ, -1.0),), ((0.0, INF),))
        assert simplex_solve(lp).status == INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(1, (-1.0,), (), ((0.0, INF),))
        assert simplex_solve(lp).status == UNBOUNDED

    def test_free_variable_split(self):
        # minimize x subject to x >= -5 expressed as a row, x genuinely free
        lp = LinearProgram(1, (1.0,), (((1.0,), GREATER_EQ, -5.0),), ((-INF, INF),))
        sol = simplex_solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-5.0, abs=1e-8)

    def test_reflected_variable(self):
        # only an upper bound: minimize -x, x <= 7
        lp = LinearProgram(1, (-1.0,), (), ((-INF, 7.0),))
        sol = simplex_solve(lp)
        assert sol.status == OPTIMAL and sol.assignment[0] == pytest.approx(7.0)

    def test_equality_row(self):
        lp = LinearProgram(
            2, (1.0, 2.0),
            (((1.0, 1.0), EQUAL, 4.0),),
            ((0.0, INF), (0.0, INF)))
        sol = simplex_solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(4.0, abs=1e-8)
        assert sol.assignment.tolist() == pytest.approx([4.0, 0.0], abs=1e-8)

    def test_solution_satisfies_constraints(self):
        lp = LinearProgram(
            3, (1.0, -2.0, 1.5),
            (((1.0, 1.0, 1.0), LESS_EQ, 10.0),
             ((1.0, -1.0, 0.0), GREATER_EQ, -3.0),
             ((0.0, 1.0, 1.0), EQUAL, 5.0)),
            ((0.0, 8.0), (0.0, 8.0), (-2.0, 8.0)))
        sol = simplex_solve(lp)
        assert sol.status == OPTIMAL
        x = sol.assignment
        assert x[0] + x[1] + x[2] <= 10 + 1e-8
        assert x[0] - x[1] >= -3 - 1e-8
        assert abs(x[1] + x[2] - 5) <= 1e-8
        assert abs(sol.objective - float(np.array(lp.objective) @ x)) <= 1e-8

    def test_deterministic(self):
        lp = LinearProgram(
            3, (1.0, -2.0, 1.5),
            (((1.0, 1.0, 1.0), LESS_EQ, 10.0),
             ((0.0, 1.0, 1.0), EQUAL, 5.0)),
            ((0.0, 8.0), (0.0, 8.0), (-2.0, 8.0)))
        a = simplex_solve(lp)
        b = simplex_solve(lp)
        assert a.status == b.status
        assert a.objective == b.objective
        assert a.iterations == b.iterations
        assert a.assignment.tolist() == b.assignment.tolist()

    def test_bound_flip_counts_as_a_step(self, monkeypatch):
        # x0 enters first and reaches its own upper bound before the row
        # binds (a flip, no pivot); x1 then enters and pivots the slack out
        lp = LinearProgram(
            2, (-1.0, -1.0),
            (((1.0, 1.0), LESS_EQ, 5.0),),
            ((0.0, 1.0), (0.0, 10.0)))
        pivots = []
        pivot = lp_module._pivot
        monkeypatch.setattr(lp_module, "_pivot",
                            lambda *args: pivots.append(args[2:]) or pivot(*args))
        sol = simplex_solve(lp)
        assert sol.status == OPTIMAL
        assert sol.assignment.tolist() == pytest.approx([1.0, 4.0], abs=1e-12)
        assert len(pivots) == 1 and sol.iterations == 2

    def test_beale_cycling_example(self):
        # Beale (1955): degenerate, and cycles under the largest-coefficient
        # entering rule; Bland's rule must terminate (else IterationCap)
        lp = LinearProgram(
            4, (-0.75, 20.0, -0.5, 6.0),
            (((0.25, -8.0, -1.0, 9.0), LESS_EQ, 0.0),
             ((0.5, -12.0, -0.5, 3.0), LESS_EQ, 0.0)),
            ((0.0, INF), (0.0, INF), (0.0, 1.0), (0.0, INF)))
        sol = simplex_solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-1.25, abs=1e-12)
        assert sol.assignment.tolist() == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearProgram(2, (1.0,), (), ((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(ValueError):
            LinearProgram(1, (1.0,), (), ((2.0, 1.0),))
        with pytest.raises(ValueError):
            LinearProgram(1, (1.0,), (((1.0,), "!=", 0.0),), ((0.0, 1.0),))


def random_boxed_lp(rng):
    """Small integer LP: n <= 4 boxed or fixed variables, m <= 4 mixed rows."""
    n, m = int(rng.integers(1, 5)), int(rng.integers(0, 5))
    relations = (LESS_EQ, EQUAL, GREATER_EQ)
    constraints = tuple(
        (tuple(float(c) for c in rng.integers(-3, 4, n)),
         relations[int(rng.integers(3))], float(rng.integers(-4, 5)))
        for _ in range(m))
    bounds = []
    for _ in range(n):
        lo = float(rng.integers(-3, 3))
        bounds.append((lo, lo if rng.random() < 0.2 else lo + float(rng.integers(1, 4))))
    objective = tuple(float(c) for c in rng.integers(-3, 4, n))
    return LinearProgram(n, objective, constraints, tuple(bounds))


class TestAgainstVertexEnumeration:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_boxed_lps(self, seed):
        rng = np.random.default_rng(seed)
        statuses = []
        for _ in range(100):
            lp = random_boxed_lp(rng)
            sol = simplex_solve(lp)
            expected = naive_lp(lp.objective, lp.constraints, lp.bounds)
            statuses.append(sol.status)
            if expected is None:
                assert sol.status == INFEASIBLE
            else:
                assert sol.status == OPTIMAL
                assert sol.objective == pytest.approx(expected[0], abs=1e-7)
        assert {OPTIMAL, INFEASIBLE} <= set(statuses)


class TestBatch:
    """`simplex_solve_many` against one `simplex_solve` per objective."""

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_matches_single_solves(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            lp = random_boxed_lp(rng)
            objectives = [lp.objective] + [
                tuple(float(c) for c in rng.integers(-3, 4, lp.num_vars)) for _ in range(4)]
            batch = simplex_solve_many(lp, objectives)
            assert len(batch) == len(objectives)
            for objective, got in zip(objectives, batch):
                alone = simplex_solve(
                    LinearProgram(lp.num_vars, objective, lp.constraints, lp.bounds))
                assert got.status == alone.status
                assert got.iterations == alone.iterations
                if alone.status == OPTIMAL:
                    assert got.objective == pytest.approx(alone.objective, abs=1e-12)

    def test_unbounded_member_keeps_the_others_optimal(self):
        # x1 - x0 <= 2 with x0 >= 0 unbounded above: min -x0 is unbounded,
        # min x0 - x1 is -2 (x1 = 4, x0 = 2) and min x1 is 0
        lp = LinearProgram(2, (0.0, 0.0), (((-1.0, 1.0), LESS_EQ, 2.0),),
                           ((0.0, INF), (0.0, 4.0)))
        objectives = [(1.0, -1.0), (-1.0, 0.0), (0.0, 1.0)]
        batch = simplex_solve_many(lp, objectives)
        assert [sol.status for sol in batch] == [OPTIMAL, UNBOUNDED, OPTIMAL]
        assert batch[0].objective == pytest.approx(-2.0, abs=1e-12)
        assert batch[1].objective is None and batch[1].assignment is None
        assert batch[2].objective == pytest.approx(0.0, abs=1e-12)
        for objective, got in zip(objectives, batch):
            alone = simplex_solve(LinearProgram(2, objective, lp.constraints, lp.bounds))
            assert (got.status, got.iterations) == (alone.status, alone.iterations)

    def test_infeasible_rows_fail_every_member(self):
        # x0 + x1 >= 5 cannot hold with x0 <= 1 and x1 <= 2, whatever the objective
        lp = LinearProgram(2, (0.0, 0.0), (((1.0, 1.0), GREATER_EQ, 5.0),),
                           ((0.0, 1.0), (0.0, 2.0)))
        batch = simplex_solve_many(lp, [(1.0, 0.0), (-1.0, 0.0), (0.0, -1.0)])
        assert [sol.status for sol in batch] == [INFEASIBLE] * 3
        assert all(sol.objective is None and sol.assignment is None for sol in batch)

    @pytest.mark.parametrize("per_block", [1, 7])
    def test_blocks_keep_per_k_and_best_k(self, monkeypatch, per_block):
        # torus(4,6): 24 programs of r = 25 rows, in blocks of per_block
        g = family("torus", 4, 6)
        _, want, want_k = gamma_lp_details(g)
        r = g.n + 1
        monkeypatch.setattr(lp_module, "_INVERSE_BYTES", per_block * 8 * r * r)
        blocks = counted(monkeypatch, lp_module, "_run_phase")
        _, per_k, best_k = gamma_lp_details(g)
        sizes = [len(args[0]) for args in blocks]
        assert sum(sizes) == g.n and max(sizes) <= per_block
        assert len(sizes) == -(-g.n // per_block)
        assert per_k == pytest.approx(want, abs=1e-12)
        assert best_k == want_k


class TestPinnedVertexLP:
    def test_shape_for_single_edge(self):
        lp = build_lp_k(family("path", 2), 0)
        assert lp.num_vars == 3  # x_0, x_1, y
        relations = [rel for _, rel, _ in lp.constraints]
        assert relations.count(LESS_EQ) == 2 and relations.count(EQUAL) == 1
        assert lp.bounds[0] == (1.0, 1.0)
        sol = simplex_solve(lp)
        assert sol.objective == pytest.approx(2.0, abs=1e-9)

    def test_triangle_optimum(self):
        assert solve_lp_k(family("complete", 3), 0).objective == pytest.approx(1.5, abs=1e-9)

    def test_path3_center_optimum(self):
        # brute-force/grid oracle value: pinning the middle vertex forces 3/2,
        # strictly worse than the endpoint programs, which attain 1
        got = solve_lp_k(family("path", 3), 1).objective
        assert got == pytest.approx(1.5, abs=1e-9)
        per_k = gamma_lp_details(family("path", 3))[1]
        assert per_k == pytest.approx([1.0, 1.5, 1.0], abs=1e-9)


class TestDualAgainstPrimal:
    """`gamma_lp_details` solves every k cold in dual form; these pin it to the primal."""

    @pytest.mark.parametrize("kind,params,orbits", [
        ("path", (3,), [[0, 2], [1]]),
        ("star", (4,), [[0], [1, 2, 3]]),
        ("cycle", (4,), [[0, 1, 2, 3]]),
        ("complete", (4,), [[0, 1, 2, 3]]),
    ])
    def test_per_k_match_vertex_enumeration(self, kind, params, orbits):
        # pinned vertices in one automorphism orbit have equal optima, so the
        # oracle solves one program per orbit
        g = family(kind, *params)
        per_k = gamma_lp_details(g)[1]
        for orbit in orbits:
            lp = build_lp_k(g, orbit[0])
            expected = naive_lp(lp.objective, lp.constraints, lp.bounds)[0]
            for k in orbit:
                assert per_k[k] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_per_k_match_cold_solves(self, seed):
        g = gnp_connected(3 + seed % 6, 0.45, seed=50 + seed)
        best, per_k, best_k = gamma_lp_details(g)
        cold = [solve_lp_k(g, k).objective for k in range(g.n)]
        best_x = solve_lp_k(g, best_k).assignment[:g.n]
        assert per_k == pytest.approx(cold, abs=1e-9)
        assert best == per_k[best_k] <= min(per_k) + 1e-12
        # the first minimiser, ties going to the smaller vertex
        assert best_k == next(k for k, v in enumerate(cold) if v <= min(cold) + 1e-9)
        assert best_x[best_k] == pytest.approx(1.0, abs=1e-9)
        assert min(per_k) == pytest.approx(float(gamma(g).gamma), abs=1e-9)

    def test_long_sequence_stays_within_tolerance(self):
        # 40 dual programs against 40 cold primal solves: a long sequence is
        # where drift would show; warm-starting each program from the last
        # without rebuilding the tableau drifted here by 2.4e-9
        g = gnm_connected(40, 100, seed=20240809)
        per_k = gamma_lp_details(g)[1]
        cold = [solve_lp_k(g, k).objective for k in range(g.n)]
        assert per_k == pytest.approx(cold, abs=1e-9)

    @pytest.mark.parametrize("g", [family("path", 2), family("petersen"),
                                   gnp_connected(7, 0.4, seed=3)],
                             ids=["path2", "petersen", "gnp7"])
    def test_one_simplex_solve_per_program(self, monkeypatch, g):
        # one dual objective per pinned vertex, all in one batch call, and
        # no program solved on its own
        batches = counted(monkeypatch, lp_module, "simplex_solve_many")
        solves = counted(monkeypatch, lp_module, "simplex_solve")
        gamma_lp_details(g)
        assert len(batches) == 1 and len(batches[0][1]) == g.n
        assert solves == []


class TestLpOracleValue:
    @pytest.mark.parametrize("kind,params,expected", [
        ("cycle", (4,), 1.0),
        ("star", (4,), 0.8),
        ("complete", (2,), 2.0),
    ])
    def test_examples(self, kind, params, expected):
        assert gamma_lp_details(family(kind, *params))[0] == pytest.approx(expected, abs=1e-6)

    def test_agrees_with_formula(self):
        for seed in range(10):
            g = gnp_connected(7, 0.4, seed=seed)
            assert gamma_lp_details(g)[0] == pytest.approx(float(gamma(g).gamma), abs=1e-6)

    def test_per_k_lower_bounded_by_gamma(self):
        for seed in range(5):
            g = gnp_connected(7, 0.4, seed=30 + seed)
            value = float(gamma(g).gamma)
            best, per_k, best_k = gamma_lp_details(g)
            assert all(v >= value - 1e-6 for v in per_k)
            assert best == pytest.approx(value, abs=1e-6)
            # observation (not asserted as an invariant by itself): the
            # minimizing vertex sits in the transmission argmax set
            argmax = set(transmission_table(g).argmax)
            if best_k not in argmax:  # pragma: no cover - would be a finding
                print(f"note: minimizing k={best_k} outside argmax {argmax}")

    def test_best_vector_is_feasible(self):
        g = family("cycle", 5)
        x = solve_lp_k(g, gamma_lp_details(g)[2]).assignment[:g.n]
        assert abs(float(np.sum(x))) <= 1e-8
        assert abs(np.abs(x).max() - 1.0) <= 1e-8

    def test_optimal_assignments_satisfy_all_constraints(self):
        for seed in range(4):
            g = gnp_connected(6, 0.5, seed=40 + seed)
            for k in range(g.n):
                lp = build_lp_k(g, k)
                sol = simplex_solve(lp)
                assert sol.status == OPTIMAL
                x = sol.assignment
                for coeffs, rel, rhs in lp.constraints:
                    lhs = float(np.array(coeffs) @ x)
                    if rel == LESS_EQ:
                        assert lhs <= rhs + 1e-8
                    elif rel == EQUAL:
                        assert abs(lhs - rhs) <= 1e-8
                    else:
                        assert lhs >= rhs - 1e-8
                for value, (lo, hi) in zip(x, lp.bounds):
                    assert lo - 1e-8 <= value <= hi + 1e-8
                assert abs(sol.objective - float(np.array(lp.objective) @ x)) <= 1e-8

    def test_disconnected_rejected(self, two_k2):
        with pytest.raises(DisconnectedGraph):
            gamma_lp_details(two_k2)

    def test_too_small(self):
        from gammaconn import from_edge_list

        with pytest.raises(TooSmall):
            gamma_lp_details(from_edge_list(1, []))


class TestOracleAgainstTransmissions:
    """The pinned-vertex optima against n / tr(k) from Floyd-Warshall distances.

    Program k is at least n / tr(k): along shortest paths to k, a largest
    edge gap t gives n <= t tr(k). It equals n / tr(k) wherever
    2 tr(k) >= ecc(k) n, where x_v = 1 - n d(k, v) / tr(k) is feasible. So
    the first minimiser is a maximum-transmission vertex.
    """

    @pytest.mark.parametrize("g", [
        gnm_connected(40, 100, seed=20240809),
        gnm_connected(30, 60, seed=11),
        random_tree(25, seed=5),
        family("torus", 4, 6),
        gnm_connected(60, 180, seed=7),
        family("cycle", 60),
        family("petersen"),
    ], ids=["gnm40", "gnm30", "tree25", "torus4x6", "gnm60", "cycle60", "petersen"])
    def test_per_k_against_transmissions(self, g):
        _, per_k, best_k = gamma_lp_details(g)
        for k, row in enumerate(naive_distances(g.n, edge_list(g))):
            tr, ecc = sum(row), max(row)
            assert per_k[k] >= g.n / tr - 1e-9
            if 2 * tr >= ecc * g.n:
                assert per_k[k] == pytest.approx(g.n / tr, abs=1e-9)
        assert best_k in transmission_table(g).argmax


class TestL1Oracle:
    def test_single_edge(self):
        # the only feasible points are (1/2, -1/2) and its negation
        assert b_small_oracle(family("complete", 2)) == pytest.approx(1.0, abs=1e-9)

    def test_path3_regression(self):
        # frozen from the 8-pattern enumeration (cross-checked externally)
        assert b_small_oracle(family("path", 3)) == pytest.approx(0.75, abs=1e-9)

    def test_more_regressions(self):
        assert b_small_oracle(family("cycle", 4)) == pytest.approx(1.0, abs=1e-9)
        assert b_small_oracle(family("complete", 3)) == pytest.approx(1.5, abs=1e-9)

    def test_upper_bound_by_gamma(self):
        for seed in range(6):
            g = gnp_connected(6, 0.5, seed=seed)
            bound = (g.m / 2) * float(gamma(g).gamma)
            assert b_small_oracle(g) <= bound + 1e-7

    def test_single_edge_bound_is_tight(self):
        g = family("complete", 2)
        assert b_small_oracle(g) == pytest.approx((g.m / 2) * float(gamma(g).gamma), abs=1e-9)

    @pytest.mark.parametrize("g", [gnp_connected(2 + seed % 8, 0.45, seed=seed)
                                   for seed in range(10)]
                             + [family("petersen"), random_tree(9, 7)],
                             ids=[f"gnp{seed}" for seed in range(10)] + ["petersen", "tree9"])
    def test_matches_cut_oracle(self, g):
        assert b_small_oracle(g) == naive_l1_cut(g.n, edge_list(g))

    @pytest.mark.parametrize("g", [gnp_connected(2 + seed % 8, 0.45, seed=seed)
                                   for seed in range(10) if seed % 8 < 7]
                             + [family("path", 3), family("cycle", 4), family("complete", 3)],
                             ids=[f"gnp{seed}" for seed in range(10) if seed % 8 < 7]
                             + ["path3", "c4", "k3"])
    def test_matches_sign_pattern_lps(self, g):
        # n <= 8: the LP route solves 2^(n-1) programs
        expected = naive_l1_lp(g.n, edge_list(g))
        assert float(b_small_oracle(g)) == pytest.approx(expected, abs=1e-9)

    def test_caps(self, two_k2):
        with pytest.raises(TooLarge):
            b_small_oracle(family("cycle", 13))
        with pytest.raises(DisconnectedGraph):
            b_small_oracle(two_k2)
