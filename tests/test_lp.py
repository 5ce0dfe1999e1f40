import math

import numpy as np
import pytest

from gammaconn import b_small_oracle, gamma, transmission_table
from gammaconn import lp as lp_module
from gammaconn.errors import DisconnectedGraph, TooLarge, TooSmall
from gammaconn.lp import OPTIMAL, UNBOUNDED, gamma_lp_details, simplex_solve_many
from gammaconn.random_graphs import gnm_connected, gnp_connected, random_tree

from conftest import (  # noqa: F401
    build_lp_k,
    counted,
    edge_list,
    family,
    highs_lp,
    naive_distances,
    naive_l1_cut,
    naive_l1_lp,
    naive_lp,
    solve_lp_k,
    two_k2,
)

INF = math.inf


def boxed(a, rhs, bounds, objectives):
    """`simplex_solve_many` on a x <= rhs, lo <= x <= hi, with each finite hi as a row.

    `bounds` holds one (lo, hi) per variable; x_j <= hi_j joins the rows and
    lo goes to the solver, which keeps only lower bounds.
    """
    lo, hi = np.array(bounds, dtype=float).reshape(-1, 2).T
    capped = np.flatnonzero(hi < INF)
    rows = np.vstack([np.reshape(np.asarray(a, dtype=float), (-1, len(lo))),
                      np.eye(len(lo))[capped]])
    return simplex_solve_many(rows, np.concatenate([np.asarray(rhs, dtype=float), hi[capped]]),
                              lo, objectives)


def solve(a, rhs, bounds, objective):
    """One program: the batch of one, as (status, value, x, steps)."""
    return boxed(a, rhs, bounds, [objective])[0]


class TestSimplex:
    def test_bounded_maximization(self):
        status, value, x, _ = solve([], [], [(0.0, 1.0)], [-1.0])
        assert status == OPTIMAL
        assert value == pytest.approx(-1.0, abs=1e-9)
        assert x[0] == pytest.approx(1.0, abs=1e-9)

    def test_unbounded(self):
        status, value, x, _ = solve([], [], [(0.0, INF)], [-1.0])
        assert (status, value, x) == (UNBOUNDED, None, None)

    def test_free_variable_split(self):
        # minimize x subject to -x <= 5 as a row, x genuinely free (starts at 0)
        status, value, _, _ = solve([[-1.0]], [5.0], [(-INF, INF)], [1.0])
        assert status == OPTIMAL
        assert value == pytest.approx(-5.0, abs=1e-8)

    def test_nonbasic_entries_rest_at_their_bound_or_zero(self, monkeypatch):
        # test_free_variable_split's program: the free x enters and the slack
        # leaves. Pricing reads a nonbasic value off its bound alone, so every
        # entry outside the final basis must be its lower bound, or 0 if free.
        bases, runs = [], []
        pivot, run = lp_module._pivot, lp_module._run_phase
        monkeypatch.setattr(lp_module, "_pivot",
                            lambda *args: pivot(*args) or bases.append(args[1][0].copy()))
        monkeypatch.setattr(lp_module, "_run_phase",
                            lambda *args: runs.append((args[5], run(*args))) or runs[-1][1])
        assert solve([[-1.0]], [5.0], [(-INF, INF)], [1.0])[0] == OPTIMAL
        (lo, (_, _, final)), = runs
        outside = np.setdiff1d(np.arange(len(lo)), bases[-1])
        assert bases[-1].tolist() == [0] and outside.tolist() == [1]
        assert final[0, outside].tolist() == np.where(lo == -INF, 0.0, lo)[outside].tolist()

    @pytest.mark.parametrize("make", [lambda: family("torus", 4, 6),
                                      lambda: gnm_connected(40, 100, seed=20240809)],
                             ids=["torus46", "gnm40"])
    def test_free_variable_never_leaves_once_entered(self, make, monkeypatch):
        # mu, the pinned duals' one free variable, has infinite room above its
        # bound, so once basic it stays: a nonbasic variable is free exactly
        # when its lower bound is -inf
        g = make()
        a, rhs, lo, objectives = lp_module._pinned_duals(g)
        (mu,) = np.flatnonzero(lo == -INF)
        entries = []
        pivot = lp_module._pivot

        def watched(binv, basis, column, row, col):
            assert (basis[np.arange(len(row)), row] != mu).all()
            entries.append(int((col == mu).sum()))
            pivot(binv, basis, column, row, col)

        monkeypatch.setattr(lp_module, "_pivot", watched)
        assert all(s[0] == OPTIMAL for s in simplex_solve_many(a, rhs, lo, objectives))
        assert sum(entries) > 0

    def test_reflected_variable(self):
        # only an upper bound: minimize -x, x <= 7
        status, _, x, _ = solve([], [], [(-INF, 7.0)], [-1.0])
        assert status == OPTIMAL and x[0] == pytest.approx(7.0)

    def test_slack_infeasible_start_raises(self):
        # x >= 0 starts at 0, where x <= -1 leaves the slack at -1: no phase one
        with pytest.raises(ValueError, match="slack basis is infeasible"):
            solve([[1.0]], [-1.0], [(0.0, INF)], [1.0])

    def test_solution_satisfies_constraints(self):
        a = np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        rhs = np.array([10.0, 3.0, 5.0])
        bounds = [(0.0, 8.0), (0.0, 8.0), (-2.0, 8.0)]
        objective = [1.0, -2.0, 1.5]
        status, value, x, _ = solve(a, rhs, bounds, objective)
        assert status == OPTIMAL
        assert (a @ x <= rhs + 1e-8).all()
        assert all(lo - 1e-8 <= v <= hi + 1e-8 for v, (lo, hi) in zip(x, bounds))
        assert abs(value - float(np.array(objective) @ x)) <= 1e-8
        expected = highs_lp(objective, [(row, "<=", r) for row, r in zip(a, rhs)], bounds)
        assert value == pytest.approx(expected[0], abs=1e-9)

    def test_deterministic(self):
        args = ([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], [10.0, 5.0],
                [(0.0, 8.0), (0.0, 8.0), (-2.0, 8.0)], [1.0, -2.0, 1.5])
        first, second = solve(*args), solve(*args)
        assert first[:2] == second[:2] and first[3] == second[3]
        assert first[2].tolist() == second[2].tolist()

    def test_each_step_is_one_pivot(self, monkeypatch):
        # x0 enters first and pivots out the slack of its row x0 <= 1; x1
        # then enters and pivots out the slack of x0 + x1 <= 5
        pivots = []
        pivot = lp_module._pivot
        monkeypatch.setattr(lp_module, "_pivot",
                            lambda *args: pivots.append(args[3:]) or pivot(*args))
        status, _, x, steps = solve([[1.0, 1.0]], [5.0], [(0.0, 1.0), (0.0, 10.0)],
                                    [-1.0, -1.0])
        assert status == OPTIMAL
        assert x.tolist() == pytest.approx([1.0, 4.0], abs=1e-12)
        assert len(pivots) == 2 and steps == 2

    def test_beale_cycling_example(self):
        # Beale (1955): degenerate, and cycles under the largest-coefficient
        # entering rule; Bland's rule must terminate (else IterationCap)
        status, value, x, _ = solve(
            [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0]], [0.0, 0.0],
            [(0.0, INF), (0.0, INF), (0.0, 1.0), (0.0, INF)], [-0.75, 20.0, -0.5, 6.0])
        assert status == OPTIMAL
        assert value == pytest.approx(-1.25, abs=1e-12)
        assert x.tolist() == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)


def random_boxed_lp(rng, max_vars=4, max_rows=4):
    """Integer program a x <= rhs over boxed or fixed variables, feasible at lo.

    rhs = a @ lo + a nonnegative slack (zero about a third of the time, so
    starts are often degenerate). Returns (a, rhs, bounds, objective).
    """
    n, m = int(rng.integers(1, max_vars + 1)), int(rng.integers(0, max_rows + 1))
    a = rng.integers(-3, 4, (m, n)).astype(float)
    lo = rng.integers(-3, 3, n).astype(float)
    hi = lo + np.where(rng.random(n) < 0.2, 0.0, rng.integers(1, 4, n))
    rhs = a @ lo + np.maximum(rng.integers(-2, 5, m), 0)
    return a, rhs, np.column_stack([lo, hi]), rng.integers(-3, 4, n).astype(float)


def check_against(oracle, a, rhs, bounds, objective):
    status, value, x, _ = solve(a, rhs, bounds, objective)
    expected = oracle(objective, [(row, "<=", r) for row, r in zip(a, rhs)], bounds)
    assert status == OPTIMAL  # boxed and feasible at lo: always optimal
    assert value == pytest.approx(expected[0], abs=1e-7)
    assert (a @ x <= rhs + 1e-9).all()
    assert ((bounds[:, 0] - 1e-9 <= x) & (x <= bounds[:, 1] + 1e-9)).all()


class TestAgainstVertexEnumeration:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_boxed_lps(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            program = random_boxed_lp(rng)
            check_against(naive_lp, *program)
            check_against(highs_lp, *program)


class TestAgainstHighs:
    """Programs too large for vertex enumeration: up to 12 variables and 10 rows."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_boxed_lps_at_size(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(25):
            check_against(highs_lp, *random_boxed_lp(rng, max_vars=12, max_rows=10))


class TestBatch:
    """`simplex_solve_many` on several objectives against each objective alone."""

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_matches_single_solves(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            a, rhs, bounds, objective = random_boxed_lp(rng)
            objectives = [objective] + [rng.integers(-3, 4, len(objective)).astype(float)
                                        for _ in range(4)]
            batch = boxed(a, rhs, bounds, objectives)
            assert len(batch) == len(objectives)
            for c, got in zip(objectives, batch):
                alone = solve(a, rhs, bounds, c)
                assert got[0] == alone[0] and got[3] == alone[3]
                assert got[1] == pytest.approx(alone[1], abs=1e-12)

    def test_unbounded_member_keeps_the_others_optimal(self):
        # x1 - x0 <= 2 with x0 >= 0 unbounded above: min -x0 is unbounded,
        # min x0 - x1 is -2 (x1 = 4, x0 = 2) and min x1 is 0
        a, rhs, bounds = [[-1.0, 1.0]], [2.0], [(0.0, INF), (0.0, 4.0)]
        objectives = [(1.0, -1.0), (-1.0, 0.0), (0.0, 1.0)]
        batch = boxed(a, rhs, bounds, objectives)
        assert [sol[0] for sol in batch] == [OPTIMAL, UNBOUNDED, OPTIMAL]
        assert batch[0][1] == pytest.approx(-2.0, abs=1e-12)
        assert batch[1][1] is None and batch[1][2] is None
        assert batch[2][1] == pytest.approx(0.0, abs=1e-12)
        for c, got in zip(objectives, batch):
            alone = solve(a, rhs, bounds, c)
            assert (got[0], got[3]) == (alone[0], alone[3])

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

    def test_default_budget_runs_gnm_40_100_as_one_batch(self, monkeypatch):
        # 40 inverses of r = 41 rows, 538 KB, fit the default budget
        g = gnm_connected(40, 100, seed=20240809)
        blocks = counted(monkeypatch, lp_module, "_run_phase")
        _, per_k, best_k = gamma_lp_details(g)
        assert [len(args[0]) for args in blocks] == [g.n]
        r = g.n + 1
        monkeypatch.setattr(lp_module, "_INVERSE_BYTES", 20 * 8 * r * r)
        _, split, split_k = gamma_lp_details(g)
        assert [len(args[0]) for args in blocks[1:]] == [20, 20]
        # the programs are independent: each takes the same steps in either batch
        assert per_k == split and best_k == split_k


class TestPinnedVertexLP:
    def test_shape_for_single_edge(self):
        objective, constraints, bounds = build_lp_k(family("path", 2), 0)
        assert len(objective) == 3  # x_0, x_1, y
        relations = [rel for _, rel, _ in constraints]
        assert relations.count("<=") == 2 and relations.count("=") == 1
        assert bounds[0] == (1.0, 1.0)
        assert solve_lp_k(family("path", 2), 0)[0] == pytest.approx(2.0, abs=1e-9)

    def test_triangle_optimum(self):
        assert solve_lp_k(family("complete", 3), 0)[0] == pytest.approx(1.5, abs=1e-9)

    def test_path3_center_optimum(self):
        # brute-force/grid oracle value: pinning the middle vertex forces 3/2,
        # strictly worse than the endpoint programs, which attain 1
        got = solve_lp_k(family("path", 3), 1)[0]
        assert got == pytest.approx(1.5, abs=1e-9)
        per_k = gamma_lp_details(family("path", 3))[1]
        assert per_k == pytest.approx([1.0, 1.5, 1.0], abs=1e-9)


class TestDualAgainstPrimal:
    """`gamma_lp_details` solves every k cold in dual form; these pin it to the
    primal program, solved by vertex enumeration or by scipy's HiGHS."""

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
            expected = naive_lp(*build_lp_k(g, orbit[0]))[0]
            for k in orbit:
                assert per_k[k] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_per_k_match_cold_solves(self, seed):
        g = gnp_connected(3 + seed % 6, 0.45, seed=50 + seed)
        best, per_k, best_k = gamma_lp_details(g)
        cold = [solve_lp_k(g, k)[0] for k in range(g.n)]
        best_x = solve_lp_k(g, best_k)[1][:g.n]
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
        cold = [solve_lp_k(g, k)[0] for k in range(g.n)]
        assert per_k == pytest.approx(cold, abs=1e-9)

    @pytest.mark.parametrize("g", [family("path", 2), family("petersen"),
                                   gnp_connected(7, 0.4, seed=3)],
                             ids=["path2", "petersen", "gnp7"])
    def test_one_simplex_solve_per_program(self, monkeypatch, g):
        # one dual objective per pinned vertex, all in one batch call
        batches = counted(monkeypatch, lp_module, "simplex_solve_many")
        gamma_lp_details(g)
        assert len(batches) == 1 and len(batches[0][3]) == g.n


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
        x = solve_lp_k(g, gamma_lp_details(g)[2])[1][:g.n]
        assert abs(float(np.sum(x))) <= 1e-8
        assert abs(np.abs(x).max() - 1.0) <= 1e-8

    def test_optimal_assignments_satisfy_all_constraints(self):
        # the oracle's dual programs: every optimum is feasible and priced right
        for seed in range(4):
            g = gnp_connected(6, 0.5, seed=40 + seed)
            a, rhs, lo, objectives = lp_module._pinned_duals(g)
            for c, (status, value, x, _) in zip(
                    objectives, simplex_solve_many(a, rhs, lo, objectives)):
                assert status == OPTIMAL
                assert (a @ x <= rhs + 1e-8).all()
                assert (lo - 1e-8 <= x).all()
                assert abs(value - float(c @ x)) <= 1e-8

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
