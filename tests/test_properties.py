"""Property tests for the structural invariants that hold on every graph."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammaconn import (
    distance_matrix,
    from_edge_list,
    gamma,
    gamma_objective,
    gamma_lp_details,
    is_connected,
    transmission_table,
    tree_transmissions,
)
from gammaconn.graph import UNREACHABLE, _distances, _kernel_transmissions

from conftest import INF, edge_list, naive_distances, naive_gamma


@st.composite
def graphs(draw, min_n=2, max_n=9, connected=False):
    n = draw(st.integers(min_n, max_n))
    edges = set()
    if connected and n > 1:
        for child in range(1, n):
            parent = draw(st.integers(0, child - 1))
            edges.add((parent, child))
    pairs = list(combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges |= {p for p, keep in zip(pairs, picks) if keep}
    return from_edge_list(n, sorted(edges))


@st.composite
def trees(draw, min_n=2, max_n=24):
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(0, child - 1)), child) for child in range(1, n)]
    return from_edge_list(n, edges)


@given(graphs(connected=True))
def test_gamma_is_n_over_max_transmission(g):
    cert = gamma(g)
    assert cert.gamma == Fraction(g.n, transmission_table(g).d_max)
    assert cert.gamma == naive_gamma(g.n, edge_list(g))


@given(graphs(connected=True))
def test_witness_residuals_are_exactly_zero(g):
    cert = gamma(g)
    assert cert.witness_valid
    assert cert.residuals.zero_sum == 0
    assert cert.residuals.sup_deviation == 0
    assert cert.residuals.edge_gap == 0
    assert gamma_objective(g, cert.witness) == cert.gamma


@given(graphs())
def test_gamma_zero_iff_disconnected(g):
    cert = gamma(g)
    assert (cert.gamma == 0) == (not is_connected(g))
    assert cert.witness_valid


@given(graphs(connected=True, max_n=8))
@settings(max_examples=40, deadline=None)
def test_lp_oracle_agrees(g):
    assert abs(gamma_lp_details(g)[0] - float(gamma(g).gamma)) <= 1e-6


@given(graphs(connected=True, max_n=8), st.integers(0, 2 ** 30))
def test_random_feasible_vectors_bound_gamma_below(g, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=g.n)
    for _ in range(50):
        x = x - x.mean()
        sup = np.abs(x).max()
        if sup == 0:
            x = rng.normal(size=g.n)
            continue
        x = x / sup
        if abs(x.sum()) <= 1e-9 and abs(np.abs(x).max() - 1) <= 1e-9:
            break
    else:  # pragma: no cover - mean-centering converges immediately
        pytest.skip("no feasible vector reached")
    assert gamma_objective(g, x) >= float(gamma(g).gamma) - 1e-9


@given(graphs(connected=True, max_n=8), st.data())
def test_edge_addition_never_decreases_gamma(g, data):
    missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
               if v not in set(int(w) for w in g.neighbors(u))]
    if not missing:
        return
    extra = data.draw(st.sampled_from(missing))
    h = from_edge_list(g.n, edge_list(g) + [extra])
    assert gamma(h).gamma >= gamma(g).gamma


@given(graphs(min_n=1))
def test_bfs_edge_distance_lipschitz(g):
    for source in range(g.n):
        dist = _distances(g, source)
        for u, v in edge_list(g):
            if dist[u] >= 0 and dist[v] >= 0:
                assert abs(int(dist[u]) - int(dist[v])) <= 1


@given(graphs(min_n=1))
def test_bfs_implementations_agree(g):
    oracle = naive_distances(g.n, edge_list(g))
    for source in range(g.n):
        want = [d if d < INF else UNREACHABLE for d in oracle[source]]
        assert _distances(g, source).tolist() == want
    if is_connected(g):
        assert distance_matrix(g).tolist() == oracle


@given(graphs(connected=True))
def test_wiener_is_half_transmission_sum(g):
    table = transmission_table(g)
    assert 2 * table.wiener == int(table.tr.sum())
    rows = distance_matrix(g).sum(axis=1)
    assert rows.tolist() == table.tr.tolist()


@given(graphs(connected=True))
def test_transmission_floor(g):
    table = transmission_table(g)
    assert all(int(t) >= g.n - 1 for t in table.tr)
    complete = g.m == g.n * (g.n - 1) // 2
    assert bool((table.tr == g.n - 1).all()) == complete


@given(trees())
def test_tree_rerooting_matches_bfs(t):
    assert tree_transmissions(t).tr.tolist() == _kernel_transmissions(t).tr.tolist()


@given(trees())
def test_tree_argmax_only_pendants(t):
    assert set(tree_transmissions(t).argmax) <= set(np.flatnonzero(t.degrees() == 1).tolist())
