"""Shared fixtures and independent oracles.

Oracles here deliberately avoid the package's own machinery: distances come
from Floyd-Warshall on a dense table, spectra from numpy's eigensolver,
expansion and the l1 cut from a plain subset loop, LP optima from vertex
enumeration or scipy's HiGHS, the witness objective from a per-edge loop,
edge-list parsing from a per-line loop, graph construction from sorted
Python lists. Tests compare package output against these, never against
itself.
"""

import math
import numbers
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

from gammaconn import FamilySpec, from_edge_list, generate
from gammaconn.edgelist import MAX_VERTICES
from gammaconn.errors import (
    DuplicateEdge,
    EdgeListParseError,
    InfeasibleVector,
    SelfLoop,
    VertexOutOfRange,
)

INF = 10 ** 9


def naive_distances(n, edges):
    """Floyd-Warshall oracle, O(n^3); independent of the package BFS."""
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            row = d[i]
            for j in range(n):
                if dik + dk[j] < row[j]:
                    row[j] = dik + dk[j]
    return d


def naive_gamma(n, edges):
    """The invariant straight from the dense distance table (None if disconnected)."""
    d = naive_distances(n, edges)
    if max(map(max, d)) >= INF:
        return None
    return Fraction(n, max(sum(row) for row in d))


def naive_cheeger(n, edges):
    """Exact expansion by a plain subset loop with vertex 0 pinned.

    Returns (value, subset): the first minimising subset in ascending order
    of its bitmask over the vertices.
    """
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    total = sum(deg)
    best = best_side = None
    for mask in range(2 ** (n - 1)):
        side = {0} | {v for v in range(1, n) if mask >> (v - 1) & 1}
        if len(side) == n:
            continue
        cut = sum(1 for u, v in edges if (u in side) != (v in side))
        vol = sum(deg[v] for v in side)
        h = Fraction(cut, min(vol, total - vol))
        if best is None or h < best:
            best, best_side = h, sorted(side)
    return best, best_side


def naive_l1_cut(n, edges):
    """Least total edge variation under zero sum and unit l1 norm, as a Fraction.

    The optimum is a two-valued vector: 1/(2|S|) on a nonempty proper subset
    S and -1/(2(n - |S|)) off it, whose variation is |dS| n / (2|S|(n - |S|)),
    so a plain loop over the subsets finds it.
    """
    best = None
    for mask in range(1, 2 ** n - 1):
        size = bin(mask).count("1")
        cut = sum(1 for u, v in edges if (mask >> u & 1) != (mask >> v & 1))
        value = Fraction(cut * n, 2 * size * (n - size))
        if best is None or value < best:
            best = value
    return best


def naive_l1_lp(n, edges):
    """The same l1 minimum as a float, from one cold LP per sign pattern.

    Inside a fixed orthant |x_v| = s_v x_v is linear, so minimising
    sum_e t_e subject to -t_e <= x_u - x_v <= t_e, sum x = 0 and
    sum s_v x_v = 1 is a linear program. Negation swaps a pattern with its
    complement, so s_0 = +1 is pinned; the all-positive pattern is
    infeasible. The minimum over the 2^(n-1) patterns is the optimum.
    """
    m = len(edges)
    rows = []
    for i, (u, v) in enumerate(edges):
        for s in (1.0, -1.0):
            row = [0.0] * (n + m)
            row[u], row[v], row[n + i] = s, -s, -1.0
            rows.append((row, "<=", 0.0))
    rows.append(([1.0] * n + [0.0] * m, "=", 0.0))
    objective = [0.0] * n + [1.0] * m
    best = math.inf
    for mask in range(2 ** (n - 1)):
        sign = [1.0] + [-1.0 if mask >> (v - 1) & 1 else 1.0 for v in range(1, n)]
        norm = (sign + [0.0] * m, "=", 1.0)
        bounds = [(0.0, 1.0) if s > 0 else (-1.0, 0.0) for s in sign] + [(0.0, 2.0)] * m
        sol = highs_lp(objective, (*rows, norm), bounds)
        assert (sol is None) == (mask == 0)
        if sol is not None:
            best = min(best, sol[0])
    return best


def build_lp_k(g, k):
    """Pinned-vertex program k in primal form: min y subject to |x_u - x_v| <= y
    on every edge, sum(x) = 0, -1 <= x <= 1 and x_k = 1.

    Variables are x_0..x_{n-1} and y (last); 2m + 1 rows. Pinning is the
    equal bounds [1, 1], and y keeps the implied window [0, 2]. The package
    oracle solves the LP dual of this program, built from other rows.
    Returns (objective, constraints, bounds) in `naive_lp`'s format.
    """
    n = g.n
    constraints = []
    for u, v in edge_list(g):
        for s in (1.0, -1.0):
            row = [0.0] * (n + 1)
            row[u], row[v], row[n] = s, -s, -1.0
            constraints.append((row, "<=", 0.0))
    constraints.append(([1.0] * n + [0.0], "=", 0.0))
    bounds = [(-1.0, 1.0)] * n + [(0.0, 2.0)]
    bounds[k] = (1.0, 1.0)
    return [0.0] * n + [1.0], constraints, bounds


def solve_lp_k(g, k):
    """Program k of build_lp_k solved by HiGHS: (value, x); it is always feasible."""
    sol = highs_lp(*build_lp_k(g, k))
    assert sol is not None
    return sol


def highs_lp(objective, constraints, bounds):
    """LP minimum from scipy's HiGHS: (value, x), or None if infeasible.

    Takes `naive_lp`'s format: rows (coeffs, relation, rhs) with relation
    "<=", ">=" or "=", and one (lo, hi) pair per variable. Any other
    outcome fails the calling test: no program given here is unbounded.
    """
    n = len(objective)
    upper, upper_rhs, equal, equal_rhs = [], [], [], []
    for coeffs, rel, rhs in constraints:
        sign = -1.0 if rel == ">=" else 1.0
        rows, rhss = (equal, equal_rhs) if rel == "=" else (upper, upper_rhs)
        rows.append(sign * np.asarray(coeffs, dtype=float))
        rhss.append(sign * rhs)
    res = linprog(objective,
                  A_ub=np.reshape(upper, (-1, n)) if upper else None, b_ub=upper_rhs or None,
                  A_eq=np.reshape(equal, (-1, n)) if equal else None, b_eq=equal_rhs or None,
                  bounds=bounds, method="highs")
    assert res.status in (0, 2), res.message  # optimal or infeasible
    return (res.fun, res.x) if res.status == 0 else None


def naive_objective(n, edges, x):
    """Largest edge difference of a feasible x, one entry pair per edge.

    Entries are combined as given, so all-rational input stays exact and is
    checked exactly; any other entry allows a 1e-9 tolerance on the zero-sum
    and sup-norm checks. Raises InfeasibleVector as the package does.
    """
    if len(x) != n:
        raise InfeasibleVector(f"vector length {len(x)} != vertex count {n}")
    vals = list(x)
    total = sum(vals)
    sup = max(abs(v) for v in vals)
    tol = 0 if all(isinstance(v, numbers.Rational) for v in vals) else 1e-9
    if abs(total) > tol:
        raise InfeasibleVector(f"entries sum to {float(total)!r}, not 0")
    if abs(sup - 1) > tol:
        raise InfeasibleVector(f"sup norm is {float(sup)!r}, not 1")
    best = 0
    for u, v in edges:
        best = max(best, abs(vals[u] - vals[v]))
    return best


def naive_squared_norm(vals):
    """Exact squared 2-norm of rational entries, one integer square per entry.

    Every entry is scaled to the entries' least common denominator; the
    per-entry reference for bound_report's per-shell sum.
    """
    den = math.lcm(*(w.denominator for w in vals))
    return Fraction(sum((w.numerator * (den // w.denominator)) ** 2 for w in vals), den * den)


def naive_parse_edge_list(text):
    """The edge-list reader as a per-line loop, with a set for duplicates.

    Raises EdgeListParseError at the first offending line, checking each
    line in the package's order: count, token shape, integers, range,
    self-loop, duplicate.
    """
    header = None
    pairs = []
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise EdgeListParseError(line_no, f"expected header 'n m', got {raw!r}")
            try:
                n, m = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise EdgeListParseError(line_no, f"non-integer header {raw!r}") from None
            if n < 1 or m < 0:
                raise EdgeListParseError(line_no, f"invalid header values n={n} m={m}")
            if n > MAX_VERTICES or m > n * (n - 1) // 2:
                raise EdgeListParseError(line_no, f"header values n={n} m={m} exceed the caps"
                                         f" n <= {MAX_VERTICES}, m <= n(n-1)/2")
            header = (n, m)
            continue
        n, m = header
        if len(pairs) == m:
            raise EdgeListParseError(line_no, "more edge lines than the header declared")
        if len(tokens) != 2:
            raise EdgeListParseError(line_no, f"expected edge 'u v', got {raw!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer edge {raw!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(line_no, f"edge ({u}, {v}) outside [0, {n})")
        if u == v:
            raise EdgeListParseError(line_no, f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise EdgeListParseError(line_no, f"duplicate edge {key}")
        seen.add(key)
        pairs.append(key)
    if header is None:
        raise EdgeListParseError(1, "empty document (missing 'n m' header)")
    if len(pairs) != header[1]:
        raise EdgeListParseError(
            line_no if text else 1,
            f"header declared {header[1]} edges but {len(pairs)} were given")
    return from_edge_list(header[0], pairs)


def naive_from_edge_list(n, pairs):
    """Graph construction as sorted Python lists: (edges, indptr, indices).

    Raises what from_edge_list raises, with its messages: the first pair
    with an endpoint outside [0, n), else the first self-loop, else the
    lexicographically first edge given twice in either orientation.
    """
    if n < 1:
        raise VertexOutOfRange(f"vertex count must be >= 1, got {n}")
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) has endpoint outside [0, {n})")
    for u, v in pairs:
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
    edges = sorted((min(u, v), max(u, v)) for u, v in pairs)
    for a, b in zip(edges, edges[1:]):
        if a == b:
            raise DuplicateEdge(f"edge ({a[0]}, {a[1]}) given more than once")
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    indptr, indices = [0], []
    for row in nbrs:
        indices += sorted(row)
        indptr.append(len(indices))
    return edges, indptr, indices


def naive_lp(objective, constraints, bounds, tol=1e-9):
    """LP minimum by vertex enumeration: (value, x), or None if no vertex is feasible.

    Every n-subset of the constraint and finite-bound hyperplanes is solved
    with numpy.linalg.solve; the feasible intersection points are the
    vertices. Exact when the feasible region is a nonempty polytope (for
    instance, when every variable is boxed).
    """
    n = len(objective)
    planes = [(np.asarray(coeffs, dtype=float), rhs) for coeffs, _, rhs in constraints]
    for j, (lo, hi) in enumerate(bounds):
        planes += [(np.eye(n)[j], value) for value in {lo, hi} if math.isfinite(value)]
    best = None
    for subset in combinations(planes, n):
        a = np.array([row for row, _ in subset])
        if abs(np.linalg.det(a)) < 1e-9:
            continue
        x = np.linalg.solve(a, np.array([rhs for _, rhs in subset]))
        feasible = all(lo - tol <= v <= hi + tol for v, (lo, hi) in zip(x, bounds))
        for coeffs, rel, rhs in constraints:
            lhs = float(np.dot(coeffs, x))
            if rel == "<=":
                feasible &= lhs <= rhs + tol
            elif rel == ">=":
                feasible &= lhs >= rhs - tol
            else:
                feasible &= abs(lhs - rhs) <= tol
        value = float(np.dot(objective, x))
        if feasible and (best is None or value < best[0]):
            best = (value, x)
    return best


def counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's arguments."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def edge_list(g):
    return [(int(u), int(v)) for u, v in g.edges]


def family(kind, *params):
    return generate(FamilySpec(kind, tuple(params)))


@pytest.fixture
def p4():
    return family("path", 4)


@pytest.fixture
def k5():
    return family("complete", 5)


@pytest.fixture
def c6():
    return family("cycle", 6)


@pytest.fixture
def s6():
    return family("star", 6)


@pytest.fixture
def two_k2():
    return from_edge_list(4, [(0, 1), (2, 3)])


def small_family_corpus(max_n=10):
    """One member per family kind and size up to max_n vertices."""
    specs = []
    specs += [FamilySpec("path", (n,)) for n in range(2, max_n + 1)]
    specs += [FamilySpec("cycle", (n,)) for n in range(3, max_n + 1)]
    specs += [FamilySpec("complete", (n,)) for n in range(2, max_n + 1)]
    specs += [FamilySpec("star", (n,)) for n in range(3, max_n + 1)]
    specs += [FamilySpec("complete_bipartite", (m, n))
              for m in range(1, max_n) for n in range(1, m + 1) if 2 <= m + n <= max_n]
    specs += [FamilySpec("hypercube", (t,)) for t in (1, 2, 3) if 2 ** t <= max_n]
    if 9 <= max_n:
        specs.append(FamilySpec("hamming", (2, 3)))
    if 8 <= max_n:
        specs.append(FamilySpec("grid3", (2, 2, 2)))
    if 9 <= max_n:
        specs.append(FamilySpec("torus", (3, 3)))
    if 10 <= max_n:
        specs.append(FamilySpec("petersen", ()))
    return specs
