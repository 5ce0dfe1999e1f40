"""The max-transmission connectivity invariant and its comparison bounds.

For a connected graph the invariant equals n divided by the maximum vertex
transmission, so it is an exact rational; only spectral quantities are
floating point. The certificate carries an explicit optimal vector built
from the distance shells of a maximum-transmission vertex, with feasibility
verified in exact arithmetic rather than assumed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DisconnectedGraph,
    GammaConnError,
    InfeasibleVector,
    NoConvergence,
    TooLarge,
    TooSmall,
)
from .graph import (
    Graph,
    _bfs,
    _cached,
    components,
    distance_matrix,
    is_connected,
    is_tree,
    transmission_table,
)

Rational = Fraction  # exact, always reduced, positive denominator

_ZERO = Fraction(0)
_POWER_ITERATIONS = 100_000  # distance_spectral_radius raises NoConvergence past this


# ---------------------------------------------------------------------------
# the invariant and its certificate

@dataclass(frozen=True)
class WitnessResiduals:
    """Exact feasibility residuals of a certificate vector (all zero when valid)."""

    zero_sum: Fraction       # sum of entries
    sup_deviation: Fraction  # max |entry| - 1
    edge_gap: Fraction       # max edge difference - claimed optimum


@dataclass(frozen=True)
class GammaCertificate:
    gamma: Fraction
    connected: bool
    attaining_vertex: int | None
    witness: tuple[Fraction, ...]
    witness_valid: bool
    residuals: WitnessResiduals

    @property
    def approx(self):
        return float(self.gamma)


def _max_edge_diff(g, x):
    best = 0  # int zero stays exact whether entries are Fractions or floats
    for u, v in g.edges:
        d = abs(x[u] - x[v])
        if d > best:
            best = d
    return best


def gamma(g: Graph) -> GammaCertificate:
    """Exact invariant value with an optimal witness vector.

    Connected graphs: n over the maximum transmission, witness 1 - r*gamma
    on the distance-r shell of the smallest maximum-transmission vertex.
    Disconnected graphs: 0, witness constant 1 on a smallest component and
    a balancing negative constant elsewhere. Memoised per graph.
    """
    return _cached(g, "gamma", lambda: _gamma(g))


def _gamma(g):
    if g.n < 2:
        raise TooSmall("no zero-sum vector of sup-norm 1 exists on fewer than 2 vertices")
    if not is_connected(g):
        comps = sorted(components(g), key=lambda c: (len(c), c[0]))
        block = np.zeros(g.n, dtype=bool)
        block[comps[0]] = True
        k = len(comps[0])
        one, rest = Fraction(1), Fraction(-k, g.n - k)
        witness = tuple(one if block[v] else rest for v in range(g.n))
        # the vector is constant per side and no edge crosses sides, so the
        # residuals reduce to two-term arithmetic plus a crossing check
        crossing = bool((block[g.edges[:, 0]] != block[g.edges[:, 1]]).any()) if g.m else False
        gap = max(one - rest, _ZERO) if crossing else _ZERO
        res = WitnessResiduals(
            zero_sum=k * one + (g.n - k) * rest,
            sup_deviation=max(one, abs(rest)) - 1,
            edge_gap=gap,
        )
        valid = res.zero_sum == 0 and res.sup_deviation == 0 and res.edge_gap == 0
        return GammaCertificate(_ZERO, False, None, witness, valid, res)

    table = transmission_table(g)
    value = Fraction(g.n, table.d_max)
    u = table.argmax[0]
    dist = _bfs(g, u)
    ecc = int(dist.max())
    shell_sizes = np.bincount(dist, minlength=ecc + 1)
    shell_vals = [1 - r * value for r in range(ecc + 1)]
    witness = tuple(shell_vals[r] for r in dist)
    # entries are constant per shell and an edge diff is |level gap| * value,
    # so every residual is exact in O(eccentricity) rational operations
    max_gap = int(np.abs(dist[g.edges[:, 0]] - dist[g.edges[:, 1]]).max()) if g.m else 0
    res = WitnessResiduals(
        zero_sum=sum(int(a) * w for a, w in zip(shell_sizes, shell_vals)),
        sup_deviation=max(abs(w) for w in shell_vals) - 1,
        edge_gap=(max_gap - 1) * value,
    )
    # 2*tr(u) >= ecc(u)*n at a maximum-transmission vertex keeps every shell
    # value within [-1, 1], so the witness is valid by construction; the
    # flag reports the exact check instead of assuming it
    valid = res.zero_sum == 0 and res.sup_deviation == 0 and res.edge_gap == 0
    return GammaCertificate(value, True, int(u), witness, valid, res)


def gamma_objective(g: Graph, x) -> float | Fraction:
    """Largest edge difference of a feasible vector (zero sum, sup norm 1).

    Exact when handed exact rationals; any feasible x yields a value no
    smaller than the graph's invariant. Feasibility is checked exactly when
    every entry is rational (int or Fraction); with any float entry both
    checks allow an absolute tolerance of 1e-9.
    """
    if len(x) != g.n:
        raise InfeasibleVector(f"vector length {len(x)} != vertex count {g.n}")
    vals = list(x)
    total = sum(vals)
    sup = max(abs(v) for v in vals)
    tol = 0 if all(isinstance(v, numbers.Rational) for v in vals) else 1e-9
    if abs(total) > tol:
        raise InfeasibleVector(f"entries sum to {float(total)!r}, not 0")
    if abs(sup - 1) > tol:
        raise InfeasibleVector(f"sup norm is {float(sup)!r}, not 1")
    return _max_edge_diff(g, vals)


def wiener_index(g: Graph) -> int:
    """Sum of distances over unordered vertex pairs (half the transmission total)."""
    return transmission_table(g).wiener


def is_transmission_regular(g: Graph) -> bool:
    tr = transmission_table(g).tr
    return bool((tr == tr[0]).all())


# ---------------------------------------------------------------------------
# matrices

def adjacency_matrix(g):
    a = np.zeros((g.n, g.n))
    if g.m:
        a[g.edges[:, 0], g.edges[:, 1]] = 1.0
        a[g.edges[:, 1], g.edges[:, 0]] = 1.0
    return a


def laplacian_matrix(g):
    a = adjacency_matrix(g)
    return np.diag(a.sum(axis=1)) - a


def normalized_laplacian_matrix(g):
    deg = g.degrees().astype(float)
    if (deg == 0).any():
        raise DisconnectedGraph("normalized Laplacian requires no isolated vertices")
    scale = deg ** -0.5
    return laplacian_matrix(g) * scale[:, None] * scale[None, :]


# ---------------------------------------------------------------------------
# spectral estimates

@dataclass(frozen=True)
class SpectralEstimate:
    """An eigenvalue, its residual ||A v - value v|| and whether that is within tol.

    iterations: power iterations, or 1 (one LAPACK call) for Laplacian pairs.
    """

    value: float
    residual: float
    iterations: int
    converged: bool


def distance_spectral_radius(g: Graph, tol: float = 1e-10) -> SpectralEstimate:
    """Largest distance-matrix eigenvalue by power iteration on D + I.

    The +1 shift makes the iteration matrix entrywise positive, so the
    dominant eigenvalue is simple and the all-ones start vector cannot be
    orthogonal to its eigenvector. The shift is subtracted at the end and
    the residual is reported against D itself. Memoised per (graph, tol).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not is_connected(g):
        raise DisconnectedGraph("the distance matrix needs a connected graph")
    return _cached(g, ("distance_spectral_radius", tol), lambda: _power_iteration(g, tol))


def _power_iteration(g, tol):
    d = distance_matrix(g).astype(float)
    np.fill_diagonal(d, 1.0)  # D + I
    x = np.full(g.n, 1.0 / math.sqrt(g.n))
    prev = None
    for it in range(1, _POWER_ITERATIONS + 1):
        y = d @ x
        lam = float(x @ y)
        residual = float(np.linalg.norm(y - lam * x))  # equals ||D x - (lam-1) x||
        if prev is not None and abs(lam - prev) <= tol and residual <= tol:
            return SpectralEstimate(lam - 1.0, residual, it, True)
        prev = lam
        x = y / np.linalg.norm(y)
    raise NoConvergence(f"power iteration did not converge in {_POWER_ITERATIONS} iterations")


def _second_smallest_eigenpair(matrix, tol):
    """Second smallest eigenpair of a symmetric matrix from one LAPACK eigh call."""
    try:
        vals, vecs = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigh did not converge: {exc}") from None
    lam, vec = float(vals[1]), vecs[:, 1]  # eigh sorts eigenvalues ascending
    residual = float(np.linalg.norm(matrix @ vec - lam * vec))
    return SpectralEstimate(lam, residual, 1, residual <= tol)


def algebraic_connectivity(g: Graph, tol: float = 1e-10) -> SpectralEstimate:
    """Second smallest Laplacian eigenvalue (LAPACK eigh); memoised per (graph, tol)."""
    if g.n < 2:
        raise TooSmall("a second eigenvalue needs at least 2 vertices")
    return _cached(g, ("algebraic_connectivity", tol),
                   lambda: _second_smallest_eigenpair(laplacian_matrix(g), tol))


def normalized_laplacian_mu(g: Graph, tol: float = 1e-10) -> SpectralEstimate:
    """Second smallest normalized-Laplacian eigenvalue; memoised per (graph, tol)."""
    if g.n < 2:
        raise TooSmall("a second eigenvalue needs at least 2 vertices")
    if not is_connected(g):
        raise DisconnectedGraph("normalized Laplacian spectrum needs a connected graph")
    return _cached(g, ("normalized_laplacian_mu", tol),
                   lambda: _second_smallest_eigenpair(normalized_laplacian_matrix(g), tol))


# ---------------------------------------------------------------------------
# expansion

def cheeger_constant(g: Graph, max_n: int = 24):
    """Exact edge-expansion constant by enumerating all vertex subsets.

    Vertex 0 is pinned into S, which covers every bipartition once. Returns
    the float quotient of exact integers boundary / min(vol S, 2m - vol S)
    and the first minimising S in ascending bitmask order. The subset count
    doubles per vertex, hence the hard size cap. Memoised per graph.
    """
    if g.n > max_n or g.n > 48:  # 48: bitmask width guard, far beyond reachable cost
        raise TooLarge(f"exact expansion enumeration capped at n <= {min(max_n, 48)}")
    if g.n < 2:
        raise TooSmall("expansion needs a proper non-empty subset")
    if not is_connected(g):
        raise DisconnectedGraph("expansion of a disconnected graph is 0/trivial; not supported")
    value, subset = _cached(g, "cheeger_constant", lambda: _exact_cheeger(g))
    return value, list(subset)


def _subset_tables(deg, nbr):
    """Volume and internal-edge count of every vertex subset, indexed by bitmask.

    Vertex k doubles both tables: it adds deg[k] and popcount(nbr[k] & mask).
    """
    vol = np.zeros(1 << len(deg), dtype=np.int64)
    inner = np.zeros(1 << len(deg), dtype=np.int64)
    for k in range(len(deg)):
        vol[1 << k:2 << k] = vol[:1 << k] + deg[k]
        inner[1 << k:2 << k] = inner[:1 << k] + np.bitwise_count(np.arange(1 << k) & nbr[k])
    return vol, inner


def _exact_cheeger(g):
    """Meet in the middle: S is a low-half mask a (with vertex 0) plus a high mask b.

    Internal edges are e_A[a] + e_B[b] + cross(b, a). Per block of <= 2^20 masks
    (one b past n = 42), cross doubles over the low vertices' neighbours in b.
    """
    n, h = g.n, (g.n + 1) // 2
    nbr = np.zeros(n, dtype=np.int64)  # neighbour bitmask per vertex
    np.bitwise_or.at(nbr, g.edges[:, 0], 1 << g.edges[:, 1])
    np.bitwise_or.at(nbr, g.edges[:, 1], 1 << g.edges[:, 0])
    deg = g.degrees()
    vol_a, in_a = (t[1::2] for t in _subset_tables(deg[:h], nbr[:h] & ((1 << h) - 1)))
    vol_b, in_b = _subset_tables(deg[h:], nbr[h:] >> h)
    to_high = nbr[:h] >> h
    rows = max(1, (1 << 20) // len(vol_a))
    best, best_mask = math.inf, 0
    for b0 in range(0, len(vol_b), rows):
        b = np.arange(b0, min(b0 + rows, len(vol_b)))
        cross = np.bitwise_count(b[:, None] & to_high)
        inside = np.empty((len(b), len(vol_a)), dtype=np.int64)
        inside[:, 0] = cross[:, 0]
        for k in range(1, h):
            np.add(inside[:, :1 << k - 1], cross[:, k, None], out=inside[:, 1 << k - 1:1 << k])
        inside += in_a + in_b[b, None]
        vol = vol_a + vol_b[b, None]
        denom = np.minimum(vol, 2 * g.m - vol)
        # denom is 0 only at S = V, which is not a proper subset
        ratios = np.divide(vol - 2 * inside, denom, out=np.full(denom.shape, math.inf),
                           where=denom > 0)
        i = int(np.argmin(ratios))
        if ratios.flat[i] < best:
            best = float(ratios.flat[i])
            row, col = divmod(i, len(vol_a))
            best_mask = (2 * col + 1) | int(b[row]) << h
    return best, tuple(v for v in range(n) if best_mask >> v & 1)


# ---------------------------------------------------------------------------
# the bound report

@dataclass(frozen=True)
class BoundEntry:
    name: str
    lhs: float | None
    rhs: float | None
    relation: str  # "<=" (nonstrict) or "<" (strict)
    holds: bool | None
    equality_attained: bool | None
    equality_expected: bool | None
    skipped: bool = False
    reason: str | None = None


@dataclass(frozen=True)
class BoundReport:
    entries: tuple[BoundEntry, ...]

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.entries if not e.skipped)


#: strict comparisons carry this additive slack purely to absorb float error
STRICT_SLACK = 1e-9
#: |lhs - rhs| below this counts as attained equality for float entries
EQUALITY_TOL = 1e-7


def _exact_entry(name, lhs, rhs, expected):
    return BoundEntry(
        name=name, lhs=float(lhs), rhs=float(rhs), relation="<=",
        holds=lhs <= rhs, equality_attained=lhs == rhs, equality_expected=expected,
    )


def _float_entry(name, lhs, rhs, strict, expected):
    if strict:
        return BoundEntry(
            name=name, lhs=lhs, rhs=rhs, relation="<",
            holds=lhs < rhs + STRICT_SLACK,
            equality_attained=None, equality_expected=None,
        )
    return BoundEntry(
        name=name, lhs=lhs, rhs=rhs, relation="<=",
        holds=lhs <= rhs + STRICT_SLACK,
        equality_attained=abs(lhs - rhs) <= EQUALITY_TOL,
        equality_expected=expected,
    )


def _skipped_entry(name, relation, reason):
    return BoundEntry(
        name=name, lhs=None, rhs=None, relation=relation, holds=None,
        equality_attained=None, equality_expected=None, skipped=True, reason=reason,
    )


def bound_report(g: Graph, tol: float = 1e-10, *,
                 cheeger_max_n: int = 24, b_oracle_max_n: int = 12) -> BoundReport:
    """Evaluate every comparison bound against the exact invariant.

    Exact-rational bounds are compared exactly; spectral bounds use the
    given solver tolerance, with strict inequalities given a 1e-9 slack.
    Entries that do not apply (non-tree, non-regular) or exceed a size cap
    are marked skipped, never silently dropped.
    """
    if g.n < 2:
        raise TooSmall("bound report needs n >= 2")
    if not is_connected(g):
        raise DisconnectedGraph("bound report needs a connected graph")

    n, m = g.n, g.m
    cert = gamma(g)
    gam = cert.gamma
    table = transmission_table(g)
    tr_regular = bool((table.tr == table.tr[0]).all())
    degs = g.degrees()
    regular = bool((degs == degs[0]).all())
    tree = is_tree(g)
    complete = m == n * (n - 1) // 2
    path_shaped = m == n - 1 and int(degs.max()) <= 2
    star_shaped = tree and n >= 3 and int(degs.max()) == n - 1

    entries = []

    # invariant vs distance spectral radius; equality iff transmission-regular
    try:
        sr = distance_spectral_radius(g, tol)
        entries.append(_float_entry(
            "spectral_radius_upper", float(gam), n / sr.value, False, tr_regular))
    except NoConvergence as exc:
        entries.append(_skipped_entry("spectral_radius_upper", "<=", str(exc)))

    # invariant vs Wiener index; equality iff transmission-regular (exact)
    entries.append(_exact_entry(
        "wiener_upper", gam, Fraction(n * n, 2 * table.wiener), tr_regular))

    # l1 edge-variation analogue vs (m/2) * invariant
    if n > b_oracle_max_n:
        entries.append(_skipped_entry(
            "l1_variation_upper", "<=", f"l1 oracle capped at n <= {b_oracle_max_n}"))
    else:
        from . import lp

        try:
            b_val = lp.b_small_oracle(g, max_n=b_oracle_max_n)
            entries.append(_float_entry(
                "l1_variation_upper", b_val, float(Fraction(m, 2) * gam), False, None))
        except GammaConnError as exc:
            entries.append(_skipped_entry("l1_variation_upper", "<=", str(exc)))

    # squared 2-norm of the witness vs n/(n-1); equality iff complete (exact)
    norm_sq = sum((w * w for w in cert.witness), _ZERO)
    entries.append(_exact_entry(
        "witness_norm_lower", Fraction(n, n - 1), norm_sq, complete))

    # algebraic connectivity vs (m(n-1)/n) * invariant^2 (strict)
    try:
        ac = algebraic_connectivity(g, tol)
        entries.append(_float_entry(
            "laplacian_gap_upper", ac.value, float(Fraction(m * (n - 1), n) * gam * gam),
            True, None))
    except NoConvergence as exc:
        entries.append(_skipped_entry("laplacian_gap_upper", "<", str(exc)))

    # for regular graphs: expansion vs sqrt(n-1) * invariant (strict); the
    # one exact expansion also serves the two-sided comparison below
    cheeger_val = cheeger_constant(g, max_n=cheeger_max_n)[0] if n <= cheeger_max_n else None
    if not regular:
        entries.append(_skipped_entry("expansion_upper", "<", "graph is not regular"))
    elif n > cheeger_max_n:
        entries.append(_skipped_entry(
            "expansion_upper", "<", f"exact expansion capped at n <= {cheeger_max_n}"))
    else:
        entries.append(_float_entry(
            "expansion_upper", cheeger_val, math.sqrt(n - 1) * float(gam), True, None))

    # two-sided expansion vs normalized-Laplacian gap
    if n > cheeger_max_n:
        reason = f"exact expansion capped at n <= {cheeger_max_n}"
        entries.append(_skipped_entry("expansion_vs_mu_upper", "<=", reason))
        entries.append(_skipped_entry("expansion_vs_mu_lower", "<", reason))
    else:
        try:
            mu = normalized_laplacian_mu(g, tol)
            entries.append(_float_entry(
                "expansion_vs_mu_upper", mu.value, 2.0 * cheeger_val, False, None))
            entries.append(_float_entry(
                "expansion_vs_mu_lower", cheeger_val ** 2 / 2.0, mu.value, True, None))
        except NoConvergence as exc:
            entries.append(_skipped_entry("expansion_vs_mu_upper", "<=", str(exc)))
            entries.append(_skipped_entry("expansion_vs_mu_lower", "<", str(exc)))

    # global window; lower equality iff path, upper equality iff complete (exact)
    entries.append(_exact_entry(
        "global_lower", Fraction(2, n - 1), gam, path_shaped))
    entries.append(_exact_entry(
        "global_upper", gam, Fraction(n, n - 1), complete))

    # tree ceiling; equality iff star (exact)
    if not tree:
        entries.append(_skipped_entry("tree_upper", "<=", "graph is not a tree"))
    elif n < 3:
        entries.append(_skipped_entry("tree_upper", "<=", "tree ceiling needs n >= 3"))
    else:
        entries.append(_exact_entry(
            "tree_upper", gam, Fraction(n, 2 * n - 3), star_shaped))

    return BoundReport(tuple(entries))
