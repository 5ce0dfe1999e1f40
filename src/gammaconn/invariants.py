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
    FixedLimit,
    InfeasibleVector,
    NoConvergence,
    TooLarge,
    TooSmall,
)
from .graph import (
    Graph,
    _cached,
    _check_dense,
    _distances,
    components,
    distance_matrix,
    is_connected,
    is_tree,
    transmission_table,
)

Rational = Fraction  # exact, always reduced, positive denominator

_ZERO = Fraction(0)
_POWER_ITERATIONS = 100_000  # distance_spectral_radius raises NoConvergence past this
_L1_MAX_N = 12  # b_small_oracle enumerates all 2^n vertex subsets
_CHEEGER_WIDTH = 48  # exact expansion's n limit, whatever its max_n: int64 masks, int16 counts
_CHEEGER_MAX_N = 24  # default size cap of the exact expansion (GAMMA_MAX_N in the CLI)
#: Subsets per block of the exact expansion enumeration: the block's two int16
#: arrays, 4 bytes a mask (512 KB), stay well inside a 2 MB L2 cache. A power
#: of two, so that whole blocks tile the high-half masks.
_CHEEGER_BLOCK = 1 << 17


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
    """The exact invariant, an optimal witness vector and its exact residuals.

    The witness is kept in integers, per shell: vertex v lies in shell
    shells[v], and each of the shell_sizes[s] vertices of shell s holds
    shell_nums[s] / witness_den, which is 1 - s * n / witness_den. On a
    connected graph shell s is the set of vertices at distance s from
    attaining_vertex and witness_den is the maximum transmission; on a
    disconnected one shell 0 is a smallest component and shell 1 the rest.
    witness, the same vector as a tuple of Fractions with one shared object
    per shell, is built on first access and kept: readers racing on that
    access all get the first tuple stored.
    """

    gamma: Fraction
    connected: bool
    attaining_vertex: int | None
    shells: tuple[int, ...]
    shell_sizes: tuple[int, ...]
    shell_nums: tuple[int, ...]
    witness_den: int
    witness_valid: bool
    residuals: WitnessResiduals

    @property
    def approx(self):
        return float(self.gamma)

    @property
    def witness(self) -> tuple[Fraction, ...]:
        memo = self.__dict__
        if "_witness" not in memo:
            values = [Fraction(a, self.witness_den) for a in self.shell_nums]
            memo.setdefault("_witness", tuple(map(values.__getitem__, self.shells)))
        return memo["_witness"]


def gamma(g: Graph) -> GammaCertificate:
    """Exact invariant value with an optimal witness vector.

    Connected graphs: n over the maximum transmission, witness 1 - r*gamma
    on the distance-r shell of the smallest maximum-transmission vertex.
    Disconnected graphs: 0, witness constant 1 on a smallest component and
    a balancing negative constant elsewhere. Memoised per graph.
    """
    return _cached(g, "gamma", lambda: _gamma(g))


def _gamma(g):
    n = g.n
    if n < 2:
        raise TooSmall("no zero-sum vector of sup-norm 1 exists on fewer than 2 vertices")
    connected = is_connected(g)
    if connected:
        table = transmission_table(g)
        value, u, den = Fraction(n, table.d_max), table.argmax[0], table.d_max
        shells = _distances(g, u)
    else:
        # over den = n - k, 1 on a smallest component (k vertices, shell 0)
        # and -k / (n - k) on the rest (shell 1)
        smallest = min(components(g), key=lambda c: (len(c), c[0]))
        value, u, den = _ZERO, None, n - len(smallest)
        shells = np.ones(n, dtype=np.int64)
        shells[smallest] = 0
    nums = [den - s * n for s in range(int(shells.max()) + 1)]
    sizes = np.bincount(shells).tolist()
    # entries are constant per shell and an edge diff is |shell gap| * n / den,
    # so every residual is exact in O(shells) integer operations
    gap = int(np.abs(shells[g.edges[:, 0]] - shells[g.edges[:, 1]]).max(initial=0))
    res = WitnessResiduals(
        zero_sum=Fraction(sum(k * a for k, a in zip(sizes, nums)), den),
        sup_deviation=Fraction(max(map(abs, nums)) - den, den),
        edge_gap=Fraction(gap * n, den) - value,
    )
    # on a connected graph 2*tr(u) >= ecc(u)*n at a maximum-transmission
    # vertex keeps every shell value within [-1, 1], so the witness is valid
    # by construction; the flag reports the exact check instead of assuming it
    valid = res.zero_sum == 0 and res.sup_deviation == 0 and res.edge_gap == 0
    return GammaCertificate(value, connected, u, tuple(shells.tolist()), tuple(sizes),
                            tuple(nums), den, valid, res)


def gamma_objective(g: Graph, x) -> float | Fraction:
    """Largest edge difference of a feasible vector (zero sum, sup norm 1).

    Any feasible x yields a value no smaller than the graph's invariant.
    When every entry is rational (int, numpy int or Fraction) both checks
    are exact and the value is a Fraction; for int-only input it is a whole
    Fraction, equal under == to the int difference. The entries are scaled
    to integers over their common denominator, and the edge differences are
    taken in int64 when that denominator is below 2^62 (every difference is
    then at most twice it), otherwise in Python ints (object dtype). With
    any other entry, such as a float, both checks allow an absolute
    tolerance of 1e-9 and the value is a float.
    """
    if len(x) != g.n:
        raise InfeasibleVector(f"vector length {len(x)} != vertex count {g.n}")
    vals = list(x)
    u, v = g.edges[:, 0], g.edges[:, 1]
    # the type check, like the rational work below, runs once per distinct
    # type or object rather than once per entry
    if all(issubclass(t, numbers.Rational) for t in set(map(type, vals))):
        nums, den = _over_common_denominator(vals)
        # checked on Python ints, before any fixed-width array exists
        total, sup = sum(nums), max(map(abs, nums))
        if total != 0:
            raise InfeasibleVector(f"entries sum to {float(Fraction(total, den))!r}, not 0")
        if sup != den:
            raise InfeasibleVector(f"sup norm is {float(Fraction(sup, den))!r}, not 1")
        arr = np.array(nums, dtype=np.int64 if den < 2 ** 62 else object)
        return Fraction(int(np.abs(arr[u] - arr[v]).max(initial=0)), den)
    arr = np.array(vals, dtype=float)
    if not np.isfinite(arr).all():
        raise InfeasibleVector("entries are not all finite")
    total, sup = float(arr.sum()), float(np.abs(arr).max())
    if abs(total) > 1e-9:
        raise InfeasibleVector(f"entries sum to {total!r}, not 0")
    if abs(sup - 1) > 1e-9:
        raise InfeasibleVector(f"sup norm is {sup!r}, not 1")
    return float(np.abs(arr[u] - arr[v]).max(initial=0))


def _over_common_denominator(vals):
    """Integer numerators of rational entries over their least common denominator.

    The lcm and the scaling run once per distinct entry object (a
    certificate's witness shares one per shell); the numerators map back
    per entry through C-level maps.
    """
    distinct = dict(zip(map(id, vals), vals))
    den = math.lcm(*(int(w.denominator) for w in distinct.values()))
    scaled = {key: int(w.numerator) * (den // int(w.denominator)) for key, w in distinct.items()}
    return list(map(scaled.__getitem__, map(id, vals))), den


def is_transmission_regular(g: Graph) -> bool:
    tr = transmission_table(g).tr
    return bool((tr == tr[0]).all())


# ---------------------------------------------------------------------------
# matrices

def laplacian_matrix(g):
    """D - A, built in its one n x n array (writing -1.0, never negating zeros)."""
    _check_dense(g)
    lap = np.zeros((g.n, g.n))
    lap[g.edges[:, 0], g.edges[:, 1]] = -1.0
    lap[g.edges[:, 1], g.edges[:, 0]] = -1.0
    np.fill_diagonal(lap, g.degrees())
    return lap


def normalized_laplacian_matrix(g):
    deg = g.degrees().astype(float)
    if (deg == 0).any():
        raise DisconnectedGraph("normalized Laplacian requires no isolated vertices")
    scale = deg ** -0.5
    lap = laplacian_matrix(g)
    lap *= scale[:, None]
    lap *= scale[None, :]
    return lap


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
    if not tol > 0:
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

def cheeger_constant(g: Graph, max_n: int = _CHEEGER_MAX_N):
    """Exact edge-expansion constant by enumerating all vertex subsets.

    Vertex 0 is pinned into S, which covers every bipartition once. Returns
    the float quotient of exact integers boundary / min(vol S, 2m - vol S)
    and the first minimising S in ascending bitmask order. The subset count
    doubles per vertex, hence the size cap max_n. Whatever max_n is, n is
    also limited to _CHEEGER_WIDTH (48), a guard well inside the int64
    subset masks that also keeps the enumeration's int16 counts exact.
    Memoised per graph.
    """
    if g.n > _CHEEGER_WIDTH:
        raise FixedLimit(f"exact expansion enumeration capped at n <= {_CHEEGER_WIDTH}")
    if g.n > max_n:
        raise TooLarge(f"exact expansion enumeration capped at n <= {max_n}")
    if g.n < 2:
        raise TooSmall("expansion needs a proper non-empty subset")
    if not is_connected(g):
        raise DisconnectedGraph("expansion of a disconnected graph is 0/trivial; not supported")
    value, subset = _cached(g, "cheeger_constant", lambda: _exact_cheeger(g))
    return value, list(subset)


def _neighbour_masks(g):
    """Neighbour bitmask of every vertex, as int64 (so n <= 63)."""
    nbr = np.zeros(g.n, dtype=np.int64)
    np.bitwise_or.at(nbr, g.edges[:, 0], 1 << g.edges[:, 1])
    np.bitwise_or.at(nbr, g.edges[:, 1], 1 << g.edges[:, 0])
    return nbr


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

    The boundary of S is bd_A[a] + bd_B[b] - 2 cross(b, a), where bd = vol - 2 inner
    on each half and cross counts the edges between a and b. Per block of
    _CHEEGER_BLOCK masks (rows b of all 2^(h-1) masks a; one row a block from
    n = 35 on), cross doubles over the low vertices' neighbours in b. In a row
    the masks a of one volume share a denominator, so with the columns sorted
    by volume one reduceat gives each class its least boundary, and only these
    minima are divided. Every degree is >= 1, so S = V is alone in its row's
    last class. Blocks and rows go in ascending order, only a strictly smaller
    quotient replaces the best, and the winning row is rescanned in bitmask
    order, so ties go to the first minimising mask.
    """
    n, h = g.n, (g.n + 1) // 2
    nbr = _neighbour_masks(g)
    deg = g.degrees()
    vol_a, bd_a = (t[1::2] for t in _vol_and_boundary(deg[:h], nbr[:h] & ((1 << h) - 1)))
    vol_b, bd_b = _vol_and_boundary(deg[h:], nbr[h:] >> h)
    to_high = nbr[:h] >> h
    perm = np.argsort(vol_a, kind="stable")
    classes, starts = np.unique(vol_a[perm], return_index=True)  # each class's first column
    bd_perm = bd_a[perm]
    cols = len(vol_a)
    rows = min(len(vol_b), max(1, _CHEEGER_BLOCK // cols))
    cut = np.empty((rows, cols), dtype=np.int16)
    permuted = np.empty_like(cut)
    twice_m = np.int16(2 * g.m)
    best = value = math.inf
    best_mask = 0
    with np.errstate(invalid="ignore"):
        for b0 in range(0, len(vol_b), rows):
            b = np.arange(b0, b0 + rows)
            twice_cross = 2 * np.bitwise_count(b[:, None] & to_high).astype(np.int16)
            np.subtract(bd_b[b], twice_cross[:, 0], out=cut[:, 0])
            for k in range(1, h):
                np.subtract(cut[:, :1 << k - 1], twice_cross[:, k, None],
                            out=cut[:, 1 << k - 1:1 << k])
            np.take(cut, perm, axis=1, out=permuted, mode="clip")  # "raise" copies via a temporary
            permuted += bd_perm
            least = np.minimum.reduceat(permuted, starts, axis=1)
            vol = classes + vol_b[b, None]
            # Each quotient is cut / min(vol S, vol S-bar) <= 1 with a denominator
            # <= m <= 48 * 47 / 2 = 1128, so two distinct ones differ by at
            # least 1 / (1128 * 1127), over 6 float32 ulps in [0, 1], and equal
            # ones round alike: float32 keeps their order and ties. So it does for
            # the l1 quotient cut / (|S|(n - |S|)), b_small_oracle's without n / 2:
            # each cut edge joins S to S-bar, so it is <= 1, with denominator <= 576.
            ratios = np.divide(least, np.minimum(vol, twice_m - vol), dtype=np.float32)
            if b0 + rows == len(vol_b):
                ratios[-1, -1] = math.inf  # S = V, alone in the last class, is the only 0 / 0
            i = int(np.argmin(ratios))
            if ratios.flat[i] < best:
                best = ratios.flat[i]
                r = i // len(classes)
                line, vol = cut[r] + bd_a, vol_a + vol_b[b0 + r]
                denom = np.minimum(vol, twice_m - vol)
                # the row's first mask at the minimum; S = V's nan equals nothing
                col = int(np.argmax(np.divide(line, denom, dtype=np.float32) == best))
                value = int(line[col]) / int(denom[col])  # exact float64 readback
                best_mask = (2 * col + 1) | (b0 + r) << h
    return value, tuple(v for v in range(n) if best_mask >> v & 1)


def _vol_and_boundary(deg, nbr):
    """Volume and boundary of every subset of one half, as int16 tables.

    For n <= _CHEEGER_WIDTH every volume, boundary and partial sum that the
    enumeration forms lies within +-2m, and 2m <= 48 * 47 = 2256 < 2^15, so
    int16 is exact.
    """
    vol, inner = _subset_tables(deg, nbr)
    return vol.astype(np.int16), (vol - 2 * inner).astype(np.int16)


def b_small_oracle(g: Graph) -> Fraction:
    """Least total edge variation under zero sum and unit l1 norm, exactly.

    The value is min over nonempty proper S of |dS| n / (2 |S| (n - |S|)),
    attained by 1/(2|S|) on S and -1/(2(n - |S|)) off it. Proof: on each
    cell with a fixed vertex order and sign split, the objective and both
    constraints are linear, so the minimum sits at a vertex of the cell.
    There at least n - 2 of the n order and sign constraints are tight, so
    the vector takes a on a set P, -b on a disjoint set N and 0 elsewhere;
    zero sum and unit norm give a = 1/(2|P|) and b = 1/(2|N|), and its
    variation is |dP|/(2|P|) + |dN|/(2|N|). Moving the zeros into P gives
    the two-valued vector on N's complement, moving them into N the one on
    P; if both raised the variation, then |P||N| > (n - |N|)(n - |P|),
    impossible since |P| + |N| < n. The subsets are enumerated by bitmask,
    hence the cap of n <= 12.
    """
    if g.n < 2:
        raise TooSmall("the l1 oracle needs at least 2 vertices")
    if g.n > _L1_MAX_N:
        raise FixedLimit(f"the l1 oracle is capped at n <= {_L1_MAX_N}")
    if not is_connected(g):
        raise DisconnectedGraph("the l1 oracle requires a connected graph")
    n = g.n
    vol, inner = _subset_tables(g.degrees(), _neighbour_masks(g))
    size = np.bitwise_count(np.arange(1 << n))
    fewest = np.full(n + 1, np.iinfo(np.int64).max)  # least boundary per |S|
    np.minimum.at(fewest, size, vol - 2 * inner)
    return min(Fraction(int(fewest[s]) * n, 2 * s * (n - s)) for s in range(1, n))


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
                 cheeger_max_n: int = _CHEEGER_MAX_N) -> BoundReport:
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
    tr_regular = is_transmission_regular(g)
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
    except (NoConvergence, FixedLimit) as exc:
        entries.append(_skipped_entry("spectral_radius_upper", "<=", str(exc)))

    # invariant vs Wiener index; equality iff transmission-regular (exact)
    entries.append(_exact_entry(
        "wiener_upper", gam, Fraction(n * n, 2 * table.wiener), tr_regular))

    # l1 edge-variation analogue vs (m/2) * invariant (exact)
    if n > _L1_MAX_N:
        entries.append(_skipped_entry(
            "l1_variation_upper", "<=", f"l1 oracle capped at n <= {_L1_MAX_N}"))
    else:
        entries.append(_exact_entry(
            "l1_variation_upper", b_small_oracle(g), Fraction(m, 2) * gam, None))

    # squared 2-norm of the witness vs n/(n-1); equality iff complete (exact),
    # summed per shell in integers
    norm = sum(k * a * a for k, a in zip(cert.shell_sizes, cert.shell_nums))
    entries.append(_exact_entry(
        "witness_norm_lower", Fraction(n, n - 1), Fraction(norm, cert.witness_den ** 2),
        complete))

    # algebraic connectivity vs (m(n-1)/n) * invariant^2 (strict)
    try:
        ac = algebraic_connectivity(g, tol)
        entries.append(_float_entry(
            "laplacian_gap_upper", ac.value, float(Fraction(m * (n - 1), n) * gam * gam),
            True, None))
    except (NoConvergence, FixedLimit) as exc:
        entries.append(_skipped_entry("laplacian_gap_upper", "<", str(exc)))

    # for regular graphs: expansion vs sqrt(n-1) * invariant (strict); the
    # one exact expansion also serves the two-sided comparison below
    cheeger_cap = min(cheeger_max_n, _CHEEGER_WIDTH)
    cheeger_val = cheeger_constant(g, max_n=cheeger_cap)[0] if n <= cheeger_cap else None
    capped = f"exact expansion capped at n <= {cheeger_cap}"
    if not regular:
        entries.append(_skipped_entry("expansion_upper", "<", "graph is not regular"))
    elif n > cheeger_cap:
        entries.append(_skipped_entry("expansion_upper", "<", capped))
    else:
        entries.append(_float_entry(
            "expansion_upper", cheeger_val, math.sqrt(n - 1) * float(gam), True, None))

    # two-sided expansion vs normalized-Laplacian gap
    if n > cheeger_cap:
        entries.append(_skipped_entry("expansion_vs_mu_upper", "<=", capped))
        entries.append(_skipped_entry("expansion_vs_mu_lower", "<", capped))
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
