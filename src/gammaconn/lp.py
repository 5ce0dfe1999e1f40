"""Linear-programming cross-checks for the connectivity invariant.

A small dense two-phase bounded-variable simplex (box bounds stay on the
variables instead of becoming rows; Bland's rule, hence deterministic and
cycle-free) drives two oracles: the per-vertex minimax program whose
minimum over pinned vertices reproduces the invariant, and a sign-pattern
enumeration for the l1 edge-variation analogue on tiny graphs.

Each oracle solves a sequence of programs that share every row and differ
in the bounds of two variables. Only the first is solved cold; each next
one restarts from the previous optimal basis on the same tableau
(`_Tableau.restart`): the tableau is recomputed from the basis, one
variable is freed, the other is driven to its new fixed value by a
one-variable objective and fixed, and the real objective is repriced.

The pivoting tolerance is fixed at `_TOL` = 1e-9; no caller sets it.
"""

from __future__ import annotations

from dataclasses import dataclass

import math
import numpy as np

from .errors import (
    DisconnectedGraph,
    GammaConnError,
    IterationCap,
    TooLarge,
    TooSmall,
    VertexOutOfRange,
)
from .graph import Graph, is_connected

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LESS_EQ = "<="
EQUAL = "="
GREATER_EQ = ">="

_TOL = 1e-9  # reduced costs and ratio-test entries this small count as zero
_FEAS_TOL = 1e-8


@dataclass(frozen=True)
class LinearProgram:
    """Minimization LP: objective @ x subject to row constraints and box bounds."""

    num_vars: int
    objective: tuple[float, ...]
    constraints: tuple[tuple[tuple[float, ...], str, float], ...]
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length != num_vars")
        if len(self.bounds) != self.num_vars:
            raise ValueError("bounds length != num_vars")
        for coeffs, rel, _ in self.constraints:
            if len(coeffs) != self.num_vars:
                raise ValueError("constraint coefficient length != num_vars")
            if rel not in (LESS_EQ, EQUAL, GREATER_EQ):
                raise ValueError(f"unknown relation {rel!r}")
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")


@dataclass(frozen=True)
class LPSolution:
    status: str
    objective: float | None
    assignment: np.ndarray | None
    iterations: int


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= np.outer(column, tableau[row])
    basis[row] = col


def _run_phase(tableau, basis, x, lo, hi, cap, steps):
    """Bland steps on a tableau of rows B^-1 A whose last row holds reduced costs.

    x holds every variable's value (nonbasic ones at a bound, free ones at
    0). A step is a pivot, or a bound flip when the entering variable's own
    span binds first. Returns (status, steps); status is OPTIMAL or UNBOUNDED.
    """
    cost = tableau[-1]
    nonbasic = np.ones(len(x), dtype=bool)
    nonbasic[basis] = False
    while True:
        improving = ((cost < -_TOL) & (x < hi)) | ((cost > _TOL) & (x > lo))
        candidates = np.flatnonzero(improving & nonbasic)
        if not len(candidates):
            return OPTIMAL, steps
        j = candidates[0]
        sign = 1.0 if cost[j] < 0 else -1.0
        alpha = sign * tableau[:-1, j]  # basic values fall by theta * alpha
        ratio = np.full(len(basis), math.inf)
        down, up = alpha > _TOL, alpha < -_TOL
        ratio[down] = (x[basis[down]] - lo[basis[down]]) / alpha[down]
        ratio[up] = (hi[basis[up]] - x[basis[up]]) / -alpha[up]
        np.maximum(ratio, 0.0, out=ratio)
        theta = ratio.min(initial=math.inf)
        span = hi[j] - lo[j]
        if span <= theta:
            if span == math.inf:
                return UNBOUNDED, steps
            x[basis] -= span * alpha
            x[j] = hi[j] if sign > 0 else lo[j]
        else:
            tied = np.flatnonzero(ratio <= theta + _TOL)
            leave = tied[np.argmin(basis[tied])]
            out = basis[leave]
            x[basis] -= ratio[leave] * alpha
            x[j] += sign * ratio[leave]
            x[out] = lo[out] if alpha[leave] > 0 else hi[out]
            _pivot(tableau, basis, leave, j)
            nonbasic[out], nonbasic[j] = True, False
        steps += 1
        if steps > cap:
            raise IterationCap(f"simplex exceeded {cap} steps")


class _Tableau:
    """A bounded-variable simplex tableau that later programs can restart from.

    The columns are [A | I | artificials], set up as `simplex_solve`
    describes. `columns` and `rhs` keep those rows (negated where an
    artificial needed it), so `refresh` can rebuild the tableau from the
    basis alone.
    """

    def __init__(self, lp: LinearProgram):
        n, m = lp.num_vars, len(lp.constraints)
        a = np.array([coeffs for coeffs, _, _ in lp.constraints], dtype=float).reshape(m, n)
        rhs = np.array([r for _, _, r in lp.constraints], dtype=float)
        rels = [rel for _, rel, _ in lp.constraints]
        slack_lo = np.array([-math.inf if rel == GREATER_EQ else 0.0 for rel in rels])
        slack_hi = np.array([math.inf if rel == LESS_EQ else 0.0 for rel in rels])
        lo, hi = np.array(lp.bounds, dtype=float).reshape(n, 2).T
        start = np.where(lo > -math.inf, lo, np.where(hi < math.inf, hi, 0.0))
        resid = rhs - a @ start
        art = np.flatnonzero((resid < slack_lo) | (resid > slack_hi))
        k = len(art)
        width = n + m + k
        self.columns = np.zeros((m, width))
        self.columns[:, :n] = a
        self.columns[:, n:n + m] = np.eye(m)
        self.columns[art] *= np.sign(resid[art])[:, None]
        self.columns[art, n + m + np.arange(k)] = 1.0
        self.rhs = rhs
        self.rhs[art] *= np.sign(resid[art])
        self.tableau = np.vstack([self.columns, np.zeros(width)])
        self.basis = np.arange(n, n + m)
        self.basis[art] = np.arange(n + m, width)
        slack = resid.copy()
        slack[art] = 0.0
        self.x = np.concatenate([start, slack, np.abs(resid[art])])
        self.lo = np.concatenate([lo, slack_lo, np.zeros(k)])
        self.hi = np.concatenate([hi, slack_hi, np.full(k, math.inf)])
        self.num_vars, self.num_rows, self.width = n, m, width
        self.cap = 200 * (m + width + 10)
        self.steps = 0

    def run(self, cost) -> str:
        """Reprice with `cost` (one entry per column) and run Bland steps to its optimum."""
        self.tableau[-1] = cost - cost[self.basis] @ self.tableau[:-1]
        status, self.steps = _run_phase(self.tableau, self.basis, self.x, self.lo, self.hi,
                                        self.cap, self.steps)
        return status

    def solve(self, cost) -> LPSolution:
        """Run to the optimum of `cost` and read off the original variables."""
        if self.run(cost) == UNBOUNDED:
            return LPSolution(UNBOUNDED, None, None, self.steps)
        assignment = self.x[:self.num_vars].copy()
        objective = float(cost[:self.num_vars] @ assignment)
        return LPSolution(OPTIMAL, objective, assignment, self.steps)

    def refresh(self):
        """Rebuild B^-1 [A | I | art] and the basic values from the basis with one solve.

        Restarting from a tableau carried through many pivots lets rounding
        error accumulate; recomputing it from the basis removes that drift.
        """
        nonbasic_x = self.x.copy()
        nonbasic_x[self.basis] = 0.0
        rhs = self.rhs - self.columns @ nonbasic_x
        solved = np.linalg.solve(self.columns[:, self.basis],
                                 np.column_stack([self.columns, rhs]))
        self.tableau[:-1] = solved[:, :-1]
        self.x[self.basis] = solved[:, -1]

    def restart(self, free: int, span: tuple[float, float], fix: int, value: float):
        """Warm start the next program of a sequence from the current optimal basis.

        Variable `free` gets the bounds `span`, then variable `fix` is driven
        to `value`, one of its current bounds, by minimizing (or maximizing)
        it alone, and fixed there. The new program must be feasible, so the
        drive always reaches `value`; the caller then calls `solve`.
        """
        self.refresh()
        self.lo[free], self.hi[free] = span
        drive = np.zeros(self.width)
        drive[fix] = 1.0 if value == self.lo[fix] else -1.0
        self.steps = 0
        self.run(drive)
        if abs(self.x[fix] - value) > _FEAS_TOL:
            raise GammaConnError(f"warm start could not move variable {fix} to {value}")
        self.lo[fix] = self.hi[fix] = value


def _cold_start(lp: LinearProgram) -> tuple[_Tableau, LPSolution]:
    """Solve `lp` from the slack basis; return its final tableau and the solution."""
    t = _Tableau(lp)
    n, m = t.num_vars, t.num_rows
    if t.width > n + m:
        cost = np.zeros(t.width)
        cost[n + m:] = 1.0
        if t.run(cost) != OPTIMAL or t.x[n + m:].sum() > _FEAS_TOL:
            return t, LPSolution(INFEASIBLE, None, None, t.steps)
        t.hi[n + m:] = 0.0
    cost = np.zeros(t.width)
    cost[:n] = lp.objective
    return t, t.solve(cost)


def simplex_solve(lp: LinearProgram) -> LPSolution:
    """Two-phase dense bounded-variable simplex with Bland's anti-cycling rule.

    Every variable keeps its own [lo, hi], so box bounds need no rows; a
    nonbasic variable sits at a finite bound, a free one at 0. Row i gets a
    slack s_i with A_i x + s_i = b_i (bounds [0, inf), (-inf, 0] or [0, 0]
    for <=, >= and =). A row whose slack cannot start basic at the initial
    bounds gets an artificial; phase one minimizes their sum, phase two
    fixes them to [0, 0]. `iterations` counts pivots plus bound flips.
    """
    return _cold_start(lp)[1]


# ---------------------------------------------------------------------------
# invariant oracle

def build_lp_k(g: Graph, k: int) -> LinearProgram:
    """Minimax edge-difference program with vertex k pinned to 1.

    Variables are x_0..x_{n-1} and the objective variable y (last). Pinning
    is encoded as equal bounds; y inherits the implied window [0, 2].
    """
    if not 0 <= k < g.n:
        raise VertexOutOfRange(f"vertex {k} not in [0, {g.n})")
    n = g.n
    y = n
    objective = [0.0] * n + [1.0]
    constraints = []
    for u, v in g.edges:
        row = [0.0] * (n + 1)
        row[u], row[v], row[y] = 1.0, -1.0, -1.0
        constraints.append((tuple(row), LESS_EQ, 0.0))
        row = [0.0] * (n + 1)
        row[u], row[v], row[y] = -1.0, 1.0, -1.0
        constraints.append((tuple(row), LESS_EQ, 0.0))
    constraints.append((tuple([1.0] * n + [0.0]), EQUAL, 0.0))
    bounds = [(-1.0, 1.0)] * n + [(0.0, 2.0)]
    bounds[k] = (1.0, 1.0)
    return LinearProgram(n + 1, tuple(objective), tuple(constraints), tuple(bounds))


def solve_lp_k(g: Graph, k: int) -> LPSolution:
    sol = simplex_solve(build_lp_k(g, k))
    if sol.status != OPTIMAL:
        raise GammaConnError(f"pinned-vertex LP at k={k} reported {sol.status}")
    return sol


def gamma_lp_details(g: Graph):
    """All pinned-vertex optima: (minimum, per-vertex list, best vertex, best x).

    The programs for k = 0..n-1 share every row and differ only in which
    x_k is fixed to [1, 1], so they run on one tableau: k = 0 is solved
    cold, and each later k restarts from the previous optimal basis. The
    tableau is recomputed from that basis, x_{k-1} is freed to [-1, 1],
    x_k is driven to 1 (reachable, since pinning one vertex is feasible
    for n >= 2) and fixed, and the objective y is minimized again.
    """
    if g.n < 2:
        raise TooSmall("the LP oracle needs at least 2 vertices")
    if not is_connected(g):
        raise DisconnectedGraph("the LP oracle mirrors the connected-only formula")
    n = g.n
    tableau, sol = _cold_start(build_lp_k(g, 0))
    cost = np.zeros(tableau.width)
    cost[n] = 1.0
    per_k = []
    best_k = -1
    best = math.inf
    best_x = None
    for k in range(n):
        if k:
            tableau.restart(k - 1, (-1.0, 1.0), k, 1.0)
            sol = tableau.solve(cost)
        if sol.status != OPTIMAL:
            raise GammaConnError(f"pinned-vertex LP at k={k} reported {sol.status}")
        per_k.append(sol.objective)
        if sol.objective < best - 1e-12:
            best = sol.objective
            best_k = k
            best_x = sol.assignment[:n]
    return best, per_k, best_k, best_x


def gamma_via_lp(g: Graph) -> float:
    """Minimum over pinned vertices of the minimax program's optimum."""
    return gamma_lp_details(g)[0]


# ---------------------------------------------------------------------------
# l1 edge-variation oracle (tiny graphs only)

def b_small_oracle(g: Graph, max_n: int = 12) -> float:
    """Minimum total edge variation under zero sum and unit l1 norm.

    One LP per sign pattern: inside a fixed orthant the l1 norm is linear,
    so enumerating all orthants makes the nonconvex constraint exact.
    Negating x maps a pattern to its complement, so the first sign is
    pinned positive and only 2^(n-1) patterns remain; the all-positive one
    is skipped, since zero sum and unit norm make it infeasible.

    x = p - q with p, q in [0, 1], so the norm row sum(p + q) = 1 is the
    same in every pattern, and a pattern only fixes p_v (negative v) or q_v
    (positive v) to [0, 0]. The patterns are walked in Gray-code order, so
    consecutive ones differ in one vertex: the first is solved cold and
    each next one restarts from the previous optimal basis, freeing one
    variable and driving the other to 0 (`_Tableau.restart`).
    """
    if g.n < 2:
        raise TooSmall("the l1 oracle needs at least 2 vertices")
    if g.n > max_n:
        raise TooLarge(f"the l1 oracle is capped at n <= {max_n}")
    if not is_connected(g):
        raise DisconnectedGraph("the l1 oracle requires a connected graph")
    n, m = g.n, g.m
    num_vars = 2 * n + m  # p_0..p_{n-1}, q_0..q_{n-1}, then one t per edge
    rows = []
    for i, (u, v) in enumerate(g.edges):
        for sign in (1.0, -1.0):
            row = [0.0] * num_vars
            row[u], row[v], row[n + u], row[n + v] = sign, -sign, -sign, sign
            row[2 * n + i] = -1.0
            rows.append((tuple(row), LESS_EQ, 0.0))
    rows.append((tuple([1.0] * n + [-1.0] * n + [0.0] * m), EQUAL, 0.0))
    rows.append((tuple([1.0] * (2 * n) + [0.0] * m), EQUAL, 1.0))
    objective = tuple([0.0] * (2 * n) + [1.0] * m)
    # Gray code 1: vertex 1 negative, every other vertex positive
    bounds = [(0.0, 1.0)] * n + [(0.0, 0.0)] * n + [(0.0, 2.0)] * m
    bounds[1], bounds[n + 1] = (0.0, 0.0), (0.0, 1.0)
    lp = LinearProgram(num_vars, objective, tuple(rows), tuple(bounds))
    tableau, sol = _cold_start(lp)
    cost = np.zeros(tableau.width)
    cost[:num_vars] = objective
    best = math.inf
    for i in range(1, 2 ** (n - 1)):
        if i > 1:
            bit = i & -i  # the Gray codes of i - 1 and i differ in this bit
            v = bit.bit_length()  # bit b holds the sign of vertex b + 1
            if (i ^ (i >> 1)) & bit:  # v turns negative
                tableau.restart(n + v, (0.0, 1.0), v, 0.0)
            else:
                tableau.restart(v, (0.0, 1.0), n + v, 0.0)
            sol = tableau.solve(cost)
        if sol.status != OPTIMAL:
            raise GammaConnError(f"l1 sign-pattern LP reported {sol.status}")
        best = min(best, sol.objective)
    return best
