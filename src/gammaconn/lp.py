"""Linear-programming cross-checks for the connectivity invariant.

A small dense two-phase bounded-variable simplex (box bounds stay on the
variables instead of becoming rows; Bland's rule, hence deterministic and
cycle-free) drives the per-vertex minimax oracle, whose minimum over
pinned vertices reproduces the invariant. Program k minimises the largest
edge difference |x_u - x_v| subject to sum(x) = 0, -1 <= x <= 1 and x_k = 1;
its primal form has 2m + 1 rows, so the oracle solves each program cold in
its dual form, which has n + 1 rows and starts feasible from the slack basis.

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
    TooSmall,
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


def simplex_solve(lp: LinearProgram) -> LPSolution:
    """Two-phase dense bounded-variable simplex with Bland's anti-cycling rule.

    Every variable keeps its own [lo, hi], so box bounds need no rows; a
    nonbasic variable sits at a finite bound, a free one at 0. Row i gets a
    slack s_i with A_i x + s_i = b_i (bounds [0, inf), (-inf, 0] or [0, 0]
    for <=, >= and =). A row whose slack cannot start basic at the initial
    bounds gets an artificial; phase one minimizes their sum, phase two
    fixes them to [0, 0]. `iterations` counts pivots plus bound flips.
    """
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
    tableau = np.zeros((m + 1, width))
    tableau[:m, :n] = a
    tableau[:m, n:n + m] = np.eye(m)
    tableau[art] *= np.sign(resid[art])[:, None]
    tableau[art, n + m + np.arange(k)] = 1.0
    basis = np.arange(n, n + m)
    basis[art] = np.arange(n + m, width)
    slack = resid.copy()
    slack[art] = 0.0
    x = np.concatenate([start, slack, np.abs(resid[art])])
    lo = np.concatenate([lo, slack_lo, np.zeros(k)])
    hi = np.concatenate([hi, slack_hi, np.full(k, math.inf)])

    cap = 200 * (m + width + 10)
    steps = 0
    cost = np.zeros(width)
    if k:
        cost[n + m:] = 1.0
        tableau[-1] = cost - cost[basis] @ tableau[:-1]
        status, steps = _run_phase(tableau, basis, x, lo, hi, cap, steps)
        if status != OPTIMAL or x[n + m:].sum() > _FEAS_TOL:
            return LPSolution(INFEASIBLE, None, None, steps)
        hi[n + m:] = 0.0
        cost[n + m:] = 0.0
    cost[:n] = lp.objective
    tableau[-1] = cost - cost[basis] @ tableau[:-1]
    status, steps = _run_phase(tableau, basis, x, lo, hi, cap, steps)
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, None, steps)
    assignment = x[:n].copy()
    return LPSolution(OPTIMAL, float(cost[:n] @ assignment), assignment, steps)


# ---------------------------------------------------------------------------
# invariant oracle

def _pinned_duals(g: Graph):
    """Yield the LP dual of the pinned-vertex program for k = 0..n-1.

    The primal min c.z s.t. A z <= 0 (the 2m edge rows), e.z = 0 with
    e = [1, ..., 1, 0], lo <= z <= hi, where z = (x, y) and c = e_y, has the
    dual max lo.alpha - hi.beta s.t. -A^T lambda + mu e + alpha - beta = c,
    with lambda, alpha, beta >= 0 and mu free. alpha appears only in its own
    row, so it becomes that row's slack: row j reads
    (-A^T lambda + mu e - beta)_j <= c_j, and since lo_y = 0 the dual value
    is minus the minimum of lo.(-A^T lambda + mu e) + (hi - lo).beta. The
    variables are lambda (2m), mu, then beta (n + 1); the n + 1 rows are
    built once, and only lo, hence the objective, depends on k. Every
    program starts feasible from the slack basis, so none needs a phase one.
    """
    n, m = g.n, g.m
    u, v = g.edges[:, 0], g.edges[:, 1]
    cols = np.zeros((n + 1, 2 * m + 1 + n + 1))
    edge = np.arange(m)
    cols[u, edge], cols[v, edge] = -1.0, 1.0  # -A^T for x_u - x_v - y <= 0
    cols[u, m + edge], cols[v, m + edge] = 1.0, -1.0  # and for x_v - x_u - y <= 0
    cols[n, :2 * m] = 1.0  # every edge row has -1 at y
    cols[:n, 2 * m] = 1.0  # mu
    np.fill_diagonal(cols[:, 2 * m + 1:], -1.0)  # beta
    rows = tuple((tuple(row), LESS_EQ, float(j == n)) for j, row in enumerate(cols.tolist()))
    bounds = ((0.0, math.inf),) * (2 * m) + ((-math.inf, math.inf),) + ((0.0, math.inf),) * (n + 1)
    hi = np.ones(n + 1)
    hi[n] = 2.0
    for k in range(n):
        lo = np.full(n + 1, -1.0)
        lo[k], lo[n] = 1.0, 0.0
        objective = np.concatenate([lo @ cols[:, :2 * m + 1], hi - lo])
        yield LinearProgram(len(bounds), tuple(objective.tolist()), rows, bounds)


def gamma_lp_details(g: Graph):
    """All pinned-vertex optima: (minimum, per-vertex list, best vertex).

    Each program k is solved cold in dual form (`_pinned_duals`): n + 1
    rows instead of the primal's 2m + 1, with the same optimum by strong
    duality. The best vertex is the first minimiser.
    """
    if g.n < 2:
        raise TooSmall("the LP oracle needs at least 2 vertices")
    if not is_connected(g):
        raise DisconnectedGraph("the LP oracle mirrors the connected-only formula")
    per_k = []
    best_k = -1
    best = math.inf
    for k, dual in enumerate(_pinned_duals(g)):
        sol = simplex_solve(dual)
        if sol.status != OPTIMAL:
            raise GammaConnError(f"pinned-vertex dual LP at k={k} reported {sol.status}")
        per_k.append(-sol.objective)
        if per_k[k] < best - 1e-12:
            best = per_k[k]
            best_k = k
    return best, per_k, best_k
