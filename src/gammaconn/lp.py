"""Linear-programming cross-checks for the connectivity invariant.

One two-phase revised bounded-variable simplex (box bounds stay on the
variables instead of becoming rows; Bland's rule, hence deterministic and
cycle-free) solves a batch of programs that share rows and bounds and differ
only in their objective. The programs run in lockstep: each keeps its own
basis inverse, basis and values, and every round prices all of them with one
batched product and updates every inverse with one batched rank-1 (eta)
update, so the fixed cost of a step is paid once per round, not once per
program. Each program takes the same steps as it would alone, and
`simplex_solve` is the batch of one. Blocks of programs keep their (B, r, r)
inverses within `_INVERSE_BYTES`.

The batch drives the per-vertex minimax oracle, whose minimum over pinned
vertices reproduces the invariant. Program k minimises the largest edge
difference |x_u - x_v| subject to sum(x) = 0, -1 <= x <= 1 and x_k = 1; its
primal form has 2m + 1 rows, so the oracle solves all n programs cold, in
one batch, in their dual form, which has n + 1 rows and starts feasible from
the slack basis.

The pivoting tolerance is fixed at `_TOL` = 1e-9; no caller sets it.
"""

from __future__ import annotations

from collections.abc import Sequence
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
# one block's (B, r, r) float64 basis inverses stay within this; each pivot
# makes one more array of that size
_INVERSE_BYTES = 512 << 10


@dataclass(frozen=True)
class LinearProgram:
    """Minimization LP: objective @ x subject to row constraints and box bounds.

    The sequences may be tuples or numpy arrays: the oracle passes its rows
    as array rows and its bounds as one (num_vars, 2) array.
    """

    num_vars: int
    objective: Sequence[float] | np.ndarray
    constraints: Sequence[tuple[Sequence[float] | np.ndarray, str, float]]
    bounds: Sequence[tuple[float, float]] | np.ndarray

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


def _pivot(binv, basis, column, who, row, col):
    """Bring col[i] into program who[i]'s basis at row[i].

    column[k] is B_k^-1 a for program k's entering column a. The new inverse
    is E B_k^-1, where the eta matrix E divides the pivot row by the pivot
    and clears the rest of the column (the product form of the inverse): one
    batched rank-1 update, zero for the programs not in `who`.
    """
    lead = np.zeros(column.shape)
    lead[who] = binv[who, row] / column[who, row][:, None]
    eta = column.copy()
    eta[who, row] = 0.0
    binv -= np.einsum("pi,pj->pij", eta, lead)  # einsum's outer product beats broadcasting
    binv[who, row] = lead[who]
    basis[who, row] = col


def _run_phase(binv, basis, x, cost, full, lo, hi, cap, steps):
    """Bland steps, in lockstep, on a batch of programs that share rows and bounds.

    `full` holds the rows [A | I | artificials]. Program i has the basis
    inverse binv[i], the basis basis[i], every variable's value x[i]
    (nonbasic ones at a bound, free ones at 0) and its own costs cost[i].
    One round prices every live program with one batched product (reduced
    costs cost - c_B B^-1 full), takes its first improving index, and pivots
    it in, or flips it to its other bound when its own span binds first.
    Every live program takes one step per round, so a program's count is
    the round it finishes in. The four arrays are worked on in place with
    the live programs packed at the front, so a batch of one ends with its
    final state in row 0. Returns (status, steps, x) per program; status is
    OPTIMAL or UNBOUNDED.
    """
    status = np.full(len(x), OPTIMAL, dtype=object)
    finished = np.full(len(x), steps)
    final = np.empty_like(x)
    live = np.arange(len(x))
    nonbasic = np.ones(x.shape, dtype=bool)
    nonbasic[live[:, None], basis] = False
    b, bs, xs, c, nb = binv, basis, x, cost, nonbasic
    columns = np.ascontiguousarray(full.T)
    spans = hi - lo

    def retire(done, verdict):
        nonlocal b, bs, xs, c, nb, live
        ids = live[done]
        status[ids], finished[ids], final[ids] = verdict, steps, xs[done]
        keep = ~done
        size = len(live) - len(ids)
        for array in (b, bs, xs, c, nb):
            array[:size] = array[keep]
        b, bs, xs, c, nb, live = b[:size], bs[:size], xs[:size], c[:size], nb[:size], live[keep]
        return keep

    while len(live):
        rows = np.arange(len(live))
        reduced = c - np.matmul(c[rows[:, None], bs][:, None], b)[:, 0] @ full
        improving = ((reduced < -_TOL) & (xs < hi)) | ((reduced > _TOL) & (xs > lo))
        improving &= nb
        j = improving.argmax(axis=1)
        found = improving[rows, j]
        if not found.all():
            keep = retire(~found, OPTIMAL)
            if not len(live):
                break
            j, reduced, rows = j[keep], reduced[keep], rows[:len(live)]
        sign = np.where(reduced[rows, j] < 0, 1.0, -1.0)
        column = np.matmul(b, columns[j][:, :, None])[:, :, 0]
        alpha = column * sign[:, None]  # basic values fall by theta * alpha
        xb = xs[rows[:, None], bs]
        # the room each basic value has before its bound, over |alpha|;
        # entries with |alpha| <= _TOL get inf (inf / 0 is inf, with no warning)
        room = np.where(alpha > _TOL, xb - lo[bs], np.where(alpha < -_TOL, hi[bs] - xb, math.inf))
        ratio = np.maximum(room / np.abs(alpha), 0.0)
        theta = ratio.min(axis=1, initial=math.inf)
        span = spans[j]
        flip = span <= theta
        flips = flip.any()
        if flips and (span[flip] == math.inf).any():
            # the others take this step in the next round, from the same state
            retire(flip & (span == math.inf), UNBOUNDED)
            continue
        pivots = not flip.all()
        delta = span
        if pivots:
            leave = np.where(ratio <= theta[:, None] + _TOL, bs, x.shape[1]).argmin(axis=1)
            delta = np.where(flip, span, ratio[rows, leave])
        xs[rows[:, None], bs] = xb - delta[:, None] * alpha
        xs[rows, j] += sign * delta
        if flips:
            f, jf = rows[flip], j[flip]
            xs[f, jf] = np.where(sign[flip] > 0, hi[jf], lo[jf])
        if pivots:
            p = rows[~flip]
            q, jp = leave[p], j[p]
            out = bs[p, q]
            xs[p, out] = np.where(alpha[p, q] > 0, lo[out], hi[out])
            nb[p, out], nb[p, jp] = True, False
            _pivot(b, bs, column, p, q, jp)
        steps += 1
        if steps > cap:
            raise IterationCap(f"simplex exceeded {cap} steps")
    return status, finished, final


def simplex_solve_many(lp: LinearProgram, objectives) -> list[LPSolution]:
    """Solve lp's rows and bounds once per row of `objectives`, in lockstep.

    A two-phase revised bounded-variable simplex with Bland's anti-cycling
    rule. Every variable keeps its own [lo, hi], so box bounds need no rows;
    a nonbasic variable sits at a finite bound, a free one at 0. Row i gets
    a slack s_i with A_i x + s_i = b_i (bounds [0, inf), (-inf, 0] or
    [0, 0] for <=, >= and =). A row whose slack cannot start basic at the
    initial bounds gets an artificial; phase one minimizes their sum, once
    for the whole batch, and phase two fixes them to [0, 0] and starts
    every objective from phase one's basis. `lp.objective` is not read.
    Programs run in equal blocks whose basis inverses fit in
    `_INVERSE_BYTES`.
    `iterations` counts pivots plus bound flips, phase one included; each
    program takes the same steps as it would alone.
    """
    n, m = lp.num_vars, len(lp.constraints)
    objectives = np.array(objectives, dtype=float).reshape(len(objectives), n)
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
    full = np.zeros((m, width))
    full[:, :n] = a
    full[:, n:n + m] = np.eye(m)
    full[art] *= np.sign(resid[art])[:, None]
    full[art, n + m + np.arange(k)] = 1.0
    basis = np.arange(n, n + m)
    basis[art] = np.arange(n + m, width)
    slack = resid.copy()
    slack[art] = 0.0
    x = np.concatenate([start, slack, np.abs(resid[art])])[None]
    lo = np.concatenate([lo, slack_lo, np.zeros(k)])
    hi = np.concatenate([hi, slack_hi, np.full(k, math.inf)])
    binv, basis = np.eye(m)[None], basis[None]

    cap = 200 * (m + width + 10)
    steps = 0
    if k:
        cost = np.zeros((1, width))
        cost[0, n + m:] = 1.0
        status, finished, x = _run_phase(binv, basis, x, cost, full, lo, hi, cap, steps)
        steps = int(finished[0])
        if status[0] != OPTIMAL or x[0, n + m:].sum() > _FEAS_TOL:
            return [LPSolution(INFEASIBLE, None, None, steps) for _ in objectives]
        hi[n + m:] = 0.0
    per_block = max(1, _INVERSE_BYTES // max(1, 8 * m * m))
    solutions = []
    for part in np.array_split(objectives, max(1, -(-len(objectives) // per_block))):
        cost = np.zeros((len(part), width))
        cost[:, :n] = part
        status, finished, xs = _run_phase(
            np.repeat(binv, len(part), axis=0), np.repeat(basis, len(part), axis=0),
            np.repeat(x, len(part), axis=0), cost, full, lo, hi, cap, steps)
        for verdict, count, c, xi in zip(status, finished.tolist(), part, xs):
            if verdict == UNBOUNDED:
                solutions.append(LPSolution(UNBOUNDED, None, None, count))
            else:
                assignment = xi[:n].copy()
                solutions.append(LPSolution(OPTIMAL, float(c @ assignment), assignment, count))
    return solutions


def simplex_solve(lp: LinearProgram) -> LPSolution:
    """Solve one program: `simplex_solve_many` on the batch of lp.objective alone."""
    return simplex_solve_many(lp, [lp.objective])[0]


# ---------------------------------------------------------------------------
# invariant oracle

def _pinned_duals(g: Graph):
    """The LP duals of the pinned-vertex programs k = 0..n-1, as one batch.

    The primal min c.z s.t. A z <= 0 (the 2m edge rows), e.z = 0 with
    e = [1, ..., 1, 0], lo <= z <= hi, where z = (x, y) and c = e_y, has the
    dual max lo.alpha - hi.beta s.t. -A^T lambda + mu e + alpha - beta = c,
    with lambda, alpha, beta >= 0 and mu free. alpha appears only in its own
    row, so it becomes that row's slack: row j reads
    (-A^T lambda + mu e - beta)_j <= c_j, and since lo_y = 0 the dual value
    is minus the minimum of lo.(-A^T lambda + mu e) + (hi - lo).beta. The
    variables are lambda (2m), mu, then beta (n + 1). Only lo, hence the
    objective, depends on k, so this returns one `LinearProgram` of the
    shared rows and bounds (zero objective) and the (n, width) objective
    matrix, row k from program k's lo. Every program starts feasible from
    the slack basis, so none needs a phase one.
    """
    n, m = g.n, g.m
    u, v = g.edges[:, 0], g.edges[:, 1]
    width = 2 * m + 1 + n + 1
    cols = np.zeros((n + 1, width))
    edge = np.arange(m)
    cols[u, edge], cols[v, edge] = -1.0, 1.0  # -A^T for x_u - x_v - y <= 0
    cols[u, m + edge], cols[v, m + edge] = 1.0, -1.0  # and for x_v - x_u - y <= 0
    cols[n, :2 * m] = 1.0  # every edge row has -1 at y
    cols[:n, 2 * m] = 1.0  # mu
    np.fill_diagonal(cols[:, 2 * m + 1:], -1.0)  # beta
    rows = tuple(zip(cols, (LESS_EQ,) * (n + 1), (0.0,) * n + (1.0,)))
    bounds = np.zeros((width, 2))
    bounds[:, 1] = math.inf
    bounds[2 * m, 0] = -math.inf
    hi = np.ones(n + 1)
    hi[n] = 2.0
    lows = np.full((n, n + 1), -1.0)  # row k is program k's lo: x_k = 1, y >= 0
    np.fill_diagonal(lows, 1.0)
    lows[:, n] = 0.0
    objectives = lows @ cols
    objectives[:, 2 * m + 1:] += hi  # beta's entries, -lo from the product, are hi - lo
    return LinearProgram(width, np.zeros(width), rows, bounds), objectives


def gamma_lp_details(g: Graph):
    """All pinned-vertex optima: (minimum, per-vertex list, best vertex).

    Every program k is solved cold in dual form (`_pinned_duals`): n + 1
    rows instead of the primal's 2m + 1, with the same optimum by strong
    duality. One `simplex_solve_many` call runs all n programs in lockstep.
    The best vertex is the first minimiser.
    """
    if g.n < 2:
        raise TooSmall("the LP oracle needs at least 2 vertices")
    if not is_connected(g):
        raise DisconnectedGraph("the LP oracle mirrors the connected-only formula")
    per_k = []
    best_k = -1
    best = math.inf
    for k, sol in enumerate(simplex_solve_many(*_pinned_duals(g))):
        if sol.status != OPTIMAL:
            raise GammaConnError(f"pinned-vertex dual LP at k={k} reported {sol.status}")
        per_k.append(-sol.objective)
        if per_k[k] < best - 1e-12:
            best = per_k[k]
            best_k = k
    return best, per_k, best_k
