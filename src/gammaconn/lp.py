"""Linear-programming cross-check for the connectivity invariant.

One revised simplex (Bland's rule, hence deterministic and cycle-free)
solves a batch of programs a x <= rhs, x >= lo (lo = -inf for a free
variable) that share rows and bounds and differ only in their objective.
No variable has an upper bound, so every step is one pivot. Every program
must start feasible from the slack basis, so there is no phase one. The
programs run in lockstep: each keeps its own basis inverse, basis, basic
values and basic costs, and every round prices all of them with one batched
product and updates every inverse with one batched rank-1 (eta) update, so
the fixed cost of a step is paid once per round, not once per program. Each
program takes the same steps as it would alone. Blocks of programs keep their
(B, r, r) inverses within `_INVERSE_BYTES`, 1 MiB: the 40 inverses of
gnm(40, 100), 41 rows each (538 KB), then run as one batch instead of two,
which took its oracle from about 31 to 26 ms (2-core Xeon, one BLAS thread;
2 and 4 MiB were no faster), for about 0.9 MB more peak RSS. Keeping only
the basic values and costs, instead of gathering and scattering every
variable's value each round, took the batch from about 22 to 20 ms there.

The batch drives the per-vertex minimax oracle, whose minimum over pinned
vertices reproduces the invariant. Program k minimises the largest edge
difference |x_u - x_v| subject to sum(x) = 0, -1 <= x <= 1 and x_k = 1; its
primal form has 2m + 1 rows and an equality, so the oracle solves all n
programs cold, in one batch, in their dual form, which has n + 1 `<=` rows
and starts feasible from the slack basis.

The pivoting tolerance is fixed at `_TOL` = 1e-9; no caller sets it.
"""

from __future__ import annotations

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
UNBOUNDED = "unbounded"

_TOL = 1e-9  # reduced costs and ratio-test entries this small count as zero
# one block's (B, r, r) float64 basis inverses stay within this; each pivot
# makes one more array of that size
_INVERSE_BYTES = 1 << 20


def _pivot(binv, basis, column, row, col):
    """Bring col[i] into program i's basis at row[i], for every program i.

    column[i] is B_i^-1 a for program i's entering column a. The new inverse
    is E B_i^-1, where the eta matrix E divides the pivot row by the pivot
    and clears the rest of the column (the product form of the inverse): one
    batched rank-1 update.
    """
    rows = np.arange(len(row))
    lead = binv[rows, row] / column[rows, row][:, None]
    eta = column.copy()
    eta[rows, row] = 0.0
    binv -= np.einsum("pi,pj->pij", eta, lead)  # einsum's outer product beats broadcasting
    binv[rows, row] = lead
    basis[rows, row] = col


def _run_phase(binv, basis, xb, cost, full, lo, cap):
    """Bland steps, in lockstep, on a batch of programs that share rows and bounds.

    `full` holds the rows [A | I]. Program i has the basis inverse binv[i],
    the basis basis[i], the basic values xb[i] and its own costs cost[i];
    only basic values and costs are kept, since a nonbasic variable rests at
    its lower bound, or at 0 if free (a free variable never leaves once in:
    its room is infinite). One round prices every live program with one
    batched product (reduced costs cost - c_B B^-1 full), takes its first
    improving index, and pivots it in against the first basic variable to
    reach its lower bound. Every live program pivots once per round, so a
    program's count is the round it finishes in. The arrays are worked on in
    place with the live programs packed at the front. Returns (status,
    steps, x) per program, x over every variable; status is OPTIMAL or
    UNBOUNDED.
    """
    steps = 0
    status = np.full(len(xb), OPTIMAL, dtype=object)
    finished = np.zeros(len(xb), dtype=int)
    free = lo == -math.inf
    rest = np.where(free, 0.0, lo)  # each variable's nonbasic value
    final = np.repeat(rest[None], len(xb), axis=0)
    live = np.arange(len(xb))
    nonbasic = np.ones(cost.shape, dtype=bool)
    nonbasic[live[:, None], basis] = False
    b, bs, cb, c, nb = binv, basis, np.take_along_axis(cost, basis, axis=1), cost, nonbasic
    columns = np.ascontiguousarray(full.T)

    def retire(done, verdict):
        nonlocal b, bs, xb, cb, c, nb, live
        ids = live[done]
        status[ids], finished[ids] = verdict, steps
        final[ids[:, None], bs[done]] = xb[done]
        keep = ~done
        size = len(live) - len(ids)
        for array in (b, bs, xb, cb, c, nb):
            array[:size] = array[keep]
        b, bs, xb, cb, c, nb, live = (b[:size], bs[:size], xb[:size], cb[:size], c[:size],
                                      nb[:size], live[keep])
        return keep

    while len(live):
        rows = np.arange(len(live))
        reduced = c - np.matmul(cb[:, None], b)[:, 0] @ full
        # a variable at its lower bound can only rise; a free one moves either way
        improving = (reduced < -_TOL) | ((reduced > _TOL) & free)
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
        # the room each falling basic value has above its lower bound, over
        # alpha; other entries get inf (inf / 0 is inf, with no warning)
        room = np.where(alpha > _TOL, xb - lo[bs], math.inf)
        ratio = np.maximum(room / np.abs(alpha), 0.0)
        theta = ratio.min(axis=1, initial=math.inf)
        unbounded = theta == math.inf
        if unbounded.any():
            # the others take this step in the next round, from the same state
            retire(unbounded, UNBOUNDED)
            continue
        leave = np.where(ratio <= theta[:, None] + _TOL, bs, len(lo)).argmin(axis=1)
        delta = ratio[rows, leave]
        xb -= delta[:, None] * alpha
        xb[rows, leave] = rest[j] + sign * delta
        cb[rows, leave] = c[rows, j]
        out = bs[rows, leave]
        nb[rows, out], nb[rows, j] = True, False
        _pivot(b, bs, column, leave, j)
        steps += 1
        if steps > cap:
            raise IterationCap(f"simplex exceeded {cap} steps")
    return status, finished, final


def simplex_solve_many(a, rhs, lo, objectives):
    """Minimise each row of `objectives` subject to a x <= rhs and x >= lo.

    `a` is (m, n) and `lo` holds one lower bound per variable, -inf for a
    free one. A revised simplex with Bland's anti-cycling rule runs all
    objectives in lockstep; a nonbasic variable sits at its lower bound, a
    free one at 0. Row i gets a slack s_i >= 0 with a_i x + s_i = rhs_i.
    Every program starts from the slack basis, each variable at its lower
    bound if finite, else 0; that start must be feasible, so ValueError if
    rhs - a @ start has a negative entry. Programs run in equal blocks whose
    basis inverses fit in `_INVERSE_BYTES`. Returns (status, value, x, steps)
    per objective: status is OPTIMAL or UNBOUNDED (value and x None), and
    steps counts pivots, the same as the program would take alone.
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    objectives = np.array(objectives, dtype=float).reshape(len(objectives), n)
    lo = np.array(lo, dtype=float).reshape(n)
    start = np.where(lo > -math.inf, lo, 0.0)
    slack = np.asarray(rhs, dtype=float) - a @ start
    if (slack < 0).any():
        raise ValueError("the slack basis is infeasible: rhs - a @ start has a negative entry")
    width = n + m
    full = np.hstack([a, np.eye(m)])
    lo = np.concatenate([lo, np.zeros(m)])
    binv, basis = np.eye(m)[None], np.arange(n, width)[None]

    cap = 200 * (m + width + 10)
    per_block = max(1, _INVERSE_BYTES // max(1, 8 * m * m))
    solutions = []
    for part in np.array_split(objectives, max(1, -(-len(objectives) // per_block))):
        cost = np.zeros((len(part), width))
        cost[:, :n] = part
        status, finished, xs = _run_phase(
            np.repeat(binv, len(part), axis=0), np.repeat(basis, len(part), axis=0),
            np.repeat(slack[None], len(part), axis=0), cost, full, lo, cap)
        for verdict, count, c, xi in zip(status, finished.tolist(), part, xs):
            if verdict == UNBOUNDED:
                solutions.append((UNBOUNDED, None, None, count))
            else:
                assignment = xi[:n].copy()
                solutions.append((OPTIMAL, float(c @ assignment), assignment, count))
    return solutions


# ---------------------------------------------------------------------------
# invariant oracle

def _pinned_duals(g: Graph):
    """The LP duals of the pinned-vertex programs k = 0..n-1, as one batch.

    The primal min c.z s.t. A z <= 0 (the 2m edge rows), e.z = 0 with
    e = [1, ..., 1, 0], low <= z <= top, where z = (x, y) and c = e_y, has
    the dual max low.alpha - top.beta s.t. -A^T lambda + mu e + alpha - beta
    = c, with lambda, alpha, beta >= 0 and mu free. alpha appears only in its
    own row, so it becomes that row's slack: row j reads
    (-A^T lambda + mu e - beta)_j <= c_j, and since low_y = 0 the dual value
    is minus the minimum of low.(-A^T lambda + mu e) + (top - low).beta. The
    variables are lambda (2m), mu, then beta (n + 1); none has an upper
    bound, and only mu is free. Only low, hence the objective, depends on k,
    so this returns the shared rows `cols`, their right-hand sides, the
    variables' lower bounds `lo`, and the (n, width) objective matrix, row k
    from program k's low: the arguments of `simplex_solve_many`. Every
    program starts feasible from the slack basis (the right-hand sides are
    nonnegative and every variable starts at 0).
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
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    lo = np.zeros(width)
    lo[2 * m] = -math.inf  # mu
    top = np.ones(n + 1)
    top[n] = 2.0
    lows = np.full((n, n + 1), -1.0)  # row k is program k's low: x_k = 1, y >= 0
    np.fill_diagonal(lows, 1.0)
    lows[:, n] = 0.0
    objectives = lows @ cols
    objectives[:, 2 * m + 1:] += top  # beta's entries, -low from the product, are top - low
    return cols, rhs, lo, objectives


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
    for k, (status, value, _, _) in enumerate(simplex_solve_many(*_pinned_duals(g))):
        if status != OPTIMAL:
            raise GammaConnError(f"pinned-vertex dual LP at k={k} reported {status}")
        per_k.append(-value)
        if per_k[k] < best - 1e-12:
            best = per_k[k]
            best_k = k
    return best, per_k, best_k
