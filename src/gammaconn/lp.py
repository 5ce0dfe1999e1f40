"""Linear-programming cross-check for the connectivity invariant.

One revised bounded-variable simplex (box bounds stay on the variables
instead of becoming rows; Bland's rule, hence deterministic and cycle-free)
solves a batch of programs a x <= rhs, lo <= x <= hi that share rows and
bounds and differ only in their objective. Every program must start
feasible from the slack basis, so there is no phase one. The programs run in
lockstep: each keeps its own basis inverse, basis and values, and every
round prices all of them with one batched product and updates every inverse
with one batched rank-1 (eta) update, so the fixed cost of a step is paid
once per round, not once per program. Each program takes the same steps as
it would alone. Blocks of programs keep their (B, r, r) inverses within
`_INVERSE_BYTES`, 1 MiB: the 40 inverses of gnm(40, 100), 41 rows each
(538 KB), then run as one batch instead of two, which took its oracle from
about 31 to 26 ms (2-core Xeon, one BLAS thread; 2 and 4 MiB were no
faster), for about 0.9 MB more peak RSS.

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


def _run_phase(binv, basis, x, cost, full, lo, hi, cap):
    """Bland steps, in lockstep, on a batch of programs that share rows and bounds.

    `full` holds the rows [A | I]. Program i has the basis
    inverse binv[i], the basis basis[i], every variable's value x[i]
    (nonbasic ones at a bound, free ones at 0) and its own costs cost[i].
    One round prices every live program with one batched product (reduced
    costs cost - c_B B^-1 full), takes its first improving index, and pivots
    it in, or flips it to its other bound when its own span binds first.
    Every live program takes one step per round, so a program's count is
    the round it finishes in. The four arrays are worked on in place with
    the live programs packed at the front. Returns (status, steps, x) per
    program; status is OPTIMAL or UNBOUNDED.
    """
    steps = 0
    status = np.full(len(x), OPTIMAL, dtype=object)
    finished = np.zeros(len(x), dtype=int)
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


def simplex_solve_many(a, rhs, bounds, objectives):
    """Minimise each row of `objectives` subject to a x <= rhs and box bounds.

    `a` is (m, n) and `bounds` holds one (lo, hi) per variable. A revised
    bounded-variable simplex with Bland's anti-cycling rule runs all
    objectives in lockstep. Every variable keeps its own [lo, hi], so box
    bounds need no rows; a nonbasic variable sits at a finite bound, a free
    one at 0. Row i gets a slack s_i >= 0 with a_i x + s_i = rhs_i. Every
    program starts from the slack basis, each variable at its lower bound
    if finite, else its upper bound if finite, else 0; that start must be
    feasible, so ValueError if rhs - a @ start has a negative entry. Programs
    run in equal blocks whose basis inverses fit in `_INVERSE_BYTES`.
    Returns (status, value, x, steps) per objective: status is OPTIMAL or
    UNBOUNDED (value and x None), and steps counts pivots plus bound flips,
    the same as the program would take alone.
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    objectives = np.array(objectives, dtype=float).reshape(len(objectives), n)
    lo, hi = np.array(bounds, dtype=float).reshape(n, 2).T
    start = np.where(lo > -math.inf, lo, np.where(hi < math.inf, hi, 0.0))
    slack = np.asarray(rhs, dtype=float) - a @ start
    if (slack < 0).any():
        raise ValueError("the slack basis is infeasible: rhs - a @ start has a negative entry")
    width = n + m
    full = np.hstack([a, np.eye(m)])
    x = np.concatenate([start, slack])[None]
    lo = np.concatenate([lo, np.zeros(m)])
    hi = np.concatenate([hi, np.full(m, math.inf)])
    binv, basis = np.eye(m)[None], np.arange(n, width)[None]

    cap = 200 * (m + width + 10)
    per_block = max(1, _INVERSE_BYTES // max(1, 8 * m * m))
    solutions = []
    for part in np.array_split(objectives, max(1, -(-len(objectives) // per_block))):
        cost = np.zeros((len(part), width))
        cost[:, :n] = part
        status, finished, xs = _run_phase(
            np.repeat(binv, len(part), axis=0), np.repeat(basis, len(part), axis=0),
            np.repeat(x, len(part), axis=0), cost, full, lo, hi, cap)
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
    e = [1, ..., 1, 0], lo <= z <= hi, where z = (x, y) and c = e_y, has the
    dual max lo.alpha - hi.beta s.t. -A^T lambda + mu e + alpha - beta = c,
    with lambda, alpha, beta >= 0 and mu free. alpha appears only in its own
    row, so it becomes that row's slack: row j reads
    (-A^T lambda + mu e - beta)_j <= c_j, and since lo_y = 0 the dual value
    is minus the minimum of lo.(-A^T lambda + mu e) + (hi - lo).beta. The
    variables are lambda (2m), mu, then beta (n + 1). Only lo, hence the
    objective, depends on k, so this returns the shared rows `cols`, their
    right-hand sides and the bounds, and the (n, width) objective matrix, row
    k from program k's lo: the arguments of `simplex_solve_many`. Every
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
    return cols, rhs, bounds, objectives


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
