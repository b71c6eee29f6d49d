"""Barycenter solver based on averaging the plans' barycenter-side marginals.

A Douglas-Rachford splitting applied to the coupled barycenter LP: each
iteration averages the per-measure row marginals into a consensus vector and
then projects every shifted plan column exactly onto the scaled simplex
carrying that column's marginal mass.  The governing iterates are
shadow-sequence plans and may go negative between iterations; the reported
plans are the latest projection outputs, so they are nonnegative with exact
column sums by construction.

:func:`mam_batch` solves P problems at once (a :class:`BarycenterBatch`),
held in one array padded to the most measures M_max and the widest support
S_max (:meth:`BarycenterBatch.padded`): plans of shape (P, M_max, R, S_max),
padded columns and measures with zero mass and zero cost.  One iteration is
a fixed set of array operations, one sort-based projection over the
(R, P * M_max * S_max) column matrix among them, so its cost is
O(P * M_max * R * S_max * log R) with no per-problem or per-measure Python
work.  Zero-mass columns project to zero and padded shadow columns are held
at zero, so the padding adds nothing to any marginal; padded measures have
no say in the consensus and none in the stopping test.  The proximal
parameter, the consensus weights, the warm start and the stopping test are
per problem: a problem that stops keeps the plans it stopped at, so each
problem gets the iterations, flag and plans it would get alone (up to
rounding).  :func:`mam_batch` is the solver's one entry point; its
projection kernel is :func:`project_columns_scaled_simplex`.

The stopping test does not run after every iteration.  The iterations come
in windows of 1, 2, 4, ... up to ``_WINDOW`` iterations (of one iteration
while a window would keep more than ``_WINDOW_ENTRIES`` values of each
iteration), and at a window's end the gap of each of its iterations is
computed at once.  A problem whose gap met the tolerance at some
iteration of the window gets that iteration's
plans, count and flag, bitwise what a test after every iteration gives it;
it was iterated on with the others until the window's end, and those
iterations are dropped.  Problems leave the working arrays at window ends
only.  At R >= 3 the window keeps each iteration's projected plans and
their column sums.

With two support points a projected column is ``(x, q - x)``, so the same
iterations run on row 0 of the plans and one shift per measure, with no
projection call and no shadow plans (see :func:`mam_batch`).  An iteration
is then eleven in-place array operations, five of them passes over the
(P, M_max, S_max) arrays::

    x -= c / 2;  x += move;  x = max(x, 0);  x = min(x, q);  F = x @ 1
    aF = a @ F;  g = F - aF;  g -= h / 2
    delta = g * inv_n;  half -= delta;  move = half - delta

Padded measures have ``inv_n = 0``, so their delta is zero.  Each
iteration's g goes to its slot of a (window, P, M_max, 1) buffer, from
which the window's end computes the gaps ``max_m(|g| real + |h| / 2)``,
``real`` masking the padded measures.  Only the window's last x is kept: a
problem that stopped earlier in the window runs again, alone with the
others that did, from a copy of the window's starting state to its stop.
Keeping every x of the window instead, in a ring of ``_WINDOW + 1`` arrays,
gains nothing on small problems and loses at paper scale, where it would
move each iteration's x to cold memory: one problem of 78,125 atoms took
337-356 us an iteration with a ring of 33 against 290-306 us in place
(2 cores, 2 MB of L2 a core).  The ``clip`` ufunc is no substitute for the
maximum and minimum either: on that problem it takes 80 us where they take
50-68.
"""

from __future__ import annotations

import numpy as np

from .ot_core import BarycenterBatch, BatchSolution
from .tree import check_count, check_positive

DEFAULT_MAX_ITER = 5000
DEFAULT_MARGINAL_TOL = 1e-6
# Longest window of the stopping test (module docstring).  On the wide-mam
# benchmark trees of seeds 3, 11 and 20 (reduce, best of 5 per tree, 5
# rounds, 2 cores, shared host), windows of at most 8, 16, 32 and 64
# iterations took 17.0, 16.0, 15.7 and 15.6 ms a tree in their fastest
# round and 17.3, 17.7, 16.6 and 17.6 ms in the median one.
_WINDOW = 32
# Windows stay at one iteration once a window would keep more than this
# many values of each iteration: the g of every (problem, measure) pair in
# the one-row loop, the projected plans in the general one, which also
# bounds a window's memory there.  Longer windows save the stopping test's
# fixed cost of a few microseconds an iteration but write a g buffer of
# _WINDOW times the pairs, and a problem that stops inside a window runs
# on to its end and then again to its stop.  Per iteration, for one
# problem of M measures of 5 atoms at tol_marginal = 0 (fastest of 5 runs,
# 2 cores, 2 MB of L2 a core), the per-iteration loop, windows of 1 and
# windows of 32 took 13.8, 17.3 and 11.4 us at M = 200; 41.0, 44.9 and
# 38.0 us at M = 2,000; 73.1, 74.1 and 70.1 us at M = 4,000; 320, 318 and
# 333 us at M = 15,625.  On the paper's largest instance by MAM
# (generate_random(7, 5) onto [2] * 7, 3 outer iterations), windows of 32
# at every size made the first iteration's one-row loops 15% slower than
# the per-iteration loop; with this bound all of their batches together
# take 2% more.
_WINDOW_ENTRIES = 1 << 11


def default_rho(problem: BarycenterBatch) -> np.ndarray:
    """Proximal parameter default of every problem: mean of its cost entries over 50.

    The parameter only affects convergence speed, so a cheap scale heuristic
    is enough; zero-cost problems fall back to 1.
    """
    count = problem.R * np.diff(problem.atom_ptr[problem.measure_ptr])
    mean = problem.problem_sums(problem.cost) / count
    return np.where(mean > 0, mean / 50.0, 1.0)


def mam_batch(batch: BarycenterBatch, rho=None, max_iter=DEFAULT_MAX_ITER,
              tol_marginal=DEFAULT_MARGINAL_TOL, init_plans=None) -> BatchSolution:
    """Solve every barycenter problem of a batch by averaged-marginal splitting.

    Parameters
    ----------
    batch : BarycenterBatch
        Weights are carried inside the cost matrices; zero-weight measures
        (all-zero cost) stay in the consensus and still constrain feasibility.
    rho : float, optional
        Finite proximal parameter > 0 of every problem; defaults to each
        problem's :func:`default_rho`.
    max_iter, tol_marginal :
        A problem stops when the largest infinity-norm gap between its
        consensus vector and any of its measures' row marginals drops to
        ``tol_marginal``, or after ``max_iter`` iterations, an integer >= 1
        (it is then flagged unconverged).  The test runs once per window of
        iterations (module docstring), with the outcome of a test after
        every iteration.
    init_plans : array, optional
        Warm-start plans laid out like the batch's costs, (R, A); defaults
        to the product of the uniform barycenter with each marginal.

    With two support points (R = 2) the iterations run on one plan row.
    The projection of a column of mass ``q`` is ``(x, q - x)`` with ``x =
    clip((y_0 - y_1 + q) / 2, 0, q)``, so every quantity the splitting
    needs is a difference of the two rows: ``c = (cost_0 - cost_1) / rho``
    per atom and, per measure, ``sigma``, the difference of its two shifts.
    With ``F = sum_s x``, ``T = sum_s q``, ``n`` live atoms and ``pi`` the
    previous ``sigma``, one iteration is::

        x     = clip(x - c / 2 + sigma - pi / 2, 0, q)
        g     = F - sum_m a F,     h = T - sum_m a T
        sigma = sigma - (2 g - h) / n

    This is exact, not an approximation.  The shadow plans' rows differ by
    ``2 x - q - pi`` on the live columns, which gives the ``x`` line.  The
    difference of a measure's two shadow marginals is ``D = 2 F - T - sigma
    n`` and its consensus is ``d = sum_m a D``; the next shift is ``(d - D)
    / n``.  Because ``sum_m a = 1`` and ``sum_m a sigma n = sum_m a (d -
    D) = d - d = 0``, ``d = 2 sum_m a F - sum_m a T``, which gives the
    ``sigma`` line with no shadow marginal left to carry.  The start enters
    through the first iteration alone, which reads both of its rows: ``x =
    (shadow_0 - shadow_1 + q) / 2``, ``pi = 0`` and ``sigma`` the shift of
    its shadow marginals.  The gap of the two rows, ``|g|`` and ``|h - g|``,
    is ``max(|g|, |h - g|) = |g - h / 2| + |h| / 2``.  The plans returned
    are ``(x, q - x)``, so their column sums are exact here too.  The
    module docstring lists the eleven array operations an iteration takes.
    """
    check_count("max_iter", max_iter)
    if rho is not None:
        check_positive("rho", rho)
    batch.validate()
    rho = default_rho(batch) if rho is None else np.full(batch.P, float(rho))
    q, cost, live, _ = batch.padded()
    sizes = live.sum(axis=2)
    # Padded measures have no say in the consensus.
    inv_sizes = np.where(sizes > 0, 1.0 / np.maximum(sizes, 1), 0.0)
    a = inv_sizes / inv_sizes.sum(axis=1, keepdims=True)
    if init_plans is None:
        shadow = np.full(cost.shape, 1.0 / batch.R)
        shadow *= q[:, :, None, :]
    else:
        init_plans = np.asarray(init_plans, dtype=np.float64)
        if init_plans.shape != batch.cost.shape:
            raise ValueError(f"warm-start plans shape {init_plans.shape} != {batch.cost.shape}")
        shadow = batch.pad_plans(init_plans)
    step = np.divide(cost, rho[:, None, None, None], out=cost)
    iterate = _iterate_one_row if batch.R == 2 else _iterate
    plans_end, iterations, converged = iterate(shadow, step, q, live, a, max_iter, tol_marginal)

    p_final = np.matmul(a[:, None, :], plans_end.sum(axis=3))[:, 0]
    p_final = p_final / p_final.sum(axis=1, keepdims=True)
    return BatchSolution(p_final, batch.unpad(plans_end), iterations, converged)


def _longest_window(entries):
    """Most iterations a window may hold when it keeps ``entries`` values of
    each: ``_WINDOW`` up to ``_WINDOW_ENTRIES`` of them, else 1."""
    return _WINDOW if entries <= _WINDOW_ENTRIES else 1


def _first_stops(met):
    """Problems whose (w, n) window of stopping tests ``met`` holds a pass,
    and the window iteration (0-based) of each one's first."""
    stop = met.any(axis=0)
    return stop, met.argmax(axis=0)[stop]


def _iterate(shadow, step, q, live, a, max_iter, tol):
    """The splitting on full (P, M_max, R, S_max) plans, for any R.

    Takes the start ``shadow``, the steps cost / rho, the padded marginals
    ``q`` and their mask ``live``, and the (P, M_max) consensus weights
    ``a``.  Returns the padded plans every problem stopped at, its
    iteration count and whether it converged.
    """
    n_prob, r = shadow.shape[0], shadow.shape[2]
    sizes = live.sum(axis=2)
    # Padded measures get size 1: their shift meets zero columns.
    size_col = np.maximum(sizes, 1).astype(np.float64)[:, :, None]
    # 1 on real columns, 0 on padding: the padded shadow columns stay zero,
    # so they add nothing to the row marginals.
    live = live[:, :, None, :].astype(np.float64)
    shadow_marg = shadow.sum(axis=3)

    # The governing (shadow) iterates may go negative and their marginal
    # disagreement converges to a dual offset, not zero; feasibility and the
    # stopping test live on the projection outputs, whose column sums equal
    # the marginals exactly and whose row marginals reach consensus.  Problems
    # still iterating are the rows ``todo`` of the working arrays; one that
    # stops leaves them at the end of the window, with the plans of the
    # iteration it stopped at.
    plans_end = shadow.copy()
    todo = np.arange(n_prob)
    iterations = np.full(n_prob, max_iter)
    converged = np.zeros(n_prob, dtype=bool)
    tau, live_k, a_k, size_k, real_k = (q.reshape(n_prob, -1), live, a[:, None, :], size_col,
                                        (sizes > 0)[..., None])
    p = np.matmul(a_k, shadow_marg)
    it, w = 0, 1
    while it < max_iter:
        w = min(w, _longest_window(shadow.size), max_iter - it)
        n, m_max, _, s_max = shadow.shape
        window, feas_marg = [], np.empty((w, n, m_max, r))
        for j in range(w):
            shift = (p - shadow_marg) / size_k
            y = shadow + 2.0 * shift[..., None]
            y -= step
            # One projection over the (R, P * M * S_max) matrix of all columns.
            plans = project_columns_scaled_simplex(
                y.transpose(2, 0, 1, 3).reshape(r, -1), tau.ravel()
            ).reshape(r, n, m_max, s_max).transpose(1, 2, 0, 3)
            window.append(plans)
            plans.sum(axis=3, out=feas_marg[j])
            shadow = np.multiply(shift[..., None], live_k, out=y)
            np.subtract(plans, shadow, out=shadow)
            shadow_marg = shadow.sum(axis=3)
            p = np.matmul(a_k, shadow_marg)
        p_feas = np.matmul(a_k, feas_marg)
        gap = np.max(np.abs(feas_marg - p_feas), axis=(2, 3), where=real_k, initial=0.0)
        met = gap <= tol
        if met.any():
            stop, first = _first_stops(met)
            rows = np.flatnonzero(stop)
            done = todo[rows]
            for k in set(first.tolist()):
                pick = first == k
                plans_end[done[pick]] = window[k][rows[pick]]
            iterations[done], converged[done] = it + first + 1, True
            keep = ~stop
            (todo, p, plans, shadow, shadow_marg, step, tau, live_k, a_k, size_k,
             real_k) = (x[keep] for x in (todo, p, plans, shadow, shadow_marg, step, tau,
                                          live_k, a_k, size_k, real_k))
            if todo.size == 0:
                break
        it, w = it + w, 2 * w
    plans_end[todo] = plans
    return plans_end, iterations, converged


def _iterate_one_row(shadow, step, q, live, a, max_iter, tol):
    """:func:`_iterate` at R = 2, on row 0 of the plans alone.

    Runs the recursion that :func:`mam_batch` derives, with the same
    arguments and results as :func:`_iterate`.
    """
    # Per-measure values are (P, M_max, 1) columns and the weights a row of
    # each problem, so ``a_k @ v`` is the (P, 1, 1) consensus sum_m a v.
    n_prob = shadow.shape[0]
    sizes = live.sum(axis=2, keepdims=True)
    # Padded measures get no shift: their columns have zero mass.
    inv_n = np.where(sizes > 0, 1.0 / np.maximum(sizes, 1), 0.0)
    real = (sizes > 0).astype(np.float64)
    a_k = a[:, None, :]
    x = shadow[:, :, 0] - shadow[:, :, 1]
    x += q
    x *= 0.5
    half_c = step[:, :, 0] - step[:, :, 1]
    half_c *= 0.5
    total = q.sum(axis=2, keepdims=True)
    half_h = 0.5 * real * (total - a_k @ total)
    abs_half_h = np.abs(half_h)
    marg = shadow.sum(axis=3, keepdims=True)
    D = marg[:, :, 0] - marg[:, :, 1]
    sigma = (a_k @ D - D) * inv_n
    # ``move`` is sigma - pi / 2 of the coming iteration, ``half`` is sigma / 2;
    # the first iteration has pi = 0.
    move, half = sigma, 0.5 * sigma

    # As in _iterate, problems still iterating are the rows ``todo`` of the
    # working arrays, and they leave them at the end of a window.
    x_end = np.empty(q.shape)
    todo = np.arange(n_prob)
    iterations = np.full(n_prob, max_iter)
    converged = np.zeros(n_prob, dtype=bool)
    fixed = (half_c, q, a_k, half_h, inv_n)
    # The gaps are taken on (P, M_max) views of the per-measure columns.
    real, abs_half_h = real[..., 0], abs_half_h[..., 0]
    work = _one_row_work(x, half)
    it, w = 0, 1
    while it < max_iter:
        g = work[0]
        w = min(w, g.shape[0], max_iter - it)
        start = (x.copy(), half.copy(), move.copy()) if w > 1 else None
        _one_row_steps(x, half, move, fixed, g[:w], work[1:])
        # Every iteration's gap max_m(|g| + |h| / 2) over the real measures.
        gap = g[:w, ..., 0]
        np.abs(gap, out=gap)
        gap *= real
        gap += abs_half_h
        gap = gap.max(axis=2)
        # A problem whose steps overflowed has NaN gaps from its first
        # iteration on, and then, as when the test ran after every
        # iteration, no problem of the batch stops.
        if gap.min() <= tol:
            stop, first = _first_stops(gap <= tol)
            rows = np.flatnonzero(stop)
            done = todo[rows]
            x_end[done] = x[rows]
            # A problem that stopped before the window's last iteration runs
            # again from the window's start to its stop.
            early = np.flatnonzero(first < w - 1)
            if early.size:
                state = [v[rows[early]] for v in start]
                sub = [v[rows[early]] for v in fixed]
                sub_work = _one_row_work(*state[:2])
                ran = 0
                for k in sorted(set(first[early].tolist())):
                    _one_row_steps(*state, sub, sub_work[0][:k + 1 - ran], sub_work[1:])
                    ran = k + 1
                    pick = first[early] == k
                    x_end[done[early[pick]]] = state[0][pick]
            iterations[done], converged[done] = it + first + 1, True
            keep = ~stop
            todo, x, half, move, real, abs_half_h = (
                v[keep] for v in (todo, x, half, move, real, abs_half_h))
            fixed = tuple(v[keep] for v in fixed)
            if todo.size == 0:
                break
            work = _one_row_work(x, half)
        it, w = it + w, 2 * w
    x_end[todo] = x
    return np.stack([x_end, q - x_end], axis=2), iterations, converged


def _one_row_work(x, half):
    """Buffers of :func:`_one_row_steps` for a working set: the g buffer of
    its longest window, then F, delta, aF and the ones vector."""
    return (np.empty((_longest_window(half.size),) + half.shape), np.empty(half.shape),
            np.empty(half.shape), np.empty((half.shape[0], 1, 1)), np.ones((x.shape[2], 1)))


def _one_row_steps(x, half, move, fixed, g, work):
    """``len(g)`` iterations of the one-row recursion, in place on ``x``,
    ``half`` and ``move``; ``g[j]`` receives iteration j's g - h / 2, which
    is not zeroed on the padded measures (their zero ``inv_n`` cancels it).

    ``fixed`` holds ``(half_c, q, a_k, half_h, inv_n)`` of the same problems
    and ``work`` the buffers F, delta, aF and ones (:func:`_one_row_work`).
    """
    half_c, q, a_k, half_h, inv_n = fixed
    F, delta, aF, ones = work
    for gj in g:
        x -= half_c
        x += move
        np.maximum(x, 0.0, out=x)
        np.minimum(x, q, out=x)
        np.matmul(x, ones, out=F)
        np.matmul(a_k, F, out=aF)
        np.subtract(F, aF, out=gj)
        gj -= half_h
        # sigma drops by 2 delta; the next move is its new value less half the old.
        np.multiply(gj, inv_n, out=delta)
        half -= delta
        np.subtract(half, delta, out=move)


def project_columns_scaled_simplex(Y, tau):
    """Column-wise scaled-simplex projection: column s lands on mass tau[s].

    Euclidean projection of every column of ``Y`` onto {x >= 0 : sum(x) =
    tau[s]} by the exact sort-based algorithm, used by :func:`_iterate`,
    where every column of every measure is projected in one call per
    iteration; zero-mass columns come back zero.
    """
    tau = np.asarray(tau, dtype=np.float64)
    if np.any(tau < 0):
        raise ValueError("target masses must be nonnegative")
    Y = np.asarray(Y, dtype=np.float64)
    r = Y.shape[0]
    u = -np.sort(-Y, axis=0)
    css = np.cumsum(u, axis=0)
    k = np.arange(1, r + 1)[:, None]
    positive = u - (css - tau[None, :]) / k > 0
    support = r - 1 - np.argmax(positive[::-1, :], axis=0)
    theta = (css[support, np.arange(Y.shape[1])] - tau) / (support + 1.0)
    out = np.maximum(Y - theta[None, :], 0.0)
    out[:, tau == 0.0] = 0.0
    return out
