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
per problem: a problem that stops leaves the working arrays and is not
moved again, so each problem gets the iterations, flag and plans it would
get alone (up to rounding).  :func:`mam_batch` is the solver's one entry
point; its projection kernel is :func:`project_columns_scaled_simplex`.

With two support points a projected column is ``(x, q - x)``, so the same
iterations run on row 0 of the plans and one shift per measure, with no
projection call and no shadow plans (see :func:`mam_batch`).
"""

from __future__ import annotations

import numpy as np

from .ot_core import BarycenterBatch, BatchSolution
from .tree import check_count, check_positive

DEFAULT_MAX_ITER = 5000
DEFAULT_MARGINAL_TOL = 1e-6


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
        (it is then flagged unconverged).
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
    are ``(x, q - x)``, so their column sums are exact here too.
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
    # stops leaves them, so its plans stay as they stopped.
    plans_end = shadow.copy()
    todo = np.arange(n_prob)
    iterations = np.full(n_prob, max_iter)
    converged = np.zeros(n_prob, dtype=bool)
    tau, live_k, a_k, size_k, real_k = (q.reshape(n_prob, -1), live, a[:, None, :], size_col,
                                        (sizes > 0)[..., None])
    p = np.matmul(a_k, shadow_marg)
    for it in range(1, max_iter + 1):
        shift = (p - shadow_marg) / size_k
        y = shadow + 2.0 * shift[..., None]
        y -= step
        # One projection over the (R, P * M * S_max) matrix of all columns.
        n, m_max, _, s_max = y.shape
        plans = project_columns_scaled_simplex(
            y.transpose(2, 0, 1, 3).reshape(r, -1), tau.ravel()
        ).reshape(r, n, m_max, s_max).transpose(1, 2, 0, 3)
        feas_marg = plans.sum(axis=3)
        shadow = np.multiply(shift[..., None], live_k, out=y)
        np.subtract(plans, shadow, out=shadow)
        shadow_marg = shadow.sum(axis=3)
        p = np.matmul(a_k, shadow_marg)
        p_feas = np.matmul(a_k, feas_marg)
        gap = np.max(np.abs(feas_marg - p_feas), axis=(1, 2), where=real_k, initial=0.0)
        stop = gap <= tol
        if stop.any():
            done = todo[stop]
            plans_end[done] = plans[stop]
            iterations[done], converged[done] = it, True
            keep = ~stop
            (todo, p, plans, shadow, shadow_marg, step, tau, live_k, a_k, size_k,
             real_k) = (x[keep] for x in (todo, p, plans, shadow, shadow_marg, step, tau,
                                          live_k, a_k, size_k, real_k))
            if todo.size == 0:
                break
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
    # working arrays.
    x_end = np.empty(x.shape)
    todo = np.arange(n_prob)
    iterations = np.full(n_prob, max_iter)
    converged = np.zeros(n_prob, dtype=bool)
    q_k, ones = q, np.ones((x.shape[2], 1))
    for it in range(1, max_iter + 1):
        x -= half_c
        x += move
        np.maximum(x, 0.0, out=x)
        np.minimum(x, q_k, out=x)
        F = x @ ones
        # g - h / 2 on the real measures, 0 on the padded ones.
        g = F - a_k @ F
        g -= half_h
        g *= real
        # sigma drops by 2 delta; the next move is its new value less half the old.
        delta = g * inv_n
        half -= delta
        move = half - delta
        np.abs(g, out=g)
        g += abs_half_h
        gap = g.max(axis=1)[:, 0]
        if gap.min() <= tol:
            stop = gap <= tol
            done = todo[stop]
            x_end[done] = x[stop]
            iterations[done], converged[done] = it, True
            keep = ~stop
            (todo, x, half_c, q_k, a_k, half_h, abs_half_h, inv_n, real, half,
             move) = (v[keep] for v in (todo, x, half_c, q_k, a_k, half_h, abs_half_h, inv_n,
                                        real, half, move))
            if todo.size == 0:
                break
    x_end[todo] = x
    return np.stack([x_end, q - x_end], axis=2), iterations, converged


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
