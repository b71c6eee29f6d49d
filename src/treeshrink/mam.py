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
a fixed set of array operations, one projection over the
(R, P * M_max * S_max) column matrix among them (sort-based, or closed form
at R = 2), so its cost is O(P * M_max * R * S_max) (times log R for the
sort) with no per-problem or per-measure Python work.  Zero-mass columns
project to zero and padded shadow columns are held at zero, so the padding
adds nothing to any marginal; padded measures have no say in the consensus
and none in the stopping test.  The proximal parameter, the consensus
weights, the warm start and the stopping test are per problem: a problem
that stops leaves the working arrays and is not moved again, so each
problem gets the iterations, flag and plans it would get alone (up to
rounding).  :func:`mam_solve` is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ot_core import (BarycenterBatch, BarycenterProblem, BatchSolution, TransportPlanSet,
                      project_columns_scaled_simplex)

DEFAULT_MAX_ITER = 5000
DEFAULT_MARGINAL_TOL = 1e-6


@dataclass
class MamResult:
    objective: float
    plan_set: TransportPlanSet
    iterations: int
    converged: bool
    marginal_gaps: list = field(default_factory=list, repr=False)


def default_rho(problem: BarycenterBatch) -> np.ndarray:
    """Proximal parameter default of every problem: mean of its cost entries over 50.

    The parameter only affects convergence speed, so a cheap scale heuristic
    is enough; zero-cost problems fall back to 1.
    """
    count = problem.R * np.diff(problem.atom_ptr[problem.measure_ptr])
    mean = problem.problem_sums(problem.cost) / count
    return np.where(mean > 0, mean / 50.0, 1.0)


def mam_solve(problem: BarycenterProblem, rho=None, max_iter=DEFAULT_MAX_ITER,
              tol_marginal=DEFAULT_MARGINAL_TOL, init_plans=None) -> MamResult:
    """Solve one barycenter problem: :func:`mam_batch` for a batch of one.

    ``init_plans``, if given, lists one (R, S^m) warm-start plan per measure
    (a wrong shape is a ``ValueError``).
    """
    if init_plans is not None:
        if len(init_plans) != problem.M:
            raise ValueError("need one warm-start plan per measure")
        init_plans = [np.asarray(pl, dtype=np.float64) for pl in init_plans]
        for m, (pl, s) in enumerate(zip(init_plans, problem.support_sizes())):
            if pl.shape != (problem.R, s):
                raise ValueError(f"measure {m}: warm-start plan shape {pl.shape} "
                                 f"!= ({problem.R}, {s})")
        init_plans = np.concatenate(init_plans, axis=1)
    sol, gaps = mam_batch(problem, rho=rho, max_iter=max_iter, tol_marginal=tol_marginal,
                          init_plans=init_plans)
    return MamResult(float(sol.objective[0]), TransportPlanSet(problem.split(sol.plans), sol.p[0]),
                     int(sol.iterations[0]), bool(sol.converged[0]),
                     gaps[:sol.iterations[0], 0].tolist())


def mam_batch(batch: BarycenterBatch, rho=None, max_iter=DEFAULT_MAX_ITER,
              tol_marginal=DEFAULT_MARGINAL_TOL, init_plans=None):
    """Solve every barycenter problem of a batch by averaged-marginal splitting.

    Parameters
    ----------
    batch : BarycenterBatch
        Weights are carried inside the cost matrices; zero-weight measures
        (all-zero cost) stay in the consensus and still constrain feasibility.
    rho : float, optional
        Proximal parameter > 0 of every problem; defaults to each problem's
        :func:`default_rho`.
    max_iter, tol_marginal :
        A problem stops when the largest infinity-norm gap between its
        consensus vector and any of its measures' row marginals drops to
        ``tol_marginal``, or after ``max_iter`` iterations (it is then
        flagged unconverged).
    init_plans : array, optional
        Warm-start plans laid out like the batch's costs, (R, A); defaults
        to the product of the uniform barycenter with each marginal.

    Returns ``(BatchSolution, gaps)``: row i of the (max_iter, P) array
    ``gaps`` holds each problem's gap after iteration i + 1, up to the
    problem's own iteration count (the rest is unset).
    """
    batch.validate()
    rho = default_rho(batch) if rho is None else np.full(batch.P, float(rho))
    if np.any(rho <= 0):
        raise ValueError("rho must be positive")
    r = batch.R
    q, cost, live, _ = batch.padded()
    sizes = live.sum(axis=2)
    # Padded measures get size 1 (their shift meets zero columns) and no
    # say in the consensus.
    inv_sizes = np.where(sizes > 0, 1.0 / np.maximum(sizes, 1), 0.0)
    a = (inv_sizes / inv_sizes.sum(axis=1, keepdims=True))[:, None, :]
    size_col = np.maximum(sizes, 1).astype(np.float64)[:, :, None]
    real = sizes > 0
    # 1 on real columns, 0 on padding: the padded shadow columns stay zero,
    # so they add nothing to the row marginals.
    live = live[:, :, None, :].astype(np.float64)

    if init_plans is None:
        shadow = np.full(cost.shape, 1.0 / r)
        shadow *= q[:, :, None, :]
    else:
        init_plans = np.asarray(init_plans, dtype=np.float64)
        if init_plans.shape != batch.cost.shape:
            raise ValueError(f"warm-start plans shape {init_plans.shape} != {batch.cost.shape}")
        shadow = batch.pad_plans(init_plans)
    shadow_marg = shadow.sum(axis=3)
    step = np.divide(cost, rho[:, None, None, None], out=cost)

    # The governing (shadow) iterates may go negative and their marginal
    # disagreement converges to a dual offset, not zero; feasibility and the
    # stopping test live on the projection outputs, whose column sums equal
    # the marginals exactly and whose row marginals reach consensus.  Problems
    # still iterating are the rows ``todo`` of the working arrays; one that
    # stops leaves them, so its plans stay as they stopped.
    plans_end = plans = shadow.copy()
    todo = np.arange(batch.P)
    iterations = np.full(batch.P, max_iter)
    converged = np.zeros(batch.P, dtype=bool)
    gaps = np.empty((max_iter, batch.P))
    tau, live_k, a_k, size_k, real_k = q.reshape(batch.P, -1), live, a, size_col, real[..., None]
    p = np.matmul(a, shadow_marg)
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
        gaps[it - 1, todo] = gap
        stop = gap <= tol_marginal
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

    p_final = np.matmul(a, plans_end.sum(axis=3))[:, 0]
    p_final = p_final / p_final.sum(axis=1, keepdims=True)
    plans = batch.unpad(plans_end)
    solution = BatchSolution(batch.problem_sums(batch.cost * plans), p_final, plans,
                             iterations, converged)
    return solution, gaps
