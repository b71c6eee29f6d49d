"""Barycenter solver based on averaging the plans' barycenter-side marginals.

A Douglas-Rachford splitting applied to the coupled barycenter LP: each
iteration averages the per-measure row marginals into a consensus vector and
then projects every shifted plan column exactly onto the scaled simplex
carrying that column's marginal mass.  The governing iterates are
shadow-sequence plans and may go negative between iterations; the reported
plans are the latest projection outputs, so they are nonnegative with exact
column sums by construction.

All measures are held in one array padded to the widest support S_max
(:meth:`BarycenterProblem.padded`): plans of shape (M, R, S_max), padded
columns with zero mass and zero cost.  One iteration is a fixed set of array
operations, one projection over the (R, M * S_max) column matrix among
them (sort-based, or closed form at R = 2), so its cost is O(M * R * S_max)
(times log R for the sort) with no per-measure Python work.  Zero-mass columns project to zero and padded
shadow columns are held at zero, so the padding adds nothing to any marginal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ot_core import BarycenterProblem, TransportPlanSet, project_columns_scaled_simplex

DEFAULT_MAX_ITER = 5000
DEFAULT_MARGINAL_TOL = 1e-6


@dataclass
class MamResult:
    objective: float
    plan_set: TransportPlanSet
    iterations: int
    converged: bool
    marginal_gaps: list = field(default_factory=list, repr=False)


def default_rho(problem: BarycenterProblem) -> float:
    """Proximal parameter default: mean of all cost entries over 50.

    The parameter only affects convergence speed, so a cheap scale heuristic
    is enough; zero-cost problems fall back to 1.
    """
    total = sum(float(dm.sum()) for dm in problem.D)
    count = sum(dm.size for dm in problem.D)
    mean = total / max(count, 1)
    return mean / 50.0 if mean > 0 else 1.0


def mam_solve(problem: BarycenterProblem, rho=None, max_iter=DEFAULT_MAX_ITER,
              tol_marginal=DEFAULT_MARGINAL_TOL, init_plans=None) -> MamResult:
    """Solve a barycenter problem by averaged-marginal splitting.

    Parameters
    ----------
    problem : BarycenterProblem
        Weights are carried inside the cost matrices; zero-weight measures
        (all-zero cost) stay in the consensus and still constrain feasibility.
    rho : float, optional
        Proximal parameter > 0; defaults to :func:`default_rho`.
    max_iter, tol_marginal :
        Stop when the largest infinity-norm gap between the consensus vector
        and any measure's row marginal drops to ``tol_marginal``, or after
        ``max_iter`` iterations (the result is then flagged unconverged).
    init_plans : list of arrays, optional
        Warm-start plans, one (R, S^m) array per measure (a wrong shape is a
        ``ValueError``); defaults to the product of the uniform barycenter
        with each marginal.
    """
    problem.validate()
    if rho is None:
        rho = default_rho(problem)
    if rho <= 0:
        raise ValueError("rho must be positive")
    r = problem.R
    sizes = problem.support_sizes()
    m_count = problem.M
    q, cost, live = problem.padded()
    s_max = q.shape[1]
    size_col = np.asarray(sizes, dtype=np.float64)[:, None]
    # 1 on real columns, 0 on padding: the padded shadow columns stay zero,
    # so they add nothing to the row marginals.
    live = live[:, None, :].astype(np.float64)

    inv_sizes = 1.0 / size_col[:, 0]
    a = inv_sizes / inv_sizes.sum()

    if init_plans is None:
        shadow = np.full((m_count, r, s_max), 1.0 / r) * q[:, None, :]
    else:
        if len(init_plans) != m_count:
            raise ValueError("need one warm-start plan per measure")
        shadow = np.zeros((m_count, r, s_max))
        for m, (pl, s) in enumerate(zip(init_plans, sizes)):
            pl = np.asarray(pl, dtype=np.float64)
            if pl.shape != (r, s):
                raise ValueError(f"measure {m}: warm-start plan shape {pl.shape} "
                                 f"!= ({r}, {s})")
            shadow[m, :, :s] = pl
    shadow_marg = shadow.sum(axis=2)
    step = cost / rho
    tau = q.ravel()

    # The governing (shadow) iterates may go negative and their marginal
    # disagreement converges to a dual offset, not zero; feasibility and the
    # stopping test live on the projection outputs, whose column sums equal
    # the marginals exactly and whose row marginals reach consensus.
    plans = shadow.copy()
    gaps = []
    converged = False
    iterations = 0
    p = a @ shadow_marg
    for iterations in range(1, max_iter + 1):
        shift = (p - shadow_marg) / size_col
        y = shadow + 2.0 * shift[:, :, None] - step
        # One projection over the (R, M * S_max) matrix of all columns.
        plans = project_columns_scaled_simplex(
            y.transpose(1, 0, 2).reshape(r, m_count * s_max), tau
        ).reshape(r, m_count, s_max).transpose(1, 0, 2)
        feas_marg = plans.sum(axis=2)
        shadow = plans - shift[:, :, None] * live
        shadow_marg = shadow.sum(axis=2)
        p = a @ shadow_marg
        p_feas = a @ feas_marg
        gap = float(np.max(np.abs(feas_marg - p_feas[None, :])))
        gaps.append(gap)
        if gap <= tol_marginal:
            converged = True
            break

    p_final = a @ plans.sum(axis=2)
    p_final = p_final / p_final.sum()
    objective = float(np.sum(cost * plans))
    return MamResult(objective, TransportPlanSet(problem.unpad(plans), p_final),
                     iterations, converged, gaps)
