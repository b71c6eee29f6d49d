"""Entropic-regularized barycenter solver via iterative Bregman projections.

The coupled barycenter problem is smoothed with an entropy term of strength
``1/lam`` and solved by alternating Kullback-Leibler projections onto the two
marginal constraint families, which reduce to diagonal scalings ``u^m, v^m``
of Gibbs kernels ``K^m``.  One sweep updates all ``v^m`` (measure-marginal
projection), then the barycenter estimate ``p`` as the weighted geometric mean
of ``K^m v^m``, then all ``u^m``; the sweep stops when ``p`` is a fixed point.

All measures are held in one array padded to the widest support S_max
(:meth:`BarycenterProblem.padded`): kernels of shape (M, R, S_max) and
scalings ``u``, ``v`` of shapes (M, R) and (M, S_max).  Padded columns have
zero mass, so their ``v`` entries are zero and they add nothing to ``K v``.
One sweep is a fixed set of batched matrix-vector products and elementwise
operations, O(M * R * S_max) work with no per-measure Python loop.

Accuracy is governed by ``lam``: larger values track the exact barycenter more
closely but sharpen the kernels.  Kernel exponents are computed on the
range-normalized, per-measure-shifted costs, so the usable ``lam`` scale is
independent of the cost magnitudes; the reported objective is the plain
(unregularized) transport cost of the returned plans under the original
costs.  Exponent underflow still ends the run with
:class:`RegularizationOverflowError` rather than silently degrading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ot_core import BarycenterProblem, TransportPlanSet

DEFAULT_LAMBDA = 100.0
DEFAULT_MAX_ITER = 10000
DEFAULT_FIXED_POINT_TOL = 1e-8

_FLOOR = 1e-300  # division guard


class RegularizationOverflowError(FloatingPointError):
    """A Gibbs kernel lost positivity (entries underflowed to 0 or went
    non-finite); the caller may retry with a smaller ``lam``."""

    def __init__(self, lam, max_cost, max_exponent):
        self.lam = lam
        self.max_cost = max_cost
        self.max_exponent = max_exponent
        super().__init__(
            f"kernel exp(-lam*D) degenerated: lam={lam}, max(D)={max_cost}, "
            f"largest exponent {max_exponent}")


@dataclass
class IbpResult:
    objective: float
    plan_set: TransportPlanSet
    iterations: int
    converged: bool


def ibp_solve(problem: BarycenterProblem, lam=DEFAULT_LAMBDA,
              max_iter=DEFAULT_MAX_ITER, tol_fixed_point=DEFAULT_FIXED_POINT_TOL) -> IbpResult:
    """Approximate a barycenter and its plans by Bregman projections.

    Weights are renormalized onto the simplex for the geometric-mean step
    (their scale is already inside the cost matrices and does not change the
    minimizer); zero-weight measures keep their scaling updates, so their
    marginal constraints hold, but are skipped in the geometric mean.

    Returned plans reproduce the measure marginals column-wise exactly (the
    sweep ends on a fresh ``v`` update); their row marginals agree with the
    returned ``p`` only up to the fixed-point tolerance.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    problem.validate()
    r = problem.R
    m_count = problem.M

    total_alpha = float(problem.alpha.sum())
    if total_alpha > 0:
        w = problem.alpha / total_alpha
    else:
        w = np.full(m_count, 1.0 / m_count)

    # Kernels come from the unweighted ground costs (cost matrices carry the
    # weights, so divide them back out); the weights enter once, as the
    # geometric-mean exponents.  Applying them in both places would steer the
    # fixed point toward squared-weight costs.
    q, cost, live = problem.padded()
    live = live[:, None, :]
    alpha = problem.alpha[:, None, None]
    deltas = np.divide(cost, alpha, out=np.zeros_like(cost), where=alpha > 0)
    # Shift and range are taken over each measure's real columns only; the
    # padded kernel columns are set to 1 and meet zero scalings v.
    d_min = np.where(live, deltas, np.inf).min(axis=(1, 2))
    d_max = np.where(live, deltas, -np.inf).max(axis=(1, 2))
    scale = float(np.max(d_max - d_min))
    if scale <= 0.0:
        scale = 1.0
    expo = np.where(live, lam * (deltas - d_min[:, None, None]) / scale, 0.0)
    kernels = np.exp(-expo)
    if not np.all(np.isfinite(kernels)) or np.any(kernels == 0.0):
        raise RegularizationOverflowError(lam, float(cost.max()), float(expo.max()))
    kernels_t = kernels.transpose(0, 2, 1)

    u = np.ones((m_count, r))
    p = np.full(r, 1.0 / r)

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        v = q / np.maximum(_apply(kernels_t, u), _FLOOR)
        kv = _apply(kernels, v)
        # Zero-weight measures add 0 * finite log terms, i.e. are skipped.
        p_new = np.exp(w @ np.log(np.maximum(kv, _FLOOR)))
        residual = float(np.max(np.abs(p_new - p)))
        u = p_new / np.maximum(kv, _FLOOR)
        # Cycle consistency: with the fresh u, the current plans' column
        # sums must reproduce q.  The estimate p alone can plateau (sharp
        # kernels converge very slowly) long before the scalings agree,
        # so a p-only test would stop on inconsistent plans.
        col = v * _apply(kernels_t, u)
        residual = max(residual, float(np.max(np.abs(col - q))))
        p = p_new
        if residual <= tol_fixed_point:
            converged = True
            break

    # Closing v update: column sums of diag(u) K diag(v) match q exactly.
    v = q / np.maximum(_apply(kernels_t, u), _FLOOR)
    plans = u[:, :, None] * kernels * v[:, None, :]
    p_report = p / p.sum()
    objective = float(np.sum(cost * plans))
    return IbpResult(objective, TransportPlanSet(problem.unpad(plans), p_report),
                     iterations, converged)


def _apply(kernels, x):
    """Per-measure matrix-vector products: (M, A, B) kernels times (M, B) -> (M, A)."""
    return np.matmul(kernels, x[:, :, None])[:, :, 0]
