"""Entropic-regularized barycenter solver via iterative Bregman projections.

The coupled barycenter problem is smoothed with an entropy term of strength
``1/lam`` and solved by alternating Kullback-Leibler projections onto the two
marginal constraint families, which reduce to diagonal scalings ``u^m, v^m``
of Gibbs kernels ``K^m``.  One sweep updates all ``v^m`` (measure-marginal
projection), then the barycenter estimate ``p`` as the weighted geometric mean
of ``K^m v^m``, then all ``u^m``; the sweep stops when ``p`` is a fixed point.

:func:`ibp_batch` solves P problems at once (a :class:`BarycenterBatch`),
held in one array padded to the most measures M_max and the widest support
S_max (:meth:`BarycenterBatch.padded`): kernels of shape
(P, M_max, R, S_max) and scalings ``u``, ``v`` of shapes (P, M_max, R) and
(P, M_max, S_max).  Padded columns and measures have zero mass and weight,
so their ``v`` entries are zero and they add nothing to ``K v`` or to the
geometric mean.  One sweep is a fixed set of batched matrix-vector products
and elementwise operations, O(P * M_max * R * S_max) work with no
per-problem or per-measure Python loop.  Weights, the cost shift and range
and the stopping test are per problem: a problem that stops leaves the
working arrays and is not moved again, so each problem gets the
iterations, flag and plans it would get alone (up to rounding, as the
padding changes the length of some sums).  :func:`ibp_batch` is the
solver's one entry point.

Accuracy is governed by ``lam``: larger values track the exact barycenter more
closely but sharpen the kernels.  Kernel exponents are computed on the
range-normalized, per-measure-shifted costs, so the usable ``lam`` scale is
independent of the cost magnitudes; the reported objective is the plain
(unregularized) transport cost of the returned plans under the original
costs.  Exponent underflow still ends the run with
:class:`RegularizationOverflowError` rather than silently degrading.
"""

from __future__ import annotations

import numpy as np

from .ot_core import BarycenterBatch, BatchSolution
from .tree import check_count, check_positive

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


def ibp_batch(batch: BarycenterBatch, lam=DEFAULT_LAMBDA, max_iter=DEFAULT_MAX_ITER,
              tol_fixed_point=DEFAULT_FIXED_POINT_TOL) -> BatchSolution:
    """Approximate every barycenter of a batch and its plans by Bregman projections.

    Weights are renormalized onto the simplex of each problem for the
    geometric-mean step (their scale is already inside the cost matrices
    and does not change the minimizer); zero-weight measures keep their
    scaling updates, so their marginal constraints hold, but are skipped in
    the geometric mean.

    Returned plans reproduce the measure marginals column-wise exactly (the
    sweep ends on a fresh ``v`` update); their row marginals agree with the
    returned ``p`` only up to the fixed-point tolerance.
    """
    check_positive("lam", lam)
    check_count("max_iter", max_iter)
    batch.validate()
    q, kernels, live, alpha = batch.padded()
    w = alpha / alpha.sum(axis=1, keepdims=True)

    # Kernels come from the unweighted ground costs (cost matrices carry the
    # weights, so divide them back out); the weights enter once, as the
    # geometric-mean exponents.  Applying them in both places would steer the
    # fixed point toward squared-weight costs.  They are built in place of
    # the padded costs, one array for the whole batch.
    live = live[:, :, None, :]
    alpha = alpha[:, :, None, None]
    expo = kernels
    np.divide(expo, alpha, out=expo, where=alpha > 0)
    np.copyto(expo, 0.0, where=alpha == 0)
    # Shift and range are taken over each measure's real columns only (a
    # padded measure has none); the padded kernel columns are set to 1 and
    # meet zero scalings v.
    d_min = np.min(expo, axis=(2, 3), where=live, initial=np.inf)
    d_max = np.max(expo, axis=(2, 3), where=live, initial=-np.inf)
    d_min[np.isinf(d_min)] = 0.0
    scale = np.max(d_max - d_min, axis=1)
    scale[scale <= 0.0] = 1.0
    np.subtract(expo, d_min[:, :, None, None], out=expo)
    np.multiply(lam, expo, out=expo)
    np.divide(expo, scale[:, None, None, None], out=expo)
    np.copyto(expo, 0.0, where=~live)
    expo_max = expo.max(axis=(1, 2, 3))
    np.exp(np.negative(expo, out=kernels), out=kernels)
    bad = ~np.all(np.isfinite(kernels) & (kernels > 0.0), axis=(1, 2, 3))
    if bad.any():
        k = np.argmax(bad)
        lo, hi = batch.atom_ptr[batch.measure_ptr[k:k + 2]]
        raise RegularizationOverflowError(lam, float(batch.cost[:, lo:hi].max()),
                                          float(expo_max[k]))

    u, p, iterations, converged = _sweeps(kernels, q, w, max_iter, tol_fixed_point)
    # Closing v update: column sums of diag(u) K diag(v) match q exactly.
    v = q / np.maximum(_apply(kernels.transpose(0, 1, 3, 2), u), _FLOOR)
    plans = np.multiply(u[..., None], kernels, out=kernels)
    plans *= v[:, :, None, :]
    plans = batch.unpad(plans)
    return BatchSolution(batch.problem_sums(batch.cost * plans),
                         p / p.sum(axis=1, keepdims=True), plans, iterations, converged)


def _sweeps(kernels, q, w, max_iter, tol):
    """Bregman sweeps of every problem until its own fixed point or the cap.

    Returns the scalings ``u`` and barycenters ``p`` each problem stopped
    at, its iteration count and whether it converged.  Problems still
    iterating are the rows ``todo`` of the working arrays; one that stops
    leaves them, so its state stays as it stopped.
    """
    n_prob, m_max, r, _ = kernels.shape
    todo = np.arange(n_prob)
    u_end = np.ones((n_prob, m_max, r))
    p_end = np.empty((n_prob, r))
    iterations = np.full(n_prob, max_iter)
    converged = np.zeros(n_prob, dtype=bool)
    kern, q_k, w_k, u = kernels, q, w[:, None, :], u_end
    p = np.full((n_prob, r), 1.0 / r)
    kern_t = kern.transpose(0, 1, 3, 2)
    # K^T u of the current u: the stopping test needs it, and so does the
    # next sweep's v update.
    ktu = _apply(kern_t, u)
    for it in range(1, max_iter + 1):
        v = np.maximum(ktu, _FLOOR)
        np.divide(q_k, v, out=v)
        kv = np.maximum(_apply(kern, v), _FLOOR)
        # Zero-weight measures add 0 * finite log terms, i.e. are skipped.
        p_new = np.exp(np.matmul(w_k, np.log(kv))[:, 0])
        residual = np.abs(p_new - p).max(axis=1)
        u = p_new[:, None, :] / kv
        # Cycle consistency: with the fresh u, the current plans' column
        # sums must reproduce q.  The estimate p alone can plateau (sharp
        # kernels converge very slowly) long before the scalings agree,
        # so a p-only test would stop on inconsistent plans.
        ktu = _apply(kern_t, u)
        gap = ktu * v
        gap -= q_k
        residual = np.maximum(residual, np.abs(gap, out=gap).max(axis=(1, 2)))
        p = p_new
        stop = residual <= tol
        if stop.any():
            done = todo[stop]
            iterations[done], converged[done] = it, True
            u_end[done], p_end[done] = u[stop], p[stop]
            keep = ~stop
            todo, kern, q_k, w_k, u, p, ktu = (x[keep] for x in (todo, kern, q_k, w_k, u, p, ktu))
            kern_t = kern.transpose(0, 1, 3, 2)
            if todo.size == 0:
                break
    u_end[todo], p_end[todo] = u, p
    return u_end, p_end, iterations, converged


def _apply(kernels, x):
    """Per-measure matrix-vector products: (..., A, B) kernels times (..., B) -> (..., A)."""
    return np.matmul(kernels, x[..., None])[..., 0]
