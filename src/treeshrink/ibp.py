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

Against a binary target every barycenter has two support points (R = 2),
and there the fixed point of the sweeps is solved for directly.  With
``c_i`` the difference of atom i's two normalized exponents and
``h_m = log(u^m_0 / u^m_1)``, atom i sends the share ``sigma(h_m - c_i)``
of its mass to point 0, and the fixed point is the ``h`` with
``f_m(h_m) = sum_i q_i sigma(h_m - c_i) = s`` for every measure and
``sum_m w_m h_m = 0``; then ``p = (s, 1 - s)`` (the semi-dual of the
entropic barycenter, Peyre & Cuturi, *Computational Optimal Transport*,
sections 4 and 9.2).  Newton's method on ``logit f_m`` finds it, started
from each measure's mean ``c`` and held by a trust radius per measure.  A
problem it does not finish, because its residual stalls or turns
non-finite or it runs out of steps, falls back to the sweeps from their
usual cold start, so such a problem gets exactly what the sweeps alone
give it.  A problem's ``iterations`` are its Newton passes if Newton
finished it and its sweeps otherwise, and its plans' column sums match
``q`` up to rounding either way.  Near the unregularized limit (large
``lam``, measures whose atoms ``c_i`` lie far apart) the ``f_m`` become
staircases and the fallback is common.

Accuracy is governed by ``lam``: larger values track the exact barycenter more
closely but sharpen the kernels.  Kernel exponents are computed on the
range-normalized, per-measure-shifted costs, so the usable ``lam`` scale is
independent of the cost magnitudes.  Exponent underflow still ends the run with
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

# The two-point Newton phase (``_newton``).
_NEWTON_STEPS = 30  # passes at most, before the sweeps take over
_NEWTON_STALL = 8  # steps the summed miss may take to halve its best value
_NEWTON_TOL = 1e-3  # finish at this fraction of ``tol_fixed_point``
_NEWTON_RADIUS, _NEWTON_MAX_RADIUS = 8.0, 64.0  # trust radius in h: start, cap
_NEWTON_MARGIN = 40.0  # h stays this far from its measure's extreme c at most


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

    At R = 2 a problem is first solved by Newton's method on its fixed
    point (module docstring); it finishes when every measure's row sum is
    within ``1e-3 * tol_fixed_point`` of ``p`` and ``|sum_m w_m h_m|`` is
    too.  It is abandoned after 30 passes (or ``max_iter``, if lower), when
    the sum of those misses over its measures has not halved within 8
    steps, or when a miss is not finite, and then runs the sweeps as at
    R >= 3.  The test is strict, so at ``tol_fixed_point = 0`` every
    problem runs the sweeps.  ``iterations`` counts the Newton passes of a
    problem Newton finished (the test of its start is the first) and the
    sweeps of any other; Newton steps tried before a fallback are not
    counted.  ``converged`` is True for every problem Newton finished.

    Returned plans reproduce the measure marginals column-wise exactly up
    to rounding (the sweeps end on a fresh ``v`` update; Newton's plans are
    ``q sigma(h - c)`` and ``q sigma(c - h)``); their row marginals agree
    with the returned ``p`` only up to the fixed-point tolerance.
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
    # At R = 2 the plans depend on the kernels only through the per-atom
    # exponent difference between the two support points.
    c = expo[:, :, 0] - expo[:, :, 1] if batch.R == 2 else None
    np.exp(np.negative(expo, out=kernels), out=kernels)
    bad = ~np.all(np.isfinite(kernels) & (kernels > 0.0), axis=(1, 2, 3))
    if bad.any():
        k = np.argmax(bad)
        lo, hi = batch.atom_ptr[batch.measure_ptr[k:k + 2]]
        raise RegularizationOverflowError(lam, float(batch.cost[:, lo:hi].max()),
                                          float(expo_max[k]))

    p = np.empty((batch.P, batch.R))
    iterations = np.empty(batch.P, dtype=int)
    converged = np.ones(batch.P, dtype=bool)
    rest = np.ones(batch.P, dtype=bool)
    if c is not None:
        done, h, logit, steps = _newton(c, q, w, live.any(axis=(2, 3)),
                                        min(max_iter, _NEWTON_STEPS), tol_fixed_point)
        rest[done] = False
        iterations[done] = steps
        p[done, 0], p[done, 1] = _sigmoids(logit)
        # Their plans, written over their kernels.
        up, down = _sigmoids(h[..., None] - c[done])
        kernels[done, :, 0] = q[done] * up
        kernels[done, :, 1] = q[done] * down
    if rest.any():
        whole = rest.all()
        kern, q_r, w_r = (x if whole else x[rest] for x in (kernels, q, w))
        u, p[rest], iterations[rest], converged[rest] = _sweeps(kern, q_r, w_r, max_iter,
                                                               tol_fixed_point)
        # Closing v update: column sums of diag(u) K diag(v) match q exactly.
        v = q_r / np.maximum(_apply(kern.transpose(0, 1, 3, 2), u), _FLOOR)
        np.multiply(u[..., None], kern, out=kern)
        kern *= v[:, :, None, :]
        if not whole:
            kernels[rest] = kern
    return BatchSolution(p / p.sum(axis=1, keepdims=True), batch.unpad(kernels), iterations,
                         converged)


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


def _newton(c, q, w, real, max_steps, tol):
    """Safeguarded Newton solve of every two-point problem's fixed point.

    The unknowns are the potentials ``h`` (P, M_max), one per measure, with
    the per-atom exponent differences ``c`` and masses ``q`` (P, M_max,
    S_max); ``real`` marks the measures that are not padding.  A problem
    finishes once every real measure's share ``f_m(h_m)`` of point 0 is
    within ``_NEWTON_TOL * tol`` of the common share ``sigma(L)`` and
    the drift ``|sum_m w_m h_m|`` is below that too; then ``sigma(L)`` and
    the plans are within three times that of the fixed point's, since
    every ``f_m`` is increasing.  It is abandoned when that residual is not
    finite, when the summed miss ``sum_m |f_m(h_m) - sigma(L)|`` plus the
    drift has not halved within ``_NEWTON_STALL`` steps, or when it is
    still open after ``max_steps`` passes.  Either way it leaves the
    working arrays, so its steps do not depend on the rest of the batch.

    Returns the indices of the finished problems, their ``h``, their
    ``L = logit(s)`` and the pass each finished on (the test of the start
    is pass 1).
    """
    n_prob, m_max, s_max = c.shape
    ones = np.ones(s_max)  # atom sums as matrix-vector products
    # A padded measure becomes one unit atom at c = 0: its arithmetic stays
    # finite, it has no weight and the residual skips it.
    q = q.copy()
    q[~real, 0] = 1.0
    held = q > 0
    lo = np.min(c, axis=2, where=held, initial=np.inf) - _NEWTON_MARGIN
    hi = np.max(c, axis=2, where=held, initial=-np.inf) + _NEWTON_MARGIN
    done = np.zeros(n_prob, dtype=bool)
    h_end = np.zeros((n_prob, m_max))
    logit_end = np.zeros(n_prob)
    steps = np.zeros(n_prob, dtype=int)
    todo = np.arange(n_prob)
    # The start solves the problem exactly when every measure has one atom.
    h = np.sum(q * c, axis=2)
    h -= np.sum(w * h, axis=1, keepdims=True)
    radius = np.full((n_prob, m_max), _NEWTON_RADIUS)
    step = np.zeros((n_prob, m_max))
    gap_prev = np.zeros((n_prob, m_max))  # no doubling before the first step
    best = np.full(n_prob, np.inf)
    best_pass = np.zeros(n_prob, dtype=int)
    # A saturated measure (f_m = 0 or 1) gives a non-finite residual, which
    # abandons its problem.
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, max_steps + 1):
            up, down = _sigmoids(h[..., None] - c)
            up *= q
            f = up @ ones
            g = (q * down) @ ones  # 1 - f without cancellation
            down *= up
            slope = (down @ ones) / (f * g)  # d logit(f) / dh
            psi = np.log(f / g)
            # Newton on logit(f_m) = L for all m with sum_m w_m (h_m + d_m)
            # = 0: d_m = (L - psi_m) / slope_m, L the mean of psi under
            # omega = w / slope (less the drift of sum_m w_m h_m).
            omega = w / slope
            omega_sum = omega.sum(axis=1)
            drift = np.sum(w * h, axis=1)
            logit = (np.sum(omega * psi, axis=1) - drift) / omega_sum
            gap = logit[:, None] - psi
            # A flat measure pins L whatever the drift, so the drift is
            # tested on its own: shifting every h by it moves no f_m by
            # more than a quarter of it.
            drift = np.abs(drift)
            miss = np.abs(f - (0.5 + 0.5 * np.tanh(0.5 * logit))[:, None])
            residual = np.maximum(np.max(miss, axis=1, where=real, initial=0.0), drift)
            # Strict, so that tol = 0 leaves every problem to the sweeps.
            finish = residual < _NEWTON_TOL * tol
            # Progress is the summed miss: with thousands of measures the
            # largest one can sit still while most measures settle.
            total = np.sum(miss, axis=1, where=real) + drift
            halved = total <= best / 2
            best[halved], best_pass[halved] = total[halved], it
            leave = finish | ~np.isfinite(residual) | (it - best_pass >= _NEWTON_STALL)
            if it == max_steps:
                leave[:] = True
            if leave.any():
                ok = todo[finish]
                done[ok], h_end[ok], logit_end[ok], steps[ok] = True, h[finish], logit[finish], it
                keep = ~leave
                (todo, c, q, w, real, lo, hi, h, radius, step, gap_prev, best, best_pass,
                 gap, slope, omega_sum) = (
                    x[keep] for x in (todo, c, q, w, real, lo, hi, h, radius, step, gap_prev,
                                      best, best_pass, gap, slope, omega_sum))
                if todo.size == 0:
                    break
            d = gap / slope
            # Trust radius per measure: halved when the step turns, doubled
            # when the measure's gap to L at least halved.
            radius = np.where(d * step < 0, radius / 2,
                              np.where(np.abs(gap) < 0.5 * gap_prev,
                                       np.minimum(2 * radius, _NEWTON_MAX_RADIUS), radius))
            np.clip(d, -radius, radius, out=d)
            # Clipping breaks sum_m w_m (h_m + d_m) = 0; spread the excess as
            # the Newton step would, in proportion to 1 / slope, but within
            # the radius (a flat measure would take it all).  What is left
            # is the drift the next L corrects.
            d -= (np.sum(w * (h + d), axis=1) / omega_sum)[:, None] / slope
            np.clip(d, -radius, radius, out=d)
            np.clip(h + d, lo, hi, out=h)
            step, gap_prev = d, np.abs(gap)
    return np.flatnonzero(done), h_end[done], logit_end[done], steps[done]


def _sigmoids(z):
    """``(sigma(z), sigma(-z))`` elementwise, as ``exp(min(z, 0))`` and
    ``exp(-max(z, 0))`` over their sum: one of the two is 1, so nothing
    overflows and both tails keep their relative accuracy."""
    low = np.minimum(z, 0.0)
    high = np.subtract(low, z)
    np.exp(low, out=low)
    np.exp(high, out=high)
    total = low + high
    np.reciprocal(total, out=total)
    low *= total
    high *= total
    return low, high


def _apply(kernels, x):
    """Per-measure matrix-vector products: (..., A, B) kernels times (..., B) -> (..., A)."""
    return np.matmul(kernels, x[..., None])[..., 0]
