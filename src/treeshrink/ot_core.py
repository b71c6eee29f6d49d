"""Exact discrete optimal transport and barycenter LPs, plus the scaled-simplex
projection kernel shared by the averaged-marginals solver.

The two LP entry points are thin, deterministic wrappers around the HiGHS
dual-simplex solver (via ``scipy.optimize.linprog``): the constraint matrices
are assembled sparse, feasibility tolerances are pinned to 1e-9, and the
returned plans are basic (vertex) solutions.  All functions are pure; callers
may run any number of instances concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

_LP_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}


@dataclass
class BarycenterProblem:
    """Fixed-support barycenter instance.

    Attributes
    ----------
    q : list of arrays
        Marginal of each measure m, length S^m, entries >= 0 summing to 1.
    D : list of arrays
        Cost matrix of each measure, shape (R, S^m), weight already applied
        (row index runs over the barycenter support of size R).
    alpha : array
        Raw nonnegative weights, one per measure, not all zero.  The cost
        matrices carry them already; solvers that need normalized weights
        (the geometric mean of the Bregman solver) renormalize internally.
    """

    q: list
    D: list
    alpha: np.ndarray

    def __post_init__(self):
        self.q = [np.asarray(qm, dtype=np.float64) for qm in self.q]
        self.D = [np.asarray(dm, dtype=np.float64) for dm in self.D]
        self.alpha = np.asarray(self.alpha, dtype=np.float64)

    @property
    def M(self) -> int:
        return len(self.q)

    @property
    def R(self) -> int:
        return self.D[0].shape[0]

    def support_sizes(self) -> list:
        return [qm.shape[0] for qm in self.q]

    def padded(self):
        """Stack all measures into arrays padded to the widest support S_max.

        Returns ``(q, D, live)`` of shapes (M, S_max), (M, R, S_max) and
        (M, S_max); ``live`` is True on each measure's real columns.  Padded
        columns carry zero mass and zero cost, so a solver that keeps their
        plan columns at zero can run every measure in one array operation;
        :meth:`unpad` trims the stacked plans back.
        """
        sizes = np.asarray(self.support_sizes())
        live = np.arange(sizes.max())[None, :] < sizes[:, None]
        q = np.zeros(live.shape)
        d = np.zeros((self.M, self.R, live.shape[1]))
        for m, (qm, dm) in enumerate(zip(self.q, self.D)):
            q[m, :sizes[m]] = qm
            d[m, :, :sizes[m]] = dm
        return q, d, live

    def unpad(self, plans) -> list:
        """Split stacked (M, R, S_max) plans into one (R, S^m) array per measure."""
        return [np.array(plans[m, :, :s]) for m, s in enumerate(self.support_sizes())]

    def validate(self) -> None:
        if not (len(self.D) == self.M == self.alpha.shape[0]) or self.M == 0:
            raise ValueError("q, D and alpha must list the same nonzero number of measures")
        r = self.R
        for m, (qm, dm) in enumerate(zip(self.q, self.D)):
            if dm.shape != (r, qm.shape[0]):
                raise ValueError(f"measure {m}: cost shape {dm.shape} != ({r}, {qm.shape[0]})")
            if np.any(qm < -1e-12) or abs(qm.sum() - 1.0) > 1e-9:
                raise ValueError(f"measure {m}: marginal is not a probability vector")
            if np.any(dm < 0):
                raise ValueError(f"measure {m}: negative transport costs")
        if np.any(self.alpha < 0) or not np.any(self.alpha > 0):
            raise ValueError("weights must be nonnegative and not all zero")


@dataclass
class TransportPlanSet:
    """Plans pi^m (R x S^m) coupling one barycenter p with each measure."""

    plans: list
    p: np.ndarray

    def column_marginal_error(self, problem: BarycenterProblem) -> float:
        return max(float(np.max(np.abs(pl.sum(axis=0) - qm)))
                   for pl, qm in zip(self.plans, problem.q))

    def row_marginal_error(self) -> float:
        return max(float(np.max(np.abs(pl.sum(axis=1) - self.p))) for pl in self.plans)


def wasserstein_lp(q, q_other, D):
    """Exact optimal transport between two discrete marginals.

    Minimizes ``<D, pi>`` over plans with row sums ``q`` and column sums
    ``q_other``; returns ``(cost, plan)`` with a vertex plan.  Entries of the
    marginals may be zero (the corresponding plan line is forced to zero).
    """
    q = np.asarray(q, dtype=np.float64)
    q_other = np.asarray(q_other, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    r, s = q.shape[0], q_other.shape[0]
    if D.shape != (r, s):
        raise ValueError(f"cost shape {D.shape} does not match marginals ({r}, {s})")
    if abs(q.sum() - q_other.sum()) > 1e-9:
        raise ValueError("marginals carry different total mass")
    # One-line marginals force the plan outright.
    if r == 1:
        return float(D[0] @ q_other), q_other[None, :].copy()
    if s == 1:
        return float(D[:, 0] @ q), q[:, None].copy()

    rows = sparse.vstack([
        sparse.kron(sparse.eye(r, format="csr"), np.ones((1, s))),
        sparse.kron(np.ones((1, r)), sparse.eye(s, format="csr")),
    ], format="csr")
    b = np.concatenate([q, q_other])
    res = linprog(D.ravel(), A_eq=rows, b_eq=b, bounds=(0, None),
                  method="highs-ds", options=_LP_OPTIONS)
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun), res.x.reshape(r, s)


def barycenter_lp(problem: BarycenterProblem):
    """Exact optimum of the coupled barycenter LP with free weights p.

    Decision variables are the barycenter vector ``p`` on the R-simplex and
    one plan per measure; every plan must reproduce its measure's marginal
    column-wise and the shared ``p`` row-wise.  Returns ``(objective,
    TransportPlanSet)``; the problem is always feasible (product plans).
    """
    problem.validate()
    r = problem.R
    sizes = problem.support_sizes()
    m_count = problem.M
    n_pi = int(r * sum(sizes))
    c = np.concatenate([np.zeros(r)] + [dm.ravel() for dm in problem.D])

    blocks_data = []
    blocks_rows = []
    blocks_cols = []
    row0 = 0
    col0 = r
    # column sums of each plan = q^m
    for m, s in enumerate(sizes):
        for rr in range(r):
            blocks_rows.append(np.arange(row0, row0 + s))
            blocks_cols.append(col0 + rr * s + np.arange(s))
            blocks_data.append(np.ones(s))
        row0 += s
        col0 += r * s
    # row sums of each plan - p = 0
    col0 = r
    for m, s in enumerate(sizes):
        for rr in range(r):
            blocks_rows.append(np.full(s, row0 + rr))
            blocks_cols.append(col0 + rr * s + np.arange(s))
            blocks_data.append(np.ones(s))
        blocks_rows.append(np.arange(row0, row0 + r))
        blocks_cols.append(np.arange(r))
        blocks_data.append(np.full(r, -1.0))
        row0 += r
        col0 += r * s
    # simplex constraint on p
    blocks_rows.append(np.full(r, row0))
    blocks_cols.append(np.arange(r))
    blocks_data.append(np.ones(r))
    row0 += 1

    a_eq = sparse.csr_matrix(
        (np.concatenate(blocks_data),
         (np.concatenate(blocks_rows), np.concatenate(blocks_cols))),
        shape=(row0, r + n_pi))
    b_eq = np.concatenate([np.concatenate(problem.q),
                           np.zeros(m_count * r), [1.0]])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs-ds", options=_LP_OPTIONS)
    if not res.success:
        raise RuntimeError(f"barycenter LP failed: {res.message}")
    p = res.x[:r].copy()
    plans = []
    off = r
    for s in sizes:
        plans.append(res.x[off:off + r * s].reshape(r, s).copy())
        off += r * s
    return float(res.fun), TransportPlanSet(plans, p)


def project_scaled_simplex(y, tau):
    """Euclidean projection of ``y`` onto {x >= 0 : sum(x) = tau}.

    Exact finite sort-based algorithm; for ``tau`` = 0 the answer is the zero
    vector.  Negative ``tau`` is a domain error.
    """
    if tau < 0:
        raise ValueError("target mass must be nonnegative")
    y = np.asarray(y, dtype=np.float64)
    if tau == 0.0:
        return np.zeros_like(y)
    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, y.shape[0] + 1)
    support = np.flatnonzero(u - (css - tau) / k > 0)[-1]
    theta = (css[support] - tau) / (support + 1.0)
    return np.maximum(y - theta, 0.0)


def project_columns_scaled_simplex(Y, tau):
    """Column-wise scaled-simplex projection: column s lands on mass tau[s].

    Vectorized batch form of :func:`project_scaled_simplex`, used by the
    averaged-marginals inner update where every column of every measure is
    projected in one call per iteration; zero-mass columns come back zero.
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
