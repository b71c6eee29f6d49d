"""Exact discrete optimal transport and barycenter LPs, plus the scaled-simplex
projection kernel shared by the averaged-marginals solver.

Problems where one side has two atoms are solved in closed form.  A
transport problem with two columns is a fractional knapsack: with
``d_i = c_i1 - c_i2``, filling the first column from the atoms of smallest
``d`` is optimal, so one sort per problem and a prefix sum give an exact
vertex plan.  A barycenter with two support points minimizes a sum of such
problems, each convex and piecewise linear in ``p_1``; the optimum sits
where the merged slope first turns nonnegative.  Every other LP goes to
the HiGHS dual-simplex solver (via ``scipy.optimize.linprog``): the
constraint matrices are assembled sparse and feasibility tolerances are
pinned to 1e-9.  Either way the returned plans are basic (vertex)
solutions; on degenerate problems the greedy may pick another optimal
vertex than HiGHS would.  Transport problems have one entry point,
:func:`transport_lp`, which solves any number of independent problems at
once; :func:`wasserstein_lp` is its one-block case.  All functions are
pure; callers may run any number of instances concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .tree import _concat_ranges

_LP_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}

# Constraint rows per transport LP.  HiGHS's working set grows by about 2 kB
# a row and stays with the process allocator after the solve.  Scoring
# generate_random(4, 6, dim=2) against a [3,3,3,3] tree (last stage: 5832
# pairs, 52488 rows) with one LP per stage peaked at 251 MB of RSS and took
# 3.6 s on 2 cores; in LPs of at most 512 rows, 89 MB and 1.5 s.
_LP_MAX_ROWS = 512


# Relative rounding tolerance of the greedy's split (see _fill_first).
_DUST = 4 * np.finfo(np.float64).eps


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
        sizes = self.support_sizes()
        shaped = [dm.shape == (r, s) for dm, s in zip(self.D, sizes)]
        if not all(shaped):
            m = shaped.index(False)
            raise ValueError(f"measure {m}: cost shape {self.D[m].shape} != ({r}, {sizes[m]})")
        # One pass over the concatenated marginals and costs; owner[i] is the
        # measure of column i.
        q = np.concatenate(self.q)
        owner = np.repeat(np.arange(self.M), sizes)
        bad = np.abs(np.bincount(owner, q, self.M) - 1.0) > 1e-9
        bad[owner[q < -1e-12]] = True
        if bad.any():
            raise ValueError(f"measure {np.argmax(bad)}: marginal is not a probability vector")
        negative = np.any(np.concatenate(self.D, axis=1) < 0, axis=0)
        if negative.any():
            raise ValueError(f"measure {owner[np.argmax(negative)]}: negative transport costs")
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


def block_entries(row_ptr, col_ptr):
    """Entries of a block-diagonal plan: blocks in order, each row-major.

    Block k pairs rows ``row_ptr[k]:row_ptr[k+1]`` with columns
    ``col_ptr[k]:col_ptr[k+1]``.  Returns ``(block, row, col)``, one entry per
    plan variable.
    """
    r, s = np.diff(row_ptr), np.diff(col_ptr)
    n = r * s
    block = np.repeat(np.arange(n.shape[0]), n)
    offset = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    width = s[block]
    return block, row_ptr[block] + offset // width, col_ptr[block] + offset % width


def transport_lp(row_mass, row_ptr, col_mass, col_ptr, cost):
    """Exact optimal transport of K independent problems.

    Problem k moves ``row_mass[row_ptr[k]:row_ptr[k+1]]`` onto
    ``col_mass[col_ptr[k]:col_ptr[k+1]]``; ``cost`` holds the costs of every
    problem in the order of :func:`block_entries`.  Returns ``(values, x)``:
    the optimal cost of each problem and the flat vertex plan, laid out like
    ``cost``.  Zero marginal entries force their plan line to zero.

    Problems with two rows or two columns are solved all at once by the
    sort-based greedy of :func:`_two_atom_transport`.  The others go to
    HiGHS: consecutive ones are solved together, as one block-diagonal LP of
    at most ``_LP_MAX_ROWS`` constraints (a larger problem gets an LP of its
    own).  The problems share no variable, so each block of a joint optimum
    is optimal for its problem.
    """
    row_mass = np.asarray(row_mass, dtype=np.float64)
    col_mass = np.asarray(col_mass, dtype=np.float64)
    row_ptr = np.asarray(row_ptr)
    col_ptr = np.asarray(col_ptr)
    cost = np.asarray(cost, dtype=np.float64)
    r, s = np.diff(row_ptr), np.diff(col_ptr)
    var_ptr = np.concatenate(([0], np.cumsum(r * s)))
    if cost.shape != (var_ptr[-1],):
        raise ValueError(f"{cost.shape[0]} costs for {var_ptr[-1]} plan entries")
    k = r.shape[0]
    gap = (np.bincount(np.repeat(np.arange(k), r), row_mass, k)
           - np.bincount(np.repeat(np.arange(k), s), col_mass, k))
    if np.any(np.abs(gap) > 1e-9):
        raise ValueError("marginals carry different total mass")

    values = np.empty(k)
    x = np.empty(var_ptr[-1])
    two = (r == 2) | (s == 2)
    for pick, solve in ((two, _two_atom_transport), (~two, _packed_lps)):
        sel = np.flatnonzero(pick)
        if sel.size == k:
            return solve(row_mass, row_ptr, col_mass, col_ptr, cost)
        if sel.size == 0:
            continue
        rows = _concat_ranges(row_ptr[sel], r[sel])
        cols = _concat_ranges(col_ptr[sel], s[sel])
        entries = _concat_ranges(var_ptr[sel], (r * s)[sel])
        values[sel], x[entries] = solve(
            row_mass[rows], np.concatenate(([0], np.cumsum(r[sel]))),
            col_mass[cols], np.concatenate(([0], np.cumsum(s[sel]))), cost[entries])
    return values, x


def _packed_lps(row_mass, row_ptr, col_mass, col_ptr, cost):
    """:func:`transport_lp` by HiGHS alone, in LPs of at most ``_LP_MAX_ROWS`` rows."""
    r, s = np.diff(row_ptr), np.diff(col_ptr)
    var_ptr = np.concatenate(([0], np.cumsum(r * s)))
    k = r.shape[0]
    values = np.empty(k)
    x = np.empty(var_ptr[-1])
    lp_rows = np.concatenate(([0], np.cumsum(r + s)))
    lo = 0
    while lo < k:
        hi = max(lo + 1, int(np.searchsorted(lp_rows, lp_rows[lo] + _LP_MAX_ROWS,
                                             side="right")) - 1)
        rp, cp = row_ptr[lo:hi + 1], col_ptr[lo:hi + 1]
        values[lo:hi], x[var_ptr[lo]:var_ptr[hi]] = _block_diagonal_lp(
            row_mass[rp[0]:rp[-1]], rp - rp[0], col_mass[cp[0]:cp[-1]], cp - cp[0],
            cost[var_ptr[lo]:var_ptr[hi]])
        lo = hi
    return values, x


def _two_atom_transport(row_mass, row_ptr, col_mass, col_ptr, cost):
    """:func:`transport_lp` for problems that all have two rows or two columns.

    A problem with two columns sends ``x_i`` of row i's mass ``a_i`` to the
    first column and the rest to the second, so its cost is
    ``sum(c_i2 a_i) + sum(d_i x_i)`` with ``d_i = c_i1 - c_i2``: a
    fractional knapsack, which :func:`_fill_first` solves exactly.  A problem
    with two rows (and not two columns) is solved as its transpose.
    """
    r, s = np.diff(row_ptr), np.diff(col_ptr)
    k = r.shape[0]
    tall = s == 2  # else the two atoms are the rows
    # The atoms of the other side, block by block; both masses in one array.
    mass_all = np.concatenate([row_mass, col_mass])
    n = np.where(tall, r, s)
    ptr = np.concatenate(([0], np.cumsum(n)))
    block = np.repeat(np.arange(k), n)
    local = np.arange(ptr[-1]) - ptr[block]
    mass = mass_all[np.where(tall, row_ptr[:-1], row_mass.shape[0] + col_ptr[:-1])[block]
                    + local]
    target = mass_all[np.where(tall, row_mass.shape[0] + col_ptr[:-1], row_ptr[:-1])]
    # Plan entries of each atom: to the first and to the second of the two.
    var_ptr = np.concatenate(([0], np.cumsum(r * s)))
    first = var_ptr[block] + local * np.where(tall, 2, 1)[block]
    second = first + np.where(tall, 1, s)[block]
    x1 = _fill_first(mass, ptr, target, cost[first] - cost[second])
    x = np.empty(var_ptr[-1])
    x[first] = x1
    x[second] = mass - x1
    return np.bincount(block, cost[first] * x1 + cost[second] * x[second], k), x


def _sorted_blocks(ptr, key, mass):
    """Each block's atoms in ascending ``key`` order (ties by position).

    Yields ``(blocks, positions, before)`` once per distinct block size n:
    the blocks of that size, a (len(blocks), n) array of their positions in
    that order, and the mass of the atoms before each one.  Each block is a
    dense row, so its prefix sums run within the block alone.
    """
    sizes = np.diff(ptr)
    for n in np.unique(sizes[sizes > 0]):
        blocks = np.flatnonzero(sizes == n)
        idx = ptr[blocks, None] + np.arange(n)
        idx = np.take_along_axis(idx, np.argsort(key[idx], axis=1, kind="stable"), axis=1)
        before = np.zeros(idx.shape)
        np.cumsum(mass[idx[:, :-1]], axis=1, out=before[:, 1:])
        yield blocks, idx, before


def _fill_first(mass, ptr, target, d):
    """Greedy optimum of K fractional knapsacks: the mass each atom sends first.

    Block k holds the atoms ``ptr[k]:ptr[k+1]``, which must send
    ``target[k]`` of their ``mass`` to the first of two columns at marginal
    cost ``d``.  Atoms are filled whole in ascending ``d`` until the target
    is met; at most one atom per block is split.  Atoms below the split are
    full and atoms above it empty, which is the optimality certificate of
    the problem.  Marginals that agree only up to rounding leave a split
    within a few ulps of empty or full; it is rounded to that bound, so
    that no rounding dust lands on a dearer entry (a zero-cost optimum
    then stays exactly zero).
    """
    x = np.zeros_like(mass)
    for blocks, idx, before in _sorted_blocks(ptr, d, mass):
        m = mass[idx]
        rest = target[blocks, None] - before
        dust = _DUST * target[blocks, None]
        x[idx] = np.where(rest <= dust, 0.0, np.where(rest >= m - dust, m, rest))
    return x


def _block_diagonal_lp(row_mass, row_ptr, col_mass, col_ptr, cost):
    # Every plan entry sits in one row-sum and one column-sum constraint.
    block, row, col = block_entries(row_ptr, col_ptr)
    n_vars = block.shape[0]
    a_eq = sparse.csc_matrix(
        (np.ones(2 * n_vars), np.column_stack([row, row_mass.shape[0] + col]).ravel(),
         np.arange(0, 2 * n_vars + 1, 2)),
        shape=(row_mass.shape[0] + col_mass.shape[0], n_vars))
    res = linprog(cost, A_eq=a_eq, b_eq=np.concatenate([row_mass, col_mass]),
                  bounds=(0, None), method="highs-ds", options=_LP_OPTIONS)
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return np.bincount(block, cost * res.x, row_ptr.shape[0] - 1), res.x


def wasserstein_lp(q, q_other, D):
    """Exact optimal transport between two discrete marginals.

    Minimizes ``<D, pi>`` over plans with row sums ``q`` and column sums
    ``q_other``; returns ``(cost, plan)`` with a vertex plan.  Entries of the
    marginals may be zero (the corresponding plan line is forced to zero).
    The one-block case of :func:`transport_lp`.
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
    values, x = transport_lp(q, [0, r], q_other, [0, s], D.ravel())
    return float(values[0]), x.reshape(r, s)


def barycenter_lp(problem: BarycenterProblem):
    """Exact optimum of the coupled barycenter LP with free weights p.

    Decision variables are the barycenter vector ``p`` on the R-simplex and
    one plan per measure; every plan must reproduce its measure's marginal
    column-wise and the shared ``p`` row-wise.  Returns ``(objective,
    TransportPlanSet)``; the problem is always feasible (product plans).
    With two support points the optimum is found in closed form
    (:func:`_two_atom_barycenter`); otherwise by one HiGHS LP.  The plans
    are vertex solutions either way.
    """
    problem.validate()
    if problem.R == 2:
        return _two_atom_barycenter(problem)
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


def _two_atom_barycenter(problem: BarycenterProblem):
    """Exact barycenter with two support points, without an LP.

    For a fixed ``p = (p_1, 1 - p_1)`` each measure is a two-row transport
    problem, solved by the greedy of :func:`_fill_first`; its cost is convex
    and piecewise linear in ``p_1``.  Over ``[0, p_1]`` the greedy fills the
    measure's atoms in ascending ``d = D[0] - D[1]``, so the slope is the
    ``d`` of the atom being filled: it steps by ``d_i - d_(i-1)`` (from 0
    before the first atom) where atom i starts, at the mass of the atoms
    before it.  The summed cost is minimal where the merged slope first
    turns nonnegative (``p_1 = 1`` if it never does).  The steps are summed
    by position, and in ascending order at one position.  Only the first
    atoms' steps can be negative, so a running sum that is nonnegative at
    some event stays so up to the slope right of that position.
    """
    ptr = np.concatenate(([0], np.cumsum(problem.support_sizes())))
    q = np.concatenate(problem.q)
    cost = np.concatenate(problem.D, axis=1)
    d = cost[0] - cost[1]
    at, step = [], []
    for _, idx, before in _sorted_blocks(ptr, d, q):
        at.append(before.ravel())
        step.append(np.diff(d[idx], axis=1, prepend=0.0).ravel())
    at, step = np.concatenate(at), np.concatenate(step)
    order = np.lexsort((step, at))
    turn = np.flatnonzero(np.cumsum(step[order]) >= 0.0)
    p1 = min(float(at[order[turn[0]]]), 1.0) if turn.size else 1.0
    first = _fill_first(q, ptr, np.full(problem.M, p1), d)
    plans = np.stack([first, q - first])
    bounds = ptr.tolist()
    return float(np.sum(cost * plans)), TransportPlanSet(
        [plans[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])],
        np.array([p1, 1.0 - p1]))


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
    Two rows take the closed form instead of the sort.
    """
    tau = np.asarray(tau, dtype=np.float64)
    if np.any(tau < 0):
        raise ValueError("target masses must be nonnegative")
    Y = np.asarray(Y, dtype=np.float64)
    r = Y.shape[0]
    if r == 2:
        # Closed form: x_1 = clip((y_1 - y_2 + tau) / 2, 0, tau), x_2 = tau - x_1.
        first = np.minimum(np.maximum((Y[0] - Y[1] + tau) / 2.0, 0.0), tau)
        return np.array([first, tau - first])
    u = -np.sort(-Y, axis=0)
    css = np.cumsum(u, axis=0)
    k = np.arange(1, r + 1)[:, None]
    positive = u - (css - tau[None, :]) / k > 0
    support = r - 1 - np.argmax(positive[::-1, :], axis=0)
    theta = (css[support, np.arange(Y.shape[1])] - tau) / (support + 1.0)
    out = np.maximum(Y - theta[None, :], 0.0)
    out[:, tau == 0.0] = 0.0
    return out
