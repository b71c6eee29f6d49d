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
once; :func:`wasserstein_lp` is its one-block case.  Barycenter problems
are held in one container, :class:`BarycenterBatch`: any number of
problems on one support size, their marginals and costs concatenated, with
:class:`BarycenterProblem` as the batch of one.  :func:`two_atom_barycenter`
solves a whole batch at once; :func:`barycenter_lp` solves one problem.
All functions are pure; callers may run any number of instances
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

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
class BarycenterBatch:
    """P fixed-support barycenter problems on R support points, concatenated.

    Problem k owns the measures ``measure_ptr[k]:measure_ptr[k+1]``; measure m
    owns the atoms ``atom_ptr[m]:atom_ptr[m+1]``.  The solvers run on the
    whole batch at once, and :meth:`split` cuts their (R, A) plans back into
    one (R, S^m) block per measure.

    Attributes
    ----------
    mass : array, shape (A,)
        Marginal of every measure, concatenated; each sums to 1 with entries
        >= 0.
    cost : array, shape (R, A)
        Cost of every atom against every barycenter support point, the
        measure's weight already applied.
    alpha : array, shape (M,)
        Raw nonnegative weight of every measure, not all zero within a
        problem.  The costs carry them already; solvers that need
        normalized weights (the geometric mean of the Bregman solver)
        renormalize per problem.
    atom_ptr, measure_ptr : int arrays, shapes (M + 1,) and (P + 1,)
    """

    mass: np.ndarray
    cost: np.ndarray
    alpha: np.ndarray
    atom_ptr: np.ndarray
    measure_ptr: np.ndarray

    @property
    def R(self) -> int:
        return self.cost.shape[0]

    @property
    def M(self) -> int:
        return self.alpha.shape[0]

    @property
    def P(self) -> int:
        return self.measure_ptr.shape[0] - 1

    def support_sizes(self) -> list:
        return np.diff(self.atom_ptr).tolist()

    def split(self, values) -> list:
        """Per-measure blocks of an array laid out like ``mass`` (last axis)."""
        return np.split(values, self.atom_ptr[1:-1], axis=-1)

    def _live(self) -> np.ndarray:
        """(P, M_max, S_max) mask of the real atoms in the padded layout."""
        counts = np.diff(self.measure_ptr)
        sizes = np.zeros((self.P, counts.max()), dtype=int)
        sizes[np.arange(counts.max()) < counts[:, None]] = np.diff(self.atom_ptr)
        return np.arange(sizes.max()) < sizes[..., None]

    def padded(self):
        """The batch as dense arrays padded to M_max measures of S_max atoms.

        Returns ``(q, cost, live, alpha)`` of shapes (P, M_max, S_max),
        (P, M_max, R, S_max), (P, M_max, S_max) and (P, M_max); ``live`` is
        True on the real atoms, which it holds in the concatenated order.
        Padded atoms and measures carry zero mass, cost and weight, so a
        solver that keeps their plan columns at zero can run every problem
        in one array operation; :meth:`unpad` gathers the plans back.
        """
        live = self._live()
        q = np.zeros(live.shape)
        q[live] = self.mass
        alpha = np.zeros(live.shape[:2])
        alpha[live.any(axis=2)] = self.alpha
        return q, self.pad_plans(self.cost), live, alpha

    def pad_plans(self, plans) -> np.ndarray:
        """(R, A) plans, or costs, spread into the padded (P, M_max, R, S_max) layout."""
        live = self._live()
        out = np.zeros(live.shape[:2] + (self.R, live.shape[2]))
        out.transpose(0, 1, 3, 2)[live] = plans.T
        return out

    def unpad(self, plans) -> np.ndarray:
        """Padded (P, M_max, R, S_max) plans gathered back into the (R, A) layout."""
        return plans.transpose(0, 1, 3, 2)[self._live()].T

    def problem_sums(self, values) -> np.ndarray:
        """Per-problem sums of an (R, A) array laid out like ``cost``."""
        problem = np.repeat(np.arange(self.P), np.diff(self.atom_ptr[self.measure_ptr]))
        return np.bincount(problem, values.sum(axis=0), self.P)

    def _name(self, m) -> str:
        k = int(np.searchsorted(self.measure_ptr, m, side="right")) - 1
        local = f"measure {m - self.measure_ptr[k]}"
        return local if self.P == 1 else f"problem {k}, {local}"

    def validate(self) -> None:
        ptr, counts = self.measure_ptr, np.diff(self.measure_ptr)
        if (ptr[0] != 0 or ptr[-1] != self.M or self.M == 0 or np.any(counts < 1)
                or self.atom_ptr.shape != (self.M + 1,) or self.atom_ptr[0] != 0
                or self.mass.shape != (self.atom_ptr[-1],)
                or self.cost.shape != (self.R, self.atom_ptr[-1])):
            raise ValueError("barycenter batch arrays do not match their pointers")
        # One pass over the concatenated marginals and costs; owner[i] is the
        # measure of atom i.
        owner = np.repeat(np.arange(self.M), np.diff(self.atom_ptr))
        bad = np.abs(np.bincount(owner, self.mass, self.M) - 1.0) > 1e-9
        bad[owner[self.mass < -1e-12]] = True
        if bad.any():
            raise ValueError(f"{self._name(np.argmax(bad))}: marginal is not a probability vector")
        negative = np.any(self.cost < 0, axis=0)
        if negative.any():
            raise ValueError(f"{self._name(owner[np.argmax(negative)])}: negative transport costs")
        if np.any(self.alpha < 0) or not np.all(np.maximum.reduceat(self.alpha, ptr[:-1]) > 0):
            raise ValueError("weights must be nonnegative and not all zero")


class BarycenterProblem(BarycenterBatch):
    """One fixed-support barycenter problem, given measure by measure.

    A batch of one: ``q`` lists each measure's marginal (length S^m), ``D``
    each measure's (R, S^m) cost matrix with the weight applied, ``alpha``
    the raw weights.  Costs of the wrong shape are rejected here, naming the
    first such measure; :meth:`validate` checks the rest.
    """

    def __init__(self, q, D, alpha):
        q = [np.asarray(qm, dtype=np.float64) for qm in q]
        D = [np.asarray(dm, dtype=np.float64) for dm in D]
        alpha = np.asarray(alpha, dtype=np.float64)
        if not (len(D) == len(q) == alpha.shape[0]) or not q:
            raise ValueError("q, D and alpha must list the same nonzero number of measures")
        sizes = [qm.shape[0] for qm in q]
        r = D[0].shape[0]
        for m, (dm, s) in enumerate(zip(D, sizes)):
            if dm.shape != (r, s):
                raise ValueError(f"measure {m}: cost shape {dm.shape} != ({r}, {s})")
        super().__init__(np.concatenate(q), np.concatenate(D, axis=1), alpha,
                         np.concatenate(([0], np.cumsum(sizes))), np.array([0, len(q)]))

    @property
    def q(self) -> list:
        return self.split(self.mass)

    @property
    def D(self) -> list:
        return self.split(self.cost)


@dataclass
class TransportPlanSet:
    """Plans pi^m (R x S^m) coupling one barycenter p with each measure."""

    plans: list
    p: np.ndarray


@dataclass
class BatchSolution:
    """Solutions of every problem of a :class:`BarycenterBatch`.

    ``plans`` is laid out like the batch's costs, (R, A); the rest holds one
    entry per problem: its objective, its barycenter (a (P, R) array), its
    iteration count and whether it converged (exact solves: 1 and True).
    """

    objective: np.ndarray
    p: np.ndarray
    plans: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


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


def barycenter_lp(problem: BarycenterBatch):
    """Exact optimum of the coupled barycenter LP with free weights p.

    Decision variables are the barycenter vector ``p`` on the R-simplex and
    one plan per measure; every plan must reproduce its measure's marginal
    column-wise and the shared ``p`` row-wise.  Returns ``(objective,
    TransportPlanSet)``; the problem is always feasible (product plans).
    With two support points the optimum is found in closed form
    (:func:`two_atom_barycenter`); otherwise by one HiGHS LP.  The plans
    are vertex solutions either way.  ``problem`` is a batch of one.
    """
    problem.validate()
    if problem.P != 1:
        raise ValueError(f"barycenter_lp solves one problem, not {problem.P}")
    solution = (two_atom_barycenter(problem) if problem.R == 2
                else _highs_barycenter(problem))
    return float(solution.objective[0]), TransportPlanSet(problem.split(solution.plans),
                                                          solution.p[0])


def _highs_barycenter(problem: BarycenterBatch) -> BatchSolution:
    """One problem's barycenter LP, solved by HiGHS.

    The variables are ``p``, then each measure's (R, S^m) plan row-major;
    the constraints are every plan's column sums (its marginal), every
    plan's row sums less ``p`` (zero) and the simplex row of ``p``.
    """
    r, m_count, n_atoms = problem.R, problem.M, problem.atom_ptr[-1]
    # Plan entry (measure, support point, atom), in variable order.
    block, row, atom = block_entries(r * np.arange(m_count + 1), problem.atom_ptr)
    point = row - r * block
    n_pi = block.shape[0]
    var = r + np.arange(n_pi)
    rows = np.concatenate([atom, n_atoms + row, n_atoms + np.arange(m_count * r),
                           np.full(r, n_atoms + m_count * r)])
    cols = np.concatenate([var, var, np.tile(np.arange(r), m_count), np.arange(r)])
    data = np.concatenate([np.ones(2 * n_pi), np.full(m_count * r, -1.0), np.ones(r)])
    a_eq = sparse.csr_matrix((data, (rows, cols)),
                             shape=(n_atoms + m_count * r + 1, r + n_pi))
    b_eq = np.concatenate([problem.mass, np.zeros(m_count * r), [1.0]])
    res = linprog(np.concatenate([np.zeros(r), problem.cost[point, atom]]), A_eq=a_eq,
                  b_eq=b_eq, bounds=(0, None), method="highs-ds", options=_LP_OPTIONS)
    if not res.success:
        raise RuntimeError(f"barycenter LP failed: {res.message}")
    plans = np.empty((r, n_atoms))
    plans[point, atom] = res.x[r:]
    return BatchSolution(np.array([res.fun]), res.x[None, :r].copy(), plans,
                         np.ones(1, dtype=int), np.ones(1, dtype=bool))


def two_atom_barycenter(batch: BarycenterBatch) -> BatchSolution:
    """Exact barycenters with two support points of every problem, without an LP.

    For a fixed ``p = (p_1, 1 - p_1)`` each measure is a two-row transport
    problem, solved by the greedy of :func:`_fill_first`; its cost is convex
    and piecewise linear in ``p_1``.  Over ``[0, p_1]`` the greedy fills the
    measure's atoms in ascending ``d = D[0] - D[1]``, so the slope is the
    ``d`` of the atom being filled: it steps by ``d_i - d_(i-1)`` (from 0
    before the first atom) where atom i starts, at the mass of the atoms
    before it.  A problem's summed cost is minimal where its merged slope
    first turns nonnegative (``p_1 = 1`` if it never does).  The steps are
    summed by position, and in ascending order at one position.  Only the
    first atoms' steps can be negative, so a running sum that is
    nonnegative at some event stays so up to the slope right of that
    position.  Every problem's events fill one row of a padded table, so
    each running sum is its own row's ``cumsum``, whatever the batch.
    """
    measure_problem = np.repeat(np.arange(batch.P), np.diff(batch.measure_ptr))
    d = batch.cost[0] - batch.cost[1]
    at, step, owner = [], [], []
    for blocks, idx, before in _sorted_blocks(batch.atom_ptr, d, batch.mass):
        at.append(before.ravel())
        step.append(np.diff(d[idx], axis=1, prepend=0.0).ravel())
        owner.append(np.repeat(measure_problem[blocks], idx.shape[1]))
    at, step, owner = np.concatenate(at), np.concatenate(step), np.concatenate(owner)
    order = np.lexsort((step, at, owner))
    counts = np.bincount(owner, minlength=batch.P)
    slot = np.arange(order.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    where = np.zeros((batch.P, counts.max()))
    slope = np.zeros(where.shape)
    where[owner[order], slot] = at[order]
    slope[owner[order], slot] = step[order]
    turn = (np.cumsum(slope, axis=1) >= 0.0) & (np.arange(where.shape[1]) < counts[:, None])
    first = np.argmax(turn, axis=1)
    p1 = np.where(turn.any(axis=1),
                  np.minimum(where[np.arange(batch.P), first], 1.0), 1.0)
    to_first = _fill_first(batch.mass, batch.atom_ptr, p1[measure_problem], d)
    plans = np.stack([to_first, batch.mass - to_first])
    return BatchSolution(batch.problem_sums(batch.cost * plans), np.column_stack([p1, 1.0 - p1]),
                         plans, np.ones(batch.P, dtype=int), np.ones(batch.P, dtype=bool))


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
