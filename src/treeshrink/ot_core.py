"""Exact discrete optimal transport and barycenter LPs, and the batch of
barycenter problems and its solution that all three barycenter solvers share.

Problems where one side has two atoms are solved in closed form.  A
transport problem with two columns is a fractional knapsack: with
``d_i = c_i1 - c_i2``, filling the first column from the atoms of smallest
``d`` is optimal, so one sort per problem and a prefix sum give an exact
vertex plan.  A barycenter with two support points minimizes a sum of such
problems, each convex and piecewise linear in ``p_1``; the optimum sits
where the merged slope first turns nonnegative.  Every other LP goes to
the HiGHS dual-simplex solver through :func:`_highs`, which loads SciPy's
HiGHS extension module, and only that module, at the first LP
(:func:`_highs_binding`): the constraint matrices are assembled in
CSC form, consecutive independent problems share one block-diagonal LP of
at most ``_LP_MAX_ROWS`` constraints, each problem's costs are scaled to a
largest magnitude in [0.5, 1) and feasibility tolerances are pinned to 1e-9.
Every LP is solved with one setting, no presolve and Devex dual pricing,
from a dual-feasible crash basis that makes each transport row's, or
each barycenter atom's, cheapest plan entry basic, and on one HiGHS solver
per thread, built at the thread's first LP and cleared before each next one.
The returned plans are basic (vertex) solutions; on degenerate problems the
greedy may pick another optimal vertex than HiGHS would.
Each kind of problem has one entry point, which solves any number of
independent problems at once: :func:`transport_lp` for transport problems
and :func:`barycenter_batch` for barycenter problems, which are held in one
container, :class:`BarycenterBatch` (problems on one support size, their
marginals and costs concatenated).
All functions are pure (a thread's solver carries nothing from one LP to
the next); callers may run any number of instances concurrently.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .tree import _concat_ranges, _read_only

# Primal and dual feasibility tolerance of every HiGHS solve.
_FEASIBILITY_TOL = 1e-9

# Constraint rows per HiGHS LP.  HiGHS's working set grows by about 2 kB
# a row and stays with the process allocator after the solve: scoring
# generate_random(4, 6, dim=2) against its exact [3,3,3,3] reduction (last
# stage: 5832 pairs, 52488 rows) with one LP per stage raised the peak RSS
# by 96 MB.  On the reused solver of _thread_solver, an LP's fixed cost is
# small but still pays for fewer, larger packs.  Medians of 8 alternating
# runs at 512 and 1024 rows (2 cores): the ten reductions of deep-lp seed 5
# took 0.259 and 0.243 s, their scoring 0.124 and 0.109 s, at a peak RSS
# of 43.4 and 45.1 MB; that [3,3,3,3] reduction (random_init seed 1) 0.518
# and 0.480 s, its scoring 0.185 and 0.151 s, at 53.8 and 54.7 MB.
_LP_MAX_ROWS = 1024

# SciPy's acceptance tolerance on the bound and equality residuals of a
# HiGHS solution: sqrt(feasibility tolerance) * 10.
_RESIDUAL_TOL = math.sqrt(_FEASIBILITY_TOL) * 10

# Relative rounding tolerance of the greedy's split (see _fill_first).
_DUST = 4 * np.finfo(np.float64).eps


@dataclass
class BarycenterBatch:
    """P fixed-support barycenter problems on R support points, concatenated.

    Problem k owns the measures ``measure_ptr[k]:measure_ptr[k+1]``; measure m
    owns the atoms ``atom_ptr[m]:atom_ptr[m+1]``.  The solvers run on the
    whole batch at once and return plans laid out like ``cost``.

    Attributes
    ----------
    mass : array, shape (A,)
        Marginal of every measure, concatenated; each sums to 1 with entries
        >= 0.
    cost : array, shape (R, A)
        Finite, nonnegative cost of every atom against every barycenter
        support point, the measure's weight already applied.
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

    @functools.cached_property
    def _live(self) -> np.ndarray:
        """(P, M_max, S_max) read-only mask of the real atoms in the padded
        layout, computed once per batch from its pointers."""
        counts = np.diff(self.measure_ptr)
        sizes = np.zeros((self.P, counts.max()), dtype=int)
        sizes[np.arange(counts.max()) < counts[:, None]] = np.diff(self.atom_ptr)
        return _read_only(np.arange(sizes.max()) < sizes[..., None])

    def padded(self):
        """The batch as dense arrays padded to M_max measures of S_max atoms.

        Returns ``(q, cost, live, alpha)`` of shapes (P, M_max, S_max),
        (P, M_max, R, S_max), (P, M_max, S_max) and (P, M_max); ``live`` is
        True on the real atoms, which it holds in the concatenated order.
        Padded atoms and measures carry zero mass, cost and weight, so a
        solver that keeps their plan columns at zero can run every problem
        in one array operation; :meth:`unpad` gathers the plans back.
        """
        live = self._live
        q = np.zeros(live.shape)
        q[live] = self.mass
        alpha = np.zeros(live.shape[:2])
        alpha[live.any(axis=2)] = self.alpha
        return q, self.pad_plans(self.cost), live, alpha

    def pad_plans(self, plans) -> np.ndarray:
        """(R, A) plans, or costs, spread into the padded (P, M_max, R, S_max) layout."""
        live = self._live
        out = np.zeros(live.shape[:2] + (self.R, live.shape[2]))
        out.transpose(0, 1, 3, 2)[live] = plans.T
        return out

    def unpad(self, plans) -> np.ndarray:
        """Padded (P, M_max, R, S_max) plans gathered back into the (R, A) layout."""
        return plans.transpose(0, 1, 3, 2)[self._live].T

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
        # measure of atom i.  A non-finite mass makes its measure's sum
        # non-finite, which fails the sum test.
        owner = np.repeat(np.arange(self.M), np.diff(self.atom_ptr))
        bad = ~(np.abs(np.bincount(owner, self.mass, self.M) - 1.0) <= 1e-9)
        bad[owner[self.mass < -1e-12]] = True
        if bad.any():
            raise ValueError(f"{self._name(np.argmax(bad))}: marginal is not a probability vector")
        infinite = ~np.all(np.isfinite(self.cost), axis=0)
        if infinite.any():
            raise ValueError(f"{self._name(owner[np.argmax(infinite)])}: non-finite transport costs")
        negative = np.any(self.cost < 0, axis=0)
        if negative.any():
            raise ValueError(f"{self._name(owner[np.argmax(negative)])}: negative transport costs")
        if np.any(self.alpha < 0) or not np.all(np.maximum.reduceat(self.alpha, ptr[:-1]) > 0):
            raise ValueError("weights must be nonnegative and not all zero")


@dataclass
class BatchSolution:
    """Solutions of every problem of a :class:`BarycenterBatch`, as each of
    the three solvers (:func:`barycenter_batch`, :func:`~treeshrink.mam.mam_batch`
    and :func:`~treeshrink.ibp.ibp_batch`) returns them.

    ``p`` holds every problem's barycenter, (P, R); ``plans`` is laid out like
    the batch's costs, (R, A); ``iterations`` and ``converged`` hold each
    problem's iteration count and whether it converged (exact solves: 1 and
    True).
    """

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
    two = _two_atom(r, s)
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


def _two_atom(r, s):
    """Which problems :func:`transport_lp` solves by the greedy, not by HiGHS."""
    return (r == 2) | (s == 2)


def packs(sizes, limit):
    """Greedy packing of consecutive items of the given ``sizes`` into runs
    whose sizes sum to at most ``limit`` (a larger item gets a run alone).

    Returns the index of every run's first item, then ``len(sizes)``.
    """
    ends = np.concatenate(([0], np.cumsum(sizes)))
    bounds = [0]
    while bounds[-1] < len(sizes):
        lo = bounds[-1]
        bounds.append(max(lo + 1, int(np.searchsorted(ends, ends[lo] + limit, side="right")) - 1))
    return np.array(bounds)


def transport_splits(r, s):
    """Where a sequence of transport problems may be cut into separate calls
    of :func:`transport_lp` without changing any HiGHS LP.

    ``r`` and ``s`` hold every problem's row and column counts.  Returns a
    boolean array of length K + 1: entry p is True when no LP of the packing
    that one call on the whole sequence makes holds problems on both sides
    of p.  Calls on pieces cut only there solve the same LPs, so they return
    the same plans bit for bit.
    """
    r, s = np.asarray(r), np.asarray(s)
    highs = np.flatnonzero(~_two_atom(r, s))
    bounds = packs((r + s)[highs], _LP_MAX_ROWS)
    k = r.shape[0]
    inside = np.cumsum(np.bincount(highs[bounds[:-1]] + 1, minlength=k + 1)
                       - np.bincount(highs[bounds[1:] - 1] + 1, minlength=k + 1))
    return inside == 0


def _packed_lps(row_mass, row_ptr, col_mass, col_ptr, cost):
    """:func:`transport_lp` by HiGHS alone, in LPs of at most ``_LP_MAX_ROWS`` rows."""
    r, s = np.diff(row_ptr), np.diff(col_ptr)
    var_ptr = np.concatenate(([0], np.cumsum(r * s)))
    values = np.empty(r.shape[0])
    x = np.empty(var_ptr[-1])
    bounds = packs(r + s, _LP_MAX_ROWS)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rp, cp = row_ptr[lo:hi + 1], col_ptr[lo:hi + 1]
        values[lo:hi], x[var_ptr[lo]:var_ptr[hi]] = _block_diagonal_lp(
            row_mass[rp[0]:rp[-1]], rp - rp[0], col_mass[cp[0]:cp[-1]], cp - cp[0],
            cost[var_ptr[lo]:var_ptr[hi]])
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
    for n in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
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
    # Every plan entry sits in one row-sum and one column-sum constraint, so
    # column j of the CSC matrix holds rows row[j] and n_rows + col[j].
    block, row, col = block_entries(row_ptr, col_ptr)
    n_vars = block.shape[0]
    var_ptr = np.concatenate(([0], np.cumsum(np.diff(row_ptr) * np.diff(col_ptr))))
    # The crash basis of _highs: every row's cheapest entry, the first on
    # ties.  A row's entries are consecutive, and ``line`` holds the first.
    line = np.flatnonzero(np.diff(row, prepend=-1))
    cheapest = np.flatnonzero(cost == np.minimum.reduceat(cost, line)[row])
    basic = cheapest[np.diff(row[cheapest], prepend=-1) > 0]
    x = _highs("transport", cost, np.arange(0, 2 * n_vars + 1, 2),
               np.column_stack([row, row_mass.shape[0] + col]).ravel(),
               np.ones(2 * n_vars), np.concatenate([row_mass, col_mass]), var_ptr, basic)
    return np.bincount(block, cost * x, row_ptr.shape[0] - 1), x


# _highs_binding loads the HiGHS module outside the import system, and so
# without its per-module lock; this one takes its place.
_BINDING_LOCK = threading.Lock()


@functools.cache
def _highs_binding():
    """SciPy's HiGHS binding and the options of every solve, loaded once.

    Every LP runs the dual simplex without presolve, with Devex pricing,
    both feasibility tolerances at ``_FEASIBILITY_TOL``, no debugging and no
    output.  Returns the binding and that one ``HighsOptions``.

    The binding is the extension module ``scipy.optimize._highspy._core``,
    and only that file is loaded: importing it the usual way would first
    run ``scipy.optimize``'s package ``__init__``, which loads over 300
    modules, ``scipy.sparse`` and ``numpy.ma`` among them, that the solver
    never uses.  A module that an earlier ``import scipy.optimize`` loaded
    is reused.  Otherwise the file is loaded under its full dotted name and
    entered in ``sys.modules``, so a later ``import scipy.optimize`` shares
    it.  The full name matters: pybind11 registers the binding's types once
    per process, so a copy under another name would fail to load.
    """
    name = "scipy.optimize._highspy._core"
    with _BINDING_LOCK:
        core = sys.modules.get(name)
        if core is None:
            scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
            found = importlib.machinery.PathFinder.find_spec(
                "_core", [os.path.join(d, "optimize", "_highspy") for d in scipy_dirs])
            if found is None:
                raise ImportError(f"SciPy has no extension module {name}")
            spec = importlib.util.spec_from_file_location(name, found.origin)
            core = importlib.util.module_from_spec(spec)
            sys.modules[name] = core
            spec.loader.exec_module(core)

    # From the crash basis of _highs the dual simplex takes about one
    # iteration per four rows on these LPs, and HiGHS skips presolve when
    # it is given a basis.  Over the 170 barycenter LPs of the deep-lp
    # benchmark workload's seed 13, Devex pricing took 10081 iterations and
    # 0.13-0.14 s of HiGHS time, the default steepest edge 9558 iterations
    # and 0.14-0.16 s (2 cores).  From the all-logical basis Devex took
    # 0.33 s against 0.49 s for steepest edge.
    options = core.HighsOptions()
    options.presolve = "off"
    options.solver = "simplex"
    options.simplex_strategy = int(core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.simplex_dual_edge_weight_strategy = int(
        core.simplex_constants.SimplexEdgeWeightStrategy.kSimplexEdgeWeightStrategyDevex)
    options.primal_feasibility_tolerance = _FEASIBILITY_TOL
    options.dual_feasibility_tolerance = _FEASIBILITY_TOL
    options.highs_debug_level = int(core.HighsDebugLevel.kHighsDebugLevelNone)
    options.output_flag = False
    options.log_to_console = False
    return core, options


# The HiGHS solver of each thread (attribute ``highs``), made by
# _thread_solver at the thread's first LP and kept for the thread's life.
_SOLVER = threading.local()


def _thread_solver():
    """The binding and this thread's HiGHS solver, its model cleared.

    The solver is built with the options of :func:`_highs_binding` at the
    thread's first LP.  ``clearModel`` drops the model, basis, solution and
    info of the last solve, whether or not it raised, and keeps the options.
    """
    core, options = _highs_binding()
    highs = getattr(_SOLVER, "highs", None)
    if highs is None:
        highs = core._Highs()
        highs.passOptions(options)
        _SOLVER.highs = highs
    else:
        highs.clearModel()
    return core, highs


def _highs(kind, cost, start, index, value, b_eq, var_ptr, basic):
    """One HiGHS dual-simplex solve of ``min cost @ x`` over ``A x = b_eq, x >= 0``.

    Every solve takes the options of :func:`_highs_binding`; ``kind``
    ("transport" or "barycenter") names the LP in errors.  ``A`` is given in
    CSC form (``start``, ``index``, ``value``, row indices ascending within
    a column).  The model goes straight to SciPy's private binding, the
    extension module ``scipy.optimize._highspy._core`` that
    :func:`_highs_binding` loads without the rest of ``scipy.optimize``:
    as arrays, through the array overload of ``passModel``, on this
    thread's solver, its last model cleared (:func:`_thread_solver`); the
    solve then returns bit for bit the ``x`` of a fresh solver, without the
    cost of building one and passing it the options.  SciPy's LP front end
    (``linprog(method="highs-ds")``) would re-validate its inputs and
    options, re-stack the matrix and build bound duals in a Python loop over
    the columns: over half of its time on the LPs of the deep-lp benchmark
    workload.  Its checks are kept:
    non-finite costs or right-hand sides raise ``ValueError``; the model
    status must be optimal, ``x`` finite, and the bound and equality
    residuals within ``_RESIDUAL_TOL``, or ``RuntimeError`` is raised.

    The solve starts from a crash basis, not from the all-logical one that
    ``linprog`` starts from: the columns ``basic`` are basic, the first row
    of each of them (distinct rows) has its logical nonbasic, and every
    other row keeps its logical basic.  The callers pick, for each row that
    gives up its logical, one of its cheapest columns whose other rows keep
    theirs, so the basis matrix is triangular, the duals are that cost on
    those rows and zero elsewhere, and the start is dual feasible: the dual
    simplex then needs about a quarter of the iterations it takes from the
    slack basis.  The optimum is the same; on a degenerate LP it may be
    another optimal vertex than ``linprog``'s.

    The LP is block diagonal: block b owns the variables
    ``var_ptr[b]:var_ptr[b+1]`` and shares none with another block.
    HiGHS compares reduced costs against an absolute tolerance, so each
    block's costs are first scaled by the power of two that brings their
    largest magnitude into [0.5, 1); every block's costs then reach HiGHS
    the same at any power-of-two cost scale, whatever the scale of the
    blocks packed with it.  The scaling is exact.  Returns ``x``, which is
    optimal for the unscaled costs too.
    """
    if not (np.all(np.isfinite(cost)) and np.all(np.isfinite(b_eq))):
        raise ValueError(f"{kind} LP: costs and right-hand sides must be finite")
    core, highs = _thread_solver()
    e = np.frexp(np.maximum.reduceat(np.abs(cost), var_ptr[:-1]))[1]
    n, m = cost.shape[0], b_eq.shape[0]
    passed = highs.passModel(
        n, m, index.shape[0], int(core.MatrixFormat.kColwise), int(core.ObjSense.kMinimize),
        0.0, np.ldexp(cost, -np.repeat(e, np.diff(var_ptr))), np.zeros(n), np.full(n, np.inf),
        b_eq, b_eq, start.astype(np.int32), index.astype(np.int32), value,
        np.zeros(n, dtype=np.int32))
    lower, basic_status = core.HighsBasisStatus.kLower, core.HighsBasisStatus.kBasic
    col_status, row_status = [lower] * n, [basic_status] * m
    for j, i in zip(basic.tolist(), index[start[basic]].tolist()):
        col_status[j], row_status[i] = basic_status, lower
    basis = core.HighsBasis()
    basis.col_status, basis.row_status = col_status, row_status
    ran = (passed != core.HighsStatus.kError
           and highs.setBasis(basis) != core.HighsStatus.kError
           and highs.run() != core.HighsStatus.kError)
    status = highs.getModelStatus()
    if not ran or status != core.HighsModelStatus.kOptimal:
        raise RuntimeError(f"{kind} LP failed: {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    residual = np.abs(b_eq - np.array(solution.row_value))
    if not (np.all(np.isfinite(x)) and np.all(x >= -_RESIDUAL_TOL)
            and np.all(residual <= _RESIDUAL_TOL)):
        raise RuntimeError(f"{kind} LP failed: the solution misses its bounds or "
                           f"constraints by more than {_RESIDUAL_TOL:.2e}")
    return x


def barycenter_batch(batch: BarycenterBatch) -> BatchSolution:
    """Exact barycenters and vertex plans of every problem of a batch.

    With two support points every problem is solved at once in closed form
    (:func:`two_atom_barycenter`).  Otherwise consecutive problems are
    solved together by HiGHS, as one block-diagonal LP of at most
    ``_LP_MAX_ROWS`` constraints (a larger problem gets an LP of its own);
    a problem has one constraint per atom, R per measure and one more.  The
    problems share no variable, so each block of a joint optimum is optimal
    for its problem.
    """
    batch.validate()
    if batch.R == 2:
        return two_atom_barycenter(batch)
    m_ptr = batch.measure_ptr
    a_ptr = batch.atom_ptr[m_ptr]
    bounds = packs(np.diff(a_ptr) + batch.R * np.diff(m_ptr) + 1, _LP_MAX_ROWS)
    solved = [_highs_barycenters(BarycenterBatch(
        batch.mass[a_ptr[lo]:a_ptr[hi]], batch.cost[:, a_ptr[lo]:a_ptr[hi]],
        batch.alpha[m_ptr[lo]:m_ptr[hi]],
        batch.atom_ptr[m_ptr[lo]:m_ptr[hi] + 1] - a_ptr[lo], m_ptr[lo:hi + 1] - m_ptr[lo]))
        for lo, hi in zip(bounds[:-1], bounds[1:])]
    p, plans = zip(*solved)
    return BatchSolution(np.concatenate(p), np.concatenate(plans, axis=1),
                         np.ones(batch.P, dtype=int), np.ones(batch.P, dtype=bool))


def _highs_barycenters(batch: BarycenterBatch):
    """Every problem of a batch as one block-diagonal HiGHS LP.

    Problem by problem, the variables are its ``p``, then each measure's
    (R, S^m) plan row-major; the constraints are every plan's column sums
    (its marginal), every plan's row sums less ``p`` (zero) and the simplex
    row of ``p``.  Each problem is one block of :func:`_highs`, its costs
    scaled on their own.  A batch of one is the plain barycenter LP.
    Returns every problem's ``p`` and the (R, A) plans.
    """
    r, ks = batch.R, np.arange(batch.P)
    m_ptr, a_ptr = batch.measure_ptr, batch.atom_ptr[batch.measure_ptr]
    # Plan entry (measure, support point, atom), in plan order; plan row
    # r * m + i is measure m's row for support point i.
    block, row, atom = block_entries(r * np.arange(batch.M + 1), batch.atom_ptr)
    point = row - r * block
    of_measure = np.repeat(ks, np.diff(m_ptr))
    # Problem k's constraints follow those of the problems before it (their
    # atoms, plan rows and simplex rows), its variables their p and plans.
    atom_row = np.arange(a_ptr[-1]) + (r * m_ptr[:-1] + ks)[np.repeat(ks, np.diff(a_ptr))]
    plan_row = np.arange(r * batch.M) + np.repeat(a_ptr[1:] + ks, r * np.diff(m_ptr))
    simplex_row = a_ptr[1:] + r * m_ptr[1:] + ks
    p_var = (r * (a_ptr[:-1] + ks))[:, None] + np.arange(r)
    var = np.arange(block.shape[0]) + r * (of_measure[block] + 1)
    rows = np.concatenate([atom_row[atom], plan_row[row], plan_row, np.repeat(simplex_row, r)])
    cols = np.concatenate([var, var, p_var[of_measure].ravel(), p_var.ravel()])
    data = np.concatenate([np.ones(2 * var.shape[0]), np.full(r * batch.M, -1.0),
                           np.ones(r * batch.P)])
    n_vars = r * (a_ptr[-1] + batch.P)
    # CSC order: by column, rows ascending within one (no entry repeats).
    order = np.lexsort((rows, cols))
    start = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n_vars))))
    b_eq = np.zeros(simplex_row[-1] + 1)
    b_eq[atom_row] = batch.mass
    b_eq[simplex_row] = 1.0
    c = np.zeros(n_vars)
    c[var] = batch.cost[point, atom]
    # The crash basis of _highs: every atom's cheapest plan entry, the first
    # on ties.
    basic = var[point == np.argmin(batch.cost, axis=0)[atom]]
    x = _highs("barycenter", c, start, rows[order], data[order], b_eq,
               r * (a_ptr + np.arange(batch.P + 1)), basic)
    plans = np.empty(batch.cost.shape)
    plans[point, atom] = x[var]
    return x[p_var], plans


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
    return BatchSolution(np.column_stack([p1, 1.0 - p1]), plans,
                         np.ones(batch.P, dtype=int), np.ones(batch.P, dtype=bool))
