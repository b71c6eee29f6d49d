import dataclasses
import itertools
import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.optimize import linprog

from batches import (BarycenterProblem, barycenter_problems, costs, lone_transport,
                     lp_packs_reference, plan_cost, problem_lists, project_scaled_simplex,
                     stack, weights)
from treeshrink import ot_core
from treeshrink.ibp import ibp_batch
from treeshrink.mam import mam_batch
from treeshrink.ot_core import (BarycenterBatch, BatchSolution, barycenter_batch,
                                block_entries, packs, transport_lp, two_atom_barycenter)


def lone_barycenter(problem):
    """:func:`barycenter_batch` on one problem: ``(plan cost, plans, p)``, one
    (R, S^m) plan per measure."""
    sol = barycenter_batch(problem)
    return float(plan_cost(problem, sol)[0]), problem.split(sol.plans), sol.p[0]


def column_marginal_error(plans, problem):
    """Largest gap between a plan's column sums and its measure's marginal."""
    return max(float(np.max(np.abs(pl.sum(axis=0) - qm)))
               for pl, qm in zip(plans, problem.q))


def row_marginal_error(plans, p):
    """Largest gap between a plan's row sums and the barycenter."""
    return max(float(np.max(np.abs(pl.sum(axis=1) - p))) for pl in plans)


# The references solve at HiGHS's tightest tolerances: at its defaults
# (1e-7) a cost of 6e-8 falls below the dual tolerance, and the reference
# barycenter of a problem whose optimum is 0 came back as 6e-8.
REFERENCE_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                     "dual_feasibility_tolerance": 1e-10}


def highs_transport(q, q_other, D):
    """Optimal transport by one direct HiGHS solve: the reference of the greedy."""
    r, s = D.shape
    a_eq = np.vstack([np.kron(np.eye(r), np.ones(s)), np.kron(np.ones(r), np.eye(s))])
    res = linprog(D.ravel(), A_eq=a_eq, b_eq=np.concatenate([q, q_other]),
                  bounds=(0, None), method="highs-ds", options=REFERENCE_OPTIONS)
    assert res.success
    return res.fun


def highs_barycenter(q, D):
    """Barycenter LP by one direct HiGHS solve over (p, plans), dense."""
    r = D[0].shape[0]
    n = r + sum(d.size for d in D)
    rows, rhs, off = [], [], r
    for qm, dm in zip(q, D):
        s = qm.shape[0]
        for j in range(s):  # column sums: q^m
            row = np.zeros(n)
            row[off + j:off + r * s:s] = 1.0
            rows.append(row)
            rhs.append(qm[j])
        for i in range(r):  # row sums: p
            row = np.zeros(n)
            row[off + i * s:off + (i + 1) * s] = 1.0
            row[i] = -1.0
            rows.append(row)
            rhs.append(0.0)
        off += r * s
    rows.append(np.concatenate([np.ones(r), np.zeros(n - r)]))
    rhs.append(1.0)
    res = linprog(np.concatenate([np.zeros(r)] + [d.ravel() for d in D]),
                  A_eq=np.array(rows), b_eq=np.array(rhs), bounds=(0, None),
                  method="highs-ds", options=REFERENCE_OPTIONS)
    assert res.success
    return res.fun


# The ``linprog`` options of the solve ``ot_core._highs`` makes for every LP.
LP_OPTIONS = {"presolve": False, "simplex_dual_edge_weight_strategy": "devex",
              "primal_feasibility_tolerance": ot_core._FEASIBILITY_TOL,
              "dual_feasibility_tolerance": ot_core._FEASIBILITY_TOL}

# The same tolerances with linprog's presolve and dual pricing: another path
# to the optimum, for references that must agree in value, not in vertex.
PRESOLVED_OPTIONS = {**LP_OPTIONS, "presolve": True, "simplex_dual_edge_weight_strategy": None}


def scaled_linprog(options, c, a_eq, b_eq, var_ptr=None):
    """The solve ``ot_core._highs`` makes, through scipy's public API, with the
    given ``linprog`` options (:data:`LP_OPTIONS` for the same options), from
    the slack basis instead of the crash basis.

    Each block of variables ``var_ptr[b]:var_ptr[b+1]`` (by default, all of
    them) has its costs scaled by the power of two that brings their largest
    magnitude into [0.5, 1), as ``_highs`` does.  Returns ``(x, objective)``;
    the objective is scaled back for one block and is None for several.
    """
    var_ptr = [0, c.shape[0]] if var_ptr is None else var_ptr
    e = [math.frexp(float(np.max(np.abs(c[lo:hi]))))[1]
         for lo, hi in zip(var_ptr[:-1], var_ptr[1:])]
    scaled = np.concatenate([np.ldexp(c[lo:hi], -eb)
                             for lo, hi, eb in zip(var_ptr[:-1], var_ptr[1:], e)])
    res = linprog(scaled, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs-ds", options=options)
    assert res.success
    return res.x, math.ldexp(res.fun, e[0]) if len(e) == 1 else None


def transport_matrix(sizes):
    """The constraint matrix of one packed transport LP, built by scipy.sparse:
    the row sums of every (r, s) problem's plan, then its column sums."""
    row_sums = sparse.block_diag([sparse.kron(sparse.eye(r), np.ones((1, s)))
                                  for r, s in sizes])
    col_sums = sparse.block_diag([sparse.kron(np.ones((1, r)), sparse.eye(s))
                                  for r, s in sizes])
    return sparse.vstack([row_sums, col_sums]).tocsc()


def reference_barycenter_lp(problem):
    """One problem's barycenter LP, built by scipy.sparse.

    The variables are ``p``, then each measure's (R, S^m) plan row-major;
    the constraints are every plan's column sums (its marginal), every
    plan's row sums less ``p`` (zero) and the simplex row of ``p``.
    Returns ``(c, a_eq, b_eq, point, atom)``: plan variable j is the entry
    ``(point[j], atom[j])`` of the plans laid out like the costs.
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
    return (np.concatenate([np.zeros(r), problem.cost[point, atom]]), a_eq, b_eq,
            point, atom)


def assert_optimal_vertex(x, cost, a_eq, b_eq, var_ptr):
    """``x`` is an optimal vertex of ``min cost @ x`` over ``a_eq x = b_eq, x >= 0``.

    Each block of variables ``var_ptr[b]:var_ptr[b+1]`` costs what it costs in
    the solve ``linprog`` makes from the slack basis (:data:`LP_OPTIONS`),
    within 1e-12 relative and ``tol * 2**e`` per unit of the block's mass:
    either solve stops at a basis whose scaled reduced costs are >= -tol.  The
    bound and equality residuals are within ``_RESIDUAL_TOL``, and the columns
    of the nonzero entries of ``x`` are linearly independent.
    """
    ref_x, _ = scaled_linprog(LP_OPTIONS, cost, a_eq, b_eq, var_ptr)
    for lo, hi in zip(var_ptr[:-1], var_ptr[1:]):
        c = cost[lo:hi]
        tol = math.ldexp(ot_core._FEASIBILITY_TOL * ref_x[lo:hi].sum(),
                         math.frexp(float(np.max(c)))[1])
        assert c @ x[lo:hi] == pytest.approx(c @ ref_x[lo:hi], rel=1e-12, abs=tol)
    assert np.all(x >= -ot_core._RESIDUAL_TOL)
    assert np.max(np.abs(a_eq @ x - b_eq)) <= ot_core._RESIDUAL_TOL
    support = a_eq.toarray()[:, x != 0]
    assert np.linalg.matrix_rank(support) == support.shape[1]


def enumerate_two_column_vertices(a, target, d2):
    """Brute-force optimum of a two-column transport by vertex enumeration.

    A vertex sends every row but at most one wholly to one column; ``d2`` is
    the (n, 2) cost.  Returns the least cost over all feasible vertices.
    """
    n = a.shape[0]
    best = np.inf
    for split in range(n):
        others = [i for i in range(n) if i != split]
        for full in itertools.product([0, 1], repeat=n - 1):
            x = np.zeros(n)
            x[others] = np.array(full) * a[others]
            x[split] = target - x[others].sum()
            if -1e-12 <= x[split] <= a[split] + 1e-12:
                best = min(best, float(d2[:, 0] @ x + d2[:, 1] @ (a - x)))
    return best


def brute_force_transport_2x2(q, q_other, D):
    """Exact 2x2 transport by enumerating the one-parameter plan family.

    Every feasible plan is [[a, q0-a], [q0'-a, 1-q0-q0'+a]] with a in a closed
    interval; the objective is linear in a, so checking both endpoints is an
    exhaustive search over the optimal candidates.
    """
    lo = max(0.0, q[0] + q_other[0] - 1.0)
    hi = min(q[0], q_other[0])
    best = np.inf
    for a in (lo, hi):
        plan = np.array([[a, q[0] - a], [q_other[0] - a, 1.0 - q[0] - q_other[0] + a]])
        best = min(best, float(np.sum(plan * D)))
    return best


def brute_force_projection(y, tau):
    """Active-set enumeration oracle for the scaled-simplex projection."""
    n = len(y)
    best, best_val = None, np.inf
    for mask in itertools.product([0, 1], repeat=n):
        active = np.array(mask, dtype=bool)
        if not active.any():
            if tau == 0.0:
                cand = np.zeros(n)
                val = float(np.sum(y ** 2))
                if val < best_val:
                    best, best_val = cand, val
            continue
        theta = (y[active].sum() - tau) / active.sum()
        x = np.where(active, y - theta, 0.0)
        if np.all(x >= -1e-12):
            val = float(np.sum((x - y) ** 2))
            if val < best_val:
                best, best_val = np.maximum(x, 0.0), val
    return best


class TestWassersteinLP:
    def test_point_masses_same_support(self):
        cost, plan = lone_transport([1.0], [1.0], np.array([[0.0]]))
        assert cost == 0.0
        assert plan == pytest.approx(np.array([[1.0]]))

    def test_forced_plan(self):
        cost, _ = lone_transport([1.0], [1.0], np.array([[9.0]]))
        assert cost == pytest.approx(9.0)

    def test_shifted_halves(self):
        # supports {0,1} vs {1,2}, squared ground cost
        D = np.array([[1.0, 4.0], [0.0, 1.0]])
        cost, plan = lone_transport([0.5, 0.5], [0.5, 0.5], D)
        assert cost == pytest.approx(1.0)
        assert plan.sum(axis=1) == pytest.approx([0.5, 0.5])
        assert plan.sum(axis=0) == pytest.approx([0.5, 0.5])

    def test_matches_grid_oracle_on_random_2x2(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.dirichlet([1, 1])
            q2 = rng.dirichlet([1, 1])
            D = rng.uniform(0, 5, (2, 2))
            cost, _ = lone_transport(q, q2, D)
            assert cost == pytest.approx(brute_force_transport_2x2(q, q2, D), abs=1e-9)

    def test_transport_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            q = rng.dirichlet(np.ones(4))
            q2 = rng.dirichlet(np.ones(3))
            D = rng.uniform(0, 1, (4, 3))
            c1, _ = lone_transport(q, q2, D)
            c2, _ = lone_transport(q2, q, D.T)
            assert c1 == pytest.approx(c2, abs=1e-9)

    def test_zero_mass_entries_kept(self):
        q = np.array([0.0, 1.0])
        q2 = np.array([0.5, 0.5])
        D = np.array([[5.0, 5.0], [1.0, 2.0]])
        cost, plan = lone_transport(q, q2, D)
        assert plan[0] == pytest.approx([0.0, 0.0])
        assert cost == pytest.approx(1.5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="3 costs for 2 plan entries"):
            transport_lp([0.5, 0.5], [0, 2], [1.0], [0, 1], np.zeros(3))


class TestTransportBlocks:
    def random_blocks(self, rng, sizes):
        row_mass = np.concatenate([rng.dirichlet(np.ones(r)) for r, _ in sizes])
        col_mass = np.concatenate([rng.dirichlet(np.ones(s)) for _, s in sizes])
        row_ptr = np.concatenate(([0], np.cumsum([r for r, _ in sizes])))
        col_ptr = np.concatenate(([0], np.cumsum([s for _, s in sizes])))
        cost = rng.uniform(0, 10, sum(r * s for r, s in sizes))
        return row_mass, row_ptr, col_mass, col_ptr, cost

    def test_block_entries_row_major(self):
        block, row, col = block_entries(np.array([0, 2, 3]), np.array([0, 2, 5]))
        assert block.tolist() == [0, 0, 0, 0, 1, 1, 1]
        assert row.tolist() == [0, 0, 1, 1, 2, 2, 2]
        assert col.tolist() == [0, 1, 0, 1, 2, 3, 4]

    def test_blocks_match_separate_problems_and_split_by_rows(self, monkeypatch):
        # One block (15 + 10 rows) exceeds the 20-row limit and gets an LP of
        # its own; the others are packed into LPs of at most 20 rows.
        rng = np.random.default_rng(11)
        sizes = [(2, 3), (4, 2), (15, 10), (1, 3), (5, 5), (3, 3), (2, 2)]
        row_mass, row_ptr, col_mass, col_ptr, cost = self.random_blocks(rng, sizes)
        calls = []
        real = ot_core._highs

        def counting(*args):
            calls.append(args[5].shape[0])
            return real(*args)

        monkeypatch.setattr(ot_core, "_LP_MAX_ROWS", 20)
        monkeypatch.setattr(ot_core, "_highs", counting)
        values, x = transport_lp(row_mass, row_ptr, col_mass, col_ptr, cost)
        # The blocks with two rows or columns, (2, 3), (4, 2) and (2, 2), take
        # the greedy; the rest are packed as (15, 10) and (1, 3) + (5, 5) + (3, 3).
        assert calls == [25, 20]
        monkeypatch.undo()
        off = 0
        for k, (r, s) in enumerate(sizes):
            d = cost[off:off + r * s].reshape(r, s)
            plan = x[off:off + r * s].reshape(r, s)
            ref = highs_transport(row_mass[row_ptr[k]:row_ptr[k + 1]],
                                  col_mass[col_ptr[k]:col_ptr[k + 1]], d)
            assert values[k] == pytest.approx(ref, rel=1e-9, abs=1e-12)
            assert plan.sum(axis=1) == pytest.approx(row_mass[row_ptr[k]:row_ptr[k + 1]], abs=1e-9)
            assert plan.sum(axis=0) == pytest.approx(col_mass[col_ptr[k]:col_ptr[k + 1]], abs=1e-9)
            off += r * s

    def test_mass_mismatch_in_any_block_raises(self):
        rng = np.random.default_rng(12)
        row_mass, row_ptr, col_mass, col_ptr, cost = self.random_blocks(rng, [(2, 2), (3, 2)])
        col_mass[-1] += 1e-6
        with pytest.raises(ValueError, match="different total mass"):
            transport_lp(row_mass, row_ptr, col_mass, col_ptr, cost)


class TestPacks:
    def test_greedy_runs(self):
        # 5 + 3 fit in 8; 9 is over the limit and goes alone; 2 + 4 + 1 fit.
        assert packs([5, 3, 9, 2, 4, 1], 8).tolist() == [0, 2, 3, 6]
        assert packs(np.array([], dtype=int), 8).tolist() == [0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 30), max_size=40), st.integers(1, 20))
    def test_matches_the_lp_packing(self, sizes, limit):
        sizes = np.array(sizes, dtype=int)
        assert packs(sizes, limit).tolist() == lp_packs_reference(sizes, limit).tolist()


def random_problem(rng, m_max=4, r_max=6, s_max=6, weighted_costs=True):
    m = int(rng.integers(1, m_max + 1))
    r = int(rng.integers(1, r_max + 1))
    alpha = rng.uniform(0.1, 1.0, m)
    q, D = [], []
    for i in range(m):
        s = int(rng.integers(1, s_max + 1))
        q.append(rng.dirichlet(np.ones(s)))
        base = rng.uniform(0.0, 1.0, (r, s))
        D.append(alpha[i] * base if weighted_costs else base)
    return BarycenterProblem(q=q, D=D, alpha=alpha)


class TestBarycenterLP:
    def test_single_measure_zero_cost(self):
        prob = BarycenterProblem(q=[np.array([0.3, 0.7])],
                                 D=[np.zeros((3, 2))], alpha=np.array([1.0]))
        obj, _, _ = lone_barycenter(prob)
        assert obj == pytest.approx(0.0, abs=1e-12)

    def test_single_support_point_fully_constrained(self):
        rng = np.random.default_rng(2)
        q = [rng.dirichlet(np.ones(4)) for _ in range(3)]
        D = [rng.uniform(0, 1, (1, 4)) for _ in range(3)]
        prob = BarycenterProblem(q=q, D=D, alpha=np.ones(3))
        obj, _, p = lone_barycenter(prob)
        expected = sum(float(d[0] @ qm) for d, qm in zip(D, q))
        assert obj == pytest.approx(expected, abs=1e-9)
        assert p == pytest.approx([1.0])

    def test_matches_grid_oracle_2x2x2(self):
        # Grid p over the 2-simplex and solve both transports per grid point
        # with the closed-form 2x2 enumeration; fully independent of the LP.
        rng = np.random.default_rng(3)
        for _ in range(5):
            q = [rng.dirichlet([1, 1]) for _ in range(2)]
            D = [rng.uniform(0, 1, (2, 2)) for _ in range(2)]
            prob = BarycenterProblem(q=q, D=D, alpha=np.ones(2))
            obj, _, _ = lone_barycenter(prob)
            best = np.inf
            for p1 in np.arange(0.0, 1.0 + 1e-12, 1e-3):
                p = np.array([p1, 1.0 - p1])
                total = sum(brute_force_transport_2x2(p, qm, dm)
                            for qm, dm in zip(q, D))
                best = min(best, total)
            assert obj == pytest.approx(best, abs=1e-3)

    def test_plans_satisfy_marginals(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            prob = random_problem(rng)
            obj, plans, p = lone_barycenter(prob)
            assert column_marginal_error(plans, prob) < 1e-9
            assert row_marginal_error(plans, p) < 1e-9
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert obj >= -1e-12

    def test_upper_bounded_by_any_fixed_p(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            prob = random_problem(rng)
            obj, _, _ = lone_barycenter(prob)
            p = rng.dirichlet(np.ones(prob.R))
            fixed = sum(lone_transport(p, qm, dm)[0]
                        for qm, dm in zip(prob.q, prob.D))
            assert obj <= fixed + 1e-9

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            BarycenterProblem(q=[np.array([1.0])], D=[np.zeros((1, 1))],
                              alpha=np.array([0.0])).validate()


class TestBarycenterBatch:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 5).flatmap(barycenter_problems))
    def test_lone_problem_is_the_reference_lp(self, prob):
        c, a_eq, b_eq, point, atom = reference_barycenter_lp(prob)
        sol = barycenter_batch(prob)
        x = np.concatenate([sol.p[0], sol.plans[point, atom]])
        assert_optimal_vertex(x, c, a_eq, b_eq, [0, c.shape[0]])

    @pytest.mark.parametrize("max_rows", [512, 20])
    @settings(max_examples=60, deadline=None)
    @given(problems=problem_lists(r_values=(3, 4, 5)))
    # The only nonzero cost, 5e-10, is below HiGHS's 1e-9 dual tolerance
    # unless the costs are scaled: packed, the first problem then came back
    # at 2.5e-10, alone at its optimum 0.
    @example(problems=[
        BarycenterProblem([np.array([0.0, 0.5, 0.5]), np.array([0.5, 0.5, 0.0])],
                          [np.diag([0.0, 0.0, 5e-10]), np.zeros((3, 3))], np.ones(2)),
        BarycenterProblem([np.array([2 / 3, 0.0, 1 / 3]), np.array([0.2, 0.4, 0.4])],
                          [np.zeros((3, 3)), np.zeros((3, 3))], np.ones(2))])
    # The last problem's only nonzero cost, 5e-9, is scaled by the cost of 4
    # in the problem before it to 6.25e-10 when the pack shares one scale:
    # packed, it then came back at 1.25e-9, alone at its optimum 0.
    @example(problems=[
        BarycenterProblem([np.array([1 / 3, 2 / 3])], [np.zeros((4, 2))], np.ones(1)),
        BarycenterProblem([np.array([0.5, 0.5])],
                          [np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 4.0], [0.0, 0.0]])],
                          np.ones(1)),
        BarycenterProblem([np.array([0.25, 0.75]), np.array([0.25, 0.75]), np.array([1.0])],
                          [np.zeros((4, 2)), np.zeros((4, 2)),
                           np.array([[0.0], [0.0], [5e-9], [0.0]])],
                          np.array([0.0, 0.0, 0.5]))])
    # The third problem's costs are 8 and 1e-8.  Scaled by 2**-4, the smaller
    # one is 6.25e-10, below HiGHS's 1e-9 dual tolerance even with each
    # problem scaled on its own: packed, that problem came back at 5e-9,
    # alone at its optimum 0.
    @example(problems=[
        BarycenterProblem([np.array([1.0])], [np.zeros((5, 1))], np.ones(1)),
        BarycenterProblem([np.array([1.0, 0.0])], [np.zeros((5, 2))], np.ones(1)),
        BarycenterProblem([np.array([0.0, 0.0, 0.0, 0.5, 0.5]), np.array([0.0, 0.5, 0.5])],
                          [np.pad([[8.0, 1e-8]], ((3, 1), (3, 0))), np.zeros((5, 3))],
                          np.array([1.0, 0.0])),
        BarycenterProblem([np.array([0.5, 0.5]), np.array([1.0]), np.array([0.5, 0.5])],
                          [np.zeros((5, 2)), np.zeros((5, 1)), np.zeros((5, 2))],
                          np.array([1.0, 0.0, 0.0]))])
    def test_packed_problems_match_lone_solves(self, problems, max_rows):
        batch = stack(problems)
        rows = [p.atom_ptr[-1] + p.R * p.M + 1 for p in problems]
        # Greedy packing: a problem joins the open LP while it fits.
        expected, load = 0, max_rows
        for n in rows:
            if load + n > max_rows:
                expected, load = expected + 1, 0
            load += n
        calls = []
        real = ot_core._highs

        def counting(*args):
            calls.append(args[5].shape[0])
            return real(*args)

        with mock.patch.object(ot_core, "_LP_MAX_ROWS", max_rows), \
                mock.patch.object(ot_core, "_highs", counting):
            sol = barycenter_batch(batch)
            assert len(calls) == expected and sum(calls) == sum(rows)
            for k, prob in enumerate(problems):
                lo, hi = batch.atom_ptr[batch.measure_ptr[k:k + 2]]
                plans = sol.plans[:, lo:hi]
                obj, _, _ = lone_barycenter(prob)
                # Each solve stops at a basis whose scaled reduced costs are
                # >= -tol, so it is within tol * 2**e per unit of variable
                # mass of the optimum: M plans and p, of mass 1 each.
                tol = math.ldexp(ot_core._FEASIBILITY_TOL * (prob.M + 1),
                                 math.frexp(prob.cost.max())[1])
                assert plan_cost(batch, sol)[k] == pytest.approx(obj, rel=1e-9, abs=tol)
                assert np.all(sol.p[k] >= 0.0) and abs(sol.p[k].sum() - 1.0) <= 1e-9
                assert np.max(np.abs(plans.sum(axis=0) - prob.mass)) <= 1e-9
                for plan in prob.split(plans):
                    assert np.max(np.abs(plan.sum(axis=1) - sol.p[k])) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(problems=problem_lists(r_values=(3, 4, 5)),
           scale=st.floats(2.0 ** -40, 2.0 ** 20))
    def test_objective_is_homogeneous_in_the_cost_scale(self, problems, scale):
        batch = stack(problems)
        base = plan_cost(batch, barycenter_batch(batch))
        scaled_batch = BarycenterBatch(batch.mass, batch.cost * scale, batch.alpha,
                                       batch.atom_ptr, batch.measure_ptr)
        scaled = plan_cost(scaled_batch, barycenter_batch(scaled_batch))
        assert scaled / scale == pytest.approx(base, rel=1e-9)


@st.composite
def transport_problem_sets(draw):
    """1-4 transport problems that HiGHS solves: no side has two atoms."""
    sizes = draw(st.lists(st.tuples(st.sampled_from((1, 3, 4, 5)), st.sampled_from((1, 3, 4, 5))),
                          min_size=1, max_size=4))
    row_mass = np.concatenate([weights(draw, r) for r, _ in sizes])
    col_mass = np.concatenate([weights(draw, s) for _, s in sizes])
    n = sum(r * s for r, s in sizes)
    cost = np.array(draw(st.lists(costs, min_size=n, max_size=n)))
    return sizes, row_mass, col_mass, cost


def recorded_highs_calls(solve, *args):
    """``solve(*args)`` with every call of ``ot_core._highs`` and its result recorded."""
    calls = []
    real = ot_core._highs

    def recording(*call):
        calls.append((call, real(*call)))
        return calls[-1][1]

    with mock.patch.object(ot_core, "_highs", recording):
        solve(*args)
    return calls


class TestHighsSolve:
    """``_highs`` against ``linprog``: same matrix, an optimal vertex of it."""

    @staticmethod
    def assert_matches_scipy(call, result, a_eq):
        (_, cost, start, index, value, b_eq, var_ptr, _), x = call, result
        a_eq.sort_indices()
        assert np.array_equal(start, a_eq.indptr)
        assert np.array_equal(index, a_eq.indices)
        assert np.array_equal(value, a_eq.data)
        assert_optimal_vertex(x, cost, a_eq, b_eq, var_ptr)

    @settings(max_examples=60, deadline=None)
    @given(transport_problem_sets())
    def test_transport_lp(self, case):
        sizes, row_mass, col_mass, cost = case
        row_ptr = np.concatenate(([0], np.cumsum([r for r, _ in sizes])))
        col_ptr = np.concatenate(([0], np.cumsum([s for _, s in sizes])))
        [(call, result)] = recorded_highs_calls(transport_lp, row_mass, row_ptr,
                                                col_mass, col_ptr, cost)
        assert call[0] == "transport"
        assert np.array_equal(call[1], cost)
        assert np.array_equal(call[5], np.concatenate([row_mass, col_mass]))
        assert np.array_equal(call[6], np.cumsum([0] + [r * s for r, s in sizes]))
        self.assert_matches_scipy(call, result, transport_matrix(sizes))

    @settings(max_examples=60, deadline=None)
    @given(problem_lists(r_values=(3, 4, 5)))
    def test_barycenter_lp(self, problems):
        [(call, result)] = recorded_highs_calls(barycenter_batch, stack(problems))
        c, a_eq, b_eq, _, _ = zip(*map(reference_barycenter_lp, problems))
        assert call[0] == "barycenter"
        assert np.array_equal(call[1], np.concatenate(c))
        assert np.array_equal(call[5], np.concatenate(b_eq))
        assert np.array_equal(call[6], np.cumsum([0] + [ci.shape[0] for ci in c]))
        self.assert_matches_scipy(call, result, sparse.block_diag(a_eq, format="csc"))

    def test_one_option_set(self):
        # Every LP runs the dual simplex without presolve, with Devex pricing
        # and both tolerances at 1e-9; LP_OPTIONS asks linprog for the same.
        core, options = ot_core._highs_binding()
        constants = core.simplex_constants
        assert options.presolve == "off"
        assert options.solver == "simplex"
        assert options.simplex_strategy == int(constants.SimplexStrategy.kSimplexStrategyDual)
        assert options.simplex_dual_edge_weight_strategy == int(
            constants.SimplexEdgeWeightStrategy.kSimplexEdgeWeightStrategyDevex)
        assert options.primal_feasibility_tolerance == 1e-9
        assert options.dual_feasibility_tolerance == 1e-9
        assert not options.output_flag and not options.log_to_console
        assert LP_OPTIONS == {"presolve": False, "simplex_dual_edge_weight_strategy": "devex",
                              "primal_feasibility_tolerance": 1e-9,
                              "dual_feasibility_tolerance": 1e-9}

    @settings(max_examples=60, deadline=None)
    @given(transport_problem_sets())
    @example(([(4, 5)], np.array([0.5, 0.0, 0.0, 0.5]), np.array([0.0, 0.0, 0.0, 0.5, 0.5]),
              np.array([0.0] * 4 + [1e-8] + [0.0] * 12 + [8.0] + [0.0] * 2)))
    def test_transport_values_match_presolved_reference(self, case):
        # Each problem alone, scaled as _highs scales it, by linprog with
        # presolve on and its default pricing.  Either solve stops at a basis
        # whose scaled reduced costs are >= -tol, which is within tol * 2**e
        # of the optimum for a unit mass: the two may differ by that much
        # where costs nearly tie (the example: presolve on routes half the
        # mass at cost 1e-8, off finds the zero-cost plan), and by no more.
        sizes, row_mass, col_mass, cost = case
        row_ptr = np.concatenate(([0], np.cumsum([r for r, _ in sizes])))
        col_ptr = np.concatenate(([0], np.cumsum([s for _, s in sizes])))
        var_ptr = np.concatenate(([0], np.cumsum([r * s for r, s in sizes])))
        values, _ = transport_lp(row_mass, row_ptr, col_mass, col_ptr, cost)
        for k, (r, s) in enumerate(sizes):
            c = cost[var_ptr[k]:var_ptr[k + 1]]
            _, ref = scaled_linprog(
                PRESOLVED_OPTIONS, c, transport_matrix([(r, s)]), np.concatenate(
                    [row_mass[row_ptr[k]:row_ptr[k + 1]], col_mass[col_ptr[k]:col_ptr[k + 1]]]))
            tol = math.ldexp(ot_core._FEASIBILITY_TOL, math.frexp(c.max())[1])
            assert values[k] == pytest.approx(ref, rel=1e-12, abs=tol)

    @settings(max_examples=60, deadline=None)
    @given(problem_lists(r_values=(3, 4, 5)))
    def test_barycenter_values_match_presolved_reference(self, problems):
        # As above for barycenters: every problem of a packed solve against
        # the problem alone under the presolved reference setting.
        batch = stack(problems)
        values = plan_cost(batch, barycenter_batch(batch))
        for k, prob in enumerate(problems):
            c, a_eq, b_eq, _, _ = reference_barycenter_lp(prob)
            _, ref = scaled_linprog(PRESOLVED_OPTIONS, c, a_eq, b_eq)
            tol = math.ldexp(ot_core._FEASIBILITY_TOL, math.frexp(c.max())[1])
            assert values[k] == pytest.approx(ref, rel=1e-12, abs=tol)

    def test_infeasible_lp_raises(self):
        # One plan entry whose row sum asks for 1 and column sum for 2.
        with pytest.raises(RuntimeError, match="transport LP failed"):
            ot_core._highs("transport", np.ones(1), np.array([0, 2]), np.array([0, 1]),
                           np.ones(2), np.array([1.0, 2.0]), np.array([0, 1]), np.array([0]))

    def test_non_finite_cost_raises(self):
        with pytest.raises(ValueError, match="must be finite"):
            ot_core._highs("transport", np.array([np.inf]), np.array([0, 2]),
                           np.array([0, 1]), np.ones(2), np.array([1.0, 1.0]), np.array([0, 1]),
                           np.array([0]))


def atom_rows(problems):
    """The rows of every problem's atoms in the barycenter LP that packs them."""
    offset = np.cumsum([0] + [p.atom_ptr[-1] + p.R * p.M + 1 for p in problems])
    return np.concatenate([lo + np.arange(p.atom_ptr[-1]) for lo, p in zip(offset, problems)])


class TestCrashBasis:
    """The basis every HiGHS solve starts from: one cheapest column per
    transport row or barycenter atom, every other row's logical basic."""

    @staticmethod
    def assert_crash_basis(call, crash_rows):
        _, cost, start, index, value, b_eq, _, basic = call
        m = b_eq.shape[0]
        a = sparse.csc_matrix((value, index, start), shape=(m, cost.shape[0]))
        rows = index[start[basic]]
        assert np.array_equal(np.sort(rows), crash_rows)
        logical = np.setdiff1d(np.arange(m), rows)
        assert basic.shape[0] + logical.shape[0] == m
        by_row = a.tocsr()
        for i, j in zip(rows, basic):
            cols = np.sort(by_row.indices[by_row.indptr[i]:by_row.indptr[i + 1]])
            assert j == cols[np.argmin(cost[cols])]
        basis = sparse.hstack([a[:, basic], sparse.eye(m, format="csc")[:, logical]])
        assert np.linalg.matrix_rank(basis.toarray()) == m
        # With the other logicals basic, the duals are each basic column's
        # cost on its row and 0 elsewhere.
        y = np.zeros(m)
        y[rows] = cost[basic]
        reduced = cost - a.T @ y
        assert np.all(reduced >= 0.0) and np.all(reduced[basic] == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(transport_problem_sets())
    @example(([(3, 3), (1, 4)], np.array([0.5, 0.0, 0.5, 1.0]),
              np.array([0.0, 1.0, 0.0, 0.25, 0.25, 0.0, 0.5]), np.zeros(13)))
    def test_transport_rows(self, case):
        sizes, row_mass, col_mass, cost = case
        row_ptr = np.concatenate(([0], np.cumsum([r for r, _ in sizes])))
        col_ptr = np.concatenate(([0], np.cumsum([s for _, s in sizes])))
        [(call, _)] = recorded_highs_calls(transport_lp, row_mass, row_ptr,
                                           col_mass, col_ptr, cost)
        self.assert_crash_basis(call, np.arange(row_ptr[-1]))

    @settings(max_examples=60, deadline=None)
    @given(problem_lists(r_values=(3, 4, 5)))
    @example([BarycenterProblem([np.array([0.5, 0.0, 0.5]), np.array([1.0])],
                                [np.zeros((3, 3)), np.zeros((3, 1))], np.ones(2))])
    def test_barycenter_atoms(self, problems):
        [(call, _)] = recorded_highs_calls(barycenter_batch, stack(problems))
        self.assert_crash_basis(call, atom_rows(problems))

    def test_halves_the_iterations_of_the_slack_start(self):
        # One barycenter LP of the size the deep-lp benchmark workload
        # solves: 36 measures of 6 atoms on 3 support points, 325 rows.
        rng = np.random.default_rng(0)
        prob = BarycenterProblem([rng.dirichlet(np.ones(6)) for _ in range(36)],
                                 [rng.uniform(0.0, 1.0, (3, 6)) for _ in range(36)], np.ones(36))
        [(call, _)] = recorded_highs_calls(barycenter_batch, prob)
        assert call[5].shape == (325,)
        core, _ = ot_core._highs_binding()
        iterations = []

        class Counting(core._Highs):
            def run(self):
                status = super().run()
                iterations.append(self.getInfo().simplex_iteration_count)
                return status

        with mock.patch.object(core, "_Highs", Counting):
            crash = ot_core._highs(*call)
            slack = ot_core._highs(*call[:7], np.zeros(0, dtype=int))
        assert call[1] @ crash == pytest.approx(call[1] @ slack, rel=1e-12)
        assert 2 * iterations[0] <= iterations[1]


def test_scipy_has_the_highs_entry_points():
    # _highs needs two private entry points of SciPy's HiGHS binding: the
    # 15-argument array overload of passModel and setBasis(HighsBasis).
    # Solve min x over x = 1 through both, from the basis of x.
    core, options = ot_core._highs_binding()
    highs = core._Highs()
    highs.passOptions(options)
    one = np.ones(1)
    try:
        passed = highs.passModel(
            1, 1, 1, int(core.MatrixFormat.kColwise), int(core.ObjSense.kMinimize), 0.0,
            one, np.zeros(1), np.full(1, np.inf), one, one, np.array([0, 1], dtype=np.int32),
            np.zeros(1, dtype=np.int32), one, np.zeros(1, dtype=np.int32))
    except TypeError:
        pytest.fail(f"SciPy {scipy.__version__}: its HiGHS binding has no array passModel")
    try:
        basis = core.HighsBasis()
        basis.col_status = [core.HighsBasisStatus.kBasic]
        basis.row_status = [core.HighsBasisStatus.kLower]
        set_basis = highs.setBasis(basis)
    except (AttributeError, TypeError):
        pytest.fail(f"SciPy {scipy.__version__}: its HiGHS binding has no setBasis(HighsBasis)")
    assert passed == set_basis == highs.run() == core.HighsStatus.kOk
    assert list(highs.getSolution().col_value) == [1.0]
    assert highs.getInfo().simplex_iteration_count == 0


class TestProjection:
    """The scalar reference projection that the MAM kernel's tests use."""

    def test_analytic_shift(self):
        assert project_scaled_simplex(np.array([0.2, 0.9]), 1.0) == \
            pytest.approx([0.15, 0.85])

    def test_feasible_point_unchanged(self):
        y = np.array([0.1, 0.4, 0.5])
        assert project_scaled_simplex(y, 1.0) == pytest.approx(y)

    def test_zero_mass(self):
        assert project_scaled_simplex(np.array([3.0, -1.0]), 0.0) == \
            pytest.approx([0.0, 0.0])

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            project_scaled_simplex(np.array([1.0]), -0.5)

    def test_matches_active_set_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            y = rng.uniform(-2, 2, n)
            tau = float(rng.uniform(0, 2))
            x = project_scaled_simplex(y, tau)
            assert x == pytest.approx(brute_force_projection(y, tau), abs=1e-10)
            assert x.sum() == pytest.approx(tau, abs=1e-12)
            assert np.all(x >= 0)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            y = rng.uniform(-1, 1, 5)
            x = project_scaled_simplex(y, 1.0)
            assert project_scaled_simplex(x, 1.0) == pytest.approx(x, abs=1e-12)

    def test_one_lipschitz(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            y = rng.uniform(-1, 1, 6)
            z = rng.uniform(-1, 1, 6)
            py = project_scaled_simplex(y, 1.0)
            pz = project_scaled_simplex(z, 1.0)
            assert np.linalg.norm(py - pz) <= np.linalg.norm(y - z) + 1e-12


class TestValidate:
    Q = (np.array([0.5, 0.5]), np.array([1.0]), np.array([0.2, 0.3, 0.5]))

    def problem(self, r=2, q=Q, D=None):
        D = [np.ones((r, qm.shape[0])) for qm in q] if D is None else D
        return BarycenterProblem(q=list(q), D=D, alpha=np.ones(3))

    @pytest.mark.parametrize("r", [2, 3])
    def test_valid_problem_passes(self, r):
        self.problem(r).validate()

    def test_cost_shape_names_first_measure(self):
        D = [np.ones((2, 2)), np.ones((2, 2)), np.ones((3, 3))]
        with pytest.raises(ValueError, match=r"measure 1: cost shape \(2, 2\) != \(2, 1\)"):
            self.problem(D=D).validate()

    def test_marginal_names_first_measure(self):
        q = list(self.Q)
        q[2] = np.array([0.2, 0.3, 0.4])
        with pytest.raises(ValueError, match="measure 2: marginal"):
            self.problem(q=q).validate()
        q[1] = np.array([-1e-9])
        with pytest.raises(ValueError, match="measure 1: marginal"):
            self.problem(q=q).validate()
        q = list(self.Q)
        q[0] = np.array([1.0 + 1e-10, -1e-10])
        with pytest.raises(ValueError, match="measure 0: marginal"):
            self.problem(q=q).validate()

    def test_negative_cost_names_first_measure(self):
        D = [np.ones((3, qm.shape[0])) for qm in self.Q]
        D[2][1, 2] = -1.0
        D[1][0, 0] = -1e-15
        with pytest.raises(ValueError, match="measure 1: negative transport costs"):
            self.problem(3, D=D).validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_marginal_names_measure(self, bad):
        q = list(self.Q)
        q[2] = np.array([0.5, bad, 0.5])
        with pytest.raises(ValueError, match="measure 2: marginal"):
            self.problem(q=q).validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cost_names_first_measure(self, bad):
        D = [np.ones((3, qm.shape[0])) for qm in self.Q]
        D[2][1, 2] = np.nan
        D[1][2, 0] = bad
        D[0][0, 0] = -1.0
        with pytest.raises(ValueError, match="measure 1: non-finite transport costs"):
            self.problem(3, D=D).validate()

    @pytest.mark.parametrize("solve", [barycenter_batch, mam_batch, ibp_batch])
    @pytest.mark.parametrize("r", [2, 3])
    def test_solvers_reject_non_finite_input(self, solve, r):
        q = list(self.Q)
        q[0] = np.array([np.nan, 1.0])
        with pytest.raises(ValueError, match="measure 0: marginal"):
            solve(self.problem(r, q=q))
        for bad in (np.nan, np.inf):
            D = [np.ones((r, qm.shape[0])) for qm in self.Q]
            D[1][0, 0] = bad
            with pytest.raises(ValueError, match="measure 1: non-finite transport costs"):
                solve(self.problem(r, D=D))

    def test_batch_names_problem_and_measure(self):
        q = list(self.Q)
        q[2] = np.array([0.2, 0.3, 0.4])
        batch = BarycenterBatch(np.concatenate(q * 2), np.ones((2, 12)), np.ones(6),
                                np.array([0, 2, 3, 6, 8, 9, 12]), np.array([0, 2, 6]))
        with pytest.raises(ValueError, match="problem 1, measure 0: marginal"):
            batch.validate()
        batch.mass[5] = batch.mass[11] = 0.5
        batch.alpha[:2] = 0.0
        with pytest.raises(ValueError, match="not all zero"):
            batch.validate()


def contract_batch(r):
    """Three problems on ``r`` support points, ragged in measures and atoms,
    with one zero-mass atom and one zero-weight measure."""
    rng = np.random.default_rng(r)
    problems = []
    for sizes, alpha in (((3,), [1.0]), ((1, 4), [0.5, 2.0]), ((2, 2, 5), [1.0, 0.0, 0.7])):
        q = [rng.dirichlet(np.ones(n)) for n in sizes]
        q[-1][0] = 0.0
        q[-1] /= q[-1].sum()
        D = [a * rng.uniform(0, 1, (r, n)) for a, n in zip(alpha, sizes)]
        problems.append(BarycenterProblem(q=q, D=D, alpha=np.array(alpha)))
    return stack(problems)


@pytest.mark.parametrize("solve", [barycenter_batch, mam_batch, ibp_batch])
@pytest.mark.parametrize("r", [2, 3])
def test_solvers_share_one_result_contract(solve, r):
    # The three solvers are interchangeable in the probability step: each
    # returns the same four fields, feasible plans and barycenters.
    batch = contract_batch(r)
    sol = solve(batch)
    assert type(sol) is BatchSolution
    assert [field.name for field in dataclasses.fields(sol)] == [
        "p", "plans", "iterations", "converged"]
    assert sol.p.shape == (batch.P, r)
    assert sol.plans.shape == (r, batch.atom_ptr[-1])
    assert sol.iterations.shape == sol.converged.shape == (batch.P,)
    assert sol.iterations.dtype.kind == "i" and sol.converged.dtype == bool
    assert np.max(np.abs(sol.plans.sum(axis=0) - batch.mass)) <= 1e-12
    assert np.all(sol.p >= 0.0)
    assert np.max(np.abs(sol.p.sum(axis=1) - 1.0)) <= 1e-9


@st.composite
def two_atom_problem_sets(draw):
    """1-4 transport problems, each with two atoms on one side and 1-5 on the other.

    Returns ``(problems, args)``: per problem ``(a, b, cost, wide)`` with the
    other side's masses ``a``, the two-atom side's ``b``, an (n, 2) cost and
    whether the two atoms are the rows; ``args`` are the arguments of
    :func:`transport_lp`.
    """
    problems = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 5))
        cost = np.array(draw(st.lists(costs, min_size=2 * n, max_size=2 * n))).reshape(n, 2)
        # A 2 x 2 problem has its two atoms in the columns, as the solver sees it.
        wide = draw(st.booleans()) and n != 2
        problems.append((weights(draw, n), weights(draw, 2), cost, wide))
    rows = [b if wide else a for a, b, _, wide in problems]
    cols = [a if wide else b for a, b, _, wide in problems]
    ptr = lambda parts: np.concatenate(([0], np.cumsum([p.shape[0] for p in parts])))
    flat = np.concatenate([(c.T if wide else c).ravel() for _, _, c, wide in problems])
    return problems, (np.concatenate(rows), ptr(rows), np.concatenate(cols), ptr(cols), flat)


class TestTwoAtomTransport:
    @staticmethod
    def solve(problems, args):
        """The value and the (n, 2) plan of every problem."""
        values, x = transport_lp(*args)
        out, off = [], 0
        for (a, _, _, wide), value in zip(problems, values):
            n = a.shape[0]
            plan = x[off:off + 2 * n]
            out.append((value, plan.reshape(2, n).T if wide else plan.reshape(n, 2)))
            off += 2 * n
        return out

    @settings(max_examples=150, deadline=None)
    @given(two_atom_problem_sets())
    def test_plans_feasible_and_certified(self, case):
        problems, args = case
        for (a, b, cost, _), (value, plan) in zip(problems, self.solve(*case)):
            assert np.all(plan >= 0.0)
            assert np.max(np.abs(plan.sum(axis=1) - a)) <= 1e-15
            assert np.max(np.abs(plan.sum(axis=0) - b)) <= 1e-15
            assert value == pytest.approx(np.sum(cost * plan), rel=1e-15, abs=1e-15)
            # Threshold certificate: every atom that sends anything to the
            # first column is at most as dear (in d) as any atom that is not full.
            d = cost[:, 0] - cost[:, 1]
            sends, not_full = plan[:, 0] > 0.0, plan[:, 0] < a
            if sends.any() and not_full.any():
                assert d[sends].max() <= d[not_full].min()

    @settings(max_examples=150, deadline=None)
    @given(two_atom_problem_sets())
    def test_values_match_vertex_enumeration_and_highs(self, case):
        problems, _ = case
        for (a, b, cost, wide), (value, _) in zip(problems, self.solve(*case)):
            exact = enumerate_two_column_vertices(a, b[0], cost)
            assert value == pytest.approx(exact, rel=1e-12, abs=1e-12)
            ref = highs_transport(b, a, cost.T) if wide else highs_transport(a, b, cost)
            assert value == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_no_lp_for_two_atom_sides(self, monkeypatch):
        monkeypatch.setattr(ot_core, "_highs", None)
        cost, plan = lone_transport([0.5, 0.5], [0.2, 0.3, 0.5],
                                    np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]]))
        assert cost == pytest.approx(0.3)
        assert plan == pytest.approx(np.array([[0.2, 0.3, 0.0], [0.0, 0.0, 0.5]]))


two_point_barycenters = partial(barycenter_problems, 2)


class TestTwoPointBarycenter:
    @settings(max_examples=150, deadline=None)
    @given(two_point_barycenters())
    def test_plans_feasible(self, prob):
        obj, plans, p = lone_barycenter(prob)
        assert np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-15
        assert all(np.all(plan >= 0.0) for plan in plans)
        assert column_marginal_error(plans, prob) <= 1e-15
        assert row_marginal_error(plans, p) <= 1e-15
        assert obj == pytest.approx(sum(np.sum(d * pl) for d, pl in zip(prob.D, plans)),
                                    rel=1e-15, abs=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(two_point_barycenters())
    def test_matches_breakpoint_enumeration_and_highs(self, prob):
        # The summed cost is piecewise linear in p_1 with breaks at subset
        # sums of each marginal, so its minimum is at one of them.
        obj, _, _ = lone_barycenter(prob)
        candidates = {min(float(sum(c)), 1.0) for qm in prob.q
                      for k in range(qm.shape[0] + 1)
                      for c in itertools.combinations(qm, k)}
        exact = min(sum(enumerate_two_column_vertices(qm, p1, dm.T)
                        for qm, dm in zip(prob.q, prob.D)) for p1 in candidates)
        assert obj == pytest.approx(exact, rel=1e-12, abs=1e-12)
        assert obj == pytest.approx(highs_barycenter(prob.q, prob.D), rel=1e-8, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(problem_lists(r_values=(2,)))
    def test_batch_matches_each_problem_and_highs(self, problems):
        # Every problem's slope events fill their own row, so the batch
        # gives each problem what it gets alone, bit for bit.
        batch = stack(problems)
        sol = two_atom_barycenter(batch)
        values = plan_cost(batch, sol)
        for k, prob in enumerate(problems):
            lo, hi = batch.atom_ptr[batch.measure_ptr[k:k + 2]]
            one = two_atom_barycenter(prob)
            assert np.array_equal(sol.p[k], one.p[0])
            assert np.array_equal(sol.plans[:, lo:hi], one.plans)
            assert values[k] == plan_cost(prob, one)[0]
            assert values[k] == pytest.approx(highs_barycenter(prob.q, prob.D),
                                                     rel=1e-8, abs=1e-12)

    def test_no_lp(self, monkeypatch):
        monkeypatch.setattr(ot_core, "_highs", None)
        prob = BarycenterProblem(q=[np.array([0.5, 0.5]), np.array([1.0])],
                                 D=[np.array([[0.0, 4.0], [4.0, 0.0]]), np.array([[0.0], [1.0]])],
                                 alpha=np.ones(2))
        obj, _, p = lone_barycenter(prob)
        # The summed slope in p_1 is -4 - 1 up to 0.5 and 4 - 1 beyond.
        assert obj == pytest.approx(0.5)
        assert p == pytest.approx([0.5, 0.5])

