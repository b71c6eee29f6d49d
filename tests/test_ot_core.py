import itertools
import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.optimize import linprog

from batches import barycenter_problems, costs, problem_lists, stack, weights
from treeshrink import ot_core
from treeshrink.ot_core import (BarycenterBatch, BarycenterProblem, barycenter_batch,
                                barycenter_lp, block_entries,
                                project_columns_scaled_simplex, transport_lp,
                                two_atom_barycenter, wasserstein_lp)


def project_scaled_simplex(y, tau):
    """Reference: Euclidean projection of ``y`` onto {x >= 0 : sum(x) = tau}.

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


def column_marginal_error(plan_set, problem):
    """Largest gap between a plan's column sums and its measure's marginal."""
    return max(float(np.max(np.abs(pl.sum(axis=0) - qm)))
               for pl, qm in zip(plan_set.plans, problem.q))


def row_marginal_error(plan_set):
    """Largest gap between a plan's row sums and the barycenter."""
    return max(float(np.max(np.abs(pl.sum(axis=1) - plan_set.p))) for pl in plan_set.plans)


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


def lp_options(kind):
    """The ``linprog`` options of the solve ``ot_core._highs`` makes for an LP kind."""
    return {"presolve": ot_core._PRESOLVE[kind] == "on",
            "primal_feasibility_tolerance": ot_core._FEASIBILITY_TOL,
            "dual_feasibility_tolerance": ot_core._FEASIBILITY_TOL}


def scaled_linprog(options, c, a_eq, b_eq, var_ptr=None):
    """The solve ``ot_core._highs`` makes, through scipy's public API, with the
    given ``linprog`` options (:func:`lp_options` of the LP kind).

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


def reference_highs_barycenter(problem):
    """One problem's barycenter LP as a HiGHS LP of its own: the plain LP
    that a pack of one in :func:`barycenter_batch` must reproduce.

    Returns ``(objective, p, plans)`` with the plans laid out like the costs.
    """
    c, a_eq, b_eq, point, atom = reference_barycenter_lp(problem)
    x, fun = scaled_linprog(lp_options("barycenter"), c, a_eq, b_eq)
    r = problem.R
    plans = np.empty((r, problem.atom_ptr[-1]))
    plans[point, atom] = x[r:]
    return fun, x[:r], plans


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
        cost, plan = wasserstein_lp([1.0], [1.0], np.array([[0.0]]))
        assert cost == 0.0
        assert plan == pytest.approx(np.array([[1.0]]))

    def test_forced_plan(self):
        cost, _ = wasserstein_lp([1.0], [1.0], np.array([[9.0]]))
        assert cost == pytest.approx(9.0)

    def test_shifted_halves(self):
        # supports {0,1} vs {1,2}, squared ground cost
        D = np.array([[1.0, 4.0], [0.0, 1.0]])
        cost, plan = wasserstein_lp([0.5, 0.5], [0.5, 0.5], D)
        assert cost == pytest.approx(1.0)
        assert plan.sum(axis=1) == pytest.approx([0.5, 0.5])
        assert plan.sum(axis=0) == pytest.approx([0.5, 0.5])

    def test_matches_grid_oracle_on_random_2x2(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.dirichlet([1, 1])
            q2 = rng.dirichlet([1, 1])
            D = rng.uniform(0, 5, (2, 2))
            cost, _ = wasserstein_lp(q, q2, D)
            assert cost == pytest.approx(brute_force_transport_2x2(q, q2, D), abs=1e-9)

    def test_transport_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            q = rng.dirichlet(np.ones(4))
            q2 = rng.dirichlet(np.ones(3))
            D = rng.uniform(0, 1, (4, 3))
            c1, _ = wasserstein_lp(q, q2, D)
            c2, _ = wasserstein_lp(q2, q, D.T)
            assert c1 == pytest.approx(c2, abs=1e-9)

    def test_zero_mass_entries_kept(self):
        q = np.array([0.0, 1.0])
        q2 = np.array([0.5, 0.5])
        D = np.array([[5.0, 5.0], [1.0, 2.0]])
        cost, plan = wasserstein_lp(q, q2, D)
        assert plan[0] == pytest.approx([0.0, 0.0])
        assert cost == pytest.approx(1.5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            wasserstein_lp([0.5, 0.5], [1.0], np.zeros((3, 1)))


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
        obj, _ = barycenter_lp(prob)
        assert obj == pytest.approx(0.0, abs=1e-12)

    def test_single_support_point_fully_constrained(self):
        rng = np.random.default_rng(2)
        q = [rng.dirichlet(np.ones(4)) for _ in range(3)]
        D = [rng.uniform(0, 1, (1, 4)) for _ in range(3)]
        prob = BarycenterProblem(q=q, D=D, alpha=np.ones(3))
        obj, plan_set = barycenter_lp(prob)
        expected = sum(float(d[0] @ qm) for d, qm in zip(D, q))
        assert obj == pytest.approx(expected, abs=1e-9)
        assert plan_set.p == pytest.approx([1.0])

    def test_matches_grid_oracle_2x2x2(self):
        # Grid p over the 2-simplex and solve both transports per grid point
        # with the closed-form 2x2 enumeration; fully independent of the LP.
        rng = np.random.default_rng(3)
        for _ in range(5):
            q = [rng.dirichlet([1, 1]) for _ in range(2)]
            D = [rng.uniform(0, 1, (2, 2)) for _ in range(2)]
            prob = BarycenterProblem(q=q, D=D, alpha=np.ones(2))
            obj, _ = barycenter_lp(prob)
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
            obj, ps = barycenter_lp(prob)
            assert column_marginal_error(ps, prob) < 1e-9
            assert row_marginal_error(ps) < 1e-9
            assert ps.p.sum() == pytest.approx(1.0, abs=1e-9)
            assert obj >= -1e-12

    def test_upper_bounded_by_any_fixed_p(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            prob = random_problem(rng)
            obj, _ = barycenter_lp(prob)
            p = rng.dirichlet(np.ones(prob.R))
            fixed = sum(wasserstein_lp(p, qm, dm)[0]
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
        objective, p, plans = reference_highs_barycenter(prob)
        sol = barycenter_batch(prob)
        assert sol.objective.tobytes() == np.array([objective]).tobytes()
        assert sol.p.tobytes() == p[None, :].tobytes()
        assert sol.plans.tobytes() == plans.tobytes()

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
                obj, _ = barycenter_lp(prob)
                # Each solve stops at a basis whose scaled reduced costs are
                # >= -tol, so it is within tol * 2**e per unit of variable
                # mass of the optimum: M plans and p, of mass 1 each.
                tol = math.ldexp(ot_core._FEASIBILITY_TOL * (prob.M + 1),
                                 math.frexp(prob.cost.max())[1])
                assert sol.objective[k] == pytest.approx(obj, rel=1e-9, abs=tol)
                assert np.all(sol.p[k] >= 0.0) and abs(sol.p[k].sum() - 1.0) <= 1e-9
                assert np.max(np.abs(plans.sum(axis=0) - prob.mass)) <= 1e-9
                for plan in prob.split(plans):
                    assert np.max(np.abs(plan.sum(axis=1) - sol.p[k])) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(problems=problem_lists(r_values=(3, 4, 5)),
           scale=st.floats(2.0 ** -40, 2.0 ** 20))
    def test_objective_is_homogeneous_in_the_cost_scale(self, problems, scale):
        batch = stack(problems)
        base = barycenter_batch(batch).objective
        scaled = barycenter_batch(BarycenterBatch(
            batch.mass, batch.cost * scale, batch.alpha, batch.atom_ptr,
            batch.measure_ptr)).objective
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
    """``_highs`` against ``linprog``: same matrix, same solution."""

    @staticmethod
    def assert_matches_scipy(call, result, a_eq):
        (kind, cost, start, index, value, b_eq, var_ptr), (x, objective) = call, result
        a_eq.sort_indices()
        assert np.array_equal(start, a_eq.indptr)
        assert np.array_equal(index, a_eq.indices)
        assert np.array_equal(value, a_eq.data)
        ref_x, ref_objective = scaled_linprog(lp_options(kind), cost, a_eq, b_eq, var_ptr)
        assert x.tobytes() == ref_x.tobytes()
        assert objective == ref_objective

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

    def test_options_per_kind(self):
        # Transport LPs run the dual simplex without presolve, barycenter
        # LPs with it; everything else is the same for both.
        core, options = ot_core._highs_binding()
        assert set(options) == {"transport", "barycenter"}
        dual = int(core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
        for kind, presolve in (("transport", "off"), ("barycenter", "on")):
            opts = options[kind]
            assert opts.presolve == presolve
            assert opts.solver == "simplex" and opts.simplex_strategy == dual
            assert opts.primal_feasibility_tolerance == 1e-9
            assert opts.dual_feasibility_tolerance == 1e-9
            assert not opts.output_flag and not opts.log_to_console
        assert lp_options("transport") == {"presolve": False, "primal_feasibility_tolerance": 1e-9,
                                           "dual_feasibility_tolerance": 1e-9}
        assert lp_options("barycenter")["presolve"] is True

    @settings(max_examples=60, deadline=None)
    @given(transport_problem_sets())
    @example(([(4, 5)], np.array([0.5, 0.0, 0.0, 0.5]), np.array([0.0, 0.0, 0.0, 0.5, 0.5]),
              np.array([0.0] * 4 + [1e-8] + [0.0] * 12 + [8.0] + [0.0] * 2)))
    def test_transport_values_match_presolved_reference(self, case):
        # Each problem alone, scaled as _highs scales it, by linprog with
        # presolve on.  Either solve stops at a basis whose scaled reduced
        # costs are >= -tol, which is within tol * 2**e of the optimum for a
        # unit mass: the two may differ by that much where costs nearly tie
        # (the example: presolve on routes half the mass at cost 1e-8, off
        # finds the zero-cost plan), and by no more.
        sizes, row_mass, col_mass, cost = case
        row_ptr = np.concatenate(([0], np.cumsum([r for r, _ in sizes])))
        col_ptr = np.concatenate(([0], np.cumsum([s for _, s in sizes])))
        var_ptr = np.concatenate(([0], np.cumsum([r * s for r, s in sizes])))
        values, _ = transport_lp(row_mass, row_ptr, col_mass, col_ptr, cost)
        presolved = {**lp_options("transport"), "presolve": True}
        for k, (r, s) in enumerate(sizes):
            c = cost[var_ptr[k]:var_ptr[k + 1]]
            _, ref = scaled_linprog(presolved, c, transport_matrix([(r, s)]), np.concatenate(
                [row_mass[row_ptr[k]:row_ptr[k + 1]], col_mass[col_ptr[k]:col_ptr[k + 1]]]))
            tol = math.ldexp(ot_core._FEASIBILITY_TOL, math.frexp(c.max())[1])
            assert values[k] == pytest.approx(ref, rel=1e-12, abs=tol)

    def test_infeasible_lp_raises(self):
        # One plan entry whose row sum asks for 1 and column sum for 2.
        with pytest.raises(RuntimeError, match="transport LP failed"):
            ot_core._highs("transport", np.ones(1), np.array([0, 2]), np.array([0, 1]),
                           np.ones(2), np.array([1.0, 2.0]), np.array([0, 1]))

    def test_non_finite_cost_raises(self):
        with pytest.raises(ValueError, match="must be finite"):
            ot_core._highs("transport", np.array([np.inf]), np.array([0, 2]),
                           np.array([0, 1]), np.ones(2), np.array([1.0, 1.0]), np.array([0, 1]))


class TestProjection:
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

    def test_columns_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            project_columns_scaled_simplex(np.zeros((2, 3)), np.array([0.5, -0.1, 0.6]))

    def test_column_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        Y = rng.uniform(-2, 2, (5, 8))
        tau = rng.uniform(0, 1, 8)
        tau[3] = 0.0
        out = project_columns_scaled_simplex(Y, tau)
        for s in range(8):
            assert out[:, s] == pytest.approx(
                project_scaled_simplex(Y[:, s], tau[s]), abs=1e-12)


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
        cost, plan = wasserstein_lp([0.5, 0.5], [0.2, 0.3, 0.5],
                                    np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]]))
        assert cost == pytest.approx(0.3)
        assert plan == pytest.approx(np.array([[0.2, 0.3, 0.0], [0.0, 0.0, 0.5]]))


two_point_barycenters = partial(barycenter_problems, 2)


class TestTwoPointBarycenter:
    @settings(max_examples=150, deadline=None)
    @given(two_point_barycenters())
    def test_plans_feasible(self, prob):
        obj, ps = barycenter_lp(prob)
        assert np.all(ps.p >= 0.0) and abs(ps.p.sum() - 1.0) <= 1e-15
        assert all(np.all(plan >= 0.0) for plan in ps.plans)
        assert column_marginal_error(ps, prob) <= 1e-15
        assert row_marginal_error(ps) <= 1e-15
        assert obj == pytest.approx(sum(np.sum(d * pl) for d, pl in zip(prob.D, ps.plans)),
                                    rel=1e-15, abs=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(two_point_barycenters())
    def test_matches_breakpoint_enumeration_and_highs(self, prob):
        # The summed cost is piecewise linear in p_1 with breaks at subset
        # sums of each marginal, so its minimum is at one of them.
        obj, _ = barycenter_lp(prob)
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
        for k, prob in enumerate(problems):
            lo, hi = batch.atom_ptr[batch.measure_ptr[k:k + 2]]
            one = two_atom_barycenter(prob)
            assert np.array_equal(sol.p[k], one.p[0])
            assert np.array_equal(sol.plans[:, lo:hi], one.plans)
            assert sol.objective[k] == one.objective[0]
            assert sol.objective[k] == pytest.approx(highs_barycenter(prob.q, prob.D),
                                                     rel=1e-8, abs=1e-12)

    def test_no_lp(self, monkeypatch):
        monkeypatch.setattr(ot_core, "_highs", None)
        prob = BarycenterProblem(q=[np.array([0.5, 0.5]), np.array([1.0])],
                                 D=[np.array([[0.0, 4.0], [4.0, 0.0]]), np.array([[0.0], [1.0]])],
                                 alpha=np.ones(2))
        obj, ps = barycenter_lp(prob)
        # The summed slope in p_1 is -4 - 1 up to 0.5 and 4 - 1 beyond.
        assert obj == pytest.approx(0.5)
        assert ps.p == pytest.approx([0.5, 0.5])

