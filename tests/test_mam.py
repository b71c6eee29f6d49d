import resource
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batches import problem_lists, stack
from treeshrink import mam
from treeshrink.init_filtration import random_init
from treeshrink.mam import mam_batch, mam_solve
from treeshrink.ot_core import BarycenterProblem, barycenter_lp
from treeshrink.reduce import ReductionConfig, reduce_tree
from treeshrink.tree import generate_random


# (support sizes, zero-mass entry): unequal supports exercise the padded
# layout, and the widest of them gets one zero-mass entry.
SIZE_CASES = [(4, False), ((1, 3, 7), True)]


def random_problem(rng, m=3, r=4, s=4, zero_mass=False):
    sizes = [s] * m if np.isscalar(s) else list(s)
    alpha = rng.uniform(0.1, 1.0, len(sizes))
    q = [rng.dirichlet(np.ones(n)) for n in sizes]
    if zero_mass:
        q[-1][0] = 0.0
        q[-1] /= q[-1].sum()
    D = [alpha[i] * rng.uniform(0, 1, (r, n)) for i, n in enumerate(sizes)]
    return BarycenterProblem(q=q, D=D, alpha=alpha)


class TestTrivialInstances:
    def test_single_measure_zero_cost(self):
        q = np.array([0.2, 0.3, 0.5])
        prob = BarycenterProblem(q=[q], D=[np.zeros((4, 3))], alpha=np.array([1.0]))
        res = mam_solve(prob)
        assert res.objective == pytest.approx(0.0, abs=1e-12)
        assert res.converged
        # the consensus vector is the row marginal of the projected plan
        assert res.plan_set.p == pytest.approx(res.plan_set.plans[0].sum(axis=1))

    def test_single_support_point(self):
        rng = np.random.default_rng(0)
        q = [rng.dirichlet(np.ones(5)) for _ in range(3)]
        D = [rng.uniform(0, 1, (1, 5)) for _ in range(3)]
        prob = BarycenterProblem(q=q, D=D, alpha=np.ones(3))
        res = mam_solve(prob)
        assert res.plan_set.p == pytest.approx([1.0])
        expected = sum(float(d[0] @ qm) for d, qm in zip(D, q))
        assert res.objective == pytest.approx(expected, abs=1e-9)


class TestAgainstLP:
    def test_objective_matches_lp(self):
        for s, zero_mass in SIZE_CASES:
            rng = np.random.default_rng(1)
            for _ in range(5):
                prob = random_problem(rng, s=s, zero_mass=zero_mass)
                obj_lp, _ = barycenter_lp(prob)
                res = mam_solve(prob, max_iter=20000)
                assert res.converged
                assert res.objective == pytest.approx(obj_lp, rel=1e-4)

    def test_never_below_optimum(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            prob = random_problem(rng, m=2, r=3, s=3)
            obj_lp, _ = barycenter_lp(prob)
            res = mam_solve(prob, max_iter=20000)
            assert res.objective >= obj_lp - 1e-6


class TestInvariants:
    def test_exact_column_sums_at_every_iteration_budget(self):
        # Plans returned after any iteration count are projection outputs, so
        # their column sums reproduce the marginals exactly.
        for s, zero_mass in SIZE_CASES:
            rng = np.random.default_rng(3)
            prob = random_problem(rng, s=s, zero_mass=zero_mass)
            for budget in (1, 2, 5, 20, 100):
                res = mam_solve(prob, max_iter=budget, tol_marginal=0.0)
                for pl, qm in zip(res.plan_set.plans, prob.q):
                    assert pl.shape == (prob.R, qm.shape[0])
                    assert pl.sum(axis=0) == pytest.approx(qm, abs=1e-12)
                    assert np.all(pl >= 0)

    def test_gap_decreases_in_windowed_median(self):
        # Per-step the splitting is not monotone; the consensus gap must fall
        # in 50-iteration window medians along a converging trajectory.
        rng = np.random.default_rng(4)
        prob = random_problem(rng, m=4, r=5, s=5)
        res = mam_solve(prob, rho=0.3, max_iter=600, tol_marginal=0.0)
        gaps = np.array(res.marginal_gaps)
        medians = [np.median(gaps[i:i + 50]) for i in range(0, 600, 50)]
        assert all(medians[i + 1] <= medians[i] * 1.001
                   for i in range(len(medians) - 1))
        assert medians[-1] < 1e-3 * medians[0]

    def test_measure_order_invariance(self):
        # Permuting the measures permutes the plans but leaves the consensus
        # vector and objective unchanged.
        for s, zero_mass in SIZE_CASES:
            rng = np.random.default_rng(5)
            prob = random_problem(rng, s=s, zero_mass=zero_mass)
            perm = [2, 0, 1]
            prob_perm = BarycenterProblem(q=[prob.q[i] for i in perm],
                                          D=[prob.D[i] for i in perm],
                                          alpha=prob.alpha[perm])
            res = mam_solve(prob, max_iter=300, tol_marginal=0.0)
            res_perm = mam_solve(prob_perm, max_iter=300, tol_marginal=0.0)
            assert res_perm.objective == pytest.approx(res.objective, abs=1e-12)
            assert res_perm.plan_set.p == pytest.approx(res.plan_set.p, abs=1e-12)
            for i, j in enumerate(perm):
                assert res_perm.plan_set.plans[i] == pytest.approx(
                    res.plan_set.plans[j], abs=1e-12)

    def test_unconverged_flagged(self):
        rng = np.random.default_rng(6)
        prob = random_problem(rng)
        res = mam_solve(prob, max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_zero_weight_measure_kept_in_consensus(self):
        rng = np.random.default_rng(7)
        q = [rng.dirichlet(np.ones(3)) for _ in range(2)]
        D = [rng.uniform(0, 1, (3, 3)), np.zeros((3, 3))]
        prob = BarycenterProblem(q=q, D=D, alpha=np.array([1.0, 0.0]))
        res = mam_solve(prob, max_iter=20000)
        assert res.converged
        # the zero-weight measure still constrains the shared marginal
        assert res.plan_set.plans[1].sum(axis=0) == pytest.approx(q[1], abs=1e-12)

    def test_warm_start_converges_faster_at_optimum(self):
        rng = np.random.default_rng(8)
        prob = random_problem(rng)
        first = mam_solve(prob, max_iter=20000)
        warm = mam_solve(prob, init_plans=first.plan_set.plans, max_iter=20000)
        assert warm.iterations <= first.iterations

    def test_warm_start_shape_checked(self):
        rng = np.random.default_rng(10)
        prob = random_problem(rng, s=(1, 3, 7))
        plans = mam_solve(prob, max_iter=5).plan_set.plans
        plans[1] = plans[1].T
        with pytest.raises(ValueError, match=r"measure 1: .*\(4, 3\)"):
            mam_solve(prob, init_plans=plans)

    def test_invalid_rho_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            mam_solve(random_problem(rng), rho=0.0)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_nonpositive_max_iter_rejected(self, max_iter):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            mam_batch(random_problem(rng), max_iter=max_iter)


def product_plans(rng, prob):
    """A feasible warm start: a random barycenter times each marginal."""
    p = rng.dirichlet(np.ones(prob.R))
    return [np.outer(p, qm) for qm in prob.q]


class TestBatch:
    @settings(max_examples=60, deadline=None)
    @given(problem_lists(), st.sampled_from([None, 0.05]), st.booleans())
    def test_batch_matches_lone_solves(self, problems, rho, warm):
        rng = np.random.default_rng(len(problems))
        starts = [product_plans(rng, prob) if warm else None for prob in problems]
        batch = stack(problems)
        sol, gaps = mam_batch(batch, rho=rho, max_iter=120, tol_marginal=1e-6,
                              init_plans=np.concatenate(sum(starts, []), axis=1)
                              if warm else None)
        for k, prob in enumerate(problems):
            res = mam_solve(prob, rho=rho, max_iter=120, tol_marginal=1e-6,
                            init_plans=starts[k])
            lo, hi = batch.atom_ptr[batch.measure_ptr[k:k + 2]]
            assert sol.iterations[k] == res.iterations
            assert gaps[:res.iterations, k].tolist() == pytest.approx(res.marginal_gaps,
                                                                      abs=1e-12)
            assert sol.converged[k] == res.converged
            assert np.max(np.abs(sol.p[k] - res.plan_set.p)) <= 1e-12
            plans = np.concatenate(res.plan_set.plans, axis=1)
            assert np.max(np.abs(sol.plans[:, lo:hi] - plans)) <= 1e-12

    def test_converged_problem_is_frozen(self):
        # Three problems of one shape that converge after 1809, 495 and 1164
        # iterations.  They pad alike, so the batch must give each exactly
        # what it gets alone: a problem that stops is not moved again.
        rng = np.random.default_rng(12)
        problems = [random_problem(rng, m=3, r=3, s=4) for _ in range(3)]
        sol, gaps = mam_batch(stack(problems), max_iter=2000)
        assert sol.converged.all() and len(set(sol.iterations.tolist())) == 3
        for k, prob in enumerate(problems):
            res = mam_solve(prob, max_iter=2000)
            assert (sol.iterations[k], sol.converged[k]) == (res.iterations, res.converged)
            assert gaps[:res.iterations, k].tolist() == res.marginal_gaps
            assert np.array_equal(sol.p[k], res.plan_set.p)
            assert np.array_equal(sol.plans[:, 12 * k:12 * (k + 1)],
                                  np.concatenate(res.plan_set.plans, axis=1))


class TestOneRowLoop:
    @settings(max_examples=100, deadline=None)
    @given(problem_lists(r_values=(2,)), st.booleans(), st.sampled_from([None, 0.05]),
           st.sampled_from([1e-6, 1e-9]))
    def test_matches_general_loop(self, problems, warm, rho, tol):
        # The general loop is the reference at R = 2.  The two round
        # differently, so tol_marginal = 0, where only an exactly zero gap
        # stops a problem, is not compared: on one degenerate example the
        # one-row loop's gap reached 0.0 after 144 iterations and the
        # general loop's never did within 300.
        rng = np.random.default_rng(len(problems))
        batch = stack(problems)
        starts = (np.concatenate(sum((product_plans(rng, prob) for prob in problems), []),
                                 axis=1) if warm else None)
        args = dict(rho=rho, max_iter=150, tol_marginal=tol, init_plans=starts)
        sol, gaps = mam_batch(batch, **args)
        with mock.patch.object(mam, "_iterate_one_row", mam._iterate):
            ref, ref_gaps = mam_batch(batch, **args)
        assert np.array_equal(sol.iterations, ref.iterations)
        assert np.array_equal(sol.converged, ref.converged)
        for k, its in enumerate(ref.iterations):
            assert np.max(np.abs(gaps[:its, k] - ref_gaps[:its, k])) <= 1e-12
        assert np.max(np.abs(sol.p - ref.p)) <= 1e-12
        assert np.max(np.abs(sol.plans - ref.plans)) <= 1e-12
        # Every plan column is (x, q - x), clipped to [0, q].
        assert np.array_equal(sol.plans[1], batch.mass - sol.plans[0])
        assert np.all(sol.plans >= 0.0)
        assert np.all(sol.plans[:, batch.mass == 0.0] == 0.0)


@pytest.mark.slow
def test_one_row_loop_at_scale():
    # 19,531 nodes onto a binary tree of 127 by MAM: every problem has R = 2.
    # The general loop, forced, must take the same iterations to the same
    # tree.
    orig = generate_random(6, 5, seed=1)
    start = random_init([2] * 6, seed=1)
    config = ReductionConfig(solver="mam", tol=1e-12, max_outer=3, mam_max_iter=300)
    runs = {}
    for name, loop in (("one-row", mam._iterate_one_row), ("general", mam._iterate)):
        with mock.patch.object(mam, "_iterate_one_row", loop):
            tick = time.perf_counter()
            _, report = reduce_tree(orig, start, config)
            seconds = time.perf_counter() - tick
        runs[name] = (sum(r["iterations"] for r in report.solver_log), report.final_nd)
        print(f"\n{name} loop: {seconds:.2f} s, {runs[name][0]} inner iterations, "
              f"final_nd {report.final_nd:.12f}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.0f} MB")
    assert runs["one-row"][0] == runs["general"][0]
    assert runs["one-row"][1] == pytest.approx(runs["general"][1], rel=1e-9)
