import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batches import problem_lists, stack
from treeshrink.ibp import RegularizationOverflowError, ibp_batch, ibp_solve
from treeshrink.ot_core import BarycenterProblem, barycenter_lp


def random_problem(rng, m=2, r=2, s=2, zero_mass=False):
    sizes = [s] * m if np.isscalar(s) else list(s)
    alpha = rng.uniform(0.1, 1.0, len(sizes))
    q = [rng.dirichlet(np.ones(n)) for n in sizes]
    if zero_mass:
        q[-1][0] = 0.0
        q[-1] /= q[-1].sum()
    D = [alpha[i] * rng.uniform(0, 1, (r, n)) for i, n in enumerate(sizes)]
    return BarycenterProblem(q=q, D=D, alpha=alpha)


class TestTrivialInstances:
    def test_one_by_one(self):
        prob = BarycenterProblem(q=[np.array([1.0])], D=[np.array([[3.5]])],
                                 alpha=np.array([1.0]))
        res = ibp_solve(prob)
        assert res.plan_set.p == pytest.approx([1.0])
        assert res.plan_set.plans[0].ravel() == pytest.approx([1.0])
        assert res.objective == pytest.approx(3.5)

    def test_constant_costs_any_lambda(self):
        q = np.array([0.25, 0.75])
        prob = BarycenterProblem(q=[q], D=[np.full((3, 2), 1.7)],
                                 alpha=np.array([1.0]))
        for lam in (1.0, 10.0, 100.0):
            res = ibp_solve(prob, lam=lam)
            assert res.objective == pytest.approx(1.7, abs=1e-9)


class TestAgainstLP:
    def test_symmetric_2x2_within_two_percent(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            prob = random_problem(rng, m=2, r=2, s=2)
            obj_lp, _ = barycenter_lp(prob)
            res = ibp_solve(prob, lam=100.0, tol_fixed_point=1e-10)
            assert res.objective <= obj_lp * 1.02 + 1e-9
            assert res.objective >= obj_lp - 1e-9

    def test_accuracy_improves_with_lambda(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            prob = random_problem(rng, m=3, r=4, s=4)
            obj_lp, _ = barycenter_lp(prob)
            objs = [ibp_solve(prob, lam=lam, tol_fixed_point=1e-12).objective
                    for lam in (1.0, 10.0, 100.0)]
            assert objs[0] >= objs[1] - 1e-9 >= objs[2] - 2e-9
            assert objs[2] >= obj_lp - 1e-9


class TestInvariants:
    def test_column_marginals_exact(self):
        # Unequal supports exercise the padded layout; the widest measure of
        # them gets one zero-mass entry.
        for s, zero_mass in [(4, False), ((1, 3, 7), True)]:
            rng = np.random.default_rng(2)
            for _ in range(10):
                prob = random_problem(rng, m=3, r=5, s=s, zero_mass=zero_mass)
                res = ibp_solve(prob, lam=50.0)
                for pl, qm in zip(res.plan_set.plans, prob.q):
                    assert pl.shape == (prob.R, qm.shape[0])
                    assert pl.sum(axis=0) == pytest.approx(qm, abs=1e-12)

    def test_measure_order_invariance(self):
        # Permuting measures of unequal supports permutes the plans but leaves
        # the barycenter and objective unchanged.
        rng = np.random.default_rng(7)
        prob = random_problem(rng, r=4, s=(1, 3, 7), zero_mass=True)
        perm = [2, 0, 1]
        prob_perm = BarycenterProblem(q=[prob.q[i] for i in perm],
                                      D=[prob.D[i] for i in perm],
                                      alpha=prob.alpha[perm])
        res = ibp_solve(prob, lam=50.0, max_iter=300, tol_fixed_point=0.0)
        res_perm = ibp_solve(prob_perm, lam=50.0, max_iter=300, tol_fixed_point=0.0)
        assert res_perm.objective == pytest.approx(res.objective, abs=1e-12)
        assert res_perm.plan_set.p == pytest.approx(res.plan_set.p, abs=1e-12)
        for i, j in enumerate(perm):
            assert res_perm.plan_set.plans[i] == pytest.approx(
                res.plan_set.plans[j], abs=1e-12)

    def test_barycenter_strictly_positive_and_normalized(self):
        rng = np.random.default_rng(3)
        prob = random_problem(rng, m=3, r=6, s=5)
        res = ibp_solve(prob, lam=30.0)
        assert np.all(res.plan_set.p > 0)
        assert res.plan_set.p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_weight_measure_constrained_but_skipped_in_mean(self):
        rng = np.random.default_rng(4)
        q = [rng.dirichlet(np.ones(3)) for _ in range(2)]
        D = [rng.uniform(0, 1, (3, 3)), np.zeros((3, 3))]
        prob = BarycenterProblem(q=q, D=D, alpha=np.array([1.0, 0.0]))
        res = ibp_solve(prob, lam=100.0)
        assert res.plan_set.plans[1].sum(axis=0) == pytest.approx(q[1], abs=1e-12)

    def test_zero_mass_marginal_entry(self):
        prob = BarycenterProblem(q=[np.array([0.0, 1.0])],
                                 D=[np.array([[1.0, 2.0], [3.0, 0.5]])],
                                 alpha=np.array([1.0]))
        res = ibp_solve(prob, lam=100.0)
        assert res.plan_set.plans[0][:, 0] == pytest.approx([0.0, 0.0])


class TestBatch:
    @settings(max_examples=60, deadline=None)
    @given(problem_lists(), st.sampled_from([20.0, 100.0]))
    def test_batch_matches_lone_solves(self, problems, lam):
        batch = stack(problems)
        sol = ibp_batch(batch, lam=lam, max_iter=150, tol_fixed_point=1e-9)
        for k, prob in enumerate(problems):
            res = ibp_solve(prob, lam=lam, max_iter=150, tol_fixed_point=1e-9)
            lo, hi = batch.atom_ptr[batch.measure_ptr[k:k + 2]]
            assert sol.iterations[k] == res.iterations
            assert sol.converged[k] == res.converged
            assert np.max(np.abs(sol.p[k] - res.plan_set.p)) <= 1e-12
            plans = np.concatenate(res.plan_set.plans, axis=1)
            assert np.max(np.abs(sol.plans[:, lo:hi] - plans)) <= 1e-12

    def test_converged_problem_is_frozen(self):
        # Three problems of one shape that converge after 48, 42 and 228
        # iterations.  They pad alike, so the batch must give each exactly
        # what it gets alone: a problem that stops is not moved again.
        rng = np.random.default_rng(11)
        problems = [random_problem(rng, m=3, r=3, s=4) for _ in range(3)]
        sol = ibp_batch(stack(problems), lam=50.0, max_iter=400)
        assert sol.converged.all() and len(set(sol.iterations.tolist())) == 3
        for k, prob in enumerate(problems):
            res = ibp_solve(prob, lam=50.0, max_iter=400)
            assert (sol.iterations[k], sol.converged[k]) == (res.iterations, res.converged)
            assert np.array_equal(sol.p[k], res.plan_set.p)
            assert np.array_equal(sol.plans[:, 12 * k:12 * (k + 1)],
                                  np.concatenate(res.plan_set.plans, axis=1))


class TestErrors:
    def test_overflow_signaled_for_huge_lambda(self):
        rng = np.random.default_rng(5)
        prob = random_problem(rng, m=2, r=3, s=3)
        with pytest.raises(RegularizationOverflowError) as info:
            ibp_solve(prob, lam=1e6)
        assert info.value.lam == 1e6
        assert info.value.max_exponent > 700

    def test_nonpositive_lambda_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            ibp_solve(random_problem(rng), lam=0.0)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_nonpositive_max_iter_rejected(self, max_iter):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            ibp_batch(random_problem(rng), max_iter=max_iter)
