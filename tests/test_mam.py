import numpy as np
import pytest

from treeshrink.mam import mam_solve
from treeshrink.ot_core import BarycenterProblem, barycenter_lp


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
