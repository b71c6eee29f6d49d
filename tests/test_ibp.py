import resource
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batches import BarycenterProblem, plan_cost, problem_lists, stack
from treeshrink import ibp
from treeshrink.ibp import RegularizationOverflowError, ibp_batch
from treeshrink.init_filtration import random_init
from treeshrink.nested import nested_distance
from treeshrink.ot_core import barycenter_batch
from treeshrink.reduce import ReductionConfig, reduce_tree
from treeshrink.tree import generate_random


def random_problem(rng, m=2, r=2, s=2, zero_mass=False):
    sizes = [s] * m if np.isscalar(s) else list(s)
    alpha = rng.uniform(0.1, 1.0, len(sizes))
    q = [rng.dirichlet(np.ones(n)) for n in sizes]
    if zero_mass:
        q[-1][0] = 0.0
        q[-1] /= q[-1].sum()
    D = [alpha[i] * rng.uniform(0, 1, (r, n)) for i, n in enumerate(sizes)]
    return BarycenterProblem(q=q, D=D, alpha=alpha)


def _finish_none(c, *args):
    """A Newton phase that finishes no problem: every one runs the sweeps."""
    return np.zeros(0, dtype=int), np.zeros((0, c.shape[1])), np.zeros(0), np.zeros(0, dtype=int)


def sweeps_only():
    """Context in which :func:`ibp_batch` runs the sweeps alone."""
    return mock.patch.object(ibp, "_newton", _finish_none)


def solve_recording_newton(batch, **args):
    """``ibp_batch(batch, **args)`` and the indices of the problems that its
    Newton phase finished."""
    finished = []

    def record(*newton_args):
        out = newton(*newton_args)
        finished.extend(out[0].tolist())
        return out

    newton = ibp._newton
    with mock.patch.object(ibp, "_newton", record):
        sol = ibp_batch(batch, **args)
    return sol, np.array(finished, dtype=int)


def atoms_of(batch, problems):
    """Mask of the plan columns (atoms) of the given problems of a batch."""
    owner = np.repeat(np.arange(batch.P), np.diff(batch.atom_ptr[batch.measure_ptr]))
    return np.isin(owner, problems)


class TestTrivialInstances:
    def test_one_by_one(self):
        prob = BarycenterProblem(q=[np.array([1.0])], D=[np.array([[3.5]])],
                                 alpha=np.array([1.0]))
        sol = ibp_batch(prob)
        assert sol.p[0] == pytest.approx([1.0])
        assert sol.plans.ravel() == pytest.approx([1.0])
        assert plan_cost(prob, sol)[0] == pytest.approx(3.5)

    def test_constant_costs_any_lambda(self):
        q = np.array([0.25, 0.75])
        prob = BarycenterProblem(q=[q], D=[np.full((3, 2), 1.7)],
                                 alpha=np.array([1.0]))
        for lam in (1.0, 10.0, 100.0):
            sol = ibp_batch(prob, lam=lam)
            assert plan_cost(prob, sol)[0] == pytest.approx(1.7, abs=1e-9)


class TestAgainstLP:
    def test_symmetric_2x2_within_two_percent(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            prob = random_problem(rng, m=2, r=2, s=2)
            obj_lp = plan_cost(prob, barycenter_batch(prob))[0]
            obj = plan_cost(prob, ibp_batch(prob, lam=100.0, tol_fixed_point=1e-10))[0]
            assert obj <= obj_lp * 1.02 + 1e-9
            assert obj >= obj_lp - 1e-9

    def test_accuracy_improves_with_lambda(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            prob = random_problem(rng, m=3, r=4, s=4)
            obj_lp = plan_cost(prob, barycenter_batch(prob))[0]
            objs = [plan_cost(prob, ibp_batch(prob, lam=lam, tol_fixed_point=1e-12))[0]
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
                sol = ibp_batch(prob, lam=50.0)
                for pl, qm in zip(prob.split(sol.plans), prob.q):
                    assert pl.shape == (prob.R, qm.shape[0])
                    assert pl.sum(axis=0) == pytest.approx(qm, abs=1e-12)

    def test_measure_order_invariance(self):
        # Permuting measures of unequal supports permutes the plans but leaves
        # the barycenter and plan cost unchanged.
        rng = np.random.default_rng(7)
        prob = random_problem(rng, r=4, s=(1, 3, 7), zero_mass=True)
        perm = [2, 0, 1]
        prob_perm = BarycenterProblem(q=[prob.q[i] for i in perm],
                                      D=[prob.D[i] for i in perm],
                                      alpha=prob.alpha[perm])
        sol = ibp_batch(prob, lam=50.0, max_iter=300, tol_fixed_point=0.0)
        sol_perm = ibp_batch(prob_perm, lam=50.0, max_iter=300, tol_fixed_point=0.0)
        assert plan_cost(prob_perm, sol_perm)[0] == pytest.approx(plan_cost(prob, sol)[0],
                                                                  abs=1e-12)
        assert sol_perm.p[0] == pytest.approx(sol.p[0], abs=1e-12)
        plans, plans_perm = prob.split(sol.plans), prob_perm.split(sol_perm.plans)
        for i, j in enumerate(perm):
            assert plans_perm[i] == pytest.approx(plans[j], abs=1e-12)

    def test_barycenter_strictly_positive_and_normalized(self):
        rng = np.random.default_rng(3)
        prob = random_problem(rng, m=3, r=6, s=5)
        p = ibp_batch(prob, lam=30.0).p[0]
        assert np.all(p > 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_weight_measure_constrained_but_skipped_in_mean(self):
        rng = np.random.default_rng(4)
        q = [rng.dirichlet(np.ones(3)) for _ in range(2)]
        D = [rng.uniform(0, 1, (3, 3)), np.zeros((3, 3))]
        prob = BarycenterProblem(q=q, D=D, alpha=np.array([1.0, 0.0]))
        sol = ibp_batch(prob, lam=100.0)
        assert prob.split(sol.plans)[1].sum(axis=0) == pytest.approx(q[1], abs=1e-12)

    def test_zero_weight_measure_at_two_points(self):
        # The Newton path: the zero-weight measure meets its marginal and
        # follows the barycenter of the weighted one, which it does not move.
        rng = np.random.default_rng(4)
        q = [rng.dirichlet(np.ones(3)) for _ in range(2)]
        D = [rng.uniform(0, 1, (2, 3)), np.zeros((2, 3))]
        prob = BarycenterProblem(q=q, D=D, alpha=np.array([1.0, 0.0]))
        sol, finished = solve_recording_newton(prob, lam=100.0)
        assert finished.tolist() == [0]
        plans = prob.split(sol.plans)
        assert plans[1].sum(axis=0) == pytest.approx(q[1], abs=1e-12)
        assert plans[1].sum(axis=1) == pytest.approx(sol.p[0], abs=1e-10)
        alone = ibp_batch(BarycenterProblem(q=q[:1], D=D[:1], alpha=np.array([1.0])),
                          lam=100.0)
        assert sol.p[0] == pytest.approx(alone.p[0], abs=1e-10)

    def test_zero_mass_marginal_entry(self):
        prob = BarycenterProblem(q=[np.array([0.0, 1.0])],
                                 D=[np.array([[1.0, 2.0], [3.0, 0.5]])],
                                 alpha=np.array([1.0]))
        sol = ibp_batch(prob, lam=100.0)
        assert sol.plans[:, 0] == pytest.approx([0.0, 0.0])

    def test_zero_mass_marginal_entry_two_measures(self):
        prob = BarycenterProblem(q=[np.array([0.0, 1.0]), np.array([0.3, 0.0, 0.7])],
                                 D=[np.array([[1.0, 2.0], [3.0, 0.5]]),
                                    np.array([[0.2, 5.0, 1.0], [0.9, 0.0, 0.4]])],
                                 alpha=np.array([1.0, 2.0]))
        sol, finished = solve_recording_newton(prob, lam=100.0)
        assert finished.tolist() == [0]
        plans = prob.split(sol.plans)
        assert np.array_equal(plans[0][:, 0], [0.0, 0.0])
        assert np.array_equal(plans[1][:, 1], [0.0, 0.0])
        for pl, qm in zip(plans, prob.q):
            assert pl.sum(axis=0) == pytest.approx(qm, abs=1e-12)


class TestBatch:
    @settings(max_examples=60, deadline=None)
    @given(problem_lists(), st.sampled_from([20.0, 100.0]))
    def test_batch_matches_lone_solves(self, problems, lam):
        batch = stack(problems)
        sol = ibp_batch(batch, lam=lam, max_iter=150, tol_fixed_point=1e-9)
        for k, prob in enumerate(problems):
            one = ibp_batch(prob, lam=lam, max_iter=150, tol_fixed_point=1e-9)
            lo, hi = batch.atom_ptr[batch.measure_ptr[k:k + 2]]
            assert sol.iterations[k] == one.iterations[0]
            assert sol.converged[k] == one.converged[0]
            assert np.max(np.abs(sol.p[k] - one.p[0])) <= 1e-12
            assert np.max(np.abs(sol.plans[:, lo:hi] - one.plans)) <= 1e-12

    def test_converged_problem_is_frozen(self):
        # Three problems of one shape that converge after 48, 42 and 228
        # iterations.  They pad alike, so the batch must give each exactly
        # what it gets alone: a problem that stops is not moved again.
        rng = np.random.default_rng(11)
        problems = [random_problem(rng, m=3, r=3, s=4) for _ in range(3)]
        sol = ibp_batch(stack(problems), lam=50.0, max_iter=400)
        assert sol.converged.all() and len(set(sol.iterations.tolist())) == 3
        for k, prob in enumerate(problems):
            one = ibp_batch(prob, lam=50.0, max_iter=400)
            assert ((sol.iterations[k], sol.converged[k])
                    == (one.iterations[0], one.converged[0]))
            assert np.array_equal(sol.p[k], one.p[0])
            assert np.array_equal(sol.plans[:, 12 * k:12 * (k + 1)], one.plans)


class TestTwoPoints:
    """The Newton phase at R = 2 and its fallback to the sweeps."""

    @settings(max_examples=40, deadline=None)
    @given(problem_lists(r_values=(2,)), st.sampled_from([1.0, 20.0, 100.0, 500.0]))
    def test_finished_problems_match_long_sweeps(self, problems, lam):
        batch = stack(problems)
        sol, finished = solve_recording_newton(batch, lam=lam)
        with sweeps_only():
            ref = ibp_batch(batch, lam=lam, max_iter=50000, tol_fixed_point=1e-12)
        assert sol.converged[finished].all()
        # Where the sweeps have not converged there is nothing to compare:
        # near the unregularized limit they can converge sublinearly.
        both = finished[ref.converged[finished]]
        cols = atoms_of(batch, both)
        assert np.max(np.abs(sol.p[both] - ref.p[both]), initial=0.0) <= 1e-8
        assert np.max(np.abs(sol.plans[:, cols] - ref.plans[:, cols]), initial=0.0) <= 1e-8
        cost_gap = plan_cost(batch, sol)[both] - plan_cost(batch, ref)[both]
        assert np.max(np.abs(cost_gap), initial=0.0) <= 1e-8
        assert np.max(np.abs(sol.plans.sum(axis=0) - batch.mass)) <= 1e-12

    def test_newton_finishes_at_moderate_lambda(self):
        rng = np.random.default_rng(12)
        problems = [random_problem(rng, m=4, r=2, s=5) for _ in range(20)]
        sol, finished = solve_recording_newton(stack(problems), lam=20.0)
        assert finished.size == 20
        assert np.all(sol.iterations <= 30)

    def test_zero_tolerance_runs_the_sweeps_alone(self):
        rng = np.random.default_rng(13)
        batch = stack([random_problem(rng, m=3, r=2, s=4) for _ in range(4)])
        sol, finished = solve_recording_newton(batch, lam=50.0, max_iter=200,
                                               tol_fixed_point=0.0)
        with sweeps_only():
            ref = ibp_batch(batch, lam=50.0, max_iter=200, tol_fixed_point=0.0)
        assert finished.size == 0
        for field in ("p", "plans", "iterations", "converged"):
            assert np.array_equal(getattr(sol, field), getattr(ref, field))

    def test_fallback_problems_get_the_sweeps_results(self):
        # At lam = 500 Newton gives up on some of these problems; they must
        # get bitwise what the sweeps give them, with only the sweeps counted.
        rng = np.random.default_rng(14)
        batch = stack([random_problem(rng, m=5, r=2, s=5) for _ in range(30)])
        sol, finished = solve_recording_newton(batch, lam=500.0, max_iter=400)
        with sweeps_only():
            ref = ibp_batch(batch, lam=500.0, max_iter=400)
        rest = np.setdiff1d(np.arange(batch.P), finished)
        assert 0 < rest.size < batch.P
        cols = atoms_of(batch, rest)
        assert np.array_equal(sol.p[rest], ref.p[rest])
        assert np.array_equal(sol.plans[:, cols], ref.plans[:, cols])
        assert np.array_equal(sol.iterations[rest], ref.iterations[rest])
        assert np.array_equal(sol.converged[rest], ref.converged[rest])


@pytest.mark.slow
def test_paper_scale_two_point_reduction():
    # 97,656 nodes onto a binary tree of 255 by IBP: every barycenter has
    # R = 2, and the largest problems hold 15,625 measures of 5 atoms.
    orig = generate_random(7, 5, seed=1)
    start = random_init([2] * 7, seed=1)
    config = ReductionConfig(solver="ibp", tol=1e-12, max_outer=3, ibp_max_iter=300)
    tick = time.perf_counter()
    reduced, report = reduce_tree(orig, start, config)
    seconds = time.perf_counter() - tick
    unconverged = sum(not r["converged"] for r in report.solver_log)
    nd, _ = nested_distance(orig, reduced)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"\nreduce {seconds:.1f} s, {unconverged} of {len(report.solver_log)} inner solves "
          f"unconverged, final_nd {report.final_nd:.6f}, certified nd {nd:.6f}, "
          f"process max RSS {peak_mb:.0f} MB")
    assert np.isfinite(seconds) and np.isfinite(nd) and np.isfinite(report.final_nd)
    # final_nd is the cost of the entropic plans, above the certified nd by
    # their blur at lam = 100: 6.6e-4 relative with the sweeps alone, 1.0e-3
    # with the Newton phase, which converges more of the solves.
    assert report.final_nd == pytest.approx(nd, rel=2e-3)


class TestErrors:
    def test_overflow_signaled_for_huge_lambda(self):
        rng = np.random.default_rng(5)
        prob = random_problem(rng, m=2, r=3, s=3)
        with pytest.raises(RegularizationOverflowError) as info:
            ibp_batch(prob, lam=1e6)
        assert info.value.lam == 1e6
        assert info.value.max_exponent > 700

    def test_overflow_signaled_for_huge_lambda_at_two_points(self):
        # The kernel check runs before the Newton phase.
        rng = np.random.default_rng(5)
        prob = random_problem(rng, m=2, r=2, s=3)
        with pytest.raises(RegularizationOverflowError) as info:
            ibp_batch(prob, lam=1e6)
        assert info.value.lam == 1e6
        assert info.value.max_exponent > 700

    def test_nonpositive_lambda_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            ibp_batch(random_problem(rng), lam=0.0)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_nonpositive_max_iter_rejected(self, max_iter):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            ibp_batch(random_problem(rng), max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True])
    def test_non_integer_max_iter_rejected(self, max_iter):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="^max_iter must be an integer >= 1"):
            ibp_batch(random_problem(rng), max_iter=max_iter)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="^lam must be finite and positive"):
            ibp_batch(random_problem(rng), lam=lam)
