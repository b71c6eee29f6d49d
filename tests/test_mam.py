import resource
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batches import (BarycenterProblem, marginal_gap, plan_cost, problem_lists,
                     project_scaled_simplex, stack)
from treeshrink import mam
from treeshrink.init_filtration import random_init
from treeshrink.mam import mam_batch, project_columns_scaled_simplex
from treeshrink.ot_core import barycenter_batch
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


# The two loops of mam_batch as they were when each problem was tested after
# every iteration; the windowed loops must return bitwise what they return.

def reference_iterate(shadow, step, q, live, a, max_iter, tol):
    """Reference: the general loop as it was before the windowed stopping
    test, testing every problem after every iteration.

    Takes the start ``shadow``, the steps cost / rho, the padded marginals
    ``q`` and their mask ``live``, and the (P, M_max) consensus weights
    ``a``.  Returns the padded plans every problem stopped at, its
    iteration count and whether it converged.
    """
    n_prob, r = shadow.shape[0], shadow.shape[2]
    sizes = live.sum(axis=2)
    # Padded measures get size 1: their shift meets zero columns.
    size_col = np.maximum(sizes, 1).astype(np.float64)[:, :, None]
    # 1 on real columns, 0 on padding: the padded shadow columns stay zero,
    # so they add nothing to the row marginals.
    live = live[:, :, None, :].astype(np.float64)
    shadow_marg = shadow.sum(axis=3)

    # The governing (shadow) iterates may go negative and their marginal
    # disagreement converges to a dual offset, not zero; feasibility and the
    # stopping test live on the projection outputs, whose column sums equal
    # the marginals exactly and whose row marginals reach consensus.  Problems
    # still iterating are the rows ``todo`` of the working arrays; one that
    # stops leaves them, so its plans stay as they stopped.
    plans_end = shadow.copy()
    todo = np.arange(n_prob)
    iterations = np.full(n_prob, max_iter)
    converged = np.zeros(n_prob, dtype=bool)
    tau, live_k, a_k, size_k, real_k = (q.reshape(n_prob, -1), live, a[:, None, :], size_col,
                                        (sizes > 0)[..., None])
    p = np.matmul(a_k, shadow_marg)
    for it in range(1, max_iter + 1):
        shift = (p - shadow_marg) / size_k
        y = shadow + 2.0 * shift[..., None]
        y -= step
        # One projection over the (R, P * M * S_max) matrix of all columns.
        n, m_max, _, s_max = y.shape
        plans = project_columns_scaled_simplex(
            y.transpose(2, 0, 1, 3).reshape(r, -1), tau.ravel()
        ).reshape(r, n, m_max, s_max).transpose(1, 2, 0, 3)
        feas_marg = plans.sum(axis=3)
        shadow = np.multiply(shift[..., None], live_k, out=y)
        np.subtract(plans, shadow, out=shadow)
        shadow_marg = shadow.sum(axis=3)
        p = np.matmul(a_k, shadow_marg)
        p_feas = np.matmul(a_k, feas_marg)
        gap = np.max(np.abs(feas_marg - p_feas), axis=(1, 2), where=real_k, initial=0.0)
        stop = gap <= tol
        if stop.any():
            done = todo[stop]
            plans_end[done] = plans[stop]
            iterations[done], converged[done] = it, True
            keep = ~stop
            (todo, p, plans, shadow, shadow_marg, step, tau, live_k, a_k, size_k,
             real_k) = (x[keep] for x in (todo, p, plans, shadow, shadow_marg, step, tau,
                                          live_k, a_k, size_k, real_k))
            if todo.size == 0:
                break
    plans_end[todo] = plans
    return plans_end, iterations, converged


def reference_iterate_one_row(shadow, step, q, live, a, max_iter, tol):
    """Reference: the one-row loop at R = 2 as it was before the windowed
    stopping test, testing every problem after every iteration, with the
    arguments and results of :func:`reference_iterate`.
    """
    # Per-measure values are (P, M_max, 1) columns and the weights a row of
    # each problem, so ``a_k @ v`` is the (P, 1, 1) consensus sum_m a v.
    n_prob = shadow.shape[0]
    sizes = live.sum(axis=2, keepdims=True)
    # Padded measures get no shift: their columns have zero mass.
    inv_n = np.where(sizes > 0, 1.0 / np.maximum(sizes, 1), 0.0)
    real = (sizes > 0).astype(np.float64)
    a_k = a[:, None, :]
    x = shadow[:, :, 0] - shadow[:, :, 1]
    x += q
    x *= 0.5
    half_c = step[:, :, 0] - step[:, :, 1]
    half_c *= 0.5
    total = q.sum(axis=2, keepdims=True)
    half_h = 0.5 * real * (total - a_k @ total)
    abs_half_h = np.abs(half_h)
    marg = shadow.sum(axis=3, keepdims=True)
    D = marg[:, :, 0] - marg[:, :, 1]
    sigma = (a_k @ D - D) * inv_n
    # ``move`` is sigma - pi / 2 of the coming iteration, ``half`` is sigma / 2;
    # the first iteration has pi = 0.
    move, half = sigma, 0.5 * sigma

    # As in reference_iterate, problems still iterating are the rows ``todo`` of the
    # working arrays.
    x_end = np.empty(x.shape)
    todo = np.arange(n_prob)
    iterations = np.full(n_prob, max_iter)
    converged = np.zeros(n_prob, dtype=bool)
    q_k, ones = q, np.ones((x.shape[2], 1))
    for it in range(1, max_iter + 1):
        x -= half_c
        x += move
        np.maximum(x, 0.0, out=x)
        np.minimum(x, q_k, out=x)
        F = x @ ones
        # g - h / 2 on the real measures, 0 on the padded ones.
        g = F - a_k @ F
        g -= half_h
        g *= real
        # sigma drops by 2 delta; the next move is its new value less half the old.
        delta = g * inv_n
        half -= delta
        move = half - delta
        np.abs(g, out=g)
        g += abs_half_h
        gap = g.max(axis=1)[:, 0]
        if gap.min() <= tol:
            stop = gap <= tol
            done = todo[stop]
            x_end[done] = x[stop]
            iterations[done], converged[done] = it, True
            keep = ~stop
            (todo, x, half_c, q_k, a_k, half_h, abs_half_h, inv_n, real, half,
             move) = (v[keep] for v in (todo, x, half_c, q_k, a_k, half_h, abs_half_h, inv_n,
                                        real, half, move))
            if todo.size == 0:
                break
    x_end[todo] = x
    return np.stack([x_end, q - x_end], axis=2), iterations, converged


class TestTrivialInstances:
    def test_single_measure_zero_cost(self):
        q = np.array([0.2, 0.3, 0.5])
        prob = BarycenterProblem(q=[q], D=[np.zeros((4, 3))], alpha=np.array([1.0]))
        sol = mam_batch(prob)
        assert plan_cost(prob, sol)[0] == pytest.approx(0.0, abs=1e-12)
        assert sol.converged[0]
        # the consensus vector is the row marginal of the projected plan
        assert sol.p[0] == pytest.approx(sol.plans.sum(axis=1))

    def test_single_support_point(self):
        rng = np.random.default_rng(0)
        q = [rng.dirichlet(np.ones(5)) for _ in range(3)]
        D = [rng.uniform(0, 1, (1, 5)) for _ in range(3)]
        prob = BarycenterProblem(q=q, D=D, alpha=np.ones(3))
        sol = mam_batch(prob)
        assert sol.p[0] == pytest.approx([1.0])
        expected = sum(float(d[0] @ qm) for d, qm in zip(D, q))
        assert plan_cost(prob, sol)[0] == pytest.approx(expected, abs=1e-9)


class TestAgainstLP:
    def test_objective_matches_lp(self):
        for s, zero_mass in SIZE_CASES:
            rng = np.random.default_rng(1)
            for _ in range(5):
                prob = random_problem(rng, s=s, zero_mass=zero_mass)
                obj_lp = plan_cost(prob, barycenter_batch(prob))[0]
                sol = mam_batch(prob, max_iter=20000)
                assert sol.converged[0]
                assert plan_cost(prob, sol)[0] == pytest.approx(obj_lp, rel=1e-4)

    def test_never_below_optimum(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            prob = random_problem(rng, m=2, r=3, s=3)
            obj_lp = plan_cost(prob, barycenter_batch(prob))[0]
            sol = mam_batch(prob, max_iter=20000)
            assert plan_cost(prob, sol)[0] >= obj_lp - 1e-6


class TestInvariants:
    def test_exact_column_sums_at_every_iteration_budget(self):
        # Plans returned after any iteration count are projection outputs, so
        # their column sums reproduce the marginals exactly.
        for s, zero_mass in SIZE_CASES:
            rng = np.random.default_rng(3)
            prob = random_problem(rng, s=s, zero_mass=zero_mass)
            for budget in (1, 2, 5, 20, 100):
                sol = mam_batch(prob, max_iter=budget, tol_marginal=0.0)
                for pl, qm in zip(prob.split(sol.plans), prob.q):
                    assert pl.shape == (prob.R, qm.shape[0])
                    assert pl.sum(axis=0) == pytest.approx(qm, abs=1e-12)
                    assert np.all(pl >= 0)

    def test_gap_decreases_in_windowed_median(self):
        # Per-step the splitting is not monotone; the consensus gap must fall
        # in 50-iteration window medians along a converging trajectory.  At
        # tol_marginal = 0 no problem stops early, so the solve at each budget
        # ends on that iteration's plans; every tenth budget is sampled.
        rng = np.random.default_rng(4)
        prob = random_problem(rng, m=4, r=5, s=5)
        gaps = [marginal_gap(prob, mam_batch(prob, rho=0.3, max_iter=budget, tol_marginal=0.0))
                for budget in range(1, 601, 10)]
        medians = [np.median(gaps[i:i + 5]) for i in range(0, 60, 5)]
        assert all(medians[i + 1] <= medians[i] * 1.001
                   for i in range(len(medians) - 1))
        assert medians[-1] < 1e-3 * medians[0]

    def test_measure_order_invariance(self):
        # Permuting the measures permutes the plans but leaves the consensus
        # vector and plan cost unchanged.
        for s, zero_mass in SIZE_CASES:
            rng = np.random.default_rng(5)
            prob = random_problem(rng, s=s, zero_mass=zero_mass)
            perm = [2, 0, 1]
            prob_perm = BarycenterProblem(q=[prob.q[i] for i in perm],
                                          D=[prob.D[i] for i in perm],
                                          alpha=prob.alpha[perm])
            sol = mam_batch(prob, max_iter=300, tol_marginal=0.0)
            sol_perm = mam_batch(prob_perm, max_iter=300, tol_marginal=0.0)
            assert plan_cost(prob_perm, sol_perm)[0] == pytest.approx(plan_cost(prob, sol)[0],
                                                                      abs=1e-12)
            assert sol_perm.p[0] == pytest.approx(sol.p[0], abs=1e-12)
            plans, plans_perm = prob.split(sol.plans), prob_perm.split(sol_perm.plans)
            for i, j in enumerate(perm):
                assert plans_perm[i] == pytest.approx(plans[j], abs=1e-12)

    def test_unconverged_flagged(self):
        rng = np.random.default_rng(6)
        prob = random_problem(rng)
        sol = mam_batch(prob, max_iter=3)
        assert not sol.converged[0]
        assert sol.iterations[0] == 3

    def test_zero_weight_measure_kept_in_consensus(self):
        rng = np.random.default_rng(7)
        q = [rng.dirichlet(np.ones(3)) for _ in range(2)]
        D = [rng.uniform(0, 1, (3, 3)), np.zeros((3, 3))]
        prob = BarycenterProblem(q=q, D=D, alpha=np.array([1.0, 0.0]))
        sol = mam_batch(prob, max_iter=20000)
        assert sol.converged[0]
        # the zero-weight measure still constrains the shared marginal
        assert prob.split(sol.plans)[1].sum(axis=0) == pytest.approx(q[1], abs=1e-12)

    def test_warm_start_converges_faster_at_optimum(self):
        rng = np.random.default_rng(8)
        prob = random_problem(rng)
        first = mam_batch(prob, max_iter=20000)
        warm = mam_batch(prob, init_plans=first.plans, max_iter=20000)
        assert warm.iterations[0] <= first.iterations[0]

    def test_warm_start_shape_checked(self):
        rng = np.random.default_rng(10)
        prob = random_problem(rng, s=(1, 3, 7))
        plans = mam_batch(prob, max_iter=5).plans
        with pytest.raises(ValueError, match=r"warm-start plans shape \(11, 4\) != \(4, 11\)"):
            mam_batch(prob, init_plans=plans.T)

    def test_invalid_rho_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            mam_batch(random_problem(rng), rho=0.0)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_nonpositive_max_iter_rejected(self, max_iter):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            mam_batch(random_problem(rng), max_iter=max_iter)

    @pytest.mark.parametrize("rho", [np.nan, np.inf, -np.inf])
    def test_non_finite_rho_rejected(self, rho):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="^rho must be finite and positive"):
            mam_batch(random_problem(rng), rho=rho)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True])
    def test_non_integer_max_iter_rejected(self, max_iter):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="^max_iter must be an integer >= 1"):
            mam_batch(random_problem(rng), max_iter=max_iter)


class TestProjection:
    """The scaled-simplex kernel of the general loop, against the scalar
    reference projection."""

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
        sol = mam_batch(batch, rho=rho, max_iter=120, tol_marginal=1e-6,
                        init_plans=np.concatenate(sum(starts, []), axis=1) if warm else None)
        for k, prob in enumerate(problems):
            one = mam_batch(prob, rho=rho, max_iter=120, tol_marginal=1e-6,
                            init_plans=np.concatenate(starts[k], axis=1) if warm else None)
            lo, hi = batch.atom_ptr[batch.measure_ptr[k:k + 2]]
            assert sol.iterations[k] == one.iterations[0]
            assert sol.converged[k] == one.converged[0]
            assert np.max(np.abs(sol.p[k] - one.p[0])) <= 1e-12
            assert np.max(np.abs(sol.plans[:, lo:hi] - one.plans)) <= 1e-12

    def test_converged_problem_is_frozen(self):
        # Problems of one shape, each converging after its own number of
        # iterations.  They pad alike, so the batch must give each exactly
        # what it gets alone: a problem that stops is not moved again.  The
        # first three (R = 3) stop after 1809, 495 and 1164 iterations, in
        # three windows of the stopping test.  The others stop inside one
        # window at different iterations: 1343 and 1340 (R = 3); 398 and
        # 401, and 858 and 856 (R = 2).  Their data are continuous, so a
        # stop inside a window must also give the plans of the per-iteration
        # reference loops, which the window's later iterations move.
        cases = [(12, 3, 3, [0, 1, 2]), (13, 3, 16, [2, 4, 6]),
                 (13, 2, 16, [1, 5, 13, 6, 15])]
        ends = np.cumsum([1, 2, 4, 8, 16] + [mam._WINDOW] * 62)
        shared = 0
        for seed, r, count, picks in cases:
            rng = np.random.default_rng(seed)
            drawn = [random_problem(rng, m=3, r=r, s=4) for _ in range(count)]
            problems = [drawn[i] for i in picks]
            sol = mam_batch(stack(problems), max_iter=2000)
            assert sol.converged.all() and len(set(sol.iterations.tolist())) == len(picks)
            windows = np.searchsorted(ends, sol.iterations)
            shared += len(picks) - len(set(windows.tolist()))
            with (mock.patch.object(mam, "_iterate", reference_iterate),
                  mock.patch.object(mam, "_iterate_one_row", reference_iterate_one_row)):
                ref = mam_batch(stack(problems), max_iter=2000)
            for name in ("iterations", "converged", "p", "plans"):
                assert np.array_equal(getattr(sol, name), getattr(ref, name)), name
            for k, prob in enumerate(problems):
                one = mam_batch(prob, max_iter=2000)
                assert ((sol.iterations[k], sol.converged[k])
                        == (one.iterations[0], one.converged[0]))
                assert np.array_equal(sol.p[k], one.p[0])
                assert np.array_equal(sol.plans[:, 12 * k:12 * (k + 1)], one.plans)
        assert shared == 3


class TestWindowedLoops:
    @settings(max_examples=150, deadline=None)
    @given(problem_lists(), st.booleans(), st.sampled_from([None, 0.05]),
           st.sampled_from([1, 2, 3, 31, 32, 33, 64, 100]), st.sampled_from([0.0, 1e-9, 1e-6]),
           st.sampled_from([mam._WINDOW_ENTRIES, 6]))
    def test_match_the_per_iteration_loops(self, problems, warm, rho, max_iter, tol, entries):
        # Windows end after iterations 1, 3, 7, 15, 31, 63 and 95: the caps
        # end runs on, just before and just after a window's end.  A bound
        # of 6 entries sends the larger of these batches to windows of one
        # iteration until enough problems leave.
        rng = np.random.default_rng(len(problems))
        batch = stack(problems)
        starts = (np.concatenate(sum((product_plans(rng, prob) for prob in problems), []),
                                 axis=1) if warm else None)
        args = dict(rho=rho, max_iter=max_iter, tol_marginal=tol, init_plans=starts)
        with mock.patch.object(mam, "_WINDOW_ENTRIES", entries):
            sol = mam_batch(batch, **args)
        with (mock.patch.object(mam, "_iterate", reference_iterate),
              mock.patch.object(mam, "_iterate_one_row", reference_iterate_one_row)):
            ref = mam_batch(batch, **args)
        for name in ("iterations", "converged", "p", "plans"):
            assert np.array_equal(getattr(sol, name), getattr(ref, name)), name

    @pytest.mark.parametrize("r", [2, 3])
    def test_nan_gaps_stop_what_they_stopped(self, r):
        # A subnormal rho makes the steps of a problem with positive costs
        # inf - inf, and its gaps NaN.  The one-row loop then stopped no
        # problem of the batch, the general loop all others as usual; the
        # zero-cost problem here converges after one iteration by itself.
        rng = np.random.default_rng(3)
        problems = [random_problem(rng, m=2, r=r, s=3),
                    BarycenterProblem(q=[np.array([0.5, 0.5])], D=[np.zeros((r, 2))],
                                      alpha=np.ones(1))]
        with np.errstate(all="ignore"):
            sol = mam_batch(stack(problems), rho=5e-324, max_iter=40)
            with (mock.patch.object(mam, "_iterate", reference_iterate),
                  mock.patch.object(mam, "_iterate_one_row", reference_iterate_one_row)):
                ref = mam_batch(stack(problems), rho=5e-324, max_iter=40)
        assert np.isnan(sol.plans).any()
        assert sol.converged.tolist() == [False, r > 2]
        for name in ("iterations", "converged", "p", "plans"):
            assert np.array_equal(getattr(sol, name), getattr(ref, name), equal_nan=True), name


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
        sol = mam_batch(batch, **args)
        with mock.patch.object(mam, "_iterate_one_row", mam._iterate):
            ref = mam_batch(batch, **args)
        assert np.array_equal(sol.iterations, ref.iterations)
        assert np.array_equal(sol.converged, ref.converged)
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
    print(f"process max RSS {peak_mb:.0f} MB")
    assert runs["one-row"][0] == runs["general"][0]
    assert runs["one-row"][1] == pytest.approx(runs["general"][1], rel=1e-9)


@pytest.mark.slow
def test_windowed_loops_at_paper_scale():
    # The paper's largest instance, 97,656 nodes, onto a binary tree of 255
    # by MAM.  The windowed loops must take the same inner iterations to
    # bitwise the same final_nd as the per-iteration references.
    orig = generate_random(7, 5, seed=1)
    start = random_init([2] * 7, seed=1)
    config = ReductionConfig(solver="mam", tol=1e-12, max_outer=3, mam_max_iter=300)
    runs = {}
    for name, one_row, general in (
            ("windowed", mam._iterate_one_row, mam._iterate),
            ("reference", reference_iterate_one_row, reference_iterate)):
        with (mock.patch.object(mam, "_iterate_one_row", one_row),
              mock.patch.object(mam, "_iterate", general)):
            tick = time.perf_counter()
            _, report = reduce_tree(orig, start, config)
            seconds = time.perf_counter() - tick
        runs[name] = (sum(r["iterations"] for r in report.solver_log), report.final_nd)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"\n{name} loops: {seconds:.2f} s, {runs[name][0]} inner iterations, "
              f"final_nd {report.final_nd!r}, process max RSS {peak_mb:.0f} MB")
    assert runs["windowed"] == runs["reference"]
