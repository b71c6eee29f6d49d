import itertools

import numpy as np
import pytest

from treeshrink import ot_core
from treeshrink.ot_core import (BarycenterProblem, barycenter_lp, block_entries,
                                project_columns_scaled_simplex,
                                project_scaled_simplex, transport_lp,
                                wasserstein_lp)


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
        real = ot_core.linprog

        def counting(c, **kwargs):
            calls.append(kwargs["A_eq"].shape[0])
            return real(c, **kwargs)

        monkeypatch.setattr(ot_core, "_LP_MAX_ROWS", 20)
        monkeypatch.setattr(ot_core, "linprog", counting)
        values, x = transport_lp(row_mass, row_ptr, col_mass, col_ptr, cost)
        assert calls == [11, 25, 20, 4]
        monkeypatch.undo()
        off = 0
        for k, (r, s) in enumerate(sizes):
            d = cost[off:off + r * s].reshape(r, s)
            plan = x[off:off + r * s].reshape(r, s)
            ref, _ = wasserstein_lp(row_mass[row_ptr[k]:row_ptr[k + 1]],
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
            assert ps.column_marginal_error(prob) < 1e-9
            assert ps.row_marginal_error() < 1e-9
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

    def test_column_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        Y = rng.uniform(-2, 2, (5, 8))
        tau = rng.uniform(0, 1, 8)
        tau[3] = 0.0
        out = project_columns_scaled_simplex(Y, tau)
        for s in range(8):
            assert out[:, s] == pytest.approx(
                project_scaled_simplex(Y[:, s], tau[s]), abs=1e-12)
