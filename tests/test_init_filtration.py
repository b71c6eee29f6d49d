import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batches import n_children
from treeshrink import init_filtration
from treeshrink.init_filtration import (ScenarioMatrix, _pairwise_buffers, _pairwise_sum,
                                        _squared_distances, ffs_init, kmeans_init,
                                        merge_prefixes, random_init)
from treeshrink.tree import fan_tree


def ffs_objective(scenarios, selected, order=2):
    """Reference: transport cost of the discarded mass for a selected index set."""
    flat = scenarios.flat()
    diff = flat[:, None, :] - flat[None, :, :]
    sq = np.sum(diff * diff, axis=2)
    cost = sq if order == 2 else np.sqrt(sq) ** order
    selected = np.asarray(sorted(selected))
    rest = np.setdiff1d(np.arange(scenarios.S), selected)
    if rest.size == 0:
        return 0.0
    return float(np.sum(scenarios.prob[rest] * cost[np.ix_(rest, selected)].min(axis=1)))


def matrix_from_values(values, probs=None, t_levels=2):
    """1-d scenarios constant after stage 0: path = (0, v, v, ...)."""
    values = np.asarray(values, dtype=float)
    s = values.shape[0]
    paths = np.zeros((s, t_levels, 1))
    for t in range(1, t_levels):
        paths[:, t, 0] = values
    probs = np.full(s, 1.0 / s) if probs is None else np.asarray(probs, float)
    return ScenarioMatrix(paths, probs)


def ffs_reference(scenarios, k, order=2):
    """Greedy forward selection scored one candidate at a time.

    Each candidate's score is the sum over the not-selected scenarios, in
    index order, of probability times capped cost.  The candidate's own term
    is zero; keeping it in the sum gives duplicated scenarios bit-for-bit
    equal scores, so the lowest index wins among them.  Nearest-selected
    redistribution, one scenario at a time.
    """
    x = scenarios.flat()
    diff = x[:, None, :] - x[None, :, :]
    sq = np.sum(diff * diff, axis=2)
    cost = sq if order == 2 else np.sqrt(sq) ** order
    w = scenarios.prob
    s_count = scenarios.S
    selected = []
    best_dist = np.full(s_count, np.inf)
    remaining = np.ones(s_count, dtype=bool)
    for _ in range(k):
        candidates = np.flatnonzero(remaining)
        scores = np.empty(candidates.shape[0])
        for idx, u in enumerate(candidates):
            d_after = np.minimum(best_dist, cost[u])
            scores[idx] = float(np.sum(w[remaining] * d_after[remaining]))
        u_star = int(candidates[int(np.argmin(scores))])
        selected.append(u_star)
        remaining[u_star] = False
        best_dist = np.minimum(best_dist, cost[u_star])
    selected = np.array(sorted(selected))
    new_w = w.copy()
    new_w[~np.isin(np.arange(s_count), selected)] = 0.0
    for j in np.flatnonzero(remaining):
        nearest = selected[int(np.argmin(cost[j, selected]))]
        new_w[nearest] += w[j]
    return fan_tree(scenarios.paths[selected], new_w[selected])


def kmeans_reference(scenarios, k, seed=0, max_iter=300, tol=1e-6, distances=None):
    """Lloyd clustering with the assignment distances of one (S, k, width) broadcast.

    Each step's (S, k) distances are appended to ``distances`` when given.
    """
    rng = np.random.default_rng(seed)
    x = scenarios.flat()
    w = scenarios.prob
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.choice(scenarios.S, p=w / w.sum())]
    closest = np.sum((x - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        weights = w * closest
        if weights.sum() <= 0:
            centers[c] = x[int(np.argmax(closest))]
        else:
            centers[c] = x[rng.choice(scenarios.S, p=weights / weights.sum())]
        closest = np.minimum(closest, np.sum((x - centers[c]) ** 2, axis=1))
    inertia = np.inf
    for _ in range(max_iter):
        d2 = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        if distances is not None:
            distances.append(d2)
        assign = np.argmin(d2, axis=1)
        new_inertia = float(np.sum(w * d2[np.arange(scenarios.S), assign]))
        for c in range(k):
            sel = assign == c
            mass = w[sel].sum()
            if mass > 0:
                centers[c] = w[sel] @ x[sel] / mass
            else:
                far = int(np.argmax(d2[np.arange(scenarios.S), assign]))
                centers[c] = x[far]
                assign[far] = c
        if inertia - new_inertia <= tol * max(new_inertia, 1.0):
            break
        inertia = new_inertia
    masses = np.array([w[assign == c].sum() for c in range(k)])
    return fan_tree(centers.reshape(k, *scenarios.paths.shape[1:]), masses)


def assert_same_tree(a, b):
    assert np.array_equal(a.parent, b.parent)
    assert np.array_equal(a.quantizer, b.quantizer)
    assert np.array_equal(a.prob, b.prob)


class TestKmeans:
    def test_k_equals_s_preserves_scenarios(self):
        sm = matrix_from_values([0.0, 2.0, 5.0, 9.0], [0.1, 0.2, 0.3, 0.4])
        t = kmeans_init(sm, 4, seed=0)
        assert t.validate() == []
        leaf_vals = sorted(t.quantizer[t.leaves(), 0])
        assert leaf_vals == pytest.approx([0.0, 2.0, 5.0, 9.0])
        got = {round(float(t.quantizer[l, 0]), 9): float(t.prob[l]) for l in t.leaves()}
        assert got[2.0] == pytest.approx(0.2)

    def test_k_one_weighted_mean(self):
        sm = matrix_from_values([0.0, 10.0], [0.25, 0.75])
        t = kmeans_init(sm, 1, seed=0)
        assert t.quantizer[int(t.leaves()[0]), 0] == pytest.approx(7.5)
        assert t.prob[int(t.leaves()[0])] == pytest.approx(1.0)

    def test_two_well_separated_clusters(self):
        sm = matrix_from_values([0.0, 0.1, 10.0, 10.1])
        t = kmeans_init(sm, 2, seed=0)
        centers = sorted(t.quantizer[t.leaves(), 0])
        assert centers == pytest.approx([0.05, 10.05])
        assert sorted(t.prob[t.leaves()]) == pytest.approx([0.5, 0.5])

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(0)
        sm = ScenarioMatrix(rng.normal(size=(30, 4, 2)), np.full(30, 1 / 30))
        t1 = kmeans_init(sm, 5, seed=3)
        t2 = kmeans_init(sm, 5, seed=3)
        assert np.array_equal(t1.quantizer, t2.quantizer)
        assert np.array_equal(t1.prob, t2.prob)

    def test_output_valid(self):
        rng = np.random.default_rng(1)
        sm = ScenarioMatrix(rng.normal(size=(40, 5, 2)),
                            rng.dirichlet(np.ones(40)))
        assert kmeans_init(sm, 7, seed=0).validate() == []

    def test_k_out_of_range(self):
        sm = matrix_from_values([0.0, 1.0])
        with pytest.raises(ValueError):
            kmeans_init(sm, 3)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6))
    def test_stops_at_a_lloyd_fixed_point(self, seed, k):
        # With tol=0 the loop stops once a Lloyd step no longer lowers the
        # inertia: every scenario sits at its nearest centroid, and every
        # centroid is the probability-weighted mean of its cluster.
        rng = np.random.default_rng(seed)
        paths = rng.normal(size=(30, 3, 2))
        paths[:, 0] = 0.0
        sm = ScenarioMatrix(paths, rng.dirichlet(np.ones(30)))
        fan = ScenarioMatrix.from_tree(kmeans_init(sm, k, seed=seed, tol=0.0))
        x, centers = sm.flat(), fan.flat()
        nearest = np.argmin(np.sum((x[:, None, :] - centers[None]) ** 2, axis=2), axis=1)
        for c in range(k):
            w = sm.prob[nearest == c]
            assert fan.prob[c] == pytest.approx(w.sum(), rel=1e-12)
            assert centers[c] == pytest.approx(w @ x[nearest == c] / w.sum(), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_bitwise_the_broadcast_assignment(self, monkeypatch, seed):
        # The tree, and the distances of every Lloyd step on the way.
        rng = np.random.default_rng(seed)
        sm = ScenarioMatrix(rng.normal(size=(200, 5, 2)), rng.dirichlet(np.ones(200)))
        got, want = [], []

        def recorded(term, lo, hi, out, scratch):
            _pairwise_sum(term, lo, hi, out, scratch)
            got.append(out.copy())

        monkeypatch.setattr(init_filtration, "_pairwise_sum", recorded)
        assert_same_tree(kmeans_init(sm, 12, seed=seed),
                         kmeans_reference(sm, 12, seed=seed, distances=want))
        assert [d.tobytes() for d in got] == [d.tobytes() for d in want]


class TestScenarioMatrix:
    @pytest.mark.parametrize("prob", [[np.nan, 1.0], [np.inf, 1.0], [-0.5, 1.5], [0.5, 0.6]])
    def test_probabilities_must_be_finite_and_on_the_simplex(self, prob):
        with pytest.raises(ValueError, match="^prob: "):
            ScenarioMatrix(np.zeros((2, 2)), prob)

    def test_probability_count_must_match(self):
        with pytest.raises(ValueError, match="one probability per scenario"):
            ScenarioMatrix(np.zeros((2, 2)), [1.0])


class TestFfs:
    def test_k_equals_s_keeps_fan(self):
        sm = matrix_from_values([0.0, 3.0, 8.0], [0.2, 0.5, 0.3])
        t = ffs_init(sm, 3)
        assert t.validate() == []
        assert sorted(t.quantizer[t.leaves(), 0]) == pytest.approx([0.0, 3.0, 8.0])
        got = {round(float(t.quantizer[l, 0]), 9): float(t.prob[l]) for l in t.leaves()}
        assert got[3.0] == pytest.approx(0.5)

    def test_three_point_example(self):
        # candidate scores with squared cost: 101/3, 82/3, 181/3 -> picks 1
        sm = matrix_from_values([0.0, 1.0, 10.0])
        t = ffs_init(sm, 1)
        assert t.quantizer[int(t.leaves()[0]), 0] == pytest.approx(1.0)
        assert t.prob[int(t.leaves()[0])] == pytest.approx(1.0)

    def test_greedy_steps_match_exhaustive_step_search(self):
        # Every greedy pick must minimize the one-step objective evaluated by
        # direct enumeration over all remaining candidates.
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = int(rng.integers(2, 7))
            sm = ScenarioMatrix(rng.uniform(-5, 5, (s, 3, 1)),
                                rng.dirichlet(np.ones(s)))
            flat = sm.flat()
            cost = np.sum((flat[:, None, :] - flat[None, :, :]) ** 2, axis=2)
            selected = []
            for _step in range(s - 1):
                best_u, best_val = None, np.inf
                for u in range(s):
                    if u in selected:
                        continue
                    cand = selected + [u]
                    rest = [j for j in range(s) if j not in cand]
                    val = sum(sm.prob[j] * min(cost[j, i] for i in cand)
                              for j in rest)
                    if val < best_val - 1e-12:
                        best_u, best_val = u, val
                selected.append(best_u)
                t = ffs_init(sm, len(selected))
                got = sorted(t.quantizer[t.leaves(), 0])
                want = sorted(flat[selected][:, 2])  # leaves carry stage-2 values
                assert got == pytest.approx(want)

    def test_k_s_minus_one_matches_subset_search(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = int(rng.integers(3, 7))
            sm = ScenarioMatrix(rng.uniform(-5, 5, (s, 2, 1)),
                                rng.dirichlet(np.ones(s)))
            t = ffs_init(sm, s - 1)
            got = sorted(np.round(t.quantizer[t.leaves(), 0], 9))
            best_subset, best_val = None, np.inf
            for subset in itertools.combinations(range(s), s - 1):
                val = ffs_objective(sm, list(subset))
                if val < best_val - 1e-12:
                    best_subset, best_val = subset, val
            want = sorted(np.round(sm.paths[list(best_subset), 1, 0], 9))
            assert got == pytest.approx(want)

    def test_objective_nonincreasing_in_k(self):
        rng = np.random.default_rng(4)
        sm = ScenarioMatrix(rng.uniform(-5, 5, (12, 3, 2)),
                            rng.dirichlet(np.ones(12)))
        tail = sm.paths[:, 1:, :].reshape(12, -1)  # fan branches copy these
        prev = np.inf
        for k in range(1, 13):
            t = ffs_init(sm, k)
            chains = t.path_values()[:, 1:, :].reshape(len(t.leaves()), -1)
            sel = sorted(int(np.flatnonzero(np.all(tail == row, axis=1))[0])
                         for row in chains)
            val = ffs_objective(sm, sel)
            assert val <= prev + 1e-9
            prev = val

    def test_restores_numpys_buffer_size(self):
        # The kernels shrink numpy's ufunc buffer while they run.
        rng = np.random.default_rng(6)
        sm = ScenarioMatrix(rng.normal(size=(30, 3, 2)), rng.dirichlet(np.ones(30)))
        before = np.getbufsize()
        ffs_init(sm, 5)
        assert np.getbufsize() == before

    def test_redistribution_mass_conserved(self):
        rng = np.random.default_rng(5)
        sm = ScenarioMatrix(rng.uniform(-3, 3, (10, 3, 1)),
                            rng.dirichlet(np.ones(10)))
        t = ffs_init(sm, 4)
        assert t.validate() == []
        assert t.prob[t.leaves()].sum() == pytest.approx(1.0, abs=1e-12)


class TestFfsAgainstReference:
    """ffs_init returns bit for bit the tree of the one-candidate loop."""

    @staticmethod
    def instance(seed, s_count, stages=3, dim=2):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(s_count, stages, dim)), rng.dirichlet(np.ones(s_count))

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_scenarios(self, seed, order):
        paths, prob = self.instance(seed, 40)
        sm = ScenarioMatrix(paths, prob)
        for k in (1, 7, 25):
            assert_same_tree(ffs_init(sm, k, order=order),
                             ffs_reference(sm, k, order=order))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_duplicated_scenarios_tie_to_lowest_index(self, order):
        paths, prob = self.instance(7, 30)
        paths[[4, 11, 23]] = paths[2]
        paths[[17, 29]] = paths[9]
        sm = ScenarioMatrix(paths, prob)
        for k in range(1, 31):
            assert_same_tree(ffs_init(sm, k, order=order),
                             ffs_reference(sm, k, order=order))

    def test_exact_duplicates_pick_lowest_index(self):
        # Scenarios 0 and 2 coincide; whichever is picked, 1 and 3 are equal
        # scores for the second pick as well.
        paths = np.array([[0.0, 1.0], [0.0, 5.0], [0.0, 1.0], [0.0, 5.0]])
        sm = ScenarioMatrix(paths, [0.25, 0.25, 0.25, 0.25])
        t = ffs_init(sm, 2)
        assert t.quantizer[t.leaves(), 0] == pytest.approx([1.0, 5.0])
        assert t.prob[t.leaves()] == pytest.approx([0.5, 0.5])
        assert_same_tree(t, ffs_reference(sm, 2))

    @pytest.mark.parametrize("seed", [3, 10, 11])
    def test_many_duplicates_pick_lowest_index(self, seed):
        # Six copies of one scenario among 40: every copy scores the same,
        # so a selected copy must be the lowest-index one still available.
        # Branches follow scenario order, so mapping each branch to the
        # lowest index with its path must keep that order.
        rng = np.random.default_rng(seed)
        paths, prob = rng.normal(size=(40, 3, 2)), rng.dirichlet(np.ones(40))
        copies = rng.choice(40, 6, replace=False)
        paths[copies[1:]] = paths[copies[0]]
        sm = ScenarioMatrix(paths, prob)
        tail = paths[:, 1:, :].reshape(40, -1)
        for k in (5, 10, 20):
            t = ffs_init(sm, k)
            chains = t.path_values()[:, 1:, :].reshape(k, -1)
            lowest = [int(np.flatnonzero(np.all(tail == row, axis=1))[0]) for row in chains]
            assert lowest == sorted(set(lowest))
            assert_same_tree(t, ffs_reference(sm, k))

    @pytest.mark.parametrize("order", [1, 3])
    def test_zero_probability_scenarios(self, order):
        paths, prob = self.instance(11, 36)
        prob[::3] = 0.0
        prob /= prob.sum()
        sm = ScenarioMatrix(paths, prob)
        for k in (1, 5, 24, 30, 36):
            assert_same_tree(ffs_init(sm, k, order=order),
                             ffs_reference(sm, k, order=order))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_k_equals_s(self, order):
        paths, prob = self.instance(13, 20)
        prob[5] = 0.0
        paths[8] = paths[3]
        sm = ScenarioMatrix(paths, prob / prob.sum())
        assert_same_tree(ffs_init(sm, 20, order=order),
                         ffs_reference(sm, 20, order=order))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_integer_paths_with_ties(self, data):
        # Integer coordinates make many distances, and many scores, tie
        # exactly; copies and zero probabilities add more.
        s_count = data.draw(st.integers(1, 25))
        stages, dim = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 2))
        paths = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=s_count * stages * dim,
                                            max_size=s_count * stages * dim)),
                         dtype=float).reshape(s_count, stages, dim)
        for i in data.draw(st.lists(st.integers(0, s_count - 1), max_size=4)):
            paths[i] = paths[data.draw(st.integers(0, s_count - 1))]
        prob = np.array(data.draw(st.lists(st.integers(0, 3), min_size=s_count,
                                           max_size=s_count)), dtype=float)
        prob[data.draw(st.integers(0, s_count - 1))] += 1.0
        sm = ScenarioMatrix(paths, prob / prob.sum())
        order = data.draw(st.sampled_from([1, 2, 3]))
        for k in range(1, s_count + 1):
            assert_same_tree(ffs_init(sm, k, order=order), ffs_reference(sm, k, order=order))

    def test_peak_memory_below_pairwise_temporary(self):
        # A (600, 600, 40) float temporary alone would take 115 MB.
        paths, prob = self.instance(17, 600, stages=10, dim=4)
        sm = ScenarioMatrix(paths, prob)
        tracemalloc.start()
        try:
            ffs_init(sm, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_peak_memory_near_one_cost_matrix(self):
        # Narrow paths: the (S, S) cost matrix is nearly all the memory, and
        # the picks add only one row block of bounded size to it.
        paths, prob = self.instance(19, 1500, stages=2, dim=1)
        sm = ScenarioMatrix(paths, prob)
        tracemalloc.start()
        try:
            ffs_init(sm, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.35 * 1500 * 1500 * 8


def test_pairwise_sum_is_numpys_order():
    # Up to 7 terms a plain loop, up to 128 eight running sums, then splits.
    rng = np.random.default_rng(0)
    for n in range(1, 301):
        stack = rng.normal(size=(5, n)) * rng.choice([1e-8, 1.0, 1e8], size=(5, n))
        out = np.empty(5)
        scratch = np.empty((_pairwise_buffers(n), 5))
        _pairwise_sum(lambda i, buffer: np.copyto(buffer, stack[:, i]), 0, n, out, scratch)
        assert out.tobytes() == np.sum(stack, axis=-1).tobytes(), n


class TestSquaredDistances:
    """Row blocks above the diagonal, mirrored, against one (S, S, d) broadcast."""

    @pytest.mark.parametrize("width", [*range(1, 25), 129, 136, 257])
    @pytest.mark.parametrize("step", [1, 4, 37])
    def test_bitwise_the_broadcast_and_symmetric(self, monkeypatch, width, step):
        # S = 37 is no multiple of 4; with step 37 one block covers the rows.
        # Above 128 coordinates numpy splits the sum once (129, 136) or twice (257).
        rng = np.random.default_rng(width)
        flat = rng.normal(size=(37, width)) * rng.choice([1e-3, 1.0, 1e4], size=(37, 1))
        flat[[5, 30]] = flat[12]
        live = 1 + _pairwise_buffers(width)
        monkeypatch.setattr(init_filtration, "_BLOCK_ENTRIES", step * 37 * live)
        diff = flat[:, None, :] - flat[None, :, :]
        out = _squared_distances(flat)
        assert out.tobytes() == np.sum(diff * diff, axis=2).tobytes()
        assert out.tobytes() == out.T.copy().tobytes()


class TestRandomInit:
    def test_structure(self):
        t = random_init([2, 2, 2], seed=0)
        assert t.n_nodes == 15
        assert len(t.leaves()) == 8
        assert t.validate() == []

    def test_seed_reproducibility(self):
        t1 = random_init([3, 2], dim=2, seed=9)
        t2 = random_init([3, 2], dim=2, seed=9)
        assert np.array_equal(t1.quantizer, t2.quantizer)
        assert np.array_equal(t1.prob, t2.prob)

    def test_probabilities_random_but_valid(self):
        t = random_init([4, 3], seed=1)
        assert t.validate() == []
        kids = t.prob[t.children(0)]
        assert not np.allclose(kids, kids[0])  # not uniform

    def test_range(self):
        t = random_init([2, 2], value_range=(3.0, 4.0), seed=2)
        assert t.quantizer.min() >= 3.0 and t.quantizer.max() <= 4.0

    @pytest.mark.parametrize("branching, index", [([2.5, 2], 0), ([True, 2], 0), ([2, 0], 1)])
    def test_branching_entries_must_be_integers_at_least_one(self, branching, index):
        with pytest.raises(ValueError, match=rf"^branching\[{index}\] must be an integer >= 1"):
            random_init(branching)

    def test_numpy_integer_branching_accepted(self):
        tree = random_init(np.array([2, 3]), seed=0)
        assert tree.n_nodes == 9
        assert tree.validate() == []

    def test_empty_branching_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            random_init([])


class TestMergePrefixes:
    def test_fan_with_shared_prefix(self):
        paths = np.array([
            [[0.0], [1.0], [2.0]],
            [[0.0], [1.0], [3.0]],
            [[0.0], [4.0], [5.0]],
        ])
        t = fan_tree(paths, np.array([0.25, 0.25, 0.5]))
        merged = merge_prefixes(t)
        assert merged.validate() == []
        # stage-1 nodes 1.0 and 4.0 only
        assert sorted(merged.quantizer[merged.stage_nodes(1), 0]) == \
            pytest.approx([1.0, 4.0])
        node_one = [n for n in merged.stage_nodes(1)
                    if merged.quantizer[n, 0] == 1.0][0]
        assert merged.prob[node_one] == pytest.approx(0.5)
        assert n_children(merged, node_one) == 2

    def test_no_merge_when_distinct(self):
        paths = np.array([[[0.0], [1.0]], [[0.0], [2.0]]])
        t = fan_tree(paths, np.array([0.5, 0.5]))
        merged = merge_prefixes(t)
        assert merged.n_nodes == t.n_nodes

    def test_tolerance(self):
        paths = np.array([[[0.0], [1.0], [0.0]], [[0.0], [1.0 + 1e-7], [1.0]]])
        t = fan_tree(paths, np.array([0.5, 0.5]))
        assert merge_prefixes(t, tol=0.0).stage_nodes(1).shape[0] == 2
        assert merge_prefixes(t, tol=1e-6).stage_nodes(1).shape[0] == 1
