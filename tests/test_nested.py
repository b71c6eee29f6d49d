import resource
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from batches import (block_matrix, chunks_reference, conditional_children_probs,
                     lone_transport, ragged_trees, relabel, stage_position)
from treeshrink import nested, ot_core
from treeshrink.init_filtration import random_init
from treeshrink.nested import nested_distance
from treeshrink.ot_core import packs
from treeshrink.reduce import ReductionConfig, reduce_tree
from treeshrink.tree import (ScenarioTree, TreeValidationError, generate_random, fan_tree,
                             path_cost_table)


def fan(leaf_values, probs, root=0.0):
    paths = np.stack([np.array([[root], [v]]) for v in leaf_values])
    return fan_tree(paths, np.asarray(probs, dtype=float))


class TestIdentity:
    def test_identity_is_zero(self):
        for seed in range(5):
            t = generate_random(3, 3, dim=2, seed=seed)
            nd, _ = nested_distance(t, t)
            assert nd == pytest.approx(0.0, abs=1e-9)

    def test_leaf_table_equals_path_costs(self):
        a = generate_random(2, 2, seed=0)
        b = generate_random(2, 3, seed=1)
        _, tables = nested_distance(a, b)
        assert np.allclose(tables[a.T], path_cost_table(a, b))


class TestTwoStageFans:
    def test_equals_plain_transport(self):
        # With a shared root, the recursion collapses to one transport problem
        # between the leaf distributions.
        rng = np.random.default_rng(0)
        vals_a = rng.uniform(-5, 5, 4)
        vals_b = rng.uniform(-5, 5, 3)
        pa = rng.dirichlet(np.ones(4))
        pb = rng.dirichlet(np.ones(3))
        a = fan(vals_a, pa)
        b = fan(vals_b, pb)
        nd, _ = nested_distance(a, b)
        D = (vals_a[:, None] - vals_b[None, :]) ** 2
        cost, _ = lone_transport(pa, pb, D)
        assert nd ** 2 == pytest.approx(cost, abs=1e-9)

    def test_half_half_versus_point(self):
        a = fan([0.0, 1.0], [0.5, 0.5])
        b = fan([0.0], [1.0])
        nd, _ = nested_distance(a, b)
        assert nd ** 2 == pytest.approx(0.5, abs=1e-12)


class TestMetricProperties:
    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            t_stages = int(rng.integers(1, 4))
            a = generate_random(t_stages, int(rng.integers(1, 4)),
                                seed=int(rng.integers(1000)))
            b = generate_random(t_stages, int(rng.integers(1, 4)),
                                seed=int(rng.integers(1000)))
            nd_ab, _ = nested_distance(a, b)
            nd_ba, _ = nested_distance(b, a)
            assert nd_ab == pytest.approx(nd_ba, abs=1e-9)

    def test_upper_bounds_path_wasserstein(self):
        # Couplings of the recursion respect all conditional marginals, so the
        # optimum can only exceed the unconstrained leaf-path transport.
        rng = np.random.default_rng(2)
        for _ in range(5):
            t_stages = int(rng.integers(1, 4))
            a = generate_random(t_stages, int(rng.integers(2, 4)),
                                seed=int(rng.integers(1000)))
            b = generate_random(t_stages, int(rng.integers(2, 4)),
                                seed=int(rng.integers(1000)))
            nd, _ = nested_distance(a, b)
            costs = path_cost_table(a, b)
            w, _ = lone_transport(a.prob[a.leaves()], b.prob[b.leaves()], costs)
            assert nd ** 2 >= w - 1e-7

    def test_triangle_inequality_spot_checks(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            t_stages = int(rng.integers(1, 3))
            trees = [generate_random(t_stages, int(rng.integers(1, 4)),
                                     seed=int(rng.integers(1000)))
                     for _ in range(3)]
            nd = {}
            for i in range(3):
                for j in range(i + 1, 3):
                    nd[(i, j)], _ = nested_distance(trees[i], trees[j])
            assert nd[(0, 1)] <= nd[(0, 2)] + nd[(1, 2)] + 1e-7
            assert nd[(0, 2)] <= nd[(0, 1)] + nd[(1, 2)] + 1e-7
            assert nd[(1, 2)] <= nd[(0, 1)] + nd[(0, 2)] + 1e-7


class TestErrorsAndOptions:
    def test_mismatched_stages_raise(self):
        a = generate_random(2, 2, seed=0)
        b = generate_random(3, 2, seed=0)
        with pytest.raises(ValueError):
            nested_distance(a, b)

    def test_mismatched_dim_raises(self):
        a = generate_random(2, 2, dim=1, seed=0)
        b = generate_random(2, 2, dim=2, seed=0)
        with pytest.raises(ValueError):
            nested_distance(a, b)

    @pytest.mark.parametrize("rootless_side", ["a", "b", "both"])
    def test_rootless_tree_raises(self, rootless_side):
        rootless = ScenarioTree([1, 2, 0], np.zeros((3, 1)), [1.0, 1.0, 1.0])
        rooted = generate_random(2, 2, seed=0)
        a = rootless if rootless_side in ("a", "both") else rooted
        b = rootless if rootless_side in ("b", "both") else rooted
        with pytest.raises(TreeValidationError, match="expected exactly one root, found 0"):
            nested_distance(a, b)

    def test_early_leaf_raises(self):
        # Node 1 ends at stage 1 although the tree has leaves at stage 2.
        early = ScenarioTree([-1, 0, 0, 2], [0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="no children"):
            nested_distance(early, generate_random(2, 2, seed=0))

    @pytest.mark.parametrize("order", [float("inf"), float("nan")])
    def test_non_finite_order_raises(self, order):
        a = generate_random(2, 2, seed=0)
        with pytest.raises(ValueError, match="at least 1 and finite"):
            nested_distance(a, a, order=order)

    @pytest.mark.parametrize("branching", [2, 3])
    def test_overflowing_order_raises_before_any_solve(self, branching, monkeypatch):
        # Path costs above 1 raised to the power 1000 overflow.  With two
        # children per node no pair reaches HiGHS, and the greedy used to
        # turn the infinite costs into a nan distance.
        a = generate_random(2, branching, seed=1)
        b = generate_random(2, branching, seed=2)
        monkeypatch.setattr(nested, "transport_lp", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ValueError, match="not finite"):
            nested_distance(a, b, order=1000)

    def test_root_value_property(self):
        a = generate_random(2, 2, seed=6)
        b = generate_random(2, 2, seed=7)
        nd, tables = nested_distance(a, b)
        assert nd == pytest.approx(tables[0][0, 0] ** 0.5)


def highs_transport(q, q_other, D):
    """Optimal transport cost by one direct HiGHS solve."""
    r, s = D.shape
    a_eq = np.vstack([np.kron(np.eye(r), np.ones(s)), np.kron(np.ones(r), np.eye(s))])
    res = linprog(D.ravel(), A_eq=a_eq, b_eq=np.concatenate([q, q_other]),
                  bounds=(0, None), method="highs-ds")
    assert res.success
    return res.fun


def reference_nd(tree_a, tree_b, order=2):
    """The backward recursion with one HiGHS transport LP per node pair."""
    table = path_cost_table(tree_a, tree_b, order=order)
    pos_a, pos_b = stage_position(tree_a), stage_position(tree_b)
    for t in range(tree_a.T - 1, -1, -1):
        table = np.array([[
            highs_transport(
                conditional_children_probs(tree_a, m),
                conditional_children_probs(tree_b, n),
                table[np.ix_(pos_a[tree_a.children(m)], pos_b[tree_b.children(n)])])
            for n in tree_b.stage_nodes(t)] for m in tree_a.stage_nodes(t)])
    return float(table[0, 0]) ** (1.0 / order)


@st.composite
def tree_pairs(draw, children=(1, 3)):
    big_t = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 2))
    return draw(ragged_trees(big_t, dim, children)), draw(ragged_trees(big_t, dim, children))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(tree_pairs())
    def test_matches_per_pair_reference(self, pair):
        a, b = pair
        assert a.validate() == [] and b.validate() == []
        nd, _ = nested_distance(a, b)
        assert nd == pytest.approx(reference_nd(a, b), rel=1e-9, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(tree_pairs())
    def test_symmetric(self, pair):
        a, b = pair
        nd_ab, t_ab = nested_distance(a, b)
        nd_ba, t_ba = nested_distance(b, a)
        assert nd_ab == pytest.approx(nd_ba, rel=1e-9, abs=1e-9)
        for x, y in zip(t_ab, t_ba):
            assert np.allclose(x, y.T, rtol=1e-9, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(tree_pairs(children=(3, 4)))
    def test_symmetric_where_every_pair_is_an_lp(self, pair):
        # With 3-4 children per node every branching pair is a HiGHS
        # transport LP.  Swapping the trees transposes each one; HiGHS may
        # pick another vertex, but not another optimum.
        a, b = pair
        nd_ab, _ = nested_distance(a, b)
        nd_ba, _ = nested_distance(b, a)
        assert nd_ab == pytest.approx(nd_ba, rel=1e-12, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(tree_pairs())
    def test_zero_on_identical_trees(self, pair):
        a, _ = pair
        _, tables = nested_distance(a, a)
        assert tables[0][0, 0] == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(tree_pairs(), st.randoms(use_true_random=False))
    def test_invariant_to_relabelling(self, pair, rnd):
        a, b = pair
        perm_a = np.array(rnd.sample(range(a.n_nodes), a.n_nodes))
        perm_b = np.array(rnd.sample(range(b.n_nodes), b.n_nodes))
        nd, _ = nested_distance(a, b)
        nd_relabelled, _ = nested_distance(relabel(a, perm_a), relabel(b, perm_b))
        assert nd_relabelled == pytest.approx(nd, rel=1e-9, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(tree_pairs())
    def test_two_atom_path_matches_forced_lp(self, pair):
        # Pairs where a node has two children take the greedy; scored with
        # every branching pair sent to HiGHS instead, each stage table agrees.
        a, b = pair
        nd, tables = nested_distance(a, b)
        with mock.patch.object(nested, "transport_lp", ot_core._packed_lps):
            nd_lp, tables_lp = nested_distance(a, b)
        assert nd == pytest.approx(nd_lp, rel=1e-9, abs=1e-9)
        for x, y in zip(tables, tables_lp):
            assert np.allclose(x, y, rtol=1e-9, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(tree_pairs(), st.randoms(use_true_random=False))
    def test_product_values_match_sparse_reference(self, pair, rnd):
        # Where one node of a pair has a single child, its table entry is
        # the product plan value Q_a @ tables[t+1] @ Q_b.T, here computed
        # with the sparse conditional matrices.
        a, b = (relabel(x, np.array(rnd.sample(range(x.n_nodes), x.n_nodes))) for x in pair)
        _, tables = nested_distance(a, b)
        for t in range(a.T):
            blocks_a, blocks_b = a.stage_blocks(t), b.stage_blocks(t)
            reference = block_matrix(blocks_a, blocks_a.cond) @ (
                block_matrix(blocks_b, blocks_b.cond) @ tables[t + 1].T).T
            single = (blocks_a.sizes == 1)[:, None] | (blocks_b.sizes == 1)[None, :]
            np.testing.assert_allclose(tables[t][single], reference[single], rtol=1e-12, atol=0)

    @settings(max_examples=30, deadline=None)
    @given(tree_pairs())
    def test_pair_chunks_do_not_change_tables(self, pair):
        a, b = pair
        _, tables = nested_distance(a, b)
        with mock.patch.object(nested, "_PAIR_MAX_ENTRIES", 7):
            _, chunked = nested_distance(a, b)
        for x, y in zip(tables, chunked):
            assert np.array_equal(x, y)


def test_pair_chunks_end_between_lps():
    # Stage 1 pairs two nodes with three children each against one with
    # three: two problems of 6 rows, packed into one HiGHS LP.  Chunks of
    # 7 entries would cut that LP in two, and HiGHS then returns another
    # vertex, one ulp off (0.0625 against 0.062499999999999986).
    a = ScenarioTree([-1, 0, 0, 1, 1, 1, 2, 2, 2], np.zeros(9), [1, .5, .5] + [1 / 6] * 6)
    b = ScenarioTree([-1, 0, 1, 1, 1], [0, 0, .25, .25, .25], [1, 1, .25, .25, .5])
    _, tables = nested_distance(a, b)
    with mock.patch.object(nested, "_PAIR_MAX_ENTRIES", 7):
        _, chunked = nested_distance(a, b)
    for x, y in zip(tables, chunked):
        assert x.tobytes() == y.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=40), st.integers(1, 40), st.data())
def test_pair_chunks_match_the_cut_loop(entries, limit, data):
    # _branching_pairs packs the runs of pairs between the allowed cuts.
    k = len(entries)
    inner = data.draw(st.lists(st.integers(1, k - 1), unique=True)) if k > 1 else []
    cuts = np.array([0] + sorted(inner) + [k])
    ends = np.concatenate(([0], np.cumsum(entries)))
    chunks = cuts[packs(np.diff(ends[cuts]), limit)]
    assert chunks.tolist() == chunks_reference(entries, cuts[1:], limit).tolist()


def test_at_most_one_lp_per_stage(monkeypatch):
    calls = []
    real = ot_core._highs

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(ot_core, "_highs", counting)
    # Every stage pairs branching nodes with three children each, in fewer LP
    # rows than one solve takes: one solve each.
    a = generate_random(3, 3, dim=2, seed=8)
    b = generate_random(3, 3, dim=2, seed=9)
    nested_distance(a, b)
    assert len(calls) == 3
    # Single-child nodes on one side leave nothing to solve, and neither do
    # two-child nodes, which take the greedy.
    calls.clear()
    nested_distance(a, generate_random(3, 1, dim=2, seed=10))
    nested_distance(a, generate_random(3, 2, dim=2, seed=9))
    assert calls == []


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000), scale=st.floats(2.0 ** -40, 2.0 ** 20))
def test_distance_is_homogeneous_in_the_quantizer_scale(seed, scale):
    # Four children against three at every stage: every stage reaches HiGHS.
    a = generate_random(3, 4, dim=2, seed=seed)
    b = random_init([3, 3, 3], dim=2, seed=seed)
    base, _ = nested_distance(a, b)
    scaled, _ = nested_distance(a.with_quantizer(a.quantizer * scale),
                                b.with_quantizer(b.quantizer * scale))
    assert scaled / scale == pytest.approx(base, rel=1e-9)


def test_pair_chunks_bound_memory(monkeypatch):
    # Scoring a 3906-node tree against a binary one: the last stage has
    # 10^4 branching pairs and 10^5 plan entries.  In one chunk the pair pass
    # sets the peak (13.2 MB traced); in chunks of 2^12 entries the path-cost
    # table does (3.5 MB: its 0.8 MB result and temporaries).
    a = generate_random(5, 5, seed=1)
    b = random_init([2] * 5, seed=1)

    def peak(entries):
        monkeypatch.setattr(nested, "_PAIR_MAX_ENTRIES", entries)
        tracemalloc.start()
        nd, _ = nested_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return nd, peak

    nd_whole, peak_whole = peak(1 << 20)
    nd_chunked, peak_chunked = peak(1 << 12)
    assert nd_chunked == nd_whole
    assert peak_whole > 10e6
    assert peak_chunked < 5e6


@pytest.mark.slow
def test_paper_scale_binary_scoring():
    # The paper's 8-stage tree, 97,656 nodes, against a binary tree of 255.
    a = generate_random(7, 5, seed=1)
    b = random_init([2] * 7, seed=1)
    tick = time.perf_counter()
    nd, _ = nested_distance(a, b)
    seconds = time.perf_counter() - tick
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"\npaper scale: nd {nd:.6f} in {seconds:.2f} s, "
          f"process max RSS {peak_mb:.0f} MB")
    assert np.isfinite(nd) and nd > 0.0


@pytest.mark.slow
def test_transport_scale_scoring():
    # 1,555 nodes against their exact [3,3,3,3] reduction: every branching
    # pair is a HiGHS transport LP, 5,832 of them at the last stage.
    a = generate_random(4, 6, dim=2, seed=1)
    reduced, _ = reduce_tree(a, random_init([3, 3, 3, 3], dim=2, seed=1),
                             ReductionConfig(solver="lp"))
    tick = time.perf_counter()
    nd, _ = nested_distance(a, reduced)
    seconds = time.perf_counter() - tick
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"\ntransport scale: nd {nd:.6f} in {seconds:.2f} s, "
          f"process max RSS {peak_mb:.0f} MB")
    assert np.isfinite(nd) and nd > 0.0
    assert nested_distance(reduced, a)[0] == pytest.approx(nd, rel=1e-12)


@pytest.mark.slow
def test_paper_scale_binary_reduction():
    # One exact outer pass of the 19,531-node tree onto a binary tree of 127:
    # the last stage poses 32 closed-form barycenters of 3,125 measures
    # (15,625 atoms) each, in batches bounded by reduce._BATCH_MAX_ATOMS.
    a = generate_random(6, 5, seed=1)
    b = random_init([2] * 6, seed=1)
    tick = time.perf_counter()
    final, report = reduce_tree(a, b, ReductionConfig(solver="lp", max_outer=1))
    seconds = time.perf_counter() - tick
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    nd, _ = nested_distance(a, final)
    print(f"\npaper scale: one LP pass to final_nd {report.final_nd:.6f} in {seconds:.2f} s, "
          f"process max RSS {peak_mb:.0f} MB")
    assert nd <= report.final_nd * (1 + 1e-9)
