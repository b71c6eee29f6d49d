import json
import math
import re
import resource
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from batches import n_children, ragged_trees, relabel
from treeshrink import tree as tr
from treeshrink.init_filtration import random_init
from treeshrink.tree import (ScenarioTree, TreeFormatError, TreeValidationError,
                             generate_random, load_csv, path_cost_table)


def leaf_path(tree, leaf):
    """Quantizers on the root-to-leaf path of ``leaf``, root first."""
    row = np.flatnonzero(tree.leaves() == leaf)
    if row.size == 0:
        raise ValueError("path costs are defined between leaves")
    return tree.path_values()[row[0]]


def path_cost(tree_a, leaf_a, tree_b, leaf_b, order=2):
    """Reference: ground cost between two root-to-leaf paths, one pair at a time."""
    if tree_a.T != tree_b.T or tree_a.d != tree_b.d:
        raise ValueError("trees must share stage count and quantizer dimension")
    diff = leaf_path(tree_a, leaf_a) - leaf_path(tree_b, leaf_b)
    if order == 2:
        return float(np.sum(diff * diff))
    stage_norms = np.sqrt(np.sum(diff * diff, axis=1))
    return float(np.sum(stage_norms) ** order)


def reference_path_cost_table(tree_a, tree_b, order=2):
    """Reference: the table built with a fresh temporary per stage and coordinate."""
    pa = tree_a.path_values()
    pb = tree_b.path_values()
    la, lb = pa.shape[0], pb.shape[0]
    acc = np.zeros((la, lb))
    for t in range(tree_a.T + 1):
        sq = np.zeros((la, lb))
        for k in range(tree_a.d):
            diff = pa[:, t, k][:, None] - pb[None, :, t, k]
            sq += diff * diff
        acc += sq if order == 2 else np.sqrt(sq)
    return acc if order == 2 else acc ** order


def single_node_tree():
    return ScenarioTree([-1], [[0.0]], [1.0])


def two_leaf_tree(p1=0.5, p2=0.5, root_prob=1.0):
    return ScenarioTree([-1, 0, 0], [[0.0], [1.0], [2.0]], [root_prob, p1, p2])


def depth(tree, node):
    """Number of parent links from ``node`` up to a root, or -1 if there is
    none: the links then run into a cycle."""
    for k in range(tree.n_nodes):
        if tree.parent[node] < 0:
            return k
        node = tree.parent[node]
    return -1


def validate_reference(tree):
    """Reference: ``ScenarioTree.validate`` as a loop over the nodes."""
    with np.errstate(invalid="ignore"):
        return _validate_reference(tree)


def _validate_reference(tree):
    v = []
    if tree.d < 1:
        v.append(f"tree: quantizer dimension {tree.d}, expected at least 1")
    roots = np.flatnonzero(tree.parent < 0)
    if roots.size != 1:
        v.append(f"tree: expected exactly one root, found {roots.size}")
    stage = [depth(tree, nd) for nd in range(tree.n_nodes)]
    for nd in range(tree.n_nodes):
        if stage[nd] < 0:
            v.append(f"node {nd}: not below the root (its parent links form a cycle)")
    for nd in range(tree.n_nodes):
        if not np.isfinite(tree.prob[nd]):
            v.append(f"node {nd}: probability {tree.prob[nd]} is not finite")
    for nd in range(tree.n_nodes):
        if not np.isfinite(tree.quantizer[nd]).all():
            v.append(f"node {nd}: quantizer {tree.quantizer[nd].tolist()} is not finite")
    for nd in range(tree.n_nodes):
        if tree.prob[nd] < 0.0:
            v.append(f"node {nd}: negative probability {tree.prob[nd]}")
    for nd in range(tree.n_nodes):
        if n_children(tree, nd) == 0:
            if 0 <= stage[nd] != max(stage):
                v.append(f"node {nd}: leaf at stage {stage[nd]}, "
                         f"expected all leaves at stage {max(stage)}")
        else:
            s = float(np.sum(tree.prob[tree.children(nd)]))
            if abs(s - tree.prob[nd]) > tr.PARENT_SUM_TOL:
                v.append(f"node {nd}: probability {tree.prob[nd]} != children sum {s}")
    leaf_ids = np.flatnonzero([n_children(tree, nd) == 0 for nd in range(tree.n_nodes)])
    total = float(np.sum(tree.prob[leaf_ids]))
    if abs(total - 1.0) > tr.LEAF_SUM_TOL:
        v.append(f"tree: leaf probabilities sum to {total}, expected 1")
    return v


@st.composite
def broken_trees(draw):
    """A tree of up to 40 nodes that may break any rule ``validate`` checks.

    Parents are drawn among the earlier nodes, often the first (wide nodes,
    leaves at every depth) and sometimes none (extra roots).  Each node's
    mass splits over its children by integer weights.  Then a few parents
    are redrawn among all nodes, which may close a cycle (a node its own
    parent included) and may leave no root; some probabilities are nudged
    across or onto the sum tolerances or replaced by any float, NaN
    included, and some quantizer entries by NaN or infinities.
    """
    n = draw(st.integers(1, 40))
    parent = [-1] + [draw(st.one_of(st.just(0), st.integers(-1, i - 1))) for i in range(1, n)]
    share = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=float)
    prob = np.zeros(n)
    roots = [i for i in range(n) if parent[i] < 0]
    prob[roots] = 1.0 / len(roots)
    for i in range(1, n):
        if parent[i] >= 0:
            sibs = [j for j in range(n) if parent[j] == parent[i]]
            prob[i] = prob[parent[i]] * share[i] / share[sibs].sum()
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        parent[i] = draw(st.integers(0, n - 1))
    nudges = st.sampled_from([1e-9, -1e-9, 2e-9, 1e-12, 2e-12, -3e-12])
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        if draw(st.booleans()):
            prob[i] += draw(nudges)
        else:
            prob[i] = draw(st.floats(allow_nan=True, allow_infinity=True))
    d = draw(st.integers(1, 2))
    quantizer = np.zeros((n, d))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        quantizer[i, draw(st.integers(0, d - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    return ScenarioTree(parent, quantizer, prob)


class TestValidate:
    @settings(max_examples=150, deadline=None)
    @given(broken_trees())
    def test_matches_the_node_loop(self, tree):
        assert tree.stage.tolist() == [depth(tree, nd) for nd in range(tree.n_nodes)]
        assert tree.validate() == validate_reference(tree)

    def test_wide_node_sum_matches_the_node_loop(self):
        # np.sum adds 8 or more terms pairwise, not one after another.
        rng = np.random.default_rng(4)
        kids = rng.dirichlet(np.ones(37)) * (1.0 + 1.5e-9)
        tree = ScenarioTree(np.r_[-1, np.zeros(37, dtype=int)], np.zeros((38, 1)),
                            np.r_[1.0, kids])
        assert tree.validate() == validate_reference(tree)
        assert any(v.startswith("node 0: probability") for v in tree.validate())

    @pytest.mark.parametrize("prob", [
        [np.inf, np.inf, 0.0],           # parent and children sum both +inf
        [1.0, np.inf, -np.inf],          # children sum is inf - inf
        [np.inf, np.inf, -np.inf],
    ])
    def test_infinite_masses_match_the_node_loop(self, prob):
        tree = ScenarioTree([-1, 0, 0], np.zeros((3, 1)), prob)
        assert tree.validate() == validate_reference(tree)
        assert any("is not finite" in v for v in tree.validate())

    def test_single_node_tree_valid(self):
        assert single_node_tree().validate() == []

    def test_half_half_valid(self):
        assert two_leaf_tree(0.5, 0.5).validate() == []

    def test_mass_mismatch_flagged_at_root(self):
        violations = two_leaf_tree(0.6, 0.6).validate()
        assert len(violations) >= 1
        assert any(v.startswith("node 0") for v in violations)

    def test_negative_prob_flagged(self):
        violations = two_leaf_tree(1.2, -0.2).validate()
        assert any("negative" in v for v in violations)

    def test_two_roots_flagged(self):
        t = ScenarioTree([-1, -1, 0, 1], np.zeros((4, 1)), [0.5, 0.5, 0.5, 0.5])
        assert any("root" in v for v in t.validate())

    def test_ragged_leaf_stages_flagged(self):
        t = ScenarioTree([-1, 0, 0, 1], np.zeros((4, 1)), [1.0, 0.5, 0.5, 0.5])
        assert any("leaf" in v for v in t.validate())

    def test_cycle_flagged(self):
        # Nodes 2 and 3 are each other's parent; node 4 hangs below them.
        # Their masses balance, so the cycle is all that is wrong.
        t = ScenarioTree([-1, 0, 3, 2, 3], np.zeros((5, 1)), [1.0, 1.0, 0.5, 0.5, 0.0])
        assert t.T == 1 and t.stage.tolist() == [0, 1, -1, -1, -1]
        assert t.validate() == [
            f"node {k}: not below the root (its parent links form a cycle)" for k in (2, 3, 4)]

    def test_rootless_tree_validates(self):
        t = ScenarioTree([1, 2, 0], np.zeros((3, 1)), [1.0, 1.0, 1.0])
        assert t.T == -1 and t.stage.tolist() == [-1, -1, -1]
        assert t.validate() == ["tree: expected exactly one root, found 0"] + [
            f"node {k}: not below the root (its parent links form a cycle)" for k in range(3)
        ] + ["tree: leaf probabilities sum to 0.0, expected 1"]

    def test_zero_dimension_flagged(self):
        t = ScenarioTree([-1, 0], np.zeros((2, 0)), [1.0, 1.0])
        assert t.validate() == ["tree: quantizer dimension 0, expected at least 1"]

    def test_stage_sums_telescope(self):
        t = generate_random(4, 3, dim=2, seed=3)
        assert t.validate() == []
        for s in range(t.T + 1):
            assert np.isclose(t.prob[t.stage_nodes(s)].sum(), 1.0, atol=1e-12)


class TestPathCost:
    def test_identical_paths_zero(self):
        t = generate_random(3, 2, seed=0)
        leaf = int(t.leaves()[0])
        assert path_cost(t, leaf, t, leaf) == 0.0

    def test_single_stage_difference(self):
        a = ScenarioTree([-1, 0], [[0.0], [0.0]], [1.0, 1.0])
        b = ScenarioTree([-1, 0], [[0.0], [3.0]], [1.0, 1.0])
        assert path_cost(a, 1, b, 1) == pytest.approx(9.0)

    def test_two_paths_one_coordinate_off(self):
        a = ScenarioTree([-1, 0], [[0.0], [1.0]], [1.0, 1.0])
        b = ScenarioTree([-1, 0], [[0.0], [2.0]], [1.0, 1.0])
        assert path_cost(a, 1, b, 1) == pytest.approx(1.0)

    def test_symmetry(self):
        a = generate_random(3, 2, dim=2, seed=1)
        b = generate_random(3, 3, dim=2, seed=2)
        la, lb = int(a.leaves()[2]), int(b.leaves()[5])
        assert path_cost(a, la, b, lb) == pytest.approx(path_cost(b, lb, a, la))

    def test_dimension_mismatch_raises(self):
        a = generate_random(2, 2, dim=1, seed=0)
        b = generate_random(2, 2, dim=2, seed=0)
        with pytest.raises(ValueError):
            path_cost(a, int(a.leaves()[0]), b, int(b.leaves()[0]))

    def test_table_matches_scalar(self):
        a = generate_random(2, 2, dim=2, seed=4)
        b = generate_random(2, 3, dim=2, seed=5)
        table = path_cost_table(a, b)
        for i, la in enumerate(a.leaves()):
            for j, lb in enumerate(b.leaves()):
                assert table[i, j] == pytest.approx(path_cost(a, int(la), b, int(lb)))

    def test_non_quadratic_order(self):
        a = ScenarioTree([-1, 0], [[0.0], [0.0]], [1.0, 1.0])
        b = ScenarioTree([-1, 0], [[0.0], [2.0]], [1.0, 1.0])
        assert path_cost(a, 1, b, 1, order=1) == pytest.approx(2.0)
        assert path_cost_table(a, b, order=1)[0, 0] == pytest.approx(2.0)

    @pytest.mark.parametrize("order", [float("inf"), float("nan"), 0.5])
    def test_order_must_be_finite_and_at_least_one(self, order):
        a = generate_random(2, 2, seed=0)
        with pytest.raises(ValueError, match="at least 1 and finite"):
            path_cost_table(a, a, order=order)

    @pytest.mark.parametrize("order", [2, 3])
    def test_overflowing_costs_raise(self, order):
        # One stage apart by 1e200: the squared distance overflows.
        a = ScenarioTree([-1, 0], [[0.0], [0.0]], [1.0, 1.0])
        b = ScenarioTree([-1, 0], [[0.0], [1e200]], [1.0, 1.0])
        with pytest.raises(ValueError, match="not finite"):
            path_cost_table(a, b, order=order)

    @pytest.mark.parametrize("dim,order", [(1, 2), (2, 2), (3, 2), (1, 1), (2, 3)])
    def test_table_bitwise_equal_to_reference(self, dim, order):
        a = generate_random(3, 4, dim=dim, seed=dim)
        b = random_init([3, 2, 2], dim=dim, seed=order)
        table = path_cost_table(a, b, order=order)
        assert table.tobytes() == reference_path_cost_table(a, b, order=order).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 3), st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 2.5, 3]),
           st.data())
    def test_table_bitwise_equal_to_reference_on_ragged_trees(self, big_t, dim, order, data):
        # Real-valued quantizers, so that the rounding of a cost depends on
        # the order of its additions.
        floats = st.floats(-10.0, 10.0, allow_subnormal=False)
        a, b = (data.draw(ragged_trees(big_t, dim)) for _ in range(2))
        a, b = (tree.with_quantizer(np.reshape(data.draw(st.lists(
            floats, min_size=tree.quantizer.size, max_size=tree.quantizer.size)),
            tree.quantizer.shape)) for tree in (a, b))
        table = path_cost_table(a, b, order=order)
        assert table.tobytes() == reference_path_cost_table(a, b, order=order).tobytes()
        for tree in (a, b):
            for t in range(tree.T):
                blocks = tree.stage_blocks(t)
                sizes, parents = blocks.sizes, blocks.parents
                assert blocks.sizes is sizes and blocks.parents is parents
                assert not (sizes.flags.writeable or parents.flags.writeable)
                assert sizes.tolist() == np.diff(blocks.ptr).tolist()
                assert parents.tolist() == np.repeat(np.arange(sizes.size), sizes).tolist()

    @pytest.mark.parametrize("rootless_side", ["a", "b", "both"])
    def test_rootless_tree_raises(self, rootless_side):
        rootless = ScenarioTree([1, 2, 0], np.zeros((3, 1)), [1.0, 1.0, 1.0])
        rooted = generate_random(2, 2, seed=0)
        a = rootless if rootless_side in ("a", "both") else rooted
        b = rootless if rootless_side in ("b", "both") else rooted
        with pytest.raises(TreeValidationError, match="expected exactly one root, found 0"):
            path_cost_table(a, b)

    def test_table_peak_memory(self):
        # 3125 x 32 leaves over 6 stages: a table is 0.8 MB.  The reference
        # holds four at once (sum, stage sum, difference, its square); the
        # in-place build holds two, next to the 0.3 MB of path values.
        a = generate_random(5, 5, seed=1)
        b = random_init([2] * 5, seed=1)
        tracemalloc.start()
        table = path_cost_table(a, b)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 3 * table.nbytes


class TestGenerateRandom:
    def test_published_tree_sizes(self):
        t = generate_random(7, 5, seed=0)
        assert len(t.leaves()) == 78125
        assert t.n_nodes == 97656
        small = generate_random(3, 6, seed=0)
        assert len(small.leaves()) == 216
        assert small.n_nodes == 259

    def test_chain(self):
        t = generate_random(1, 1, seed=0)
        assert t.n_nodes == 2
        assert t.prob[int(t.leaves()[0])] == pytest.approx(1.0)

    def test_seed_reproducibility(self):
        t1 = generate_random(3, 3, dim=2, seed=42)
        t2 = generate_random(3, 3, dim=2, seed=42)
        assert np.array_equal(t1.quantizer, t2.quantizer)
        assert np.array_equal(t1.prob, t2.prob)
        t3 = generate_random(3, 3, dim=2, seed=43)
        assert not np.array_equal(t1.quantizer, t3.quantizer)

    def test_quantizer_range(self):
        t = generate_random(2, 4, dim=3, value_range=(-2.0, 2.0), seed=1)
        assert t.quantizer.min() >= -2.0 and t.quantizer.max() <= 2.0

    def test_valid(self):
        assert generate_random(4, 5, seed=9).validate() == []

    @pytest.mark.parametrize("dim", [0, -1, 2.5, True])
    def test_dimension_below_one_rejected(self, dim):
        message = rf"^dim must be an integer >= 1, got {dim!r}$"
        with pytest.raises(ValueError, match=message):
            generate_random(2, 2, dim=dim)
        with pytest.raises(ValueError, match=message):
            random_init([2, 2], dim=dim)

    @pytest.mark.parametrize("args, name", [((2, 2.5), "branching"), ((2, True), "branching"),
                                            ((0, 2), "T"), ((2.0, 2), "T")])
    def test_counts_must_be_integers_at_least_one(self, args, name):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got "):
            generate_random(*args)


@st.composite
def relabelled_trees(draw):
    """A valid tree of 1-3 stages and 1-3 children per node, its nodes renamed
    by a random permutation, so that a block's children need not be
    neighbours in their stage's node order."""
    parent, prob = [-1], [1.0]
    level = [0]
    for _ in range(draw(st.integers(1, 3))):
        nxt = []
        for node in level:
            k = draw(st.integers(1, 3))
            for _ in range(k):
                parent.append(node)
                prob.append(prob[node] / k)
                nxt.append(len(parent) - 1)
        level = nxt
    tree = ScenarioTree(parent, np.zeros((len(parent), 1)), prob)
    return relabel(tree, np.array(draw(st.permutations(range(tree.n_nodes)))))


class TestStages:
    @settings(max_examples=100, deadline=None)
    @given(relabelled_trees())
    def test_stages_are_depths_in_breadth_first_order(self, tree):
        assert tree.stage.tolist() == [depth(tree, nd) for nd in range(tree.n_nodes)]
        assert tree.stage_nodes(0).tolist() == [tree.root]
        for t in range(tree.T):
            parents = tree.stage_nodes(t)
            children = tree.stage_nodes(t + 1)
            assert children.tolist() == np.concatenate(
                [tree.children(m) for m in parents]).tolist()
            blocks = tree.stage_blocks(t)
            for k, m in enumerate(parents):
                block = children[blocks.ptr[k]:blocks.ptr[k + 1]]
                assert block.tolist() == tree.children(m).tolist()


class TestStageBlockSums:
    @settings(max_examples=100, deadline=None)
    @given(relabelled_trees(), st.sampled_from(["1-D", 0, 1]), st.data())
    def test_matches_per_block_sums(self, tree, axis, data):
        t = data.draw(st.integers(0, tree.T - 1))
        blocks = tree.stage_blocks(t)
        n = tree.stage_nodes(t + 1).shape[0]
        width = data.draw(st.integers(1, 3))
        shape = {"1-D": (n,), 0: (n, width), 1: (width, n)}[axis]
        floats = st.floats(-1e3, 1e3, allow_subnormal=False)
        values = np.array(data.draw(st.lists(floats, min_size=math.prod(shape),
                                             max_size=math.prod(shape)))).reshape(shape)

        axis = 0 if axis == "1-D" else axis
        moved = np.moveaxis(values, axis, -1)
        expected = np.moveaxis(np.stack([
            np.sum(moved[..., blocks.ptr[k]:blocks.ptr[k + 1]], axis=-1)
            for k in range(blocks.ptr.size - 1)], axis=-1), -1, axis)
        got = blocks.sums(values, axis=axis)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("parent", [[-1, 0, 0, 2], [-1, 0, 0, 1]])
    def test_childless_block_raises(self, parent):
        # Stage 1 holds nodes 1 and 2, one of them a leaf: an empty first
        # block would read its neighbour's value, an empty last one overrun.
        tree = ScenarioTree(parent, np.zeros((4, 1)), [1.0, 0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="no children"):
            tree.stage_blocks(1).sums(np.ones(1))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=8)


@st.composite
def tree_documents(draw):
    """A valid tree document (d <= 2) with some fields replaced or dropped.

    A replacement is a small index, an integer of any size, a float
    (NaN and infinities included) or any JSON-like value.
    """
    doc = generate_random(draw(st.integers(1, 2)), draw(st.integers(1, 3)),
                          dim=draw(st.integers(1, 2)), seed=0).to_json_dict()
    values = st.one_of(st.integers(-2, 5), st.integers(), st.floats(), json_values)
    fields = [(-1, key) for key in doc] + [(i, key) for i, node in enumerate(doc["nodes"])
                                           for key in node]
    picks = draw(st.lists(st.sampled_from(fields), min_size=1, max_size=3, unique=True))
    # Node fields first, while doc["nodes"] still holds the nodes.
    for i, key in sorted(picks, reverse=True):
        target = doc if i < 0 else doc["nodes"][i]
        if draw(st.integers(0, 4)) == 0:
            del target[key]
        else:
            target[key] = draw(values)
    return doc


def reference_from_json_dict(doc):
    """Reference: the parser as a loop over the nodes, one record at a time."""
    try:
        nodes = doc["nodes"]
        last = tr._integer(doc["T"], "T")
        d = tr._integer(doc["d"], "d")
        n = len(nodes)
        if n == 0:
            raise TreeFormatError("a tree document needs at least one node")
        parent = np.empty(n, dtype=np.int64)
        quantizer = [None] * n
        prob = np.empty(n, dtype=np.float64)
        for rec in nodes:
            i = tr._integer(rec["id"], "node id")
            if not (0 <= i < n) or quantizer[i] is not None:
                raise TreeFormatError(f"node {rec['id']}: ids must be dense 0..{n - 1}")
            par = -1 if rec["parent"] is None else tr._integer(rec["parent"], f"node {i}: parent")
            if not -1 <= par < n:
                raise TreeFormatError(f"node {i}: parent index {par} out of range")
            parent[i] = par
            qz = np.asarray(rec["quantizer"], dtype=np.float64)
            if qz.shape != (d,):
                raise TreeFormatError(f"node {i}: quantizer length {qz.shape} != d={d}")
            quantizer[i] = qz
            prob[i] = float(rec["prob"])
    except TreeFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TreeFormatError(f"malformed tree document: {exc}") from exc
    quantizer = np.array(quantizer).reshape(n, d)
    tree = ScenarioTree(parent, quantizer, prob)
    violations = tree.validate()
    if violations:
        raise TreeValidationError(violations)
    if last != max(depth(tree, nd) for nd in range(n)):
        raise TreeFormatError(f"T is {last}, but the parent links end at stage {tree.T}")
    return tree


def parse_or_error(parser, doc):
    try:
        return parser(doc)
    except (TreeFormatError, TreeValidationError) as exc:
        return exc


def assert_bitwise_equal(a, b):
    for name in ("parent", "stage", "quantizer", "prob"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


@st.composite
def shuffled_documents(draw):
    """A :func:`tree_documents` document whose node list, if any, is shuffled."""
    doc = draw(tree_documents())
    if isinstance(doc.get("nodes"), list):
        doc["nodes"] = draw(st.permutations(doc["nodes"]))
    return doc


@st.composite
def single_fault_documents(draw):
    """A valid document, nodes shuffled, with one node's id, parent or
    quantizer out of the schema: an id out of range or repeated, a parent
    out of range (huge ones included), a quantizer of another length or nested."""
    d = draw(st.integers(1, 2))
    doc = generate_random(draw(st.integers(1, 2)), draw(st.integers(1, 3)), dim=d,
                          seed=0).to_json_dict()
    nodes = doc["nodes"] = draw(st.permutations(doc["nodes"]))
    n = len(nodes)
    rec = nodes[draw(st.integers(0, n - 1))]
    field = draw(st.sampled_from(["id", "parent", "quantizer"]))
    outside = st.one_of(st.integers(max_value=-1), st.integers(min_value=n))
    if field == "id":
        others = [r["id"] for r in nodes if r is not rec]
        rec["id"] = draw(outside | st.sampled_from(others)) if others else draw(outside)
    elif field == "parent":
        rec["parent"] = draw(st.integers(max_value=-2) | st.integers(min_value=n))
    else:
        rec["quantizer"] = draw(st.one_of(
            st.lists(st.floats(), max_size=3).filter(lambda q: len(q) != d),
            st.just([rec["quantizer"]])))
    return doc


@st.composite
def node_trees(draw):
    """Valid trees of 1-3 stages, 1-3 children a node and d = 1-3, with any
    finite quantizers: -0.0, the least subnormal and the largest double often."""
    parent, prob, frontier = [-1], [1.0], [0]
    for _ in range(draw(st.integers(1, 3))):
        nxt = []
        for node in frontier:
            weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
            if sum(weights) == 0:
                weights[0] = 1
            for w in weights:
                parent.append(node)
                prob.append(prob[node] * w / sum(weights))
                nxt.append(len(parent) - 1)
        frontier = nxt
    d = draw(st.integers(1, 3))
    extremes = st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                -1.7976931348623157e308])
    values = st.one_of(extremes, st.floats(allow_nan=False, allow_infinity=False))
    quantizer = draw(st.lists(values, min_size=len(parent) * d, max_size=len(parent) * d))
    return ScenarioTree(parent, np.reshape(quantizer, (len(parent), d)), prob)


def reference_text(tree):
    return json.dumps(tree.to_json_dict(), indent=1) + "\n"


class TestSerialization:
    def test_round_trip(self, tmp_path):
        t = generate_random(3, 3, dim=2, seed=7)
        path = tmp_path / "tree.json"
        t.save(path)
        back = ScenarioTree.load(path)
        assert np.array_equal(t.parent, back.parent)
        assert np.array_equal(t.stage, back.stage)
        assert np.array_equal(t.quantizer, back.quantizer)
        assert np.array_equal(t.prob, back.prob)
        assert back.validate() == []

    def test_bad_mass_rejected(self, tmp_path):
        doc = {"T": 1, "d": 1, "nodes": [
            {"id": 0, "parent": None, "quantizer": [0.0], "prob": 0.9},
            {"id": 1, "parent": 0, "quantizer": [1.0], "prob": 0.5},
            {"id": 2, "parent": 0, "quantizer": [2.0], "prob": 0.4},
        ]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TreeValidationError):
            ScenarioTree.load(path)

    def test_two_roots_rejected(self, tmp_path):
        doc = {"T": 1, "d": 1, "nodes": [
            {"id": 0, "parent": None, "quantizer": [0.0], "prob": 0.5},
            {"id": 1, "parent": None, "quantizer": [1.0], "prob": 0.5},
        ]}
        path = tmp_path / "two_roots.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TreeValidationError):
            ScenarioTree.load(path)

    def test_zero_dimension_rejected(self, tmp_path):
        doc = {"T": 1, "d": 0, "nodes": [
            {"id": 0, "parent": None, "quantizer": [], "prob": 1.0},
            {"id": 1, "parent": 0, "quantizer": [], "prob": 1.0},
        ]}
        path = tmp_path / "d0.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TreeValidationError, match="quantizer dimension 0"):
            ScenarioTree.load(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(TreeFormatError):
            ScenarioTree.load(path)

    @pytest.mark.parametrize("field, value, error", [
        ("parent", 10 ** 30, TreeFormatError),
        ("parent", -2, TreeFormatError),
        ("parent", 0.5, TreeFormatError),
        ("parent", True, TreeFormatError),
        ("id", 1.0, TreeFormatError),
        ("prob", 10 ** 400, TreeFormatError),
        ("quantizer", [10 ** 400], TreeFormatError),
        ("prob", float("nan"), TreeValidationError),
        ("quantizer", [float("nan")], TreeValidationError),
        ("quantizer", [float("inf")], TreeValidationError),
        ("id", True, TreeFormatError),
        ("id", "1", TreeFormatError),
        ("parent", False, TreeFormatError),
        ("parent", "0", TreeFormatError),
        ("prob", None, TreeFormatError),
        ("prob", [0.5], TreeFormatError),
        ("quantizer", 1.0, TreeFormatError),
    ])
    def test_bad_node_field_rejected(self, field, value, error):
        doc = generate_random(1, 2, seed=0).to_json_dict()
        doc["nodes"][1][field] = value
        with pytest.raises(error):
            ScenarioTree.from_json_dict(doc)

    def test_no_nodes_rejected(self):
        with pytest.raises(TreeFormatError, match="at least one node"):
            ScenarioTree.from_json_dict({"T": 0, "d": 1, "nodes": []})

    @pytest.mark.parametrize("value, message", [
        (7, "^T is 7, but the parent links end at stage 1$"),
        (0, "^T is 0, but the parent links end at stage 1$"),
        ("x", "^T must be an integer, got 'x'$"),
        (1.0, "^T must be an integer, got 1.0$"),
        (True, "^T must be an integer, got True$"),
        (None, "^T must be an integer, got None$"),
    ])
    def test_last_stage_must_match_the_parent_links(self, value, message):
        doc = generate_random(1, 2, seed=0).to_json_dict()
        doc["T"] = value
        with pytest.raises(TreeFormatError, match=message):
            ScenarioTree.from_json_dict(doc)

    def test_missing_last_stage_rejected(self):
        doc = generate_random(1, 2, seed=0).to_json_dict()
        del doc["T"]
        with pytest.raises(TreeFormatError, match="malformed tree document"):
            ScenarioTree.from_json_dict(doc)

    def test_cycle_rejected_naming_its_nodes(self):
        # A chain 0 -> 1 -> 2 whose node 1 is moved below node 2.
        doc = generate_random(2, 1, seed=0).to_json_dict()
        doc["nodes"][1]["parent"] = 2
        with pytest.raises(TreeValidationError) as err:
            ScenarioTree.from_json_dict(doc)
        assert err.value.violations == [
            f"node {k}: not below the root (its parent links form a cycle)" for k in (1, 2)]

    def test_huge_dimension_rejected_before_allocating(self):
        doc = generate_random(1, 2, seed=0).to_json_dict()
        doc["d"] = 10 ** 12
        with pytest.raises(TreeFormatError, match="quantizer length"):
            ScenarioTree.from_json_dict(doc)

    def test_validate_flags_non_finite_values(self):
        t = generate_random(1, 2, seed=0)
        prob, quantizer = t.prob.copy(), t.quantizer.copy()
        prob[1], quantizer[2, 0] = np.nan, -np.inf
        assert t.with_prob(prob).validate() == [f"node 1: probability nan is not finite"]
        assert t.with_quantizer(quantizer).validate() == [
            f"node 2: quantizer [-inf] is not finite"]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(json_values, tree_documents()))
    def test_any_document_gives_a_tree_or_a_typed_error(self, doc):
        try:
            tree = ScenarioTree.from_json_dict(doc)
        except (TreeFormatError, TreeValidationError):
            return
        assert tree.validate() == []


    @settings(max_examples=300, deadline=None)
    @given(st.one_of(tree_documents(), shuffled_documents()))
    def test_parser_matches_the_node_loop(self, doc):
        new = parse_or_error(ScenarioTree.from_json_dict, doc)
        old = parse_or_error(reference_from_json_dict, doc)
        assert type(new) is type(old)
        if isinstance(old, ScenarioTree):
            assert_bitwise_equal(new, old)
        elif isinstance(old, TreeValidationError):
            assert new.violations == old.violations

    @settings(max_examples=200, deadline=None)
    @given(single_fault_documents())
    def test_format_errors_name_the_node(self, doc):
        with pytest.raises(TreeFormatError) as new:
            ScenarioTree.from_json_dict(doc)
        with pytest.raises(TreeFormatError) as old:
            reference_from_json_dict(doc)
        assert str(new.value) == str(old.value)
        assert re.match(r"node -?\d+: (ids must be dense|parent index|quantizer length)",
                        str(new.value))

    def test_shuffled_nodes_give_the_same_tree(self):
        t = generate_random(2, 3, dim=2, seed=5)
        doc = t.to_json_dict()
        doc["nodes"].reverse()
        assert_bitwise_equal(ScenarioTree.from_json_dict(doc), t)

    def test_numpy_integers_accepted(self):
        t = generate_random(2, 2, seed=6)
        doc = t.to_json_dict()
        for rec in doc["nodes"]:
            rec["id"] = np.int32(rec["id"])
            if rec["parent"] is not None:
                rec["parent"] = np.uint8(rec["parent"])
        assert_bitwise_equal(ScenarioTree.from_json_dict(doc), t)

    @settings(max_examples=200, deadline=None)
    @example(tree=ScenarioTree([-1, 0], [[np.nan, 1.0], [0.0, -0.0]], [1.0, 1.0]))
    @example(tree=ScenarioTree([-1, 0, 0], [[np.inf], [-np.inf], [2.0]], [1.0, 0.5, 0.5]))
    @given(tree=node_trees())
    def test_writer_matches_json_and_round_trips_bitwise(self, tree, tmp_path_factory):
        path = tmp_path_factory.mktemp("trees") / "tree.json"
        tree.save(path)
        assert path.read_text() == reference_text(tree)
        if not np.isfinite(tree.quantizer).all():
            with pytest.raises(TreeValidationError, match="is not finite"):
                ScenarioTree.load(path)
            return
        assert_bitwise_equal(ScenarioTree.load(path), tree)

    @pytest.mark.parametrize("tree", [
        ScenarioTree([-1, 0], [[np.nan], [-np.inf]], [np.inf, 1.0]),
        ScenarioTree([-1, 0], np.zeros((2, 0)), [1.0, 1.0]),
    ], ids=["non-finite-prob", "zero-dimension"])
    def test_writer_matches_json_where_load_refuses(self, tree):
        assert tree.to_json_text() == json.dumps(tree.to_json_dict(), indent=1)


@pytest.mark.slow
def test_paper_scale_io(tmp_path):
    # The paper's 8-stage tree, 97,656 nodes, saved and loaded back.
    t = generate_random(7, 5, seed=1)
    path = tmp_path / "paper.json"
    tick = time.perf_counter()
    t.save(path)
    save_s = time.perf_counter() - tick
    tick = time.perf_counter()
    back = ScenarioTree.load(path)
    load_s = time.perf_counter() - tick
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"\npaper scale: save {save_s:.2f} s, load {load_s:.2f} s, "
          f"process max RSS {peak_mb:.0f} MB")
    assert_bitwise_equal(back, t)
    assert path.read_text() == reference_text(t)


@pytest.mark.slow
def test_paper_scale_table():
    # The paper's 78,125 leaves against a binary tree's 128: 10^7 entries.
    a = generate_random(7, 5, seed=1)
    b = random_init([2] * 7, seed=1)
    tick = time.perf_counter()
    table = path_cost_table(a, b)
    table_s = time.perf_counter() - tick
    tick = time.perf_counter()
    reference = reference_path_cost_table(a, b)
    reference_s = time.perf_counter() - tick
    print(f"\npaper scale: table {table_s:.2f} s, stage-loop reference {reference_s:.2f} s")
    assert table.tobytes() == reference.tobytes()


class TestCsvIngestion:
    def test_fan_tree_from_csv(self, tmp_path):
        path = tmp_path / "scen.csv"
        path.write_text(
            "prob,x0,x1,x2\n"
            "0.25,0.0,1.0,2.0\n"
            "0.75,0.0,3.0,4.0\n")
        t = load_csv(path, dim=1)
        assert t.validate() == []
        assert t.T == 2
        assert len(t.leaves()) == 2
        assert t.quantizer[0, 0] == pytest.approx(0.0)
        assert sorted(t.prob[t.leaves()]) == pytest.approx([0.25, 0.75])

    def test_multidim_columns(self, tmp_path):
        path = tmp_path / "scen2.csv"
        path.write_text("1.0,0.0,0.0,1.0,2.0\n")
        t = load_csv(path, dim=2)
        assert t.d == 2 and t.T == 1

    def test_bad_width_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0.0,1.0\n0.5,2.0\n")
        with pytest.raises(TreeFormatError):
            load_csv(path)

    def test_mass_must_sum_to_one(self, tmp_path):
        path = tmp_path / "bad_mass.csv"
        path.write_text("0.4,0.0,1.0\n0.4,0.0,2.0\n")
        with pytest.raises(TreeValidationError):
            load_csv(path)

    @pytest.mark.parametrize("dim", [0, -1, 2.5, True])
    def test_dimension_must_be_an_integer_from_one(self, tmp_path, dim):
        path = tmp_path / "scen.csv"
        path.write_text("1.0,0.0,0.0,1.0,2.0\n")
        with pytest.raises(ValueError, match=f"dim must be an integer >= 1, got {dim!r}"):
            tr.read_scenarios_csv(path, dim=dim)


class TestFrozenArrays:
    def test_arrays_are_read_only(self):
        t = generate_random(2, 2, seed=0)
        with pytest.raises(ValueError):
            t.prob[0] = 2.0
        for array in (t.stage, t.stage_nodes(1), t.stage_blocks(1).ptr):
            with pytest.raises(ValueError):
                array[0] = 5

    def test_replacement_constructors(self):
        t = generate_random(2, 2, seed=0)
        t2 = t.with_quantizer(np.zeros((t.n_nodes, 1)))
        assert t2.quantizer.sum() == 0.0
        assert t.quantizer.sum() != 0.0
