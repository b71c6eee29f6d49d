import json
import tracemalloc

import numpy as np
import pytest

from treeshrink import tree as tr
from treeshrink.init_filtration import random_init
from treeshrink.tree import (ScenarioTree, TreeFormatError, TreeValidationError,
                             generate_random, load_csv, path_cost_table)


def leaf_path(tree, leaf):
    """Quantizers on the root-to-leaf path of ``leaf``, root first."""
    row = np.flatnonzero(tree.leaves() == leaf)
    if row.size == 0:
        raise ValueError("path costs are defined between leaves")
    return tree.quantizer[tree.path_matrix()[row[0]]]


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
    return ScenarioTree([-1], [0], [[0.0]], [1.0])


def two_leaf_tree(p1=0.5, p2=0.5, root_prob=1.0):
    return ScenarioTree([-1, 0, 0], [0, 1, 1], [[0.0], [1.0], [2.0]],
                        [root_prob, p1, p2])


class TestValidate:
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
        t = ScenarioTree([-1, -1, 0, 1], [0, 0, 1, 1], np.zeros((4, 1)),
                         [0.5, 0.5, 0.5, 0.5])
        assert any("root" in v for v in t.validate())

    def test_ragged_leaf_stages_flagged(self):
        t = ScenarioTree([-1, 0, 0, 1], [0, 1, 1, 2], np.zeros((4, 1)),
                         [1.0, 0.5, 0.5, 0.5])
        assert any("leaf" in v for v in t.validate())

    def test_zero_dimension_flagged(self):
        t = ScenarioTree([-1, 0], [0, 1], np.zeros((2, 0)), [1.0, 1.0])
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
        a = ScenarioTree([-1, 0], [0, 1], [[0.0], [0.0]], [1.0, 1.0])
        b = ScenarioTree([-1, 0], [0, 1], [[0.0], [3.0]], [1.0, 1.0])
        assert path_cost(a, 1, b, 1) == pytest.approx(9.0)

    def test_two_paths_one_coordinate_off(self):
        a = ScenarioTree([-1, 0], [0, 1], [[0.0], [1.0]], [1.0, 1.0])
        b = ScenarioTree([-1, 0], [0, 1], [[0.0], [2.0]], [1.0, 1.0])
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
        a = ScenarioTree([-1, 0], [0, 1], [[0.0], [0.0]], [1.0, 1.0])
        b = ScenarioTree([-1, 0], [0, 1], [[0.0], [2.0]], [1.0, 1.0])
        assert path_cost(a, 1, b, 1, order=1) == pytest.approx(2.0)
        assert path_cost_table(a, b, order=1)[0, 0] == pytest.approx(2.0)

    @pytest.mark.parametrize("dim,order", [(1, 2), (2, 2), (3, 2), (1, 1), (2, 3)])
    def test_table_bitwise_equal_to_reference(self, dim, order):
        a = generate_random(3, 4, dim=dim, seed=dim)
        b = random_init([3, 2, 2], dim=dim, seed=order)
        table = path_cost_table(a, b, order=order)
        assert table.tobytes() == reference_path_cost_table(a, b, order=order).tobytes()

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

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimension_below_one_rejected(self, dim):
        with pytest.raises(ValueError, match=f"dim={dim}"):
            generate_random(2, 2, dim=dim)


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


class TestFrozenArrays:
    def test_arrays_are_read_only(self):
        t = generate_random(2, 2, seed=0)
        with pytest.raises(ValueError):
            t.prob[0] = 2.0

    def test_replacement_constructors(self):
        t = generate_random(2, 2, seed=0)
        t2 = t.with_quantizer(np.zeros((t.n_nodes, 1)))
        assert t2.quantizer.sum() == 0.0
        assert t.quantizer.sum() != 0.0
