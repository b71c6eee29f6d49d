import resource
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from batches import (batches_reference, block_matrix, conditional_children_probs,
                     lone_transport, n_children, relabel, stage_position)
from treeshrink import ot_core
from treeshrink import reduce as reduce_module
from treeshrink.init_filtration import random_init
from treeshrink.nested import nested_distance
from treeshrink.reduce import (ReductionConfig, evaluate_plan, extract_probabilities,
                               init_plan, probability_step, quantizer_step, reduce_tree)
from treeshrink.tree import ScenarioTree, generate_random, path_cost_table


def two_level_tree(mid_vals, leaf_vals, mid_probs=None):
    """Root + len(mid_vals) middle nodes, each with len(leaf_vals[i]) leaves."""
    parent, quant, prob = [-1], [[0.0]], [1.0]
    k = len(mid_vals)
    mid_probs = mid_probs or [1.0 / k] * k
    mids = []
    for v, p in zip(mid_vals, mid_probs):
        parent.append(0)
        quant.append([float(v)])
        prob.append(p)
        mids.append(len(parent) - 1)
    for i, leaves in enumerate(leaf_vals):
        for v in leaves:
            parent.append(mids[i])
            quant.append([float(v)])
            prob.append(prob[mids[i]] / len(leaves))
    return ScenarioTree(parent, quant, prob)


def separated_tree():
    return two_level_tree([0.0, 10.0], [[0.0, 1.0], [10.0, 11.0]])


def joint_block(joints, orig, red, t, m, n):
    """Stage-(t+1) joint block of the children of nodes m and n, and its mass."""
    pos_a, pos_b = stage_position(orig), stage_position(red)
    rows, cols = pos_a[orig.children(m)], pos_b[red.children(n)]
    return joints[t + 1][np.ix_(rows, cols)], joints[t][pos_a[m], pos_b[n]]


def conditional_block(joints, orig, red, t, m, n):
    """Conditional plan of the parent pair (m, n): its joint block over the mass."""
    block, mass = joint_block(joints, orig, red, t, m, n)
    assert mass > 0.0
    return block / mass


class TestInitPlan:
    def test_uniform_spread(self):
        orig = two_level_tree([0.0, 1.0], [[0.0, 1.0], [2.0, 3.0]])
        red = two_level_tree([0.0, 1.0], [[0.0, 1.0], [2.0, 3.0]])
        joints = init_plan(orig, red)
        # conditional entries P(i|m)/|n+| = 0.5/2
        for m in orig.stage_nodes(1):
            for n in red.stage_nodes(1):
                mat = conditional_block(joints, orig, red, 1, m, n)
                assert mat == pytest.approx(np.full((2, 2), 0.25))
        assert joints[0][0, 0] == 1.0
        assert max(abs(float(j.sum()) - 1.0) for j in joints) < 1e-12

    def test_unary_reduced(self):
        orig = two_level_tree([0.0], [[0.0, 2.0]])
        red = two_level_tree([0.5], [[1.0]])
        joints = init_plan(orig, red)
        mat = conditional_block(joints, orig, red, 1, 1, 1)
        assert mat.ravel() == pytest.approx([0.5, 0.5])

    def test_three_by_two(self):
        orig = two_level_tree([0.0], [[0.0, 1.0, 2.0]])
        red = two_level_tree([0.0], [[0.0, 1.0]])
        joints = init_plan(orig, red)
        assert conditional_block(joints, orig, red, 1, 1, 1) == \
            pytest.approx(np.full((3, 2), 1 / 6))

    def test_composition_invariant(self):
        orig = generate_random(3, 3, seed=0)
        red = random_init([2, 2, 2], seed=1)
        joints = init_plan(orig, red)
        for t in range(orig.T):
            for m in orig.stage_nodes(t):
                q = conditional_children_probs(orig, m)
                for n in red.stage_nodes(t):
                    r = n_children(red, n)
                    block, mass = joint_block(joints, orig, red, t, m, n)
                    expected = np.repeat(q[:, None], r, axis=1) / r * mass
                    assert np.allclose(block, expected)


class TestQuantizerStep:
    def make_plan(self, orig, red, stage1_weights):
        joints = init_plan(orig, red)
        joints[1] = np.asarray(stage1_weights, dtype=float)
        return joints

    def test_concentrated_weight_copies_value(self):
        orig = two_level_tree([3.0, 7.0], [[3.0], [7.0]])
        red = two_level_tree([0.0], [[0.0]])
        plan = self.make_plan(orig, red, [[1.0], [0.0]])
        out = quantizer_step(orig, red, plan)
        assert out.quantizer[1, 0] == pytest.approx(3.0)

    def test_equal_weights_average(self):
        orig = two_level_tree([0.0, 2.0], [[0.0], [2.0]])
        red = two_level_tree([9.0], [[9.0]])
        plan = self.make_plan(orig, red, [[0.5], [0.5]])
        out = quantizer_step(orig, red, plan)
        assert out.quantizer[1, 0] == pytest.approx(1.0)

    def test_weighted_mean(self):
        orig = two_level_tree([0.0, 4.0], [[0.0], [4.0]])
        red = two_level_tree([9.0], [[9.0]])
        plan = self.make_plan(orig, red, [[0.75], [0.25]])
        out = quantizer_step(orig, red, plan)
        assert out.quantizer[1, 0] == pytest.approx(1.0)

    def test_zero_column_keeps_value(self):
        orig = two_level_tree([1.0, 2.0], [[1.0], [2.0]])
        red = two_level_tree([5.0, 6.0], [[5.0], [6.0]])
        plan = self.make_plan(orig, red, [[0.5, 0.0], [0.5, 0.0]])
        out = quantizer_step(orig, red, plan)
        assert out.quantizer[2, 0] == pytest.approx(6.0)

    def test_original_untouched(self):
        orig = generate_random(2, 2, seed=3)
        red = random_init([2, 2], seed=4)
        before = orig.quantizer.copy()
        quantizer_step(orig, red, init_plan(orig, red))
        assert np.array_equal(orig.quantizer, before)


class TestProbabilityStep:
    def run_step(self, orig, red, solver="lp", joints=None):
        joints = joints or init_plan(orig, red)
        leaf = path_cost_table(orig, red)
        config = ReductionConfig(solver=solver)
        return probability_step(orig, red, joints, leaf, config)

    def test_unary_reduced_forced(self):
        orig = two_level_tree([0.0], [[0.0, 2.0]])
        red = two_level_tree([0.0], [[1.0]])
        joints, tables, records, _ = self.run_step(orig, red)
        assert conditional_block(joints, orig, red, 1, 1, 1).ravel() == \
            pytest.approx([0.5, 0.5])
        # delta(m, n) = sum_i P(i|m) * leaf cost
        assert tables[1][0, 0] == pytest.approx(0.5 * 1.0 + 0.5 * 1.0)
        assert records == []  # fully constrained, no solver involved

    def test_single_measure_matches_column_min_oracle(self):
        # At the root the problem has one measure with unit weight; the free
        # barycenter sends each child's mass to its cheapest target, so the
        # optimum is sum_i q_i min_j cost(i, j).
        rng = np.random.default_rng(0)
        for _ in range(5):
            orig = two_level_tree([0.0], [list(rng.uniform(-5, 5, 4))])
            red = two_level_tree([0.0], [list(rng.uniform(-5, 5, 3))])
            joints, tables, _, _ = self.run_step(orig, red)
            leaf = path_cost_table(orig, red)
            q = conditional_children_probs(orig, 1)
            oracle = float(np.sum(q * leaf.min(axis=1)))
            assert tables[0][0, 0] == pytest.approx(oracle, abs=1e-9)
            # and the per-pair value agrees with a transport solve toward p
            p = conditional_block(joints, orig, red, 1, 1, 1).sum(axis=0)
            cost, _ = lone_transport(q, p, leaf)
            assert tables[0][0, 0] == pytest.approx(cost, abs=1e-9)

    def test_identity_concentrated_plan_zero_diag(self):
        orig = separated_tree()
        red = separated_tree()
        joints = init_plan(orig, red)
        joints[1] = np.eye(2) * 0.5
        _, tables, _, _ = self.run_step(orig, red, joints=joints)
        assert tables[1][0, 0] == pytest.approx(0.0, abs=1e-12)
        assert tables[1][1, 1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_weight_measure_gets_product_with_barycenter(self):
        # Stage 1 weights put no mass on (mid 1, mid 0), so reduced node 1's
        # problem has mid 0 as its only measure; mid 1 gets q x p instead.
        orig = ScenarioTree([-1, 0, 0, 1, 1, 2, 2],
                            [[0.0], [0.0], [10.0], [0.0], [1.0], [10.0], [11.0]],
                            [1.0, 0.5, 0.5, 0.4, 0.1, 0.25, 0.25])
        red = separated_tree()
        joints = init_plan(orig, red)
        joints[1] = np.eye(2) * 0.5
        new_joints, tables, _, _ = self.run_step(orig, red, joints=joints)
        p = conditional_block(new_joints, orig, red, 1, 1, 1).sum(axis=0)
        assert p == pytest.approx([0.8, 0.2])
        leaf = path_cost_table(orig, red)
        q = conditional_children_probs(orig, 2)
        assert tables[1][1, 0] == pytest.approx(q @ leaf[2:, :2] @ p, abs=1e-12)

    @pytest.mark.parametrize("solver,tol", [("lp", 1e-9), ("mam", 1e-6), ("ibp", 1e-6)])
    def test_plans_reproduce_original_conditionals(self, solver, tol):
        rng = np.random.default_rng(1)
        for seed in range(3):
            orig = generate_random(3, 3, dim=1, seed=seed)
            red = random_init([2, 2, 2], seed=seed + 50)
            joints, tables, _, _ = self.run_step(orig, red, solver=solver)
            for t in range(orig.T):
                for m in orig.stage_nodes(t):
                    q = conditional_children_probs(orig, m)
                    for n in red.stage_nodes(t):
                        # A pair without mass stores no plan: its block is zero.
                        block, mass = joint_block(joints, orig, red, t, m, n)
                        assert np.all(block >= -1e-15)
                        if mass == 0.0:
                            assert not block.any()
                            continue
                        mat = block / mass
                        assert np.max(np.abs(mat.sum(axis=1) - q)) < tol

    def test_recomposed_joint_is_distribution(self):
        orig = generate_random(3, 4, seed=2)
        red = random_init([2, 2, 2], seed=3)
        joints, _, _, _ = self.run_step(orig, red)
        leaf_joint = joints[orig.T]
        assert np.all(leaf_joint >= -1e-15)
        assert leaf_joint.sum() == pytest.approx(1.0, abs=1e-9)
        # original-side marginal reproduces leaf probabilities
        assert np.max(np.abs(leaf_joint.sum(axis=1) -
                              orig.prob[orig.leaves()])) < 1e-9


class TestAutoSolver:
    def test_auto_is_exact(self):
        # Stage 1 poses three problems of 12 measures on 3 support points.
        orig = generate_random(2, 12, seed=5)
        red = random_init([3, 3], seed=6)
        auto, auto_report = reduce_tree(orig, red, ReductionConfig(solver="auto"))
        exact, exact_report = reduce_tree(orig, red, ReductionConfig(solver="lp"))
        assert {rec["solver"] for rec in auto_report.solver_log} == {"lp"}
        assert any(rec["stage"] == 1 and rec["measures"] == 12
                   for rec in auto_report.solver_log)
        assert auto.quantizer.tobytes() == exact.quantizer.tobytes()
        assert auto.prob.tobytes() == exact.prob.tobytes()
        assert auto_report.deltas == exact_report.deltas


def mixed_width_tree():
    """Root with three children; two of them have two children, one has three."""
    parent = [-1, 0, 0, 0, 1, 1, 2, 2, 3, 3, 3]
    prob = [1.0, 0.3, 0.3, 0.4, 0.1, 0.2, 0.15, 0.15, 0.1, 0.1, 0.2]
    quant = np.linspace(-3.0, 3.0, 11)[:, None]
    return ScenarioTree(parent, quant, prob)


class TestSolverLog:
    @pytest.mark.parametrize("solver", ["lp", "mam", "ibp", "auto"])
    def test_batches_partition_the_solved_nodes(self, solver):
        orig = generate_random(2, 4, seed=21)
        red = mixed_width_tree()
        config = ReductionConfig(solver=solver, tol=1e-12, max_outer=3, mam_max_iter=200,
                                 ibp_max_iter=200)
        _, report = reduce_tree(orig, red, config)
        log = report.solver_log
        assert log and all(set(rec) == {"iteration", "stage", "node", "solver", "measures",
                                        "max_support", "iterations", "converged", "batch",
                                        "seconds"} for rec in log)
        for k, stage_secs in enumerate(report.stage_seconds, start=1):
            for t in range(orig.T):
                recs = [rec for rec in log if rec["iteration"] == k and rec["stage"] == t]
                # The records of one call are consecutive and agree on it.
                calls, i = [], 0
                while i < len(recs):
                    call = recs[i:i + recs[i]["batch"]]
                    assert len(call) == recs[i]["batch"]
                    assert len({(rec["solver"], rec["batch"]) for rec in call}) == 1
                    calls.append(call)
                    i += len(call)
                assert sum(call[0]["batch"] for call in calls) == len(recs)
                assert len({rec["node"] for rec in recs}) == len(recs)
                assert sum(rec["seconds"] for rec in recs) <= stage_secs[t]
        # The first iteration starts from a plan with mass on every pair, so
        # every reduced node with two or more children is solved.
        for t in range(orig.T):
            branching = [n for n in red.stage_nodes(t) if n_children(red, n) > 1]
            solved = [rec["node"] for rec in log if rec["iteration"] == 1 and rec["stage"] == t]
            assert sorted(solved) == sorted(branching)
        # Stage 1 solves its two nodes with two children in one call.
        assert {(rec["node"], rec["batch"]) for rec in log
                if rec["iteration"] == 1 and rec["stage"] == 1} == {(1, 2), (2, 2), (3, 1)}

    @pytest.mark.parametrize("solver", ["lp", "ibp"])
    def test_atom_bound_splits_batches_without_changing_answers(self, solver, monkeypatch):
        orig = generate_random(3, 4, seed=22)
        red = random_init([2, 2, 2], seed=23)
        config = ReductionConfig(solver=solver, tol=1e-12, max_outer=2, ibp_max_iter=200)
        whole, whole_report = reduce_tree(orig, red, config)
        # Every problem holds more than one atom: a batch takes one problem.
        monkeypatch.setattr(reduce_module, "_BATCH_MAX_ATOMS", 1)
        split, split_report = reduce_tree(orig, red, config)
        assert max(rec["batch"] for rec in whole_report.solver_log) > 1
        assert {rec["batch"] for rec in split_report.solver_log} == {1}
        assert [rec["iterations"] for rec in split_report.solver_log] == \
            [rec["iterations"] for rec in whole_report.solver_log]
        assert np.max(np.abs(split.prob - whole.prob)) <= 1e-12
        assert np.max(np.abs(split.quantizer - whole.quantizer)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(2, 4), st.integers(1, 30)), max_size=40),
           st.integers(1, 40))
    def test_batches_match_the_dict_loop(self, nodes, limit):
        sizes = np.array([r for r, _ in nodes], dtype=int)
        atoms = np.array([a for _, a in nodes], dtype=float)
        with mock.patch.object(reduce_module, "_BATCH_MAX_ATOMS", limit):
            got = reduce_module._batches(sizes, atoms)
        assert [(r, run.tolist()) for r, run in got] == \
            batches_reference(sizes.tolist(), atoms.tolist(), limit)

    def test_exact_problems_of_a_stage_share_one_call(self, monkeypatch):
        orig = generate_random(3, 4, seed=24)
        red = random_init([2, 3, 3], seed=25)
        config = ReductionConfig(solver="lp", tol=1e-12, max_outer=3)
        packed, packed_report = reduce_tree(orig, red, config)
        # Stage 1 holds two nodes with three children each, stage 2 six.
        for t, nodes in ((1, 2), (2, 6)):
            recs = [rec for rec in packed_report.solver_log
                    if rec["iteration"] == 1 and rec["stage"] == t]
            assert [rec["batch"] for rec in recs] == [nodes] * nodes
        # Every problem in an LP of its own gives the same answers.
        monkeypatch.setattr(ot_core, "_LP_MAX_ROWS", 1)
        alone, alone_report = reduce_tree(orig, red, config)
        assert np.max(np.abs(alone.prob - packed.prob)) <= 1e-12
        assert np.max(np.abs(alone.quantizer - packed.quantizer)) <= 1e-12
        assert np.max(np.abs(np.subtract(alone_report.deltas, packed_report.deltas))) <= 1e-12


class TestReduceTree:
    def test_identical_copy_reaches_zero_and_stops(self):
        orig = separated_tree()
        final, report = reduce_tree(orig, orig, ReductionConfig(solver="lp"))
        assert report.final_nd == pytest.approx(0.0, abs=1e-9)
        assert report.converged
        assert report.iterations <= 5
        assert min(report.deltas) == pytest.approx(0.0, abs=1e-12)
        assert final.validate() == []

    @pytest.mark.parametrize("solver", ["lp", "mam", "ibp"])
    def test_invariant_to_relabelling_both_trees(self, solver):
        # Renaming the nodes changes each stage's node order, and with it
        # the order of every table, batch and packed LP.
        config = ReductionConfig(solver=solver, tol=1e-12, max_outer=4,
                                 mam_max_iter=300, ibp_max_iter=300)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            orig = generate_random(3, 4, dim=2, seed=seed)
            red = random_init([3, 2, 2], dim=2, seed=seed + 100)
            perm = rng.permutation(red.n_nodes)
            final, report = reduce_tree(orig, red, config)
            renamed, renamed_report = reduce_tree(
                relabel(orig, rng.permutation(orig.n_nodes)), relabel(red, perm), config)
            np.testing.assert_allclose(renamed_report.deltas, report.deltas, rtol=1e-12, atol=0)
            scale = np.abs(final.quantizer).max()
            np.testing.assert_allclose(renamed.quantizer[perm], final.quantizer,
                                       rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(renamed.prob[perm], final.prob, rtol=0, atol=1e-12)

    def test_trace_nonincreasing_lp(self):
        orig = generate_random(3, 4, seed=4)
        red = random_init([2, 2, 2], seed=5)
        final, report = reduce_tree(orig, red, ReductionConfig(solver="lp"))
        deltas = report.deltas
        assert all(deltas[i + 1] <= deltas[i] + 1e-9 for i in range(len(deltas) - 1))
        assert final.validate() == []

    def test_final_nd_matches_exact_recursion(self):
        orig = generate_random(3, 4, seed=6)
        red = random_init([2, 2, 2], seed=7)
        final, report = reduce_tree(orig, red, ReductionConfig(solver="lp"))
        nd, _ = nested_distance(orig, final)
        assert report.final_nd == pytest.approx(nd, abs=1e-6)

    def test_structural_mismatch_rejected(self):
        orig = generate_random(3, 2, seed=0)
        red = random_init([2, 2], seed=0)
        with pytest.raises(ValueError):
            reduce_tree(orig, red, ReductionConfig())

    @pytest.mark.parametrize("name", ["max_outer", "mam_max_iter", "ibp_max_iter"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, True, "3"])
    def test_bad_iteration_cap_rejected(self, name, value):
        # Unchecked, a cap of 0 gives zero-iteration plans, -1 and 2.5 fail
        # deep inside numpy, and True runs as 1.
        orig = generate_random(2, 3, seed=1)
        red = random_init([2, 2], seed=1)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got "):
            reduce_tree(orig, red, ReductionConfig(solver="ibp", **{name: value}))

    def test_numpy_integer_cap_accepted(self):
        ReductionConfig(max_outer=np.int64(2), mam_max_iter=np.int32(5)).validate()

    def test_invalid_tree_rejected(self):
        orig = generate_random(2, 2, seed=0)
        bad = ScenarioTree([-1, 0, 0, 1, 1, 2, 2], np.zeros((7, 1)),
                           [1.0, 0.5, 0.5, 0.3, 0.3, 0.25, 0.25])
        with pytest.raises(Exception):
            reduce_tree(orig, bad, ReductionConfig())

    def test_non_convergence_flag_and_best_iterate(self):
        orig = generate_random(3, 4, seed=10)
        red = random_init([2, 2, 2], seed=11)
        final, report = reduce_tree(
            orig, red, ReductionConfig(solver="lp", tol=1e-12, max_outer=2))
        assert not report.converged
        assert report.iterations == 2
        assert final.validate() == []

    def test_extraction_probabilities_sum(self):
        orig = generate_random(2, 5, seed=12)
        red = random_init([3, 3], seed=13)
        final, _ = reduce_tree(orig, red, ReductionConfig(solver="lp"))
        assert final.prob[final.root] == pytest.approx(1.0, abs=1e-12)
        assert final.prob[final.leaves()].sum() == pytest.approx(1.0, abs=1e-12)

    def test_evaluate_plan_upper_bounds_first_step(self):
        orig = generate_random(2, 3, seed=14)
        red = random_init([2, 2], seed=15)
        joints = init_plan(orig, red)
        leaf = path_cost_table(orig, red)
        value = evaluate_plan(joints, leaf)
        _, tables, _, _ = probability_step(orig, red, joints, leaf,
                                           ReductionConfig(solver="lp"))
        assert tables[0][0, 0] <= value + 1e-9

    def test_extract_probabilities_marginal(self):
        orig = generate_random(2, 3, seed=16)
        red = random_init([2, 2], seed=17)
        joints, _, _, _ = probability_step(
            orig, red, init_plan(orig, red), path_cost_table(orig, red),
            ReductionConfig(solver="lp"))
        out = extract_probabilities(red, joints)
        leaf_mass = joints[red.T].sum(axis=0)
        assert out.prob[out.leaves()] == pytest.approx(leaf_mass / leaf_mass.sum())


@st.composite
def ragged_tree(draw, stages, dim, children=(1, 3)):
    """Valid tree with ``children`` (least, most) children per node and some
    zero-mass branches."""
    parent, prob = [-1], [1.0]
    level = [0]
    for _ in range(stages):
        nxt = []
        for node in level:
            raw = draw(st.lists(st.integers(0, 3), min_size=children[0], max_size=children[1]))
            if sum(raw) == 0:
                raw[0] = 1
            for weight in raw:
                parent.append(node)
                prob.append(prob[node] * weight / sum(raw))
                nxt.append(len(parent) - 1)
        level = nxt
    values = st.integers(-4, 4).map(float)
    quant = draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                          min_size=len(parent), max_size=len(parent)))
    return ScenarioTree(parent, quant, prob)


@st.composite
def reduction_instance(draw):
    """Trees of 1-3 children per node, or an original of 3-4 and a start of
    3, where every barycenter and every scored pair is a HiGHS LP."""
    stages, dim = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    wide = draw(st.booleans())
    return (draw(ragged_tree(stages, dim, (3, 4) if wide else (1, 3))),
            draw(ragged_tree(stages, dim, (3, 3) if wide else (1, 3))))


class TestJointProperties:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(reduction_instance())
    def test_lp_reduction_invariants(self, trees):
        orig, red = trees
        seen = []

        def record_step(*args, **kwargs):
            out = probability_step(*args, **kwargs)
            seen.append(out[0])
            return out

        def record_final(reduced, joints):
            seen.append(joints)
            return extract_probabilities(reduced, joints)

        with mock.patch.object(reduce_module, "probability_step", record_step), \
                mock.patch.object(reduce_module, "extract_probabilities", record_final):
            final, report = reduce_tree(
                orig, red, ReductionConfig(solver="lp", tol=1e-12, max_outer=4))

        for joints in seen:
            for t, joint in enumerate(joints):
                stage_prob = orig.prob[orig.stage_nodes(t)]
                assert np.max(np.abs(joint.sum(axis=1) - stage_prob)) <= 1e-12
        leaf_mass = seen[-1][orig.T].sum(axis=0)
        assert np.max(np.abs(leaf_mass - final.prob[final.leaves()])) <= 1e-12
        deltas = report.deltas
        assert all(deltas[i + 1] <= deltas[i] + 1e-9 for i in range(len(deltas) - 1))
        nd, _ = nested_distance(orig, final)
        assert nd <= report.final_nd * (1 + 1e-9)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(reduction_instance(), st.sampled_from(["lp", "ibp", "mam"]),
           st.randoms(use_true_random=False))
    def test_stage_tables_match_sparse_reference(self, trees, solver, rnd):
        # Each stage table is the blockwise sum of C_t * tables[t+1], here
        # computed as a product with sparse 0/1 block matrices on each side.
        orig, red = (relabel(x, np.array(rnd.sample(range(x.n_nodes), x.n_nodes)))
                     for x in trees)
        config = ReductionConfig(solver=solver, ibp_max_iter=300, mam_max_iter=300)
        with mock.patch.object(reduce_module, "_compose", wraps=reduce_module._compose) as compose:
            _, tables, _, _ = probability_step(orig, red, init_plan(orig, red),
                                               path_cost_table(orig, red), config)
        conditionals = compose.call_args.args[2]
        for t in range(orig.T):
            rows, cols = orig.stage_blocks(t), red.stage_blocks(t)
            reference = block_matrix(rows, np.ones(rows.ptr[-1])) @ (
                block_matrix(cols, np.ones(cols.ptr[-1]))
                @ (conditionals[t] * tables[t + 1]).T).T
            np.testing.assert_allclose(tables[t], reference, rtol=1e-12, atol=0)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(reduction_instance(), st.sampled_from(["lp", "ibp", "mam"]))
    def test_every_solver_reproduces_original_conditionals(self, trees, solver):
        # The plan of every parent pair (m, n) sends P(i | m) times the
        # pair's mass from each child i of m over the children of n,
        # whatever the solver and whether or not it converged.
        orig, red = trees
        seen = []

        def record_step(*args, **kwargs):
            out = probability_step(*args, **kwargs)
            seen.append(out[0])
            return out

        with mock.patch.object(reduce_module, "probability_step", record_step):
            reduce_tree(orig, red, ReductionConfig(solver=solver, tol=1e-12, max_outer=3,
                                                   ibp_max_iter=300, mam_max_iter=300))

        for joints in seen:
            for t in range(orig.T):
                rows, cols = orig.stage_blocks(t), red.stage_blocks(t)
                sent = cols.sums(joints[t + 1], axis=1)
                expected = rows.cond[:, None] * joints[t][rows.parents]
                assert np.max(np.abs(sent - expected)) <= 1e-12


@pytest.mark.slow
def test_exact_reduction_beyond_the_lp_row_limit():
    # 1,555 nodes onto [3,3,3,3]: a last-stage barycenter problem has up to
    # 216 measures of 6 atoms, more rows than ot_core._LP_MAX_ROWS, so it
    # is a HiGHS LP of its own.
    a = generate_random(4, 6, dim=2, seed=1)
    b = random_init([3, 3, 3, 3], dim=2, seed=1)
    rows, real = [], ot_core._highs

    def recording(*args):
        rows.append(args[5].shape[0])
        return real(*args)

    with mock.patch.object(ot_core, "_highs", recording):
        tick = time.perf_counter()
        final, report = reduce_tree(a, b, ReductionConfig(solver="lp", max_outer=2))
        seconds = time.perf_counter() - tick
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"\nrow limit: two LP passes to final_nd {report.final_nd:.6f} in {seconds:.2f} s, "
          f"largest LP {max(rows)} rows, process max RSS {peak_mb:.0f} MB")
    assert max(rows) > ot_core._LP_MAX_ROWS
    assert nested_distance(a, final)[0] <= report.final_nd * (1 + 1e-9)
