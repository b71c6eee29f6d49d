"""Block-coordinate scenario-tree reduction.

Given a large tree and a smaller tree with fixed structure, the loop
alternates two steps until the root cost stops improving:

* quantizer step: every reduced node's value becomes the transport-weighted
  mean of the same-stage original values (closed form, exactly optimal for
  order 2 thanks to the stage-decomposed path cost);
* probability step: walking stages backward, each reduced node's conditional
  child probabilities and plans are re-optimized as one fixed-support
  barycenter problem over the original nodes of that stage, solved by one
  solver for the whole run: exact (closed form for a node with two
  children, else block-diagonal HiGHS LPs shared by the stage's problems;
  ``"auto"``, the default, means exact), averaged marginals or Bregman
  projections.

The first iteration runs the probability step only: the initial plan is a
feasibility seed, and running the mean update on it would overwrite any
carefully chosen starting quantizers (K-means or greedy-selection starts)
with stage-wide averages.  From the second iteration on the two steps
alternate in the order above.

The coupling is stored once, as dense stage joints: ``joints[t]`` is the
(N_a(t) x N_b(t)) joint distribution of the stage-t nodes of the original
tree (rows) and of the reduced tree (columns), both in stage-node order,
with ``joints[0] = [[1.0]]``.  The conditional plan of a parent pair (m, n)
is the joint's (children(m), children(n)) block over the parent mass
``joints[t][m, n]``.  Every function below is a few array passes over the
trees' stage-block indices (:meth:`ScenarioTree.stage_blocks`): a stage's
conditionals are one dense array ``C_t`` shaped like ``joints[t+1]``, and
``joints[t+1] = C_t * joints[t][parent_a][:, parent_b]`` with ``parent_a``
and ``parent_b`` the parent position of every stage-(t+1) node.

Reduced-node probabilities are irrelevant during the loop; they are extracted
once at the end from the final leaf joint's reduced-side marginals and summed
upward.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import ibp, mam
from .ibp import ibp_batch
from .mam import mam_batch
from .ot_core import BarycenterBatch, barycenter_batch, packs
from .tree import (ScenarioTree, TreeValidationError, check_count, check_positive,
                   path_cost_table)

# Not called under these names: perfbench/spans.py still resolves its
# solver layers here, and the layers count zero calls.
barycenter_lp, mam_solve, ibp_solve = barycenter_batch, mam_batch, ibp_batch

SOLVERS = ("lp", "mam", "ibp", "auto")

# Order of the nested distance.  The closed-form quantizer update is exact
# for order 2 only.
ORDER = 2

# Atoms per batched solve.  One exact pass of generate_random(6, 5) onto a
# binary tree poses 32 problems of 15,625 atoms at its last stage: all in
# one batch, the pass takes 0.29 s and peaks at 216 MB of RSS; in batches of
# at most 2^14 atoms, 0.22 s and 129 MB.  Small stages, where batching
# pays, fit in one batch.
_BATCH_MAX_ATOMS = 1 << 14


@dataclass
class ReductionConfig:
    """Knobs of the reduction loop and its inner solvers.

    ``solver`` is ``"lp"`` (exact), ``"mam"`` (averaged marginals), ``"ibp"``
    (Bregman projections) or ``"auto"``, which means exact.  The iterative
    solvers stop at their own default tolerances.
    """

    solver: str = "auto"
    # Stop once an outer iteration lowers the root cost nd^ORDER by at most
    # tol: an absolute drop, in the data's units squared at ORDER 2.
    tol: float = 0.1
    max_outer: int = 50
    rho: float | None = None    # averaged-marginals proximal parameter
    lam: float = ibp.DEFAULT_LAMBDA  # Bregman regularization strength
    mam_max_iter: int = mam.DEFAULT_MAX_ITER
    ibp_max_iter: int = ibp.DEFAULT_MAX_ITER

    def validate(self) -> None:
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}, expected one of {SOLVERS}")
        check_positive("tol", self.tol)
        if self.rho is not None:  # else the solver picks rho per problem
            check_positive("rho", self.rho)
        check_positive("lam", self.lam)
        for name in ("max_outer", "mam_max_iter", "ibp_max_iter"):
            check_count(name, getattr(self, name))


@dataclass
class ReductionReport:
    """Per-iteration trace and bookkeeping of one reduction run.

    ``deltas[k]`` is the root cost after outer iteration k; index 0 holds the
    evaluation of the initial plan, so the sequence is nonincreasing up to
    inner-solver tolerance.  ``stage_seconds[k-1][t]`` is the time iteration k
    spent on stage t of the probability step.

    ``solver_log`` holds one record per solved barycenter problem: its
    ``iteration``, ``stage``, reduced ``node``, ``solver``, ``measures``,
    ``max_support``, inner ``iterations`` and whether it ``converged``.
    Inner iterations are 1 for an exact solve and the solver's own count
    otherwise; for IBP at two support points that is the Newton passes of a
    problem Newton finished, else the sweeps alone, without the Newton
    steps tried before it fell back (:func:`~treeshrink.ibp.ibp_batch`).
    The problems of one stage that share a support size are solved
    together; ``batch`` is the number of problems in that call (the exact
    solver packs them into HiGHS LPs of at most ``ot_core._LP_MAX_ROWS``
    rows, 1024, a larger problem in an LP of its own), and
    ``seconds`` is the record's equal share of the call's time, so the
    records of one call sum to its time.
    """

    order: float
    deltas: list = field(default_factory=list)
    iteration_seconds: list = field(default_factory=list)
    stage_seconds: list = field(default_factory=list)
    solver_log: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    final_nd: float = float("nan")

    def nds(self) -> list:
        return [d ** (1.0 / self.order) for d in self.deltas]

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "deltas": list(self.deltas),
            "nds": self.nds(),
            "iteration_seconds": list(self.iteration_seconds),
            "stage_seconds": [list(s) for s in self.stage_seconds],
            "solver_log": list(self.solver_log),
            "converged": self.converged,
            "iterations": self.iterations,
            "final_nd": self.final_nd,
        }


def _compose(original, reduced, conditionals) -> list:
    """Stage joints from the stage conditionals ``C_t``, from pi(0, 0) = 1 down."""
    joints = [np.ones((1, 1))]
    for t, cond in enumerate(conditionals):
        rows = original.stage_blocks(t).parents
        cols = reduced.stage_blocks(t).parents
        joints.append(cond * joints[t].take(cols, axis=1).take(rows, axis=0))
    return joints


def init_plan(original: ScenarioTree, reduced: ScenarioTree) -> list:
    """Feasible starting coupling: spread each original conditional uniformly.

    Every stage-matched parent pair (m, n) gives child pair (i, j) the
    conditional mass P(i|m) / |n+|, so ``C_t`` is the outer division of the
    original conditionals by the reduced parents' child counts.  Returns the
    stage joints.
    """
    if original.T != reduced.T:
        raise ValueError("trees must share the stage count")
    conditionals = []
    for t in range(original.T):
        rows, cols = original.stage_blocks(t), reduced.stage_blocks(t)
        conditionals.append(rows.cond[:, None] / np.repeat(cols.sizes, cols.sizes)[None, :])
    return _compose(original, reduced, conditionals)


def evaluate_plan(joints, leaf_costs) -> float:
    """Root cost of a fixed coupling: the leaf joint's total path cost."""
    return float(np.sum(joints[-1] * leaf_costs))


def quantizer_step(original: ScenarioTree, reduced: ScenarioTree, joints) -> ScenarioTree:
    """Move every reduced quantizer to its transport-weighted stage mean.

    Stage by stage (root included), node n receives the mean of the original
    stage values weighted by the joint's column ``joints[t][:, n]``; columns
    without mass keep their current value.  Returns a new reduced tree, the
    original is untouched.  Exact minimizer of the coupled cost in the
    order-2 (stage-decomposed squared Euclidean) case.
    """
    new_q = np.array(reduced.quantizer)
    for t in range(reduced.T + 1):
        w = joints[t]
        col_mass = w.sum(axis=0)
        live = col_mass > 0.0
        if not np.any(live):
            continue
        weights = w[:, live] / col_mass[live]
        stage_vals = original.quantizer[original.stage_nodes(t)]
        new_q[reduced.stage_nodes(t)[live]] = weights.T @ stage_vals
    return reduced.with_quantizer(new_q)


def _batches(sizes, atoms):
    """The nodes that share a support size R, support sizes in order of
    first appearance, each in runs of at most ``_BATCH_MAX_ATOMS`` atoms
    or of one node (:func:`~treeshrink.ot_core.packs`):
    ``[(R, node indices), ...]``.
    """
    out = []
    for r in dict.fromkeys(sizes.tolist()):
        nodes = np.flatnonzero(sizes == r)
        bounds = packs(atoms[nodes], _BATCH_MAX_ATOMS)
        out.extend((r, nodes[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]))
    return out


def _solve(batch, solver, config, warm):
    """Solve a batch with one solver; returns its :class:`BatchSolution`."""
    if solver == "ibp":
        return ibp_batch(batch, lam=config.lam, max_iter=config.ibp_max_iter)
    if solver == "mam":
        return mam_batch(batch, rho=config.rho, max_iter=config.mam_max_iter, init_plans=warm)
    if solver != "lp":
        raise ValueError(f"unknown solver {solver!r}")
    return barycenter_batch(batch)


def probability_step(original, reduced, joints, leaf_costs, config: ReductionConfig):
    """Re-optimize the coupling for the current quantizers.

    Walks stages backward.  At stage t, the conditional plans of all parent
    pairs (m, n) form one dense array ``C_t`` shaped like ``joints[t+1]``:

    * ``C_t = outer(cond_a, p_bar)`` first, where ``cond_a`` holds every
      original stage-(t+1) node's conditional probability and ``p_bar``
      stacks, per reduced node n, the uniform vector on its children (1 for
      a single child, whose plans are forced); a solved node's part is then
      replaced by its barycenter, and a node whose weight column
      ``joints[t][:, n]`` is zero keeps the uniform vector;
    * a reduced node with at least two children and positive weight poses
      one barycenter problem over the original nodes m with weight
      alpha_m = joints[t][m, n] > 0; its plans overwrite those (m, n) blocks
      of ``C_t``.  Measures of zero weight keep the product plan
      q^m x p_bar.  The averaged-marginals solver starts from the incoming
      conditionals, ``joints[t+1]``'s (m, n) block over alpha_m.

    The stage's problems are assembled at once: the active (m, n) pairs of
    ``joints[t]`` give every measure's atoms (the children of m) and
    support points (the children of n) as index arrays, and the problems
    that share a support size R are gathered into one
    :class:`BarycenterBatch` (split only past ``_BATCH_MAX_ATOMS`` atoms)
    and solved in one call with the run's solver (``"auto"`` is exact).
    Exact solves at R >= 3 pack consecutive problems of the call into
    block-diagonal HiGHS LPs (:func:`ot_core.barycenter_batch`).

    The stage-t table is the blockwise sum of ``C_t * tables[t+1]``, over
    the original children blocks first and the reduced ones second
    (:meth:`~treeshrink.tree.StageBlocks.sums`).  The new joints are
    composed from the root down once every stage is done.

    Returns ``(new joints, stage tables, solver records, stage seconds)``.
    """
    big_t = original.T
    tables = [None] * (big_t + 1)
    tables[big_t] = leaf_costs
    conditionals = [None] * big_t
    records = []
    solver = "lp" if config.solver == "auto" else config.solver
    stage_secs = [0.0] * (big_t + 1)

    for t in range(big_t - 1, -1, -1):
        tick = time.perf_counter()
        rows = original.stage_blocks(t)
        cols = reduced.stage_blocks(t)
        next_table = tables[t + 1]
        # C_t starts as outer(rows.cond, p_bar), p_bar uniform per reduced
        # node, in stage-(t+1) node order; a solved node's columns are redone
        # with its barycenter, and its plans written over its active blocks,
        # batch by batch.
        cond = rows.cond[:, None] * (1.0 / np.repeat(cols.sizes, cols.sizes))
        branching = np.flatnonzero(cols.sizes > 1)
        active = joints[t][:, branching] > 0.0
        solved = active.any(axis=0)
        nodes = branching[solved]
        # The active pairs, node by node and ascending m within a node.
        pair_node, pair_m = np.nonzero(active[:, solved].T)
        measures = np.bincount(pair_node, minlength=nodes.shape[0])
        width = np.zeros(nodes.shape[0], dtype=int)
        np.maximum.at(width, pair_node, rows.sizes[pair_m])
        node_atoms = np.bincount(pair_node, rows.sizes[pair_m], nodes.shape[0])
        for r, members in _batches(cols.sizes[nodes], node_atoms):
            pick = np.zeros(nodes.shape[0], dtype=bool)
            pick[members] = True
            pick = pick[pair_node]
            node_of = pair_node[pick]
            m = pair_m[pick]
            alpha = joints[t][m, nodes[node_of]]
            atom_ptr, atoms = rows.select(m)
            sizes = np.diff(atom_ptr)
            # Support points of every atom's problem, in stage-(t+1) order.
            points = cols.ptr[nodes[node_of]][:, None] + np.arange(r)
            points = np.repeat(points, sizes, axis=0)
            mass = np.repeat(alpha, sizes)[:, None]
            block = (atoms[:, None], points)
            batch = BarycenterBatch(
                rows.cond[atoms], (mass * next_table[block]).T, alpha, atom_ptr,
                np.concatenate(([0], np.cumsum(measures[members]))))
            warm = (joints[t + 1][block] / mass).T if solver == "mam" else None
            start = time.perf_counter()
            solution = _solve(batch, solver, config, warm)
            share = (time.perf_counter() - start) / batch.P
            p = np.maximum(solution.p, 0.0)
            cond[:, points[atom_ptr[batch.measure_ptr[:-1]]]] = (
                rows.cond[:, None, None] * (p / p.sum(axis=1, keepdims=True)))
            cond[block] = np.maximum(solution.plans.T, 0.0)
            for k, i in enumerate(members):
                records.append({"stage": t, "node": int(reduced.stage_nodes(t)[nodes[i]]),
                                "solver": solver, "measures": int(measures[i]),
                                "max_support": int(width[i]),
                                "iterations": int(solution.iterations[k]),
                                "converged": bool(solution.converged[k]),
                                "batch": batch.P, "seconds": share})

        tables[t] = cols.sums(rows.sums(cond * next_table), axis=1)
        conditionals[t] = cond
        stage_secs[t] = time.perf_counter() - tick

    return _compose(original, reduced, conditionals), tables, records, stage_secs


def extract_probabilities(reduced: ScenarioTree, joints) -> ScenarioTree:
    """Read the reduced tree's probabilities off the final coupling.

    Leaf probabilities are the reduced-side marginals of the leaf-stage joint
    (renormalized against float drift, which stays below 1e-12); each
    earlier stage sums its children, one block sum per stage.
    """
    leaf_mass = joints[reduced.T].sum(axis=0)
    prob = np.zeros(reduced.n_nodes)
    prob[reduced.stage_nodes(reduced.T)] = leaf_mass / leaf_mass.sum()
    for t in range(reduced.T - 1, -1, -1):
        prob[reduced.stage_nodes(t)] = reduced.stage_blocks(t).sums(
            prob[reduced.stage_nodes(t + 1)])
    return reduced.with_prob(prob)


def reduce_tree(original: ScenarioTree, reduced0: ScenarioTree,
                config: ReductionConfig | None = None):
    """Run the full reduction loop; returns ``(reduced tree, ReductionReport)``.

    The reduced tree's structure is fixed throughout; only its quantizers and
    probabilities change.  The loop stops once the root cost improves by at
    most ``config.tol`` between consecutive iterations (``converged`` is then
    set) or after ``config.max_outer`` iterations.
    """
    config = config or ReductionConfig()
    config.validate()
    if original.T != reduced0.T:
        raise ValueError("trees must share the stage count")
    if original.d != reduced0.d:
        raise ValueError("trees must share the quantizer dimension")
    for name, tree in (("original", original), ("reduced", reduced0)):
        violations = tree.validate()
        if violations:
            raise TreeValidationError([f"{name} tree: {v}" for v in violations])

    report = ReductionReport(order=ORDER)
    joints = init_plan(original, reduced0)
    reduced = reduced0
    leaf_costs = path_cost_table(original, reduced, order=ORDER)
    report.deltas.append(evaluate_plan(joints, leaf_costs))

    for k in range(1, config.max_outer + 1):
        tick = time.perf_counter()
        if k > 1:
            reduced = quantizer_step(original, reduced, joints)
            leaf_costs = path_cost_table(original, reduced, order=ORDER)
        joints, tables, records, stage_secs = probability_step(
            original, reduced, joints, leaf_costs, config)
        for rec in records:
            rec["iteration"] = k
        report.solver_log.extend(records)
        report.deltas.append(float(tables[0][0, 0]))
        report.iteration_seconds.append(time.perf_counter() - tick)
        report.stage_seconds.append(stage_secs)
        report.iterations = k
        if report.deltas[-2] - report.deltas[-1] <= config.tol:
            report.converged = True
            break

    final = extract_probabilities(reduced, joints)
    violations = final.validate()
    if violations:
        raise RuntimeError("reduction produced an invalid tree: " + "; ".join(violations))
    report.final_nd = report.deltas[-1] ** (1.0 / ORDER)
    return final, report
