"""Block-coordinate scenario-tree reduction.

Given a large tree and a smaller tree with fixed structure, the loop
alternates two steps until the root cost stops improving:

* quantizer step: every reduced node's value becomes the transport-weighted
  mean of the same-stage original values (closed form, exactly optimal for
  order 2 thanks to the stage-decomposed path cost);
* probability step: walking stages backward, each reduced node's conditional
  child probabilities and plans are re-optimized as one fixed-support
  barycenter problem over the original nodes of that stage, solved by an
  exact LP, by averaged marginals, by Bregman projections, or by a
  structure-aware automatic choice between LP and averaged marginals.

The first iteration runs the probability step only: the initial plan is a
feasibility seed, and running the mean update on it would overwrite any
carefully chosen starting quantizers (K-means or greedy-selection starts)
with stage-wide averages.  From the second iteration on the two steps
alternate in the order above.

Reduced-node probabilities are irrelevant during the loop; they are extracted
once at the end from the final unconditional plan's leaf marginals and summed
upward.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .ibp import ibp_solve
from .mam import mam_solve
from .ot_core import BarycenterProblem, barycenter_lp
from .tree import ScenarioTree, TreeValidationError, path_cost_table

SOLVERS = ("lp", "mam", "ibp", "auto")


@dataclass
class ReductionConfig:
    """Knobs of the reduction loop and its inner solvers."""

    solver: str = "auto"
    tol: float = 0.1            # stop when the root cost improves by less
    order: int = 2
    max_outer: int = 50
    rho: float | None = None    # averaged-marginals proximal parameter
    lam: float = 100.0          # Bregman regularization strength
    mam_max_iter: int = 5000
    mam_tol: float = 1e-6
    ibp_max_iter: int = 10000
    ibp_tol: float = 1e-8
    n_big: int = 10             # auto policy: measure count above which to prefer mam
    branch_big: int = 150       # auto policy: support size above which to prefer mam
    workers: int = 1

    def validate(self) -> None:
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}, expected one of {SOLVERS}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.order != 2:
            raise ValueError("only order 2 is supported (closed-form quantizer update)")
        if self.max_outer < 1 or self.workers < 1:
            raise ValueError("max_outer and workers must be at least 1")


@dataclass
class ConditionalPlan:
    """Stagewise transport coupling between two trees.

    ``conditional[t]`` maps a parent pair ``(m, n)`` of stage-t nodes to the
    plan over their children, stored as an (|m+|, |n+|) array whose total mass
    is 1 and whose row sums reproduce the original conditionals P(i|m).
    ``unconditional[t]`` is the dense stage-t joint built from the root down
    via pi(i, j) = pi(i, j | m, n) * pi(m, n), starting at pi(0, 0) = 1.
    """

    conditional: list
    unconditional: list

    def mass_check(self) -> float:
        """Largest deviation of any stage's joint from total mass 1."""
        return max(abs(float(u.sum()) - 1.0) for u in self.unconditional)


@dataclass
class ReductionReport:
    """Per-iteration trace and bookkeeping of one reduction run.

    ``deltas[k]`` is the root cost after outer iteration k; index 0 holds the
    evaluation of the initial plan, so the sequence is nonincreasing up to
    inner-solver tolerance.  ``stage_seconds[k-1][t]`` is the time iteration k
    spent solving stage-t barycenters.
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

    def trace_rows(self):
        """Rows (iter, delta00, nd, seconds) with iteration 0 = initialization."""
        nds = self.nds()
        secs = [0.0] + list(self.iteration_seconds)
        return [(k, self.deltas[k], nds[k], secs[k]) for k in range(len(self.deltas))]

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


def init_plan(original: ScenarioTree, reduced: ScenarioTree) -> ConditionalPlan:
    """Feasible starting coupling: spread each original conditional uniformly.

    For every stage-matched parent pair, the conditional plan gives child pair
    (i, j) the mass P(i|m) / |n+|; the unconditional stage joints follow by
    composition from pi(0, 0) = 1.
    """
    if original.T != reduced.T:
        raise ValueError("trees must share the stage count")
    big_t = original.T
    conditional = []
    for t in range(big_t):
        block = {}
        for m in original.stage_nodes(t):
            q = original.conditional_children_probs(m)
            for n in reduced.stage_nodes(t):
                r = reduced.n_children(n)
                block[(int(m), int(n))] = np.repeat(q[:, None], r, axis=1) / r
        conditional.append(block)
    plan = ConditionalPlan(conditional, [])
    _compose_unconditional(original, reduced, plan)
    return plan


def _compose_unconditional(original, reduced, plan) -> None:
    big_t = original.T
    uncond = [np.ones((1, 1))]
    for t in range(big_t):
        rows = original.stage_blocks(t)
        cols = reduced.stage_blocks(t)
        nxt = np.zeros((original.stage_nodes(t + 1).shape[0],
                        reduced.stage_nodes(t + 1).shape[0]))
        cur = uncond[t]
        for mi, m in enumerate(original.stage_nodes(t)):
            for nj, n in enumerate(reduced.stage_nodes(t)):
                mass = cur[mi, nj]
                if mass > 0.0:
                    nxt[np.ix_(rows.children(mi), cols.children(nj))] = \
                        plan.conditional[t][(int(m), int(n))] * mass
        uncond.append(nxt)
    plan.unconditional = uncond


def evaluate_plan(original, reduced, plan, leaf_costs) -> float:
    """Root cost of a fixed coupling: backward aggregation without optimization."""
    big_t = original.T
    values = leaf_costs
    for t in range(big_t - 1, -1, -1):
        rows = original.stage_blocks(t)
        cols = reduced.stage_blocks(t)
        nodes_a = original.stage_nodes(t)
        nodes_b = reduced.stage_nodes(t)
        out = np.zeros((nodes_a.shape[0], nodes_b.shape[0]))
        for mi, m in enumerate(nodes_a):
            for nj, n in enumerate(nodes_b):
                sub = values[np.ix_(rows.children(mi), cols.children(nj))]
                out[mi, nj] = float(np.sum(plan.conditional[t][(int(m), int(n))] * sub))
        values = out
    return float(values[0, 0])


def quantizer_step(original: ScenarioTree, reduced: ScenarioTree,
                   plan: ConditionalPlan) -> ScenarioTree:
    """Move every reduced quantizer to its transport-weighted stage mean.

    Stage by stage (root included), node n receives the mean of the original
    stage values weighted by the unconditional plan column pi(., n); columns
    without mass keep their current value.  Returns a new reduced tree, the
    original is untouched.  Exact minimizer of the coupled cost in the
    order-2 (stage-decomposed squared Euclidean) case.
    """
    new_q = np.array(reduced.quantizer)
    for t in range(reduced.T + 1):
        w = plan.unconditional[t]
        col_mass = w.sum(axis=0)
        live = col_mass > 0.0
        if not np.any(live):
            continue
        weights = w[:, live] / col_mass[live]
        stage_vals = original.quantizer[original.stage_nodes(t)]
        new_q[reduced.stage_nodes(t)[live]] = weights.T @ stage_vals
    return reduced.with_quantizer(new_q)


def choose_solver(n_subtrees: int, branching: int, config: ReductionConfig) -> str:
    """Structure-aware pick between the exact LP and averaged marginals.

    Averaged marginals win on many measures (beyond ``n_big``, with any real
    branching) or on very wide supports (beyond ``branch_big``); the LP is
    faster on everything smaller.
    """
    if (n_subtrees > config.n_big and branching > 1) or branching > config.branch_big:
        return "mam"
    return "lp"


def _solve_node(problem, solver, config, warm_plans):
    if solver == "lp":
        _, plan_set = barycenter_lp(problem)
        return plan_set, 1, True
    if solver == "mam":
        res = mam_solve(problem, rho=config.rho, max_iter=config.mam_max_iter,
                        tol_marginal=config.mam_tol, init_plans=warm_plans)
        return res.plan_set, res.iterations, res.converged
    if solver == "ibp":
        res = ibp_solve(problem, lam=config.lam, max_iter=config.ibp_max_iter,
                        tol_fixed_point=config.ibp_tol)
        return res.plan_set, res.iterations, res.converged
    raise ValueError(f"unknown solver {solver!r}")


def probability_step(original, reduced, plan, leaf_costs, config: ReductionConfig):
    """Re-optimize all conditional plans for the current quantizers.

    Walks stages backward; for each reduced node n the conditional plans
    toward every original node m of that stage come from one barycenter
    problem with weights alpha_m = pi(m, n) taken from the incoming coupling.
    Measures with zero weight are left out of the problem and receive the
    product plan q^m x p of the solved barycenter; a reduced node whose whole
    weight column is zero keeps the uniform product plan.  Nodes with a single
    child are fully constrained and bypass the solvers.

    Returns ``(new ConditionalPlan, stage tables, solver records, stage
    seconds)``; the new plan's unconditional joints are already composed.
    """
    big_t = original.T
    tables = [None] * (big_t + 1)
    tables[big_t] = leaf_costs
    conditional = [None] * big_t
    records = []
    stage_secs = [0.0] * (big_t + 1)

    for t in range(big_t - 1, -1, -1):
        tick = time.perf_counter()
        nodes_a = original.stage_nodes(t)
        nodes_b = reduced.stage_nodes(t)
        rows = original.stage_blocks(t)
        cols = reduced.stage_blocks(t)
        next_table = tables[t + 1]
        pi_t = plan.unconditional[t]
        q_meas = [rows.probs(mi) for mi in range(nodes_a.shape[0])]
        subcosts = [[next_table[np.ix_(rows.children(mi), cols.children(nj))]
                     for nj in range(nodes_b.shape[0])] for mi in range(nodes_a.shape[0])]

        def solve_one(nj):
            n = int(nodes_b[nj])
            r = cols.children(nj).shape[0]
            entries = {}
            rec = None
            if r == 1:
                # Single reduced child: plans are forced to the conditionals.
                for mi, m in enumerate(nodes_a):
                    entries[(int(m), n)] = q_meas[mi][:, None].copy()
            else:
                alpha = pi_t[:, nj]
                active = np.flatnonzero(alpha > 0.0)
                if active.size == 0:
                    p_bar = np.full(r, 1.0 / r)
                else:
                    problem = BarycenterProblem(
                        q=[q_meas[mi] for mi in active],
                        D=[alpha[mi] * subcosts[mi][nj].T for mi in active],
                        alpha=alpha[active],
                    )
                    solver = config.solver
                    if solver == "auto":
                        solver = choose_solver(active.size,
                                               max(q_meas[mi].shape[0] for mi in active),
                                               config)
                    warm = None
                    if solver == "mam":
                        warm = [plan.conditional[t][(int(nodes_a[mi]), n)].T
                                for mi in active]
                    start = time.perf_counter()
                    plan_set, inner, ok = _solve_node(problem, solver, config, warm)
                    rec = {"stage": t, "node": n, "solver": solver,
                           "measures": int(active.size),
                           "max_support": int(max(q_meas[mi].shape[0] for mi in active)),
                           "iterations": inner, "converged": bool(ok),
                           "seconds": time.perf_counter() - start}
                    p_bar = np.maximum(plan_set.p, 0.0)
                    p_bar = p_bar / p_bar.sum()
                    for k, mi in enumerate(active):
                        entries[(int(nodes_a[mi]), n)] = np.maximum(plan_set.plans[k].T, 0.0)
                for mi, m in enumerate(nodes_a):
                    if (int(m), n) not in entries:
                        entries[(int(m), n)] = q_meas[mi][:, None] * p_bar[None, :]
            column = np.array([
                float(np.sum(entries[(int(m), n)] * subcosts[mi][nj]))
                for mi, m in enumerate(nodes_a)])
            return entries, column, rec

        if config.workers > 1 and nodes_b.shape[0] > 1:
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                results = list(pool.map(solve_one, range(nodes_b.shape[0])))
        else:
            results = [solve_one(nj) for nj in range(nodes_b.shape[0])]

        block = {}
        table = np.zeros((nodes_a.shape[0], nodes_b.shape[0]))
        for nj, (entries, column, rec) in enumerate(results):
            block.update(entries)
            table[:, nj] = column
            if rec is not None:
                records.append(rec)
        conditional[t] = block
        tables[t] = table
        stage_secs[t] = time.perf_counter() - tick

    new_plan = ConditionalPlan(conditional, [])
    _compose_unconditional(original, reduced, new_plan)
    return new_plan, tables, records, stage_secs


def extract_probabilities(reduced: ScenarioTree, plan: ConditionalPlan) -> ScenarioTree:
    """Read the reduced tree's probabilities off the final coupling.

    Leaf probabilities are the reduced-side marginals of the leaf-stage joint
    (renormalized against float drift, which stays below 1e-12); internal
    probabilities are children sums.
    """
    leaf_mass = plan.unconditional[reduced.T].sum(axis=0)
    prob = np.zeros(reduced.n_nodes)
    prob[reduced.stage_nodes(reduced.T)] = leaf_mass / leaf_mass.sum()
    for t in range(reduced.T - 1, -1, -1):
        for n in reduced.stage_nodes(t):
            prob[n] = float(np.sum(prob[reduced.children(n)]))
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

    report = ReductionReport(order=config.order)
    plan = init_plan(original, reduced0)
    reduced = reduced0
    leaf_costs = path_cost_table(original, reduced, order=config.order)
    report.deltas.append(evaluate_plan(original, reduced, plan, leaf_costs))

    for k in range(1, config.max_outer + 1):
        tick = time.perf_counter()
        if k > 1:
            reduced = quantizer_step(original, reduced, plan)
            leaf_costs = path_cost_table(original, reduced, order=config.order)
        plan, tables, records, stage_secs = probability_step(
            original, reduced, plan, leaf_costs, config)
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

    final = extract_probabilities(reduced, plan)
    violations = final.validate()
    if violations:
        raise RuntimeError("reduction produced an invalid tree: " + "; ".join(violations))
    report.final_nd = report.deltas[-1] ** (1.0 / config.order)
    return final, report
