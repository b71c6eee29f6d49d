"""Builders for initial reduced trees: scenario clustering, greedy forward
selection, and random structures.

The clustering and selection builders consume a flat scenario matrix (paths
by stages by dimensions, plus a probability per path) and return fan trees:
one branch per centroid or selected scenario.  Bushier structures are the
caller's concern; ``merge_prefixes`` folds branches that share an identical
prefix into a proper subtree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tree import ScenarioTree, fan_tree, read_scenarios_csv


@dataclass
class ScenarioMatrix:
    """S scenario paths of shape (T+1, d) with a probability vector on the simplex."""

    paths: np.ndarray
    prob: np.ndarray

    def __post_init__(self):
        self.paths = np.asarray(self.paths, dtype=np.float64)
        if self.paths.ndim == 2:
            self.paths = self.paths[:, :, None]
        self.prob = np.asarray(self.prob, dtype=np.float64)
        if self.prob.shape[0] != self.paths.shape[0]:
            raise ValueError("one probability per scenario required")
        if np.any(self.prob < 0) or abs(self.prob.sum() - 1.0) > 1e-9:
            raise ValueError("scenario probabilities must lie on the simplex")

    @property
    def S(self) -> int:
        return self.paths.shape[0]

    def flat(self) -> np.ndarray:
        """Scenarios as rows of length (T+1)*d."""
        return self.paths.reshape(self.S, -1)

    @classmethod
    def from_csv(cls, path, dim=1) -> "ScenarioMatrix":
        paths, prob = read_scenarios_csv(path, dim=dim)
        return cls(paths, prob)

    @classmethod
    def from_tree(cls, tree: ScenarioTree) -> "ScenarioMatrix":
        """Leaf-path view of any tree (paths and leaf probabilities)."""
        return cls(tree.path_values(), tree.prob[tree.leaves()])


# Doubles per temporary of the row-blocked pairwise distances.
_BLOCK_ENTRIES = 1 << 19


def _squared_distances(flat_paths) -> np.ndarray:
    """(S, S) squared Euclidean distances, in row blocks of bounded size.

    Each entry is summed over the path coordinates exactly as in one
    (S, S, d) broadcast, without that temporary.
    """
    s_count, width = flat_paths.shape
    out = np.empty((s_count, s_count))
    step = max(1, _BLOCK_ENTRIES // max(s_count * width, 1))
    for lo in range(0, s_count, step):
        diff = flat_paths[lo:lo + step, None, :] - flat_paths[None, :, :]
        out[lo:lo + step] = np.sum(diff * diff, axis=2)
    return out


def kmeans_init(scenarios: ScenarioMatrix, k: int, seed=0, max_iter=300,
                tol=1e-6) -> ScenarioTree:
    """Probability-weighted Lloyd clustering of the flattened paths.

    Seeding follows the usual farthest-biased random rule (first center drawn
    by scenario probability, later ones by probability times squared distance
    to the closest chosen center); centroids are probability-weighted means;
    a cluster that empties is reseeded at the point farthest from its center.
    Returns the fan tree of the k centroid paths, each carrying its cluster's
    mass.  Deterministic for a fixed seed.
    """
    if not 1 <= k <= scenarios.S:
        raise ValueError("need 1 <= k <= number of scenarios")
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
    assign = None
    for _ in range(max_iter):
        d2 = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
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
        if inertia - new_inertia <= tol * max(abs(inertia), 1.0):
            break
        inertia = new_inertia

    masses = np.array([w[assign == c].sum() for c in range(k)])
    paths = centers.reshape(k, scenarios.paths.shape[1], scenarios.paths.shape[2])
    return fan_tree(paths, masses)


# Scores within this relative distance of the best are summed again one by
# one, far above the rounding gap between the two ways of summing.
_TIE_RTOL = 1e-9


def ffs_init(scenarios: ScenarioMatrix, k: int, order=2) -> ScenarioTree:
    """Greedy forward scenario selection with probability redistribution.

    Repeatedly adds the scenario whose inclusion minimizes the transport cost
    of the not-selected mass, sum over j of p_j times the cost to its nearest
    selected scenario, with cost = path distance to the power ``order``.
    After k picks, every unselected scenario's probability moves to its
    nearest selected one, and the selected paths form the returned fan tree.
    Ties break toward the lowest scenario index.

    A pick scores every candidate at once, as one matrix-vector product of
    the capped costs ``min(best, cost[u])`` with the weights of the
    not-selected scenarios (a candidate's own term is zero).  The product's
    rounding can differ between equal rows, so the few candidates within a
    relative 1e-9 of the best are scored again, each as one sum over the
    not-selected scenarios in index order.  Duplicated scenarios then score
    exactly equal, and the lowest index among the equal best wins.
    """
    if not 1 <= k <= scenarios.S:
        raise ValueError("need 1 <= k <= number of scenarios")
    cost = _squared_distances(scenarios.flat())
    if order != 2:
        cost = np.sqrt(cost) ** order
    w = scenarios.prob

    best_dist = np.full(scenarios.S, np.inf)
    remaining = np.ones(scenarios.S, dtype=bool)
    capped = np.empty_like(cost)
    for _ in range(k):
        scores = np.minimum(best_dist, cost, out=capped) @ (w * remaining)
        scores[~remaining] = np.inf
        near = np.flatnonzero(scores <= scores.min() * (1.0 + _TIE_RTOL))
        u_star = int(near[0])
        if near.size > 1:
            exact = [np.sum((w * capped[u])[remaining]) for u in near]
            u_star = int(near[int(np.argmin(exact))])
        remaining[u_star] = False
        best_dist = np.minimum(best_dist, cost[u_star])

    selected = np.flatnonzero(~remaining)
    rest = np.flatnonzero(remaining)
    new_w = np.where(remaining, 0.0, w)
    np.add.at(new_w, selected[np.argmin(cost[np.ix_(rest, selected)], axis=1)], w[rest])
    return fan_tree(scenarios.paths[selected], new_w[selected])


def random_init(branching, dim=1, value_range=(-10.0, 10.0), seed=0) -> ScenarioTree:
    """Random tree with the given per-stage branching list.

    Quantizers are uniform over ``value_range`` (root included); conditional
    probabilities are uniform draws normalized per node.  Deterministic for a
    fixed seed.
    """
    branching = [int(b) for b in branching]
    if len(branching) < 1 or any(b < 1 for b in branching):
        raise ValueError("branching must list at least one stage, all entries >= 1")
    rng = np.random.default_rng(seed)
    counts = [1]
    for b in branching:
        counts.append(counts[-1] * b)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    n = int(offsets[-1])
    parent = np.full(n, -1, dtype=np.int64)
    stage = np.zeros(n, dtype=np.int64)
    prob = np.ones(n, dtype=np.float64)
    for t, b in enumerate(branching, start=1):
        lo, hi = offsets[t], offsets[t + 1]
        ids = np.arange(lo, hi)
        parent[ids] = offsets[t - 1] + (ids - lo) // b
        stage[ids] = t
        raw = rng.uniform(size=hi - lo).reshape(-1, b)
        cond = raw / raw.sum(axis=1, keepdims=True)
        prob[ids] = prob[parent[ids]] * cond.ravel()
    quantizer = rng.uniform(value_range[0], value_range[1], size=(n, dim))
    return ScenarioTree(parent, stage, quantizer, prob)


def merge_prefixes(tree: ScenarioTree, tol=0.0) -> ScenarioTree:
    """Fold sibling subtrees whose node values coincide (within ``tol``).

    Walking from the root, children of one node whose quantizers agree are
    merged into a single node carrying the summed probability, and their
    child lists are concatenated and merged recursively.  Turns a fan of
    scenarios sharing prefixes into a proper tree; with ``tol`` 0 only exact
    duplicates merge.
    """
    parent_out, stage_out, quant_out, prob_out = [], [], [], []

    def add_node(par, t, q, p):
        parent_out.append(par)
        stage_out.append(t)
        quant_out.append(q)
        prob_out.append(p)
        return len(parent_out) - 1

    def recurse(group, new_parent, t):
        # group: original node ids merged into new_parent; merge their children.
        kids = np.concatenate([tree.children(g) for g in group]) if group else []
        remaining = list(kids)
        while remaining:
            head = remaining[0]
            same = [c for c in remaining
                    if np.all(np.abs(tree.quantizer[c] - tree.quantizer[head]) <= tol)]
            remaining = [c for c in remaining if c not in same]
            node = add_node(new_parent, t + 1, tree.quantizer[head].copy(),
                            float(np.sum(tree.prob[same])))
            recurse(same, node, t + 1)

    root = add_node(-1, 0, tree.quantizer[tree.root].copy(), float(tree.prob[tree.root]))
    recurse([tree.root], root, 0)
    return ScenarioTree(np.array(parent_out), np.array(stage_out),
                        np.array(quant_out), np.array(prob_out))
