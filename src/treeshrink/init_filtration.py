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

from .tree import ScenarioTree, check_count, fan_tree


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
        if not (np.all(self.prob >= 0) and abs(self.prob.sum() - 1.0) <= 1e-9):
            raise ValueError("prob: scenario probabilities must be finite and lie on the simplex")

    @property
    def S(self) -> int:
        return self.paths.shape[0]

    def flat(self) -> np.ndarray:
        """Scenarios as rows of length (T+1)*d."""
        return self.paths.reshape(self.S, -1)

    @classmethod
    def from_tree(cls, tree: ScenarioTree) -> "ScenarioMatrix":
        """Leaf-path view of any tree (paths and leaf probabilities)."""
        return cls(tree.path_values(), tree.prob[tree.leaves()])


# Doubles per temporary of the row-blocked pairwise distances and of the
# row blocks that forward selection reads.
_BLOCK_ENTRIES = 1 << 19


def _squared_distances(flat_paths) -> np.ndarray:
    """(S, S) squared Euclidean distances, in row blocks of bounded size.

    Only the blocks on or above the diagonal are computed, rows
    ``lo:lo+step`` against columns ``lo:``, in one scratch array squared in
    place; each is mirrored below the diagonal.  ``(a - b)**2`` and
    ``(b - a)**2`` are the same double and every entry is summed over the
    path coordinates in the same order, so the result is exactly symmetric
    and bitwise the one (S, S, d) broadcast, without that temporary.
    """
    s_count, width = flat_paths.shape
    out = np.empty((s_count, s_count))
    step = max(1, _BLOCK_ENTRIES // max(s_count * width, 1))
    scratch = np.empty((min(step, s_count), s_count, width))
    for lo in range(0, s_count, step):
        hi = min(lo + step, s_count)
        diff = np.subtract(flat_paths[lo:hi, None, :], flat_paths[None, lo:, :],
                           out=scratch[:hi - lo, :s_count - lo])
        np.sum(np.multiply(diff, diff, out=diff), axis=2, out=out[lo:hi, lo:])
        out[hi:, lo:hi] = out[lo:hi, hi:].T
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


# The running scores carry the rounding of every update before a pick, a few
# units in the last place of the largest first score each, and near k = S a
# true score of 0 can read as +-1e-18.  The tie window, _TIE_RTOL of the
# lowest running score plus _TIE_ATOL of the largest first score, stays
# wider than that drift for thousands of picks.
_TIE_RTOL = 1e-9
_TIE_ATOL = 1e-12


def ffs_init(scenarios: ScenarioMatrix, k: int, order=2) -> ScenarioTree:
    """Greedy forward scenario selection with probability redistribution.

    Repeatedly adds the scenario whose inclusion minimizes the transport cost
    of the not-selected mass, sum over j of p_j times the cost to its nearest
    selected scenario, with cost = path distance to the power ``order``.
    After k picks, every unselected scenario's probability moves to its
    nearest selected one, and the selected paths form the returned fan tree.
    Ties break toward the lowest scenario index.

    Candidate u's score is ``sum_j p_j min(best_j, cost[u, j])`` over the
    not-selected j, with ``best`` the cost to the nearest selected scenario
    (a candidate's own term is zero).  The scores are kept as running sums,
    ``cost @ p`` at the start, as in the fast forward selection of Heitsch
    and Roemisch (2003).  A pick u* changes only the capped costs of the
    columns j whose ``best_j`` it lowers, and removes u*'s own weight;
    ``cost`` is symmetric, so the change to every score is a product of
    those columns' contiguous rows, read in blocks of at most
    ``_BLOCK_ENTRIES`` entries.  The running sums drift by rounding, so the
    few candidates within the tie window of the lowest are scored again,
    each as one sum over the not-selected scenarios in index order.
    Duplicated scenarios then score exactly equal, and the lowest index
    among the equal best wins.
    """
    if not 1 <= k <= scenarios.S:
        raise ValueError("need 1 <= k <= number of scenarios")
    cost = _squared_distances(scenarios.flat())
    if order != 2:
        np.power(np.sqrt(cost, out=cost), order, out=cost)
    w = scenarios.prob

    best_dist = np.full(scenarios.S, np.inf)
    remaining = np.ones(scenarios.S, dtype=bool)
    scores = cost @ w
    atol = _TIE_ATOL * scores.max()
    rows = max(1, _BLOCK_ENTRIES // scenarios.S)
    capped, change = np.empty((2, min(rows, scenarios.S), scenarios.S))
    for _ in range(k):
        low = scores.min()
        near = np.flatnonzero(scores <= low + _TIE_RTOL * abs(low) + atol)
        u_star = int(near[0])
        if near.size > 1:
            exact = [np.sum((w * np.minimum(best_dist, cost[u]))[remaining]) for u in near]
            u_star = int(near[int(np.argmin(exact))])
        remaining[u_star] = False
        scores -= w[u_star] * np.minimum(best_dist[u_star], cost[u_star])
        new_best = np.minimum(best_dist, cost[u_star])
        lowered = np.flatnonzero((new_best < best_dist) & remaining & (w > 0.0))
        for lo in range(0, lowered.size, rows):
            j = lowered[lo:lo + rows]
            # mode="clip" lets take write into its output unbuffered; j is in range.
            block = np.take(cost, j, axis=0, out=capped[:j.size], mode="clip")
            delta = np.minimum(block, new_best[j, None], out=change[:j.size])
            delta -= np.minimum(block, best_dist[j, None], out=block)
            scores += w[j] @ delta
        best_dist = new_best
        scores[u_star] = np.inf

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
    branching = list(branching)
    if not branching:
        raise ValueError("branching must list at least one stage")
    for t, b in enumerate(branching):
        check_count(f"branching[{t}]", b)
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
