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


# Doubles in the live temporaries of the row-blocked pairwise distances,
# and in each row block that forward selection reads.
_BLOCK_ENTRIES = 1 << 19

# The ufunc buffer, in elements, while the pairwise distances and the picks
# of forward selection run: numpy's smallest.  Over a 2-d block that is
# strided or broadcasts one operand, numpy (2.4) copies rows through a
# buffer that holds two rows or more, about 4 times slower than the loop
# along each row that it runs when the buffer is shorter.  Element-wise
# results do not depend on it.
_ROW_BUFFER = 16

# numpy's pairwise summation: a plain loop below _PW_UNROLL terms, eight
# running sums up to _PW_BLOCK terms, and a split in two above.
_PW_UNROLL = 8
_PW_BLOCK = 128


def _pairwise_split(n):
    """Length of the first part when numpy splits a sum of n terms."""
    half = n // 2
    return half - half % _PW_UNROLL


def _pairwise_buffers(n):
    """Scratch arrays, besides the output, that ``_pairwise_sum`` of n terms uses."""
    if n > _PW_BLOCK:
        return 1 + _pairwise_buffers(n - _pairwise_split(n))
    if n < _PW_UNROLL:
        return 1 if n > 1 else 0
    return _PW_UNROLL - 1 if n < 2 * _PW_UNROLL else _PW_UNROLL


def _pairwise_sum(term, lo, hi, out, scratch):
    """Sum terms ``lo:hi`` into ``out`` in the order of numpy's pairwise sum.

    ``term(i, buffer)`` writes term i into ``buffer``, an array shaped like
    ``out``; ``scratch`` holds ``_pairwise_buffers(hi - lo)`` such arrays.
    Every entry of ``out`` is then, bit for bit, what ``np.sum`` gives over
    a last axis holding the terms: below 8 terms a plain loop; up to 128,
    eight running sums over strides of 8 combined as
    ``((0+1)+(2+3))+((4+5)+(6+7))``, then the rest one by one; above 128,
    the sum of the first ``n//2`` terms rounded down to a multiple of 8 plus
    the sum of the others.  (numpy also adds the sum to 0.0, so where every
    term is -0.0 it gives +0.0 and this -0.0.)  Whole arrays replace the
    many short sums along a last axis, and no array holds every term.
    """
    n = hi - lo
    if n > _PW_BLOCK:
        n2 = _pairwise_split(n)
        _pairwise_sum(term, lo, lo + n2, out, scratch)
        _pairwise_sum(term, lo + n2, hi, scratch[0], scratch[1:])
        out += scratch[0]
        return
    if n < _PW_UNROLL:
        if n == 0:
            out.fill(0.0)
            return
        term(lo, out)
        for i in range(lo + 1, hi):
            term(i, scratch[0])
            out += scratch[0]
        return
    acc = [out, *scratch[:_PW_UNROLL - 1]]
    for j, buffer in enumerate(acc):
        term(lo + j, buffer)
    tail = hi - n % _PW_UNROLL
    for i in range(lo + _PW_UNROLL, tail, _PW_UNROLL):
        for j, buffer in enumerate(acc):
            term(i + j, scratch[_PW_UNROLL - 1])
            buffer += scratch[_PW_UNROLL - 1]
    for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
        acc[a] += acc[b]
    for i in range(tail, hi):
        term(i, acc[1])
        out += acc[1]


def _squared_distances(flat_paths) -> np.ndarray:
    """(S, S) squared Euclidean distances, in row blocks of bounded size.

    Only the blocks on or above the diagonal are computed, rows
    ``lo:lo+step`` against columns ``lo:``; each is mirrored below the
    diagonal.  A block is summed one path coordinate at a time: the term of
    coordinate c is ``(x_c[lo:hi, None] - x_c[None, lo:])**2`` over the
    transposed paths, and ``_pairwise_sum`` adds the terms in numpy's
    order, with at most ``min(width, 9)`` of them (one more per split above
    128 coordinates) alive in ``_BLOCK_ENTRIES`` doubles.  ``(a - b)**2``
    and ``(b - a)**2`` are the same double, so the result is exactly
    symmetric and bitwise the ``np.sum`` over one (S, S, width) broadcast,
    without that temporary or numpy's short sums along its last axis.
    ``TestSquaredDistances`` pins the order against numpy's, so a numpy
    release that changes it fails there.
    """
    s_count, width = flat_paths.shape
    out = np.empty((s_count, s_count))
    coords = np.ascontiguousarray(flat_paths.T)
    buffers = _pairwise_buffers(width)
    step = max(1, _BLOCK_ENTRIES // (s_count * (1 + buffers)))
    scratch = np.empty((buffers, min(step, s_count) * s_count))

    def term(c, buffer):
        # Rows lo:hi against columns lo: of the block the loop below is at.
        np.subtract(coords[c, lo:hi, None], coords[c, None, lo:], out=buffer)
        np.square(buffer, out=buffer)

    with np.errstate():
        np.setbufsize(_ROW_BUFFER)
        for lo in range(0, s_count, step):
            hi = min(lo + step, s_count)
            shape = (hi - lo, s_count - lo)
            blocks = scratch[:, :shape[0] * shape[1]].reshape(buffers, *shape)
            _pairwise_sum(term, 0, width, out[lo:hi, lo:], blocks)
            out[hi:, lo:hi] = out[lo:hi, hi:].T
    return out


def kmeans_init(scenarios: ScenarioMatrix, k: int, seed=0, max_iter=300,
                tol=1e-6) -> ScenarioTree:
    """Probability-weighted Lloyd clustering of the flattened paths.

    Seeding follows the usual farthest-biased random rule (first center drawn
    by scenario probability, later ones by probability times squared distance
    to the closest chosen center); centroids are probability-weighted means;
    a cluster that empties is reseeded at the point farthest from its center.
    Lloyd steps repeat until one lowers the weighted inertia by at most
    ``tol`` times its new value (never on the first step), or ``max_iter``
    steps have run.  Returns the fan tree of the k centroid paths, each
    carrying its cluster's mass.  Deterministic for a fixed seed.
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

    # Squared distances to the centers, one coordinate at a time: bitwise
    # the sum over an (S, k, width) broadcast, without that temporary.
    coords = np.ascontiguousarray(x.T)

    def term(c, buffer):
        np.subtract(coords[c, :, None], centers[:, c], out=buffer)
        np.square(buffer, out=buffer)

    d2 = np.empty((scenarios.S, k))
    scratch = np.empty((_pairwise_buffers(x.shape[1]), scenarios.S, k))
    inertia = np.inf
    assign = None
    for _ in range(max_iter):
        _pairwise_sum(term, 0, x.shape[1], d2, scratch)
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
    and Roemisch (2003).  A pick u* removes its own weight and lowers
    ``best_j`` to ``nb_j`` for some columns j; with ``c = cost[u, j]``, each
    such column takes ``p_j clip(c - nb_j, 0, best_j - nb_j)`` off score u,
    bit for bit ``p_j (min(c, best_j) - min(c, nb_j))``, also at the first
    pick, where ``best_j`` is inf.  ``cost`` is symmetric, so the columns
    are contiguous rows, read in blocks of at most ``_BLOCK_ENTRIES``
    entries, clipped in place and weighted by one product per block.  The
    running sums drift by rounding, so the few candidates within the tie
    window of the lowest are scored again, each as one sum over the
    not-selected scenarios in index order.  Duplicated scenarios then score
    exactly equal, and the lowest index among the equal best wins.
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
    capped = np.empty((min(rows, scenarios.S), scenarios.S))
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
        gain = best_dist - new_best
        with np.errstate():
            np.setbufsize(_ROW_BUFFER)
            for lo in range(0, lowered.size, rows):
                j = lowered[lo:lo + rows]
                # mode="clip" lets take write into its output unbuffered; j is in range.
                block = np.take(cost, j, axis=0, out=capped[:j.size], mode="clip")
                block -= new_best[j, None]
                np.clip(block, 0.0, gain[j, None], out=block)
                scores -= w[j] @ block
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
    check_count("dim", dim)
    rng = np.random.default_rng(seed)
    counts = [1]
    for b in branching:
        counts.append(counts[-1] * b)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    n = int(offsets[-1])
    parent = np.full(n, -1, dtype=np.int64)
    prob = np.ones(n, dtype=np.float64)
    for t, b in enumerate(branching, start=1):
        lo, hi = offsets[t], offsets[t + 1]
        ids = np.arange(lo, hi)
        parent[ids] = offsets[t - 1] + (ids - lo) // b
        raw = rng.uniform(size=hi - lo).reshape(-1, b)
        cond = raw / raw.sum(axis=1, keepdims=True)
        prob[ids] = prob[parent[ids]] * cond.ravel()
    quantizer = rng.uniform(value_range[0], value_range[1], size=(n, dim))
    return ScenarioTree(parent, quantizer, prob)


def merge_prefixes(tree: ScenarioTree, tol=0.0) -> ScenarioTree:
    """Fold sibling subtrees whose node values coincide (within ``tol``).

    Walking from the root, children of one node whose quantizers agree are
    merged into a single node carrying the summed probability, and their
    child lists are concatenated and merged recursively.  Turns a fan of
    scenarios sharing prefixes into a proper tree; with ``tol`` 0 only exact
    duplicates merge.
    """
    parent_out, quant_out, prob_out = [], [], []

    def add_node(par, q, p):
        parent_out.append(par)
        quant_out.append(q)
        prob_out.append(p)
        return len(parent_out) - 1

    def recurse(group, new_parent):
        # group: original node ids merged into new_parent; merge their children.
        kids = np.concatenate([tree.children(g) for g in group]) if group else []
        remaining = list(kids)
        while remaining:
            head = remaining[0]
            same = [c for c in remaining
                    if np.all(np.abs(tree.quantizer[c] - tree.quantizer[head]) <= tol)]
            remaining = [c for c in remaining if c not in same]
            node = add_node(new_parent, tree.quantizer[head].copy(),
                            float(np.sum(tree.prob[same])))
            recurse(same, node)

    root = add_node(-1, tree.quantizer[tree.root].copy(), float(tree.prob[tree.root]))
    recurse([tree.root], root)
    return ScenarioTree(np.array(parent_out), np.array(quant_out), np.array(prob_out))
