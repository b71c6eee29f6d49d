"""Builders, references and hypothesis strategies of solver problems and
trees, shared by the tests."""

import numpy as np
from hypothesis import strategies as st
from scipy import sparse

from treeshrink.ot_core import BarycenterBatch, transport_lp
from treeshrink.tree import ScenarioTree


class BarycenterProblem(BarycenterBatch):
    """One fixed-support barycenter problem, given measure by measure.

    A batch of one: ``q`` lists each measure's marginal (length S^m), ``D``
    each measure's (R, S^m) cost matrix with the weight applied, ``alpha``
    the raw weights.  Costs of the wrong shape are rejected here, naming the
    first such measure; :meth:`validate` checks the rest.
    """

    def __init__(self, q, D, alpha):
        q = [np.asarray(qm, dtype=np.float64) for qm in q]
        D = [np.asarray(dm, dtype=np.float64) for dm in D]
        alpha = np.asarray(alpha, dtype=np.float64)
        if not (len(D) == len(q) == alpha.shape[0]) or not q:
            raise ValueError("q, D and alpha must list the same nonzero number of measures")
        sizes = [qm.shape[0] for qm in q]
        r = D[0].shape[0]
        for m, (dm, s) in enumerate(zip(D, sizes)):
            if dm.shape != (r, s):
                raise ValueError(f"measure {m}: cost shape {dm.shape} != ({r}, {s})")
        super().__init__(np.concatenate(q), np.concatenate(D, axis=1), alpha,
                         np.concatenate(([0], np.cumsum(sizes))), np.array([0, len(q)]))

    def split(self, values) -> list:
        """Per-measure blocks of an array laid out like ``mass`` (last axis)."""
        return np.split(values, self.atom_ptr[1:-1], axis=-1)

    @property
    def q(self) -> list:
        return self.split(self.mass)

    @property
    def D(self) -> list:
        return self.split(self.cost)


def lone_transport(q, q_other, D):
    """One transport problem by :func:`transport_lp`: ``(cost, (r, s) plan)``."""
    D = np.asarray(D, dtype=np.float64)
    values, x = transport_lp(q, [0, len(q)], q_other, [0, len(q_other)], D.ravel())
    return float(values[0]), x.reshape(D.shape)


def block_matrix(blocks, values):
    """Reference: the sparse (blocks x stage-(t+1) nodes) matrix of a
    :class:`~treeshrink.tree.StageBlocks` with ``values`` (one per entry, in
    stage-(t+1) order) at (k, child of k)."""
    size = blocks.ptr[-1]
    return sparse.csr_matrix((values, np.arange(size), blocks.ptr),
                             shape=(blocks.ptr.shape[0] - 1, size))


def relabel(tree, perm):
    """The same tree with node i renamed perm[i]."""
    n = tree.n_nodes
    parent = np.full(n, -1)
    nonroot = tree.parent >= 0
    parent[perm[nonroot]] = perm[tree.parent[nonroot]]
    quantizer, prob = np.empty_like(tree.quantizer), np.empty_like(tree.prob)
    quantizer[perm], prob[perm] = tree.quantizer, tree.prob
    return ScenarioTree(parent, quantizer, prob)


def stage_position(tree):
    """Position of every node in its stage's node order."""
    pos = np.empty(tree.n_nodes, dtype=int)
    for t in range(tree.T + 1):
        pos[tree.stage_nodes(t)] = np.arange(tree.stage_nodes(t).shape[0])
    return pos


def weights(draw, n):
    """A probability vector of length n from small integer weights, zeros included."""
    w = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
    if w.sum() == 0:
        w[draw(st.integers(0, n - 1))] = 1.0
    return w / w.sum()


costs = st.one_of(st.integers(0, 8).map(lambda v: v / 4.0),
                  st.floats(0.0, 10.0, allow_subnormal=False))


@st.composite
def barycenter_problems(draw, r, max_measures=3, max_atoms=4):
    """One problem on r support points: 1-max_measures measures of
    1-max_atoms atoms, zero-mass atoms and zero weights included."""
    m_count = draw(st.integers(1, max_measures))
    q = [weights(draw, draw(st.integers(1, max_atoms))) for _ in range(m_count)]
    alpha = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                   min_size=m_count, max_size=m_count)))
    if not alpha.any():
        alpha[0] = 1.0
    D = [a * np.array(draw(st.lists(costs, min_size=r * qm.shape[0],
                                    max_size=r * qm.shape[0]))).reshape(r, -1)
         for a, qm in zip(alpha, q)]
    return BarycenterProblem(q=q, D=D, alpha=alpha)


@st.composite
def problem_lists(draw, r_values=(2, 3, 4)):
    """1-5 problems on one support size, ragged in measures and atoms."""
    r = draw(st.sampled_from(r_values))
    return draw(st.lists(barycenter_problems(r, max_measures=4, max_atoms=5),
                         min_size=1, max_size=5))


def stack(problems):
    """The batch of the given one-problem batches, in order."""
    sizes = np.concatenate([np.diff(p.atom_ptr) for p in problems])
    counts = [p.M for p in problems]
    return BarycenterBatch(np.concatenate([p.mass for p in problems]),
                           np.concatenate([p.cost for p in problems], axis=1),
                           np.concatenate([p.alpha for p in problems]),
                           np.concatenate(([0], np.cumsum(sizes))),
                           np.concatenate(([0], np.cumsum(counts))))


@st.composite
def ragged_trees(draw, big_t, dim, children=(1, 3)):
    """Valid trees with ``children`` (least, most) children per node and some
    zero-mass subtrees."""
    parent, prob = [-1], [1.0]
    frontier = [0]
    for _ in range(big_t):
        nxt = []
        for node in frontier:
            weights = np.array(draw(st.lists(st.integers(0, 3), min_size=children[0],
                                             max_size=children[1])), dtype=float)
            if weights.sum() == 0:
                weights[0] = 1.0
            for w in weights / weights.sum():
                parent.append(node)
                prob.append(prob[node] * w)
                nxt.append(len(parent) - 1)
        frontier = nxt
    values = draw(st.lists(st.integers(-20, 20), min_size=len(parent) * dim,
                           max_size=len(parent) * dim))
    quantizer = np.array(values, dtype=float).reshape(len(parent), dim) / 4
    return ScenarioTree(parent, quantizer, prob)
