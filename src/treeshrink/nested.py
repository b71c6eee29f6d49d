"""Exact process distance between two scenario trees.

The distance is evaluated by the standard backward recursion (Pflug &
Pichler 2012): the leaf-stage table holds plain path costs, and each earlier
stage needs, for every node pair (m, n), the optimal transport cost between
the two conditional child distributions with the next stage's table as
costs.  The root entry of the stage-0 table is the distance raised to
``order``.

A stage's pair problems are independent, so each stage is scored in two
array passes over the trees' stage-block indices.  When m or n has a single
child, the product plan is the only feasible coupling; all pairs take its
value from the next table's blockwise sums, weighted by the conditional
probabilities on both sides.  The pairs where both sides branch then get
their exact values from the batched transport solver: a pair where one node
has two children is a fractional knapsack, solved by one sort, and the rest
are packed into HiGHS dual-simplex solves of at most a few hundred
constraints, run without presolve and with Devex pricing, each from the
dual-feasible basis of every row's cheapest plan entry.  The pairs are
built in chunks of at most ``_PAIR_MAX_ENTRIES`` plan entries, so memory
stays bounded on large trees: the runs of pairs between the cuts that split
no HiGHS solve are packed greedily into chunks by
:func:`~treeshrink.ot_core.packs`, so the chunks change no value.
:func:`transport_lp` is the one transport solver; :func:`nested_distance`
calls it once per chunk.
"""

from __future__ import annotations

import numpy as np

from .ot_core import block_entries, packs, transport_lp, transport_splits
from .tree import ScenarioTree, path_cost_table

# Not called under this name: perfbench/spans.py still resolves its
# per-pair transport layer here, and the layer counts zero calls.
wasserstein_lp = transport_lp

# Plan entries per chunk of branching pairs.  An entry takes about 110 bytes
# of index, cost and plan arrays while its chunk is scored: against a binary
# tree, generate_random(6, 5) (10^6 entries at the last stage) peaked at
# 125 MB traced in one chunk per stage and at 34 MB in chunks of 2^18.  At
# generate_random(7, 5) (10^7 entries) chunks of 2^18 add nothing to the
# 120 MB the stage tables take, and run as fast as chunks of 2^16 or 2^20.
_PAIR_MAX_ENTRIES = 1 << 18


def _branching_pairs(blocks_a, blocks_b, next_table):
    """Exact transport values of all pairs whose nodes both have >= 2 children.

    Returns ``(rows, cols, values)``: the pairs are ``rows x cols`` and
    ``values`` has shape (len(rows), len(cols)).  The pairs are solved in
    row-major order, in chunks of at most ``_PAIR_MAX_ENTRIES`` plan entries
    (at least one HiGHS LP).  A stage that fits in one chunk is one call;
    otherwise the stage is cut only where one call on the whole stage would
    start a new HiGHS LP (:func:`transport_splits`), and :func:`packs` packs
    the runs between those cuts into chunks, so the chunks change no LP and
    no value.
    """
    rows = np.flatnonzero(blocks_a.sizes > 1)
    cols = np.flatnonzero(blocks_b.sizes > 1)
    values = np.empty(rows.shape[0] * cols.shape[0])
    if values.size:
        row_of = np.repeat(rows, cols.shape[0])
        col_of = np.tile(cols, rows.shape[0])
        r, s = blocks_a.sizes[row_of], blocks_b.sizes[col_of]
        ends = np.concatenate(([0], np.cumsum(r * s)))
        cuts = np.array([0, values.size])
        if ends[-1] > _PAIR_MAX_ENTRIES:
            cuts = np.flatnonzero(transport_splits(r, s))
            cuts = cuts[packs(np.diff(ends[cuts]), _PAIR_MAX_ENTRIES)]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            row_ptr, row_pos = blocks_a.select(row_of[lo:hi])
            col_ptr, col_pos = blocks_b.select(col_of[lo:hi])
            _, i, j = block_entries(row_ptr, col_ptr)
            cost = next_table[row_pos[i], col_pos[j]]
            values[lo:hi], _ = transport_lp(blocks_a.cond[row_pos], row_ptr,
                                            blocks_b.cond[col_pos], col_ptr, cost)
    return rows, cols, values.reshape(rows.shape[0], cols.shape[0])


def nested_distance(tree_a: ScenarioTree, tree_b: ScenarioTree, order=2):
    """Exact process distance of the given order between two trees.

    Returns ``(nd, tables)``.  ``tables[t]`` is the dense stage-t table of
    node-pair costs, one row per stage-t node of ``tree_a`` and one column
    per stage-t node of ``tree_b``, both in ``stage_nodes(t)`` order; the
    leaf-stage table is the path-cost table (leaves in ``leaves()``
    order), and ``nd = tables[0][0, 0] ** (1/order)``.  ``order`` must be
    finite and at least 1.  Path costs that overflow at that order, and
    trees that differ in stage count or dimension, raise ``ValueError``; a
    tree with no root raises
    :class:`~treeshrink.tree.TreeValidationError` (:func:`path_cost_table`).
    Each stage t fills its table in two steps.  First the product plan
    values: the sums of ``tables[t+1]`` over each pair's children blocks,
    weighted by both sides' conditional probabilities, rows first
    (:meth:`~treeshrink.tree.StageBlocks.sums`); they are exact for every
    pair in which one node has a single child.  Then the pairs where both
    nodes branch are overwritten by their optimal transport values, from
    :func:`~treeshrink.ot_core.transport_lp` (one call per chunk of pairs).
    """
    leaf_table = path_cost_table(tree_a, tree_b, order=order)
    big_t = tree_a.T
    tables = [None] * big_t + [leaf_table]

    for t in range(big_t - 1, -1, -1):
        blocks_a = tree_a.stage_blocks(t)
        blocks_b = tree_b.stage_blocks(t)
        if not (blocks_a.sizes.all() and blocks_b.sizes.all()):
            raise ValueError(f"a stage-{t} node has no children, but leaves must "
                             f"sit at stage {big_t}")
        table = blocks_b.sums(blocks_a.sums(tables[t + 1] * blocks_a.cond[:, None])
                              * blocks_b.cond, axis=1)
        rows, cols, values = _branching_pairs(blocks_a, blocks_b, tables[t + 1])
        table[np.ix_(rows, cols)] = values
        tables[t] = table

    return float(tables[0][0, 0]) ** (1.0 / order), tables
