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
value from one product ``Q_a @ table @ Q_b.T`` of the sparse conditional
matrices.  The pairs where both sides branch then get their exact values
from the batched transport solver: a pair where one node has two children
is a fractional knapsack, solved by one sort, and the rest are packed into
HiGHS solves of at most a few hundred constraints.  The pairs are built in
chunks of rows of at most ``_PAIR_MAX_ENTRIES`` plan entries, so memory
stays bounded on large trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ot_core import block_entries, transport_lp
# No longer called here; perfbench/spans.py still wraps the per-pair
# transport layer under this module's name, where it now counts zero calls.
from .ot_core import wasserstein_lp  # noqa: F401
from .tree import ScenarioTree, path_cost_table

# Plan entries per chunk of branching pairs.  An entry takes about 110 bytes
# of index, cost and plan arrays while its chunk is scored: against a binary
# tree, generate_random(6, 5) (10^6 entries at the last stage) peaked at
# 125 MB traced in one chunk per stage and at 34 MB in chunks of 2^18.  At
# generate_random(7, 5) (10^7 entries) chunks of 2^18 add nothing to the
# 120 MB the stage tables take, and run as fast as chunks of 2^16 or 2^20.
_PAIR_MAX_ENTRIES = 1 << 18


@dataclass
class CostTable:
    """Stage-indexed dense tables of node-pair costs delta(m, n).

    ``tables[t]`` has one row per stage-t node of the first tree and one
    column per stage-t node of the second; the leaf-stage table equals the
    path-cost table and ``tables[0][0, 0]`` is the order-th power of the
    process distance.
    """

    order: float
    tables: list

    @property
    def root_value(self) -> float:
        return float(self.tables[0][0, 0])


def _branching_pairs(blocks_a, blocks_b, next_table):
    """Exact transport values of all pairs whose nodes both have >= 2 children.

    Returns ``(rows, cols, values)``: the pairs are ``rows x cols`` and
    ``values`` has shape (len(rows), len(cols)).  The pairs of consecutive
    rows are solved together, in chunks of at most ``_PAIR_MAX_ENTRIES``
    plan entries (at least one row).
    """
    rows = np.flatnonzero(blocks_a.sizes > 1)
    cols = np.flatnonzero(blocks_b.sizes > 1)
    values = np.empty((rows.shape[0], cols.shape[0]))
    if values.size == 0:
        return rows, cols, values
    ends = np.cumsum(blocks_a.sizes[rows]) * blocks_b.sizes[cols].sum()
    lo = 0
    while lo < rows.shape[0]:
        start = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + _PAIR_MAX_ENTRIES, side="right")))
        row_ptr, row_pos = blocks_a.select(np.repeat(rows[lo:hi], cols.shape[0]))
        col_ptr, col_pos = blocks_b.select(np.tile(cols, hi - lo))
        _, i, j = block_entries(row_ptr, col_ptr)
        cost = next_table[blocks_a.local[row_pos[i]], blocks_b.local[col_pos[j]]]
        flat, _ = transport_lp(blocks_a.cond[row_pos], row_ptr,
                               blocks_b.cond[col_pos], col_ptr, cost)
        values[lo:hi] = flat.reshape(hi - lo, cols.shape[0])
        lo = hi
    return rows, cols, values


def nested_distance(tree_a: ScenarioTree, tree_b: ScenarioTree, order=2):
    """Exact process distance of the given order between two trees.

    Returns ``(nd, CostTable)`` where ``nd = tables[0][0, 0] ** (1/order)``.
    Each stage t fills its table in two steps.  First the product plan
    values ``Q_a @ tables[t+1] @ Q_b.T``, where ``Q`` is a tree's sparse
    stage-t to stage-(t+1) conditional matrix; they are exact for every pair
    in which one node has a single child.  Then the pairs where both nodes
    branch are overwritten by their optimal transport values, from
    :func:`~treeshrink.ot_core.transport_lp` (one call per chunk of pairs).
    """
    if tree_a.T != tree_b.T or tree_a.d != tree_b.d:
        raise ValueError("trees must share stage count and quantizer dimension")
    big_t = tree_a.T
    tables = [None] * (big_t + 1)
    tables[big_t] = path_cost_table(tree_a, tree_b, order=order)

    for t in range(big_t - 1, -1, -1):
        blocks_a = tree_a.stage_blocks(t)
        blocks_b = tree_b.stage_blocks(t)
        if not (blocks_a.sizes.all() and blocks_b.sizes.all()):
            raise ValueError(f"a stage-{t} node has no children, but leaves must "
                             f"sit at stage {big_t}")
        table = blocks_a.matrix() @ (blocks_b.matrix() @ tables[t + 1].T).T
        rows, cols, values = _branching_pairs(blocks_a, blocks_b, tables[t + 1])
        table[np.ix_(rows, cols)] = values
        tables[t] = table

    table = CostTable(order, tables)
    return table.root_value ** (1.0 / order), table
