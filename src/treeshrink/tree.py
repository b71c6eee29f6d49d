"""Scenario-tree data model: storage, validation, path algebra, generation, I/O.

A tree is stored as flat per-node arrays (parent index, quantizer vector,
unconditional probability) plus what construction derives from the parent
links: a CSR children index and each node's stage, its depth below the
root, found in one breadth-first walk.  Per stage,
:meth:`ScenarioTree.stage_blocks` gives the same children as contiguous
blocks of the next stage's node order, with their conditional
probabilities; the stagewise recursions of the nested distance
and of the reduction read it.  Instances are frozen after construction: the
arrays are marked read-only and any change goes through whole-tree
replacement (``with_quantizer`` / ``with_prob``), so cached per-stage
indices never go stale.

On disk a tree is one JSON object (:meth:`ScenarioTree.save`,
:meth:`ScenarioTree.load`)::

    {"T": last stage, "d": quantizer dimension,
     "nodes": [{"id": int, "parent": int or null, "quantizer": [d floats],
                "prob": float}, ...]}

Ids are dense, 0..n-1, but may appear in any order; the root's parent is
``null`` and a node's stage is its depth below the root, so ``T`` must
equal the depth of the deepest leaf.  Non-finite quantizers or
probabilities are refused at load.  ``save`` writes the nodes in id
order, laid out as ``json`` writes with ``indent=1``.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Mass-balance tolerances used by validate().
PARENT_SUM_TOL = 1e-9
LEAF_SUM_TOL = 1e-12


class TreeFormatError(ValueError):
    """Raised when a tree file does not conform to the on-disk schema."""


class TreeValidationError(ValueError):
    """Raised when a structurally parsed tree violates tree invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid scenario tree:\n" + "\n".join(self.violations))


def _integer(value, what) -> int:
    """``value`` as an int; a float or a bool (even 1.0 or True) is refused."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise TreeFormatError(f"{what} must be an integer, got {value!r}")


def check_count(name, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer >= 1 (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def check_positive(name, value) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _read_only(arr):
    """``arr``, marked read-only."""
    arr.flags.writeable = False
    return arr


def _concat_ranges(starts, lengths):
    """Concatenation of ``arange(s, s + n)`` over the pairs of the two arrays."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(lengths.sum())


@dataclass(frozen=True)
class StageBlocks:
    """Stage-t nodes as CSR blocks over the stage-(t+1) node order.

    Block k belongs to the k-th node of ``stage_nodes(t)``.  Stage t+1 lists
    the children of stage t's nodes node by node, so block k's children are
    the contiguous positions ``ptr[k]:ptr[k+1]`` of ``stage_nodes(t+1)``, in
    ascending-id order, with conditional probabilities
    ``cond[ptr[k]:ptr[k+1]]``.  A node without mass gets uniform
    conditionals, so the transport and barycenter problems of its pairs stay
    well posed; their values never matter, since that same zero mass weighs
    them.  ``sizes`` and ``parents`` are computed on first use and kept,
    read-only, with the block index.
    """

    ptr: np.ndarray
    cond: np.ndarray

    @cached_property
    def sizes(self) -> np.ndarray:
        """Children per block: ``np.diff(ptr)``."""
        return _read_only(np.diff(self.ptr))

    @cached_property
    def parents(self) -> np.ndarray:
        """Block of every stage-(t+1) node, in stage-(t+1) node order."""
        return _read_only(np.repeat(np.arange(self.sizes.shape[0]), self.sizes))

    def select(self, blocks):
        """CSR pointer and entry positions of the given blocks, in that order."""
        sizes = self.sizes[blocks]
        return np.concatenate(([0], np.cumsum(sizes))), _concat_ranges(self.ptr[blocks], sizes)

    def sums(self, values, axis=0) -> np.ndarray:
        """Sum of stage-(t+1) ``values`` over each block, along ``axis``.

        ``values`` runs over the stage-(t+1) nodes along ``axis``; the result
        runs over the blocks there instead.  A childless block raises
        ``ValueError``, since ``np.add.reduceat`` has no empty sum.
        """
        if not self.sizes.all():
            raise ValueError("a block has no children")
        return np.add.reduceat(values, self.ptr[:-1], axis=axis)


class ScenarioTree:
    """Rooted multistage tree with vector-valued nodes and node probabilities.

    Parameters
    ----------
    parent : array of int, shape (N,)
        Direct predecessor of each node, -1 for the root.
    quantizer : array of float, shape (N, d) or (N,)
        Outcome value attached to each node.
    prob : array of float, shape (N,)
        Unconditional probability of each node.

    A node's stage is its depth below the root.  Stages are found by one
    breadth-first walk: stage t+1 lists the children of stage t's nodes,
    node by node, each node's children in ascending-id order.  A node whose
    parent links never reach a root (it sits on or below a cycle) gets
    stage -1 and belongs to no stage.
    """

    def __init__(self, parent, quantizer, prob):
        parent = np.asarray(parent, dtype=np.int64).copy()
        quantizer = np.asarray(quantizer, dtype=np.float64).copy()
        prob = np.asarray(prob, dtype=np.float64).copy()
        if quantizer.ndim == 1:
            quantizer = quantizer[:, None]
        n = parent.shape[0]
        if not (prob.shape == (n,) and quantizer.shape[0] == n):
            raise ValueError("parent, quantizer and prob must agree on node count")
        if n == 0:
            raise ValueError("a scenario tree needs at least one node")
        if np.any((parent >= n) | (parent < -1)):
            raise ValueError("parent indices out of range")

        self.parent = parent
        self.quantizer = quantizer
        self.prob = prob

        roots = np.flatnonzero(parent < 0)
        self.root = int(roots[0]) if roots.size else -1

        # CSR children index; children of one node keep ascending-id order.
        nonroot = np.flatnonzero(parent >= 0)
        counts = np.bincount(parent[nonroot], minlength=n)
        self._child_ptr = np.concatenate(([0], np.cumsum(counts)))
        order = nonroot[np.argsort(parent[nonroot], kind="stable")]
        self._child_idx = order

        self.stage = np.full(n, -1, dtype=np.int64)
        self._stage_nodes = []
        frontier = roots
        while frontier.size:
            self.stage[frontier] = len(self._stage_nodes)
            self._stage_nodes.append(frontier)
            frontier = order[_concat_ranges(self._child_ptr[frontier], counts[frontier])]
        self._stage_blocks = [None] * self.T

        for arr in (self.parent, self.stage, self.quantizer, self.prob,
                    self._child_ptr, self._child_idx, *self._stage_nodes):
            arr.flags.writeable = False

    # -- basic accessors ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.parent.shape[0]

    @property
    def T(self) -> int:
        """Index of the last stage (root is stage 0)."""
        return len(self._stage_nodes) - 1

    @property
    def d(self) -> int:
        return self.quantizer.shape[1]

    def children(self, node: int) -> np.ndarray:
        return self._child_idx[self._child_ptr[node]:self._child_ptr[node + 1]]

    def stage_nodes(self, t: int) -> np.ndarray:
        """Stage-t nodes in breadth-first order (see the class docstring)."""
        return self._stage_nodes[t]

    def stage_blocks(self, t: int) -> StageBlocks:
        """Children of the stage-t nodes as one CSR block index (built once)."""
        if self._stage_blocks[t] is None:
            nodes = self._stage_nodes[t]
            sizes = self._child_ptr[nodes + 1] - self._child_ptr[nodes]
            ch = self._stage_nodes[t + 1]
            mass = np.repeat(self.prob[nodes], sizes)
            with np.errstate(divide="ignore", invalid="ignore"):
                cond = np.where(mass > 0.0, self.prob[ch] / mass,
                                1.0 / np.repeat(sizes, sizes))
            self._stage_blocks[t] = StageBlocks(
                _read_only(np.concatenate(([0], np.cumsum(sizes)))), _read_only(cond))
        return self._stage_blocks[t]

    def leaves(self) -> np.ndarray:
        return self._stage_nodes[self.T]

    # -- path algebra --------------------------------------------------------

    def path_values(self) -> np.ndarray:
        """(n_leaves, T+1, d) quantizers along every root-to-leaf path."""
        nodes = self.leaves()
        out = np.empty((nodes.shape[0], self.T + 1, self.d))
        for t in range(self.T, -1, -1):
            out[:, t] = self.quantizer[nodes]
            nodes = self.parent[nodes]
        return out

    # -- validation ----------------------------------------------------------

    def validate(self) -> list:
        """Check all tree invariants; return a list of violation messages.

        An empty list means the tree is valid.  Each message names the node
        and the violated rule, so the result doubles as a diagnostic report.
        """
        v = []
        if self.d < 1:
            v.append(f"tree: quantizer dimension {self.d}, expected at least 1")
        roots = np.flatnonzero(self.parent < 0)
        if roots.size != 1:
            v.append(f"tree: expected exactly one root, found {roots.size}")
        for nd in np.flatnonzero(self.stage < 0):
            v.append(f"node {nd}: not below the root (its parent links form a cycle)")
        for nd in np.flatnonzero(~np.isfinite(self.prob)):
            v.append(f"node {nd}: probability {self.prob[nd]} is not finite")
        for nd in np.flatnonzero(~np.isfinite(self.quantizer).all(axis=1)):
            v.append(f"node {nd}: quantizer {self.quantizer[nd].tolist()} is not finite")
        neg = np.flatnonzero(self.prob < 0.0)
        for nd in neg:
            v.append(f"node {nd}: negative probability {self.prob[nd]}")
        counts = np.diff(self._child_ptr)
        leaf = counts == 0
        # Each node's children summed in id order by one np.sum, as a row
        # of a (nodes, n) table per child count n: rounding and all.
        sums = np.zeros(self.n_nodes)
        for n in np.flatnonzero(np.bincount(counts[~leaf])):
            nodes = np.flatnonzero(counts == n)
            kids = self._child_idx[self._child_ptr[nodes, None] + np.arange(n)]
            sums[nodes] = self.prob[kids].sum(axis=1)
        off_sum = ~leaf & (np.abs(sums - self.prob) > PARENT_SUM_TOL)
        early = leaf & (self.stage >= 0) & (self.stage != self.T)
        for nd in np.flatnonzero(early | off_sum):
            if leaf[nd]:
                v.append(f"node {nd}: leaf at stage {self.stage[nd]}, "
                         f"expected all leaves at stage {self.T}")
            else:
                v.append(f"node {nd}: probability {self.prob[nd]} != children sum "
                         f"{float(sums[nd])}")
        total = float(np.sum(self.prob[leaf]))
        if abs(total - 1.0) > LEAF_SUM_TOL:
            v.append(f"tree: leaf probabilities sum to {total}, expected 1")
        return v

    # -- replacement constructors ---------------------------------------------

    def with_quantizer(self, quantizer) -> "ScenarioTree":
        return ScenarioTree(self.parent, quantizer, self.prob)

    def with_prob(self, prob) -> "ScenarioTree":
        return ScenarioTree(self.parent, self.quantizer, prob)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        nodes = []
        for i in range(self.n_nodes):
            nodes.append({
                "id": i,
                "parent": None if self.parent[i] < 0 else int(self.parent[i]),
                "quantizer": [float(x) for x in self.quantizer[i]],
                "prob": float(self.prob[i]),
            })
        return {"T": self.T, "d": self.d, "nodes": nodes}

    def to_json_text(self) -> str:
        """The tree file text: ``json.dumps(self.to_json_dict(), indent=1)``.

        Built from the arrays with one string template per node, byte for
        byte what the pure-Python encoder (the one ``indent`` selects) writes
        from :meth:`to_json_dict`, at a fraction of its time: floats in
        ``float.__repr__`` form, non-finite ones as ``NaN``, ``Infinity``
        and ``-Infinity``.
        """
        n, d = self.n_nodes, self.d
        parents = list(map(int.__repr__, self.parent.tolist()))
        for k in np.flatnonzero(self.parent < 0).tolist():
            parents[k] = "null"
        values = _float_texts(self.quantizer.ravel())
        quantizer = ",\n    ".join(["%s"] * d).join(["[\n    ", "\n   ]"]) if d else "[]"
        node = ('  {\n   "id": %d,\n   "parent": %s,\n   "quantizer": ' + quantizer
                + ',\n   "prob": %s\n  }')
        rows = zip(range(n), parents, *[values[k::d] for k in range(d)],
                   _float_texts(self.prob))
        body = ",\n".join([node % row for row in rows])
        return '{\n "T": %d,\n "d": %d,\n "nodes": [\n%s\n ]\n}' % (self.T, d, body)

    def save(self, path) -> None:
        """Write the tree as a JSON file (:meth:`to_json_text` and a newline).

        The schema is the module docstring's: ``T``, ``d`` and one
        ``nodes`` record per node, in id order, laid out as ``json`` writes
        it with ``indent=1``.
        """
        with open(path, "w") as fh:
            fh.write(self.to_json_text())
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, doc) -> "ScenarioTree":
        """Parse and validate a tree document (the :meth:`to_json_dict` schema).

        Any document either gives a valid tree or raises
        :class:`TreeFormatError` (the document does not fit the schema) or
        :class:`TreeValidationError` (it describes no valid tree).  ``T``,
        ids, parents and ``d`` must be integers; ids must be dense but may
        come in any order, and ``T`` must be the last stage of the valid
        tree the parent links give.  The fields are checked as whole
        arrays, and a check that fails names the first node in document
        order that breaks it: its id, parent or quantizer length.  Every
        quantizer's length is checked against ``d`` before an (n, d) array
        is trusted.
        """
        try:
            nodes = doc["nodes"]
            last = _integer(doc["T"], "T")
            d = _integer(doc["d"], "d")
            n = len(nodes)
            if n == 0:
                raise TreeFormatError("a tree document needs at least one node")
            ids = [rec["id"] for rec in nodes]
            parents = [rec["parent"] for rec in nodes]
            quantizers = [rec["quantizer"] for rec in nodes]
            probs = [rec["prob"] for rec in nodes]

            if set(map(type, ids)) != {int}:
                ids = [_integer(i, "node id") for i in ids]
            order = _dense_order(ids, n)
            if not set(map(type, parents)) <= {int, type(None)}:
                parents = [p if p is None else _integer(p, f"node {i}: parent")
                           for i, p in zip(ids, parents)]
            parent = _parent_array(ids, [-1 if p is None else p for p in parents], n)
            quantizer = _quantizer_array(ids, quantizers, d)
            prob = np.fromiter(map(float, probs), dtype=np.float64, count=n)
        except TreeFormatError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise TreeFormatError(f"malformed tree document: {exc}") from exc
        tree = cls(parent[order], quantizer[order], prob[order])
        violations = tree.validate()
        if violations:
            raise TreeValidationError(violations)
        if last != tree.T:
            raise TreeFormatError(f"T is {last}, but the parent links end at stage {tree.T}")
        return tree

    @classmethod
    def load(cls, path) -> "ScenarioTree":
        """Read and validate a tree file written by :meth:`save`.

        The file must hold the module docstring's schema; ids may come in
        any order, and non-finite values are refused with
        :class:`TreeValidationError` (see :meth:`from_json_dict`).
        """
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise TreeFormatError(f"not valid JSON: {exc}") from exc
        return cls.from_json_dict(doc)


_JSON_SPELLINGS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(values) -> list:
    """JSON texts of a 1-D float array's entries, as the ``json`` module writes them."""
    texts = list(map(float.__repr__, values.tolist()))
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[k] = _JSON_SPELLINGS[texts[k]]
    return texts


def _dense_order(ids, n):
    """Document position of every id 0..n-1.

    Raises :class:`TreeFormatError` naming the first id, in document order,
    that is out of range or repeated.
    """
    try:
        index = np.array(ids, dtype=np.int64)
    except OverflowError:  # an id past int64 is out of range
        index = None
    if index is None or not (((index >= 0) & (index < n)).all()
                             and np.bincount(index, minlength=n).all()):
        seen = set()
        for i in ids:
            if not 0 <= i < n or i in seen:
                raise TreeFormatError(f"node {i}: ids must be dense 0..{n - 1}")
            seen.add(i)
    order = np.empty(n, dtype=np.int64)
    order[index] = np.arange(n)
    return order


def _parent_array(ids, parents, n):
    """Parent indices (root -1) in document order; raises
    :class:`TreeFormatError` naming the first node whose parent is out of range.
    """
    try:
        parent = np.array(parents, dtype=np.int64)
    except OverflowError:  # a parent past int64 is out of range
        parent = None
    if parent is None or not ((parent >= -1) & (parent < n)).all():
        for i, par in zip(ids, parents):
            if not -1 <= par < n:
                raise TreeFormatError(f"node {i}: parent index {par} out of range")
    return parent


def _quantizer_array(ids, quantizers, d):
    """(n, d) quantizers in document order; raises :class:`TreeFormatError`
    naming the first node whose quantizer is not a length-``d`` vector.
    """
    try:
        quantizer = np.array(quantizers, dtype=np.float64)
        if quantizer.shape == (len(quantizers), d):
            return quantizer
    except ValueError:
        pass
    rows = []
    for i, values in zip(ids, quantizers):
        rows.append(np.asarray(values, dtype=np.float64))
        if rows[-1].shape != (d,):
            raise TreeFormatError(f"node {i}: quantizer length {rows[-1].shape} != d={d}")
    return np.array(rows)


def generate_random(T, branching, dim=1, value_range=(-10.0, 10.0), seed=0):
    """Full ``branching``-ary tree with T+1 levels and uniform conditionals.

    Quantizers are i.i.d. uniform over ``value_range`` in every dimension,
    including the root; conditional child probabilities are all
    ``1/branching``.  Bit-identical output for equal seeds.
    """
    check_count("T", T)
    check_count("branching", branching)
    check_count("dim", dim)
    rng = np.random.default_rng(seed)
    counts = [branching ** t for t in range(T + 1)]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    n = int(offsets[-1])
    parent = np.full(n, -1, dtype=np.int64)
    prob = np.empty(n, dtype=np.float64)
    prob[0] = 1.0
    for t in range(1, T + 1):
        lo, hi = offsets[t], offsets[t + 1]
        ids = np.arange(lo, hi)
        parent[ids] = offsets[t - 1] + (ids - lo) // branching
        prob[ids] = prob[parent[ids]] / branching
    lo, hi = value_range
    quantizer = rng.uniform(lo, hi, size=(n, dim))
    return ScenarioTree(parent, quantizer, prob)


def fan_tree(paths, prob):
    """Tree with one branch per scenario path.

    ``paths`` has shape (S, T+1, d); the root takes the probability-weighted
    mean of the stage-0 values (scenarios of one process normally share that
    value, in which case the mean is exact), and scenario s becomes the chain
    of stages 1..T carrying probability ``prob[s]``.
    """
    paths = np.asarray(paths, dtype=np.float64)
    prob = np.asarray(prob, dtype=np.float64)
    if paths.ndim == 2:
        paths = paths[:, :, None]
    s_count, t_levels, dim = paths.shape
    if t_levels < 2:
        raise ValueError("scenario paths need at least two stages")
    big_t = t_levels - 1
    n = 1 + s_count * big_t
    parent = np.empty(n, dtype=np.int64)
    quantizer = np.empty((n, dim), dtype=np.float64)
    p = np.empty(n, dtype=np.float64)
    parent[0] = -1
    total = float(prob.sum())
    quantizer[0] = (prob / total) @ paths[:, 0, :]
    p[0] = total
    for t in range(1, big_t + 1):
        ids = 1 + (t - 1) * s_count + np.arange(s_count)
        parent[ids] = 0 if t == 1 else ids - s_count
        quantizer[ids] = paths[:, t, :]
        p[ids] = prob
    return ScenarioTree(parent, quantizer, p)


def read_scenarios_csv(path, dim=1):
    """Parse the scenario CSV format into ``(paths, prob)`` arrays.

    One row per scenario: ``prob, x_{0,1..d}, ..., x_{T,1..d}``.  An optional
    non-numeric header row is skipped.  The stage count is inferred from the
    column count and ``dim``, which must be an integer >= 1.
    """
    check_count("dim", dim)
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.reader(fh):
            rec = [c.strip() for c in rec if c.strip() != ""]
            if not rec:
                continue
            try:
                rows.append([float(c) for c in rec])
            except ValueError:
                if rows:
                    raise TreeFormatError(f"non-numeric row in {path}: {rec}")
                continue  # header
    if not rows:
        raise TreeFormatError(f"no scenario rows in {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise TreeFormatError("scenario rows have inconsistent column counts")
    if (width - 1) % dim != 0 or width - 1 < 2 * dim:
        raise TreeFormatError(
            f"{width} columns cannot hold prob + (T+1) stages of dimension {dim}")
    data = np.asarray(rows, dtype=np.float64)
    prob = data[:, 0]
    paths = data[:, 1:].reshape(data.shape[0], (width - 1) // dim, dim)
    return paths, prob


def load_csv(path, dim=1):
    """Load a scenario CSV as a fan tree and validate it."""
    paths, prob = read_scenarios_csv(path, dim=dim)
    tree = fan_tree(paths, prob)
    violations = tree.validate()
    if violations:
        raise TreeValidationError(violations)
    return tree


def _stage_costs(xa, xb, order):
    """(len(xa), len(xb)) squared Euclidean distances of the rows of ``xa``
    and ``xb``, or for ``order`` other than 2 their square roots, built in
    place in one table (two for d > 1)."""
    sq = np.subtract.outer(xa[:, 0], xb[:, 0])
    np.multiply(sq, sq, out=sq)
    if xa.shape[1] > 1:
        diff = np.empty_like(sq)
        for k in range(1, xa.shape[1]):
            np.subtract.outer(xa[:, k], xb[:, k], out=diff)
            np.multiply(diff, diff, out=diff)
            sq += diff
    return sq if order == 2 else np.sqrt(sq, out=sq)


def path_cost_table(tree_a, tree_b, order=2):
    """Dense (leaves_a x leaves_b) table of path costs, leaves in ``leaves()`` order.

    For ``order`` 2 the cost of two root-to-leaf paths is the sum of their
    squared Euclidean stage distances (the squared norm of the concatenated
    path vectors), the form under which the mean update of the reduction
    loop is exactly optimal.  Other orders sum the per-stage Euclidean
    distances and raise the total to ``order``.  ``order`` must be finite
    and at least 1, and every cost finite: a table that overflows (a large
    ``order`` on paths of cost above 1) raises ``ValueError`` before any
    solver sees it.  A tree with no root raises
    :class:`TreeValidationError`.

    The table is built forward over the stages, one entry per node pair:
    ``table_0`` is the root pair's stage cost, and ``table_t`` is
    ``table_{t-1}`` spread to every child pair (a gather through both
    trees' :attr:`StageBlocks.parents`) plus the stage-t cost ``s_t`` of
    each pair, its squared distance for order 2 and the square root of it
    otherwise.  ``np.power`` is applied once, to the leaf table.  Every
    leaf pair's entry is thus ``(...(s_0 + s_1) + ...) + s_T`` over its
    path's pairs, the same additions in the same order as summing the
    stage tables of the leaf paths, so the table is that sum bit for bit;
    only stage T works at leaf size.  Each stage's squared distances are
    built in place in one temporary table (two for d > 1), so the peak is two
    or three leaf tables.
    """
    for tree in (tree_a, tree_b):
        if tree.T < 0:
            raise TreeValidationError(tree.validate())
    if tree_a.T != tree_b.T or tree_a.d != tree_b.d:
        raise ValueError("trees must share stage count and quantizer dimension")
    if not 1 <= order < np.inf:
        raise ValueError(f"order must be at least 1 and finite, got {order}")
    table = 0.0  # stage 0 adds its costs to no earlier ones
    # Overflow is caught below, on the finished table.
    with np.errstate(over="ignore"):
        for t in range(tree_a.T + 1):
            if t:
                # Columns first: their gather is the smaller one when tree_a
                # branches wider, and the rows then copy whole rows.
                rows, cols = tree_a.stage_blocks(t - 1), tree_b.stage_blocks(t - 1)
                table = table.take(cols.parents, axis=1).take(rows.parents, axis=0)
            table += _stage_costs(tree_a.quantizer[tree_a.stage_nodes(t)],
                                  tree_b.quantizer[tree_b.stage_nodes(t)], order)
        if order != 2:
            np.power(table, order, out=table)
    # Every cost is >= 0 or NaN, so the maximum is finite only if all are.
    if not np.isfinite(table.max()):
        raise ValueError(f"path costs of order {order:g} are not finite")
    return table
