"""Directed weighted graph, block partition, and inter-block edge-count state.

The block model's sufficient statistic is the B x B inter-block edge-count
matrix M together with the per-block in/out degree vectors. M is counted as
its sorted nonzero cells, keys and weights (`block_cells`; degrees by
`block_degrees`), which the numpy passes read; the loops that edit M in
place hold it as a dict state (one dict per row, mirrored per column, filled
in key order), which moves keep exact without recomputation. A move r -> s
of one node changes, for each other block t, the cells (r, t), (s, t),
(t, r) and (t, s) by the node's edge weights to and from t, and the 2 x 2
core of r and s (`core_change`): the closed form that both nodal sweeps
score and `apply_move` commits. `apply_move` is the one writer of the dict
state: a merge of block r into s is the move of r as one node
(`block_edge_counts`), whose edge weights are row and column r of M and
whose self-loop is M[r, r].

A Graph never changes once built, so the Python lists that the exact sweep
reads one node at a time (`NodeTables`) are built once per graph, on first
use of `Graph.tables`, in the graph's row order, and shared by every probe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class Graph:
    """Immutable directed multigraph over dense integer node ids: one
    neighbour table, filled by `build_graph`.

    Node i's neighbours nbr[ptr[i]:ptr[i+1]] are its out-neighbours by id,
    then its remaining in-neighbours by id; w_out and w_in hold the weights
    of i -> j and j -> i (0 when absent). cumw[e] is the running weight of
    the whole table before entry e (cumw[-1] is the total), so row i spans
    [cumw[ptr[i]], cumw[ptr[i+1]]). A self-loop of weight w (w_out == w_in
    == w) counts w toward both the in- and the out-degree of its node (2w
    toward the total).
    """

    __slots__ = ("num_nodes", "ptr", "nbr", "w_out", "w_in", "cumw",
                 "degree", "total_edge_weight", "_tables")

    def __init__(self, num_nodes, ptr, nbr, w_out, w_in):
        self.num_nodes = num_nodes
        self.ptr, self.nbr, self.w_out, self.w_in = ptr, nbr, w_out, w_in
        self.cumw = np.concatenate(([0], np.cumsum(w_out + w_in)))
        self.degree = self.cumw[ptr[1:]] - self.cumw[ptr[:-1]]
        self.total_edge_weight = int(w_out.sum())
        self._tables = None

    @property
    def tables(self):
        """The graph's `NodeTables`, built on first use."""
        if self._tables is None:
            self._tables = NodeTables(self)
        return self._tables

    def neighbors(self, i):
        """(j, weight of i -> j, weight of j -> i) per neighbour j of i, in
        table order."""
        lo, hi = self.ptr[i], self.ptr[i + 1]
        return zip(self.nbr[lo:hi].tolist(), self.w_out[lo:hi].tolist(),
                   self.w_in[lo:hi].tolist())

    def _edge_arrays(self):
        """Source, target and weight arrays, sorted by (source, target)."""
        out = self.w_out > 0
        src = np.repeat(np.arange(self.num_nodes), np.diff(self.ptr))
        return src[out], self.nbr[out], self.w_out[out]

    def edge_list(self):
        """(source, target, weight) per edge, sorted by (source, target)."""
        return list(zip(*(a.tolist() for a in self._edge_arrays())))

    def draw_neighbors(self, nodes, u):
        """A neighbour of each node of the array `nodes` (each must have an
        edge), drawn proportional to combined edge weight with the matching
        uniform variate of `u` in [0, 1): the first entry of row i whose
        running weight exceeds floor(u * k_i). A self-loop of weight w is
        drawn with probability 2w / k_i (one edge per direction)."""
        k = self.degree[nodes]
        x = self.cumw[self.ptr[nodes]] + np.minimum(np.floor(u * k),
                                                    k - 1).astype(np.int64)
        return self.nbr[np.searchsorted(self.cumw, x, side="right") - 1]


def edge_rows(edge_list):
    """(source, target[, weight]) rows, given as a list of tuples or as an
    (E, 2) or (E, 3) integer array, as one (E, 3) int64 array; a missing
    weight is 1."""
    if not isinstance(edge_list, np.ndarray):
        rows = [e if len(e) == 3 else (*e, 1) for e in edge_list]
        return np.array(rows, dtype=np.int64).reshape(len(rows), 3)
    e = edge_list.astype(np.int64, copy=False)
    if e.shape[1] == 3:
        return e
    return np.column_stack((e, np.ones(len(e), dtype=np.int64)))


def build_graph(edge_list, num_nodes=None):
    """Build a Graph from (source, target[, weight]) rows (see `edge_rows`).

    This is the one place where duplicate (i, j) entries are summed into
    one weighted edge. Node count is inferred as max id + 1 unless given.
    """
    e = edge_rows(edge_list)
    src, dst, w = e[:, 0], e[:, 1], e[:, 2]
    bad = np.flatnonzero((src < 0) | (dst < 0) | (w < 1))
    if bad.size:
        k = bad[0]
        raise ValueError(f"edge ({src[k]}, {dst[k]}, {w[k]}): node ids must "
                         f"be >= 0 and weights >= 1")
    max_id = int(max(src.max(initial=-1), dst.max(initial=-1)))
    n = max_id + 1 if num_nodes is None else int(num_nodes)
    if max_id >= n:
        raise ValueError(f"node id {max_id} out of range for num_nodes={n}")
    # bincount sums in float64, which is exact below 2**53
    edge, inv = np.unique(src * n + dst, return_inverse=True)
    w = np.bincount(inv, weights=w, minlength=len(edge)).astype(np.int64)
    src, dst = edge // n, edge % n
    # edge i -> j is an out-entry of row i and an in-entry of row j; the
    # two opposite edges of a pair share one entry in each row
    cell, inv = np.unique(np.concatenate((src, dst)) * n
                          + np.concatenate((dst, src)), return_inverse=True)
    w_out = np.zeros(len(cell), dtype=np.int64)
    w_in = np.zeros(len(cell), dtype=np.int64)
    w_out[inv[:len(edge)]] = w
    w_in[inv[len(edge):]] = w
    row, nbr = cell // n, cell % n
    order = np.lexsort((nbr, w_out == 0, row))
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=ptr[1:])
    return Graph(n, ptr, nbr[order], w_out[order], w_in[order])


class Partition:
    """Block assignment vector over [0, num_blocks)."""

    __slots__ = ("assignment", "num_blocks")

    def __init__(self, assignment, num_blocks=None):
        a = np.asarray(assignment, dtype=np.int64)
        if num_blocks is None:
            num_blocks = int(a.max()) + 1 if a.size else 0
        if a.size and (a.min() < 0 or a.max() >= num_blocks):
            raise ValueError("block assignment out of range")
        self.assignment = a
        self.num_blocks = int(num_blocks)

    def __len__(self):
        return len(self.assignment)

    def compact(self):
        """Relabel used blocks to a dense [0, B') range."""
        used, inverse = np.unique(self.assignment, return_inverse=True)
        return Partition(inverse, len(used))

    @staticmethod
    def identity(num_nodes):
        return Partition(np.arange(num_nodes, dtype=np.int64), num_nodes)


class _XLogX(dict):
    def __missing__(self, x):
        v = self[x] = x * math.log(x)
        return v


class BlockModelState:
    """Inter-block edge-count matrix M with block degree vectors (lists,
    read one block at a time).

    rows[r][s] == cols[s][r] == total weight of edges from block r to s.
    xlogx[x] is x * log(x) for an int x >= 0 (0.0 at 0), filled on first
    use: the one x log x that the exact kernels read, holding only the
    cells and degrees they meet.
    ids[t] is one int object per block id. Python shares no int objects
    above 256, so the dict keys that `from_cells` writes and the labels
    that the sweep reads are all taken from ids: a lookup then matches its
    key by identity and never reads a second int object.
    """

    __slots__ = ("rows", "cols", "d_out", "d_in", "d", "xlogx", "ids")

    def __init__(self, rows, cols, d_out, d_in, ids):
        self.rows = rows
        self.cols = cols
        self.d_out = d_out
        self.d_in = d_in
        self.d = [o + i for o, i in zip(d_out, d_in)]
        self.xlogx = _XLogX({0: 0.0})
        self.ids = ids

    @classmethod
    def from_cells(cls, B, cell, m):
        """The state over B blocks of the cells that `block_cells` returns,
        filled in key order: each row and each column lists its blocks by
        id."""
        ids = np.arange(B).astype(object)
        rows = [dict() for _ in range(B)]
        cols = [dict() for _ in range(B)]
        for t1, t2, x in zip(ids[cell // B].tolist(), ids[cell % B].tolist(),
                             m.tolist()):
            rows[t1][t2] = cols[t2][t1] = x
        d_out, d_in = block_degrees(cell, m, B)
        return cls(rows, cols, d_out.tolist(), d_in.tolist(), ids.tolist())


@dataclass
class NodeBlockEdgeCounts:
    """Edge weight between one node (or a whole block, as a merge moves it)
    and each block, by direction.

    A self-loop contributes to the node's own block in both direction maps,
    hence twice in `combined` (consistent with k_i counting it twice).
    """
    out_counts: dict = field(default_factory=dict)
    in_counts: dict = field(default_factory=dict)
    combined: dict = field(default_factory=dict)
    self_loop: int = 0


class NodeTables:
    """A graph's neighbour table as Python lists, for code that reads it
    one node at a time (the exact sequential sweep reads `Graph.tables`).

    out_j[i] and out_w[i] list node i's out-neighbours and the weights of
    i -> j; in_j[i] and in_w[i] its in-neighbours and the weights of
    j -> i, both in the graph's row order; self_loop[i] weighs i -> i.
    """

    __slots__ = ("out_j", "out_w", "in_j", "in_w", "self_loop")

    def __init__(self, graph):
        n, nbr = graph.num_nodes, graph.nbr
        row = np.repeat(np.arange(n), np.diff(graph.ptr))
        # one int object per node id, shared by every list that holds it
        ids = np.arange(n).astype(object)[nbr]

        def split(e, values):
            ends = np.cumsum(np.bincount(row[e], minlength=n)).tolist()
            v = values[e].tolist()
            return [v[lo:hi] for lo, hi in zip([0] + ends, ends)]

        out = np.flatnonzero(graph.w_out > 0)
        inn = np.flatnonzero(graph.w_in > 0)
        self.out_j, self.out_w = split(out, ids), split(out, graph.w_out)
        self.in_j, self.in_w = split(inn, ids), split(inn, graph.w_in)
        loop = np.zeros(n, dtype=np.int64)
        at = np.flatnonzero(nbr == row)
        loop[row[at]] = graph.w_out[at]
        self.self_loop = loop.tolist()


def node_block_edge_counts(tables, assignment, i):
    """Edge weight between node i and each block of the labelling
    `assignment` (block ids indexed by node; the sweep passes a list),
    read from the graph's `NodeTables`. out_counts and in_counts list
    their blocks in the order the node's out- and in-lists first reach
    them; `combined` lists out_counts' blocks, then the rest of
    in_counts', which is the order the node's graph row first reaches
    them. The sweep's float sums follow `combined`."""
    a = assignment
    out_c, in_c = {}, {}
    for j, w in zip(tables.out_j[i], tables.out_w[i]):
        t = a[j]
        out_c[t] = out_c.get(t, 0) + w
    for j, w in zip(tables.in_j[i], tables.in_w[i]):
        t = a[j]
        in_c[t] = in_c.get(t, 0) + w
    # a block first reached by an in-neighbour that is also an
    # out-neighbour is already in out_c, so in_c adds the rest in order
    comb = dict(out_c)
    for t, w in in_c.items():
        comb[t] = comb.get(t, 0) + w
    return NodeBlockEdgeCounts(out_c, in_c, comb, tables.self_loop[i])


def block_edge_counts(state, r):
    """Block r of the dict state as one node, for `apply_move` to merge:
    its edge weights to each block are row r of M, from each block column
    r, and its self-loop M[r, r]. The maps are copies, since the move
    edits row r while it walks them; `combined` is left empty."""
    row = state.rows[r]
    return NodeBlockEdgeCounts(dict(row), dict(state.cols[r]),
                               self_loop=row.get(r, 0))


def runs(key):
    """Stable sort order of the non-negative int64 array `key`, and the
    position in that order where each run of equal keys starts, so that
    order[start] is the first item of each run."""
    n = len(key)
    bits = n.bit_length()
    if n and int(key.max()) >= 1 << (62 - bits):
        order = np.argsort(key, kind="stable")
        k = key[order]
    else:
        # one plain sort of key and index packed together: about twice as
        # fast as a stable argsort
        packed = np.sort((key << bits) | np.arange(n))
        order, k = packed & ((1 << bits) - 1), packed >> bits
    return order, np.flatnonzero(np.concatenate(([n > 0], k[1:] != k[:-1])))


def block_cells(graph, assignment, B):
    """The nonzero cells of M = Gamma^T A Gamma for the labelling
    `assignment` over B blocks: their sorted keys r * B + s and their
    weights."""
    if len(assignment) != graph.num_nodes:
        raise ValueError("partition length does not match graph")
    src, dst, w = graph._edge_arrays()
    key = assignment[src] * B + assignment[dst]
    order, start = runs(key)
    return key[order[start]], np.add.reduceat(w[order], start)


def block_degrees(cell, m, B):
    """The block out- and in-degree vectors (int64, length B) of M's sorted
    nonzero cells `cell` with weights `m`."""
    return tuple(np.bincount(x, weights=m, minlength=B).astype(np.int64)
                 for x in (cell // B, cell % B))


def recompute_block_matrix(graph, partition):
    """Full M = Gamma^T A Gamma recomputation with degree vectors, as the
    dict state."""
    B = partition.num_blocks
    return BlockModelState.from_cells(
        B, *block_cells(graph, partition.assignment, B))


def core_change(counts, r, s):
    """The change to M's cells (r, r), (r, s), (s, r) and (s, s) when the
    node of `counts` moves from block r to block s. to_x and from_x are its
    edge weights to and from block x, and w its self-loop's weight (counted
    in to_r and from_r), which leaves (r, r) for (s, s)."""
    to_r, to_s = counts.out_counts.get(r, 0), counts.out_counts.get(s, 0)
    from_r, from_s = counts.in_counts.get(r, 0), counts.in_counts.get(s, 0)
    w = counts.self_loop
    return (w - to_r - from_r, from_r - to_s - w, to_r - from_s - w,
            to_s + from_s + w)


def _bump(state, t1, t2, dw):
    """Add dw to cell (t1, t2) of M in both mirrors; a cell at 0 is
    dropped."""
    row, col = state.rows[t1], state.cols[t2]
    v = row.get(t2, 0) + dw
    if v:
        row[t2] = col[t1] = v
    elif t2 in row:
        del row[t2], col[t1]


def apply_move(state, r, s, counts):
    """Move the node whose edge weights to each block are `counts` from
    block r to block s on the state in place: for each other block t the
    cells (r, t) and (s, t) change by -/+ the node's weight to t, and
    (t, r) and (t, s) by -/+ its weight from t; then the 2 x 2 core
    (`core_change`) and the four degrees. The node is one vertex
    (`node_block_edge_counts`) or a whole block (`block_edge_counts`), which
    merges r into s. The only code that writes the dict state.

    The result is bit-identical to recomputing M on the post-move partition;
    only rows/columns r and s change.
    """
    if r == s:
        raise ValueError("no-op move: from_block equals to_block")
    for t, w in counts.out_counts.items():
        if t != r and t != s:
            _bump(state, r, t, -w)
            _bump(state, s, t, w)
    for t, w in counts.in_counts.items():
        if t != r and t != s:
            _bump(state, t, r, -w)
            _bump(state, t, s, w)
    for (t1, t2), dw in zip(((r, r), (r, s), (s, r), (s, s)),
                            core_change(counts, r, s)):
        _bump(state, t1, t2, dw)
    k_out = sum(counts.out_counts.values())
    k_in = sum(counts.in_counts.values())
    state.d_out[r] -= k_out
    state.d_out[s] += k_out
    state.d_in[r] -= k_in
    state.d_in[s] += k_in
    state.d[r] -= k_out + k_in
    state.d[s] += k_out + k_in
