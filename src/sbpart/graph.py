"""Directed weighted graph, block partition, and inter-block edge-count state.

The block model's sufficient statistic is the B x B inter-block edge-count
matrix M together with the per-block in/out degree vectors. M is kept sparse
(one dict per row, mirrored per column) and is maintained exactly under
single-node moves without recomputation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class Graph:
    """Immutable directed multigraph over dense integer node ids.

    Parallel edges are merged into integer weights at construction. A
    self-loop of weight w counts w toward both the in- and the out-degree
    of its node (so 2w toward the total degree).
    """

    __slots__ = ("num_nodes", "out_adj", "in_adj", "total_edge_weight",
                 "degree", "_nbr_ids", "_nbr_cumw")

    def __init__(self, num_nodes, out_adj, in_adj):
        self.num_nodes = num_nodes
        self.out_adj = out_adj
        self.in_adj = in_adj
        self.total_edge_weight = sum(w for nbrs in out_adj for w in nbrs.values())
        deg = np.zeros(num_nodes, dtype=np.int64)
        for i in range(num_nodes):
            deg[i] = sum(out_adj[i].values()) + sum(in_adj[i].values())
        self.degree = deg
        self._nbr_ids = None
        self._nbr_cumw = None

    def edge_list(self):
        """All (source, target, weight) triples, one per merged edge."""
        return [(i, j, w) for i in range(self.num_nodes)
                for j, w in self.out_adj[i].items()]

    def self_loop_weight(self, i):
        return self.out_adj[i].get(i, 0)

    def _neighbor_tables(self):
        if self._nbr_ids is None:
            ids, cumw = [], []
            for i in range(self.num_nodes):
                comb = dict(self.out_adj[i])
                for j, w in self.in_adj[i].items():
                    comb[j] = comb.get(j, 0) + w
                js = np.fromiter(comb.keys(), dtype=np.int64, count=len(comb))
                ws = np.fromiter(comb.values(), dtype=np.int64, count=len(comb))
                ids.append(js)
                cumw.append(np.cumsum(ws))
            self._nbr_ids = ids
            self._nbr_cumw = cumw
        return self._nbr_ids, self._nbr_cumw

    def draw_neighbor(self, i, u):
        """Pick a neighbor of i proportional to combined edge weight.

        u is a uniform variate in [0, 1); a self-loop of weight w is drawn
        with probability 2w / k_i (it contributes one edge per direction).
        """
        ids, cumw = self._neighbor_tables()
        c = cumw[i]
        if len(c) == 0:
            raise ValueError(f"node {i} has no edges to draw from")
        idx = np.searchsorted(c, u * c[-1], side="right")
        return int(ids[i][min(idx, len(c) - 1)])


def build_graph(edge_list, num_nodes=None):
    """Build a Graph from (source, target, weight) triples.

    Duplicate (i, j) entries are summed into one weighted edge. Node count is
    inferred as max id + 1 unless given.
    """
    merged = {}
    max_id = -1
    for edge in edge_list:
        if len(edge) == 2:
            s, t = edge
            w = 1
        else:
            s, t, w = edge
        s, t, w = int(s), int(t), int(w)
        if s < 0 or t < 0:
            raise ValueError(f"negative node id in edge ({s}, {t})")
        if w < 1:
            raise ValueError(f"edge ({s}, {t}) has non-positive weight {w}")
        merged[(s, t)] = merged.get((s, t), 0) + w
        if s > max_id:
            max_id = s
        if t > max_id:
            max_id = t
    n = max_id + 1 if num_nodes is None else int(num_nodes)
    if max_id >= n:
        raise ValueError(f"node id {max_id} out of range for num_nodes={n}")
    out_adj = [dict() for _ in range(n)]
    in_adj = [dict() for _ in range(n)]
    # canonical (sorted) insertion order, so identical edge sets yield
    # identical iteration order regardless of input order
    for (s, t) in sorted(merged):
        w = merged[(s, t)]
        out_adj[s][t] = w
        in_adj[t][s] = w
    return Graph(n, out_adj, in_adj)


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

    def copy(self):
        return Partition(self.assignment.copy(), self.num_blocks)

    def compact(self):
        """Relabel used blocks to a dense [0, B') range."""
        used, inverse = np.unique(self.assignment, return_inverse=True)
        return Partition(inverse, len(used))

    @staticmethod
    def identity(num_nodes):
        return Partition(np.arange(num_nodes, dtype=np.int64), num_nodes)


class BlockModelState:
    """Inter-block edge-count matrix M with block degree vectors.

    rows[r][s] == cols[s][r] == total weight of edges from block r to s.
    """

    __slots__ = ("rows", "cols", "d_out", "d_in", "d")

    def __init__(self, rows, cols, d_out, d_in):
        self.rows = rows
        self.cols = cols
        self.d_out = d_out
        self.d_in = d_in
        self.d = d_out + d_in

    @property
    def num_blocks(self):
        return len(self.rows)

    def get(self, r, s):
        return self.rows[r].get(s, 0)

    def to_dense(self):
        B = self.num_blocks
        m = np.zeros((B, B), dtype=np.int64)
        for r, row in enumerate(self.rows):
            for s, w in row.items():
                m[r, s] = w
        return m

    def copy(self):
        return BlockModelState([dict(r) for r in self.rows],
                               [dict(c) for c in self.cols],
                               self.d_out.copy(), self.d_in.copy())


@dataclass
class NodeBlockEdgeCounts:
    """Edge weight between one node and each block, by direction.

    A self-loop contributes to the node's own block in both direction maps,
    hence twice in `combined` (consistent with k_i counting it twice).
    """
    out_counts: dict = field(default_factory=dict)
    in_counts: dict = field(default_factory=dict)
    combined: dict = field(default_factory=dict)
    self_loop: int = 0


def node_block_edge_counts(graph, assignment, i):
    """Edge weight between node i and each block of the labelling
    `assignment` (an array of block ids indexed by node)."""
    out_c, in_c, comb = {}, {}, {}
    for j, w in graph.out_adj[i].items():
        t = int(assignment[j])
        out_c[t] = out_c.get(t, 0) + w
        comb[t] = comb.get(t, 0) + w
    for j, w in graph.in_adj[i].items():
        t = int(assignment[j])
        in_c[t] = in_c.get(t, 0) + w
        comb[t] = comb.get(t, 0) + w
    return NodeBlockEdgeCounts(out_c, in_c, comb, graph.out_adj[i].get(i, 0))


def recompute_block_matrix(graph, partition):
    """Full M = Gamma^T A Gamma recomputation with degree vectors."""
    if len(partition.assignment) != graph.num_nodes:
        raise ValueError("partition length does not match graph")
    B = partition.num_blocks
    b = partition.assignment
    rows = [dict() for _ in range(B)]
    cols = [dict() for _ in range(B)]
    for i in range(graph.num_nodes):
        r = int(b[i])
        row_r = rows[r]
        for j, w in graph.out_adj[i].items():
            s = int(b[j])
            row_r[s] = row_r.get(s, 0) + w
    d_out = np.zeros(B, dtype=np.int64)
    d_in = np.zeros(B, dtype=np.int64)
    for r, row in enumerate(rows):
        for s, w in row.items():
            cols[s][r] = w
            d_out[r] += w
            d_in[s] += w
    return BlockModelState(rows, cols, d_out, d_in)


def move_delta(counts, r, s):
    """Sparse change to M for moving one node from block r to block s.

    Returns (delta, ki_out, ki_in) where delta maps (t1, t2) -> weight change;
    every key has r or s as one of its coordinates.
    """
    w_self = counts.self_loop
    out_c, in_c = counts.out_counts, counts.in_counts
    # The node's out/in block maps after the move: its self-loop retargets s.
    out_a = dict(out_c)
    in_a = dict(in_c)
    if w_self:
        out_a[r] = out_a.get(r, 0) - w_self
        out_a[s] = out_a.get(s, 0) + w_self
        in_a[r] = in_a.get(r, 0) - w_self
        in_a[s] = in_a.get(s, 0) + w_self
    delta = {}
    for t, w in out_c.items():
        key = (r, t)
        delta[key] = delta.get(key, 0) - w
    for t, w in out_a.items():
        key = (s, t)
        delta[key] = delta.get(key, 0) + w
    for t, w in in_c.items():
        key = (t, r)
        delta[key] = delta.get(key, 0) - w
    for t, w in in_a.items():
        key = (t, s)
        delta[key] = delta.get(key, 0) + w
    if w_self:
        # the self-loop appears once in each direction map; M holds it once
        delta[(r, r)] = delta.get((r, r), 0) + w_self
        delta[(s, s)] = delta.get((s, s), 0) - w_self
    ki_out = sum(out_c.values())
    ki_in = sum(in_c.values())
    return delta, ki_out, ki_in


def _bump(d, key, dw):
    v = d.get(key, 0) + dw
    if v:
        d[key] = v
    elif key in d:
        del d[key]


def apply_move(state, i, from_block, to_block, counts):
    """Apply a single node move to the state in place (exactly).

    The result is bit-identical to recomputing M on the post-move partition;
    only rows/columns `from_block` and `to_block` change.
    """
    r, s = from_block, to_block
    if r == s:
        raise ValueError("no-op move: from_block equals to_block")
    return apply_delta(state, r, s, *move_delta(counts, r, s))


def apply_delta(state, r, s, delta, ki_out, ki_in):
    """Add the M change of one node move r -> s, as returned by move_delta,
    to the state in place. The MCMC sweep commits its moves through here."""
    rows, cols = state.rows, state.cols
    for (t1, t2), dw in delta.items():
        if dw == 0:
            continue
        _bump(rows[t1], t2, dw)
        _bump(cols[t2], t1, dw)
    state.d_out[r] -= ki_out
    state.d_out[s] += ki_out
    state.d_in[r] -= ki_in
    state.d_in[s] += ki_in
    state.d[r] -= ki_out + ki_in
    state.d[s] += ki_out + ki_in
    return state
