"""Block partition engine: MCMC nodal updates, greedy block merges, and a
golden-section search over the number of blocks minimizing description length.

The objective for merges and nodal moves is the log posterior
S = sum_{t1,t2} M[t1,t2] * log(M[t1,t2] / (d_out[t1] * d_in[t2])),
which collapses to sum x log x over M's cells minus sum x log x over the
block out- and in-degrees. A node move r -> s only touches rows and columns
r and s, so its dS reads only them. Both nodal sweeps score a move with one
closed form, summed in one term order:

1. each block t other than r and s, in the order the node's neighbour table
   first reaches it (`NodeBlockEdgeCounts.combined`): the cells (r, t),
   (s, t), (t, r) and (t, s), which change by -k_to, +k_to, -k_from and
   +k_from, the node's edge weights to and from t;
2. the 2 x 2 core (r, r), (r, s), (s, r), (s, s) (`graph.core_change`);
3. the degrees d_out[r], d_out[s], d_in[r], d_in[s].

A cell adds x log x before the move minus after it, a degree after minus
before. Both kernels read x log x from the graph's one table of 0..E: the
per-node kernel (`_evaluate`) indexes its list (`Graph.xlogx_list`) and
the numpy snapshot pass (`_score_moves`) gathers from its array
(`Graph.xlogx`); above `graph._TABLE_ENTRIES` both compute it with one
np.log expression. So they give the same dS bit for bit. The batch sweep
counts each labelling once: its `block_cells` give both H and the next
pass's M. The sequential sweep counts none: it reads the graph's cached
`NodeTables`, edits M in place, and sums its H from the accepted moves'
dS, so a probe (`run_mcmc`) counts M at its start and once more at its
end. The engine writes no cell of the dict state itself: accepted nodal
moves and block merges (a block moved as one node) both commit through
`graph.apply_move`. All logarithms are natural.

A proposal from block u draws block t with probability
(M + M^T)[u, t] / d_u, from the running weights of a fixed walk over row
u: the numpy passes (`_row_sampler`) walk each row by block id, and the
sequential sweep (`_propose`) walks its live dicts, row u of M and then
column u, in insertion order. Both follow this one law, but draw
different blocks from the same variate once the dicts leave id order.
"""
from __future__ import annotations

import heapq
import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import (
    BlockModelState,
    Partition,
    apply_move,
    block_cells,
    block_degrees,
    block_edge_counts,
    core_change,
    node_block_edge_counts,
    runs,
)

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
PROBE_SWEEPS = 8        # sweep budget of each intermediate search probe
CONVERGENCE_WINDOW = 3  # sweeps over which run_mcmc averages H's change


@dataclass
class MCMCConfig:
    """Engine settings.

    execution_mode picks one of two sweeps: "sequential" is the exact
    Metropolis-Hastings sweep against the live state; "batch" evaluates
    every node against the state at the start of the sweep, in one numpy
    pass over all nodes, and applies the accepted moves at a barrier.
    workers (1 to the CPU count) is recorded in the computational reports
    only: neither sweep starts a process.
    """
    beta: float = 3.0
    max_sweeps: int = 100
    convergence_threshold: float = 1e-4
    merge_reduction_rate: float = 0.5
    merge_proposals_per_block: int = 10
    rng_seed: int = 0
    execution_mode: str = "sequential"
    workers: int = 1

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not 0.0 < self.merge_reduction_rate < 1.0:
            raise ValueError("merge_reduction_rate must be in (0, 1)")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")
        if not self.convergence_threshold > 0:
            raise ValueError("convergence_threshold must be positive")
        if self.merge_proposals_per_block < 1:
            raise ValueError("merge_proposals_per_block must be positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if self.execution_mode not in ("sequential", "batch"):
            raise ValueError(f"unknown execution mode {self.execution_mode!r}")
        if not 1 <= self.workers <= (os.cpu_count() or 1):
            raise ValueError(f"workers must be between 1 and the CPU count "
                             f"({os.cpu_count() or 1}), got {self.workers}")


def _h(x):
    return (1.0 + x) * math.log(1.0 + x) - x * math.log(x)


def description_length(graph, partition):
    """Total description length H of the model plus the graph given the
    model (see `_cells_length`)."""
    B = partition.num_blocks
    if B < 1:
        raise ValueError("partition has no blocks")
    return _cells_length(graph, B, block_cells(graph, partition.assignment, B))


def _cells_length(graph, B, cells):
    """H of a labelling over B blocks, read from M's sorted cells
    (`block_cells`): S = sum M log(M / (d_out d_in)) is
    sum m log m - sum d_out log d_out - sum d_in log d_in."""
    N, E = graph.num_nodes, graph.total_edge_weight
    if E == 0:
        return N * math.log(B) if B > 1 else 0.0
    cell, m = cells
    d_out, d_in = block_degrees(cell, m, B)
    xlogx = graph.xlogx
    S = xlogx(m).sum() - xlogx(d_out).sum() - xlogx(d_in).sum()
    return E * _h(B * B / E) + N * math.log(B) - float(S)


def _sweep_uniforms(seed, sweep_index, num_nodes):
    """Counter-based uniform draws, 4 per node, replayable across modes."""
    bitgen = np.random.Philox(key=int(seed) & (2**64 - 1),
                              counter=[0, 0, int(sweep_index), 0])
    return np.random.Generator(bitgen).random((num_nodes, 4))


def _sweep_permutation(seed, sweep_index, num_nodes):
    bitgen = np.random.Philox(key=int(seed) & (2**64 - 1),
                              counter=[0, 1, int(sweep_index), 0])
    return np.random.Generator(bitgen).permutation(num_nodes)


def _propose(a, state, B, j, u_coin, u_prop):
    """The block proposal for a node whose drawn neighbour is j: a uniform
    block, or a draw from row u = a[j] of M + M^T. The draw walks row u of
    M, then column u, in their dict order, and takes the first block at
    which floor(u_prop * d_u) minus the weights walked so far turns
    negative."""
    u = a[j]
    du = state.d[u]
    if u_coin <= B / (du + B):
        return state.ids[min(int(u_prop * B), B - 1)]
    x = min(int(u_prop * du), du - 1)
    for t, w in state.rows[u].items():
        x -= w
        if x < 0:
            return t
    for t, w in state.cols[u].items():
        x -= w
        if x < 0:
            return t


def _evaluate(tables, a, state, B, beta, i, s, u_accept):
    """Score the move of node i to block s != a[i] against the labelling
    `a` (a list) and its state; no mutation.

    Returns (commit, (delta_S, p_forward, p_backward, p_accept)), where
    commit is the node's NodeBlockEdgeCounts (what `apply_move` reads) if
    the move was accepted, else None.
    """
    r = a[i]
    counts = node_block_edge_counts(tables, a, i)
    out_c = counts.out_counts
    k_out, k_in = sum(out_c.values()), sum(counts.in_counts.values())
    row_r, col_r = state.rows[r], state.cols[r]
    row_s, col_s = state.rows[s], state.cols[s]
    core = core_change(counts, r, s)
    d, xlogx = state.d, state.xlogx
    # dS in the module docstring's term order; the Hastings correction sums,
    # over the same blocks t, the proposal probabilities of s before the
    # move and of r after it
    dS = pf = pb = 0.0
    for t, k in counts.combined.items():
        m_rt, m_st = row_r.get(t, 0), row_s.get(t, 0)
        m_tr, m_ts = col_r.get(t, 0), col_s.get(t, 0)
        dt = d[t]
        pf += k * (m_ts + m_st + 1) / (dt + B)
        if t == r:
            back, dt = 2 * core[0], dt - k_out - k_in
        elif t == s:
            back, dt = core[1] + core[2], dt + k_out + k_in
        else:
            to = out_c.get(t, 0)
            # a direction without edges changes no cell: its terms are 0.0
            if to:
                dS += xlogx[m_rt] - xlogx[m_rt - to]
                dS += xlogx[m_st] - xlogx[m_st + to]
            if to != k:
                dS += xlogx[m_tr] - xlogx[m_tr - k + to]
                dS += xlogx[m_ts] - xlogx[m_ts + k - to]
            back = -k
        pb += k * (m_tr + m_rt + back + 1) / (dt + B)
    for m, c in zip((row_r.get(r, 0), row_r.get(s, 0), row_s.get(r, 0),
                     row_s.get(s, 0)), core):
        dS += xlogx[m] - xlogx[m + c]
    d_out, d_in = state.d_out, state.d_in
    for m, c in ((d_out[r], -k_out), (d_out[s], k_out), (d_in[r], -k_in),
                 (d_in[s], k_in)):
        dS += xlogx[m + c] - xlogx[m]
    # pf > 0: node i has an edge, and every term has the +1 smoothing
    try:
        p_accept = min(math.exp(-beta * dS) * pb / pf, 1.0)
    except OverflowError:
        p_accept = 1.0
    commit = counts if u_accept <= p_accept else None
    return commit, (dS, pf, pb, p_accept)


# ---------------------------------------------------------------------------
# snapshot (one-iteration-old) sweep: every node in one numpy pass

# Moving nodes are evaluated in chunks of about this many neighbour-table
# entries, which bounds the pass's temporaries; wide enough that numpy's
# per-call overhead does not dominate a chunk.
_CHUNK_ENTRIES = 8192
# M is read from a dense B * B vector up to this many cells (2 MB, B <= 512),
# and by binary search over its sorted cell keys above, so that memory stays
# O(E + nnz M) at large B.
_DENSE_CELLS = 262144


def _chunks(size):
    """(lo, hi) bounds of consecutive items holding about _CHUNK_ENTRIES of
    the entries that `size` counts per item."""
    cuts = np.flatnonzero(np.diff((np.cumsum(size) - 1) // _CHUNK_ENTRIES)) + 1
    bounds = np.unique(np.r_[0, cuts, len(size)])
    return zip(bounds[:-1], bounds[1:])


def _gather(start, size):
    """The entries of ragged rows, row k spanning [start[k], start[k] +
    size[k]) of a table: each entry's row k and its table index."""
    pos = np.repeat(np.arange(len(size)), size)
    return pos, np.repeat(start - (np.cumsum(size) - size), size) \
        + np.arange(int(size.sum()))


def _cell_reader(cell, m, B):
    """M at a 1-D array of cell keys r * B + s, given M's sorted nonzero
    cells (`block_cells`): read from a dense vector up to _DENSE_CELLS
    cells, by binary search over the keys above (0 where a key is absent).
    The search takes the keys in sorted order, which walks M's keys once,
    and scatters the cells back."""
    if B * B <= _DENSE_CELLS:
        dense = np.zeros(B * B, dtype=np.int64)
        dense[cell] = m
        return dense.__getitem__
    if not len(cell):
        return np.zeros_like

    def get(q):
        order, _ = runs(q)
        k = q[order]
        pos = np.minimum(np.searchsorted(cell, k), len(cell) - 1)
        out = np.empty(len(q), dtype=m.dtype)
        out[order] = np.where(cell[pos] == k, m[pos], 0)
        return out
    return get


def _row_sampler(cell, m, B):
    """A draw from rows of M + M^T, given M's sorted nonzero cells.

    draw(rows, d, u) picks, for each row r of `rows` with total weight
    d > 0 and variate u, the first block t (by id) whose running weight in
    row r exceeds floor(u * d). The sequential sweep's `_propose` walks
    its dicts in insertion order instead; both draw t with probability
    (M + M^T)[r, t] / d.
    """
    key = np.concatenate((cell, cell % B * B + cell // B))
    order, start = runs(key)
    key = key[order[start]]
    cum = np.concatenate(([0], np.cumsum(np.add.reduceat(
        np.concatenate((m, m))[order], start))))

    def draw(rows, d, u):
        x = cum[np.searchsorted(key, rows * B)] \
            + np.minimum(np.floor(u * d), d - 1).astype(np.int64)
        return key[np.searchsorted(cum, x, side="right") - 1] % B
    return draw


def snapshot_proposals(graph, b, B, cells, beta, uniforms):
    """Evaluate one proposal per node against the frozen labelling `b` over
    B blocks, whose M is `cells` (its `block_cells`), all nodes in one
    numpy pass.

    Node i draws its proposal from uniforms[i] with the sequential sweep's
    law, each row walked by block id, and is scored with the same dS and
    Hastings correction, against M as it stands before any move. Nodes
    without edges and nodes whose proposal is their own block are dropped.
    Returns the arrays (nodes, proposed, accepted, delta_S, p_accept) over
    the remaining nodes.
    """
    cell, m = cells
    d_out, d_in = block_degrees(cell, m, B)
    d = d_out + d_in
    get_m = _cell_reader(cell, m, B)

    # proposal: the block u of a weight-drawn neighbour, then either a
    # uniform block or a block drawn from row u of M + M^T (by id order)
    nodes = np.flatnonzero(graph.degree)
    U = uniforms[nodes]
    u_blk = b[graph.draw_neighbors(nodes, U[:, 0])]
    du = d[u_blk]
    s = np.minimum(np.floor(U[:, 2] * B), B - 1).astype(np.int64)
    via = U[:, 1] > B / (du + B)
    if via.any():
        s[via] = _row_sampler(cell, m, B)(u_blk[via], du[via], U[via, 2])
    r = b[nodes]
    move = s != r
    nodes, r, s, u_accept = nodes[move], r[move], s[move], U[move, 3]

    dS = np.empty(len(nodes))
    pf = np.empty(len(nodes))
    pb = np.empty(len(nodes))
    size = graph.ptr[nodes + 1] - graph.ptr[nodes]
    for lo, hi in _chunks(size):
        dS[lo:hi], pf[lo:hi], pb[lo:hi] = _score_moves(
            graph, b, B, nodes[lo:hi], r[lo:hi], s[lo:hi], size[lo:hi],
            get_m, d_out, d_in, d)
    with np.errstate(over="ignore"):
        p_accept = np.minimum(np.exp(-beta * dS) * pb / pf, 1.0)
    return nodes, s, u_accept <= p_accept, dS, p_accept


def _score_moves(graph, b, B, nodes, r, s, size, get_m, d_out, d_in, d):
    """dS, p_forward and p_backward of moving each node r -> s, each summed
    term by term in the order `_evaluate` sums it."""
    n = len(nodes)
    pos, e = _gather(graph.ptr[nodes], size)
    j = graph.nbr[e]
    t = b[j]
    wo, wi = graph.w_out[e], graph.w_in[e]

    # the node's neighbour blocks t in the order its row first reaches them,
    # each with k_to and k_from, its edge weights to and from t, and the
    # cells (r, t), (s, t), (t, r) and (t, s) of M
    order, start = runs(pos * B + t)
    reach = np.argsort(order[start])
    k_to = np.add.reduceat(wo[order], start)[reach]
    k_from = np.add.reduceat(wi[order], start)[reach]
    k = k_to + k_from
    head = order[start][reach]
    gp, gt = pos[head], t[head]
    gr, gs = r[gp], s[gp]
    at_r, at_s = gt == gr, gt == gs
    before = get_m(np.concatenate((gr * B + gt, gs * B + gt, gt * B + gr,
                                   gt * B + gs))).reshape(4, -1)
    m_rt, m_st, m_tr, m_ts = before

    # per node: its weights to and from r and s, its self-loop w, its out-
    # and in-weight, and core_change's 2 x 2 core from them
    to_r, from_r, to_s, from_s = np.stack([
        np.bincount(gp, weights=x, minlength=n) for x in (
            k_to * at_r, k_from * at_r, k_to * at_s, k_from * at_s)
    ]).astype(np.int64)
    k_out, k_in = (x[nodes] for x in graph.node_weights)
    w = np.zeros(n, dtype=np.int64)
    loop = np.flatnonzero(j == nodes[pos])
    w[pos[loop]] = wo[loop]
    core = np.column_stack((w - to_r - from_r, from_r - to_s - w,
                            to_r - from_s - w, to_s + from_s + w))

    # dS in `_evaluate`'s order: each node's other blocks t, its core, its
    # degrees
    other = ~(at_r | at_s)
    cell = np.concatenate((before.T[other].ravel(), get_m(np.column_stack(
        (r * (B + 1), r * B + s, s * B + r, s * (B + 1))).ravel())))
    change = np.concatenate((np.column_stack(
        (-k_to, k_to, -k_from, k_from))[other].ravel(), core.ravel()))
    deg = np.column_stack((d_out[r], d_out[s], d_in[r], d_in[s])).ravel()
    dk = np.column_stack((-k_out, k_out, -k_in, k_in)).ravel()
    xlogx = graph.xlogx
    terms = np.concatenate((xlogx(cell) - xlogx(cell + change),
                            xlogx(deg + dk) - xlogx(deg)))
    dS = np.bincount(np.concatenate((np.repeat(gp[other], 4),
                                     np.tile(np.repeat(np.arange(n), 4), 2))),
                     weights=terms, minlength=n)

    # Hastings correction: the proposal probabilities of s before the move
    # and of r after it, where cells (t, r) and (r, t) lose the node's k
    # edges with t, or take the core's change at t = r or s
    pf = k * (m_ts + m_st + 1) / (d[gt] + B)
    kk = (k_out + k_in)[gp]
    back = np.where(at_r, 2 * core[gp, 0],
                    np.where(at_s, core[gp, 1] + core[gp, 2], -k))
    dt = np.where(at_r, d[gr] - kk, np.where(at_s, d[gs] + kk, d[gt]))
    pb = k * (m_tr + m_rt + back + 1) / (dt + B)
    return (dS, np.bincount(gp, weights=pf, minlength=n),
            np.bincount(gp, weights=pb, minlength=n))


def mcmc_sweep(graph, partition, state, H, config, sweep_index=0):
    """One full pass of nodal updates, in one of two sweeps, from a
    labelling whose description length is H.

    sequential: nodes visited in random order against the live dict state
    of M; each accepted move updates it in place. It reads the graph from
    `graph.tables`, with every node's neighbour drawn up front (the draw
    reads no state). B, N and E are fixed within the sweep, so an accepted
    move's dS is its change in H: H_after is H plus their sum, in visit
    order, and may differ from a recount in the last bits.
    batch: every node is evaluated against the frozen sweep-start labelling
    in one numpy pass (`snapshot_proposals`), whose state is M's sorted
    cells (`block_cells`); the accepted moves are applied at a barrier,
    and one count of the new labelling gives both H and the cells it
    returns for the next sweep. A sweep that accepts no move returns its
    input cells and H.
    Both replay the same counter-based draws for a given sweep_index.
    Returns (partition, state, H_after, num_accepted).
    """
    N = graph.num_nodes
    U = _sweep_uniforms(config.rng_seed, sweep_index, N)
    b = partition.assignment
    B = partition.num_blocks
    if config.execution_mode == "sequential":
        beta = config.beta
        order = _sweep_permutation(config.rng_seed, sweep_index, N)
        order = order[graph.degree[order] > 0]
        drawn = graph.draw_neighbors(order, U[order, 0])
        tables = graph.tables
        a = list(map(state.ids.__getitem__, b.tolist()))
        accepted = 0
        net = 0.0
        for i, j, (_, u_coin, u_prop, u_accept) in zip(
                order.tolist(), drawn.tolist(), U[order].tolist()):
            r = a[i]
            s = _propose(a, state, B, j, u_coin, u_prop)
            if s == r:
                continue
            counts, (dS, *_) = _evaluate(tables, a, state, B, beta, i, s,
                                         u_accept)
            if counts is not None:
                apply_move(state, r, s, counts)
                a[i] = s
                b[i] = s
                accepted += 1
                net += dS
        return partition, state, H + net, accepted
    nodes, proposed, accepted, _, _ = snapshot_proposals(
        graph, b, B, state, config.beta, U)
    moved = int(np.count_nonzero(accepted))
    if not moved:
        return partition, state, H, 0
    b[nodes[accepted]] = proposed[accepted]
    cells = block_cells(graph, b, B)
    return partition, cells, _cells_length(graph, B, cells), moved


def run_mcmc(graph, partition, config, sweep_base=0, sweep_cap=None):
    """Sweep until the windowed relative improvement in H drops below the
    convergence threshold, or the sweep budget is hit. M is counted once
    here, for the start: the sequential sweep edits it as a dict state,
    built from those cells, and the batch sweep carries the cells from one
    sweep to the next. The sequential H is summed from the accepted moves'
    dS, so it is counted once more at the end; the batch H is read from
    each sweep's cells.
    Returns (partition relabelled to its used blocks, H, sweeps)."""
    cap = config.max_sweeps if sweep_cap is None \
        else min(sweep_cap, config.max_sweeps)
    sequential = config.execution_mode == "sequential"
    B = partition.num_blocks
    cells = block_cells(graph, partition.assignment, B)
    H = _cells_length(graph, B, cells)
    state = BlockModelState.from_cells(graph, B, *cells) if sequential \
        else cells
    window = deque(maxlen=CONVERGENCE_WINDOW)
    sweeps = 0
    for t in range(cap):
        partition, state, H_new, _ = mcmc_sweep(
            graph, partition, state, H, config, sweep_index=sweep_base + t)
        sweeps += 1
        window.append(abs(H - H_new) / max(abs(H_new), 1e-12))
        H = H_new
        if len(window) == window.maxlen and \
                sum(window) / len(window) < config.convergence_threshold:
            break
    compacted = partition.compact()
    if sequential or compacted.num_blocks != partition.num_blocks:
        H = description_length(graph, compacted)
    return compacted, H, sweeps


# ---------------------------------------------------------------------------
# greedy block merges

def merge_delta_S(state, r, s):
    """Log-posterior change of reassigning every node of block r to block s.

    Uses the collapsed form of S (sum of w log w minus block-degree
    entropies). A cell that only one of rows r and s fills (or columns r
    and s) keeps its w log w, so only the cells they share enter, with the
    2 x 2 {r, s} core and the four degrees.
    """
    xlogx = state.xlogx
    rows, cols = state.rows, state.cols
    dS = 0.0
    for a, b in ((rows[r], rows[s]), (cols[r], cols[s])):
        if len(a) > len(b):
            a, b = b, a
        for t, x in a.items():
            y = b.get(t)
            if y and t != r and t != s:
                dS += xlogx[x] + xlogx[y] - xlogx[x + y]
    core = (rows[r].get(r, 0), rows[r].get(s, 0),
            rows[s].get(r, 0), rows[s].get(s, 0))
    for w in core:
        dS += xlogx[w]
    dS -= xlogx[sum(core)]
    dor, dos = state.d_out[r], state.d_out[s]
    dir_, dis = state.d_in[r], state.d_in[s]
    for db in (dor, dos, dir_, dis):
        dS -= xlogx[db]
    return dS + xlogx[dor + dos] + xlogx[dir_ + dis]


def merge_candidates(cell, m, B, uniforms, xlogx):
    """Draw and score merge candidates for all B blocks in one numpy pass,
    given M's sorted nonzero cells (`block_cells`) and the graph's x log x
    gather (`Graph.xlogx`).

    uniforms has shape (B, P, 3): uniforms[r, p] draws block r's p-th
    candidate s with the nodal proposal rule on the block graph. With
    the first variate a neighbour block u is drawn from row r of M + M^T;
    then if the second is at most B / (d_u + B), s is the uniform block
    floor(third * B), else s is drawn from row u with the third. A block
    without edges takes u = r and d_u = 0, so it draws a uniform block.
    Returns the arrays (r, s, delta_S) over the candidates with s != r, in
    (r, p) order, where delta_S is `merge_delta_S` of merging r into s.
    """
    d_out, d_in = block_degrees(cell, m, B)
    d = d_out + d_in
    U = uniforms.reshape(-1, 3)
    r = np.repeat(np.arange(B), uniforms.shape[1])
    draw = _row_sampler(cell, m, B)
    u = r.copy()
    has = d[r] > 0
    u[has] = draw(r[has], d[r[has]], U[has, 0])
    s = np.minimum(np.floor(U[:, 2] * B), B - 1).astype(np.int64)
    via = U[:, 1] > B / (d[u] + B)
    s[via] = draw(u[via], d[u[via]], U[via, 2])
    keep = s != r
    r, s = r[keep], s[keep]

    # A candidate gathers the cells of row r, and of column r as row r of
    # M^T, whose sorted cells are the transposed keys; both read M through
    # one reader, M^T[s, t] as key t * B + s. Chunks of about _CHUNK_ENTRIES
    # gathered cells bound the pass's temporaries.
    get_m = _cell_reader(cell, m, B)
    tkey = cell % B * B + cell // B
    by_col = np.argsort(tkey)
    sides = [(keys, w, np.searchsorted(keys, np.arange(B + 1) * B), flip)
             for keys, w, flip in ((cell, m, False),
                                   (tkey[by_col], m[by_col], True))]
    dS = np.empty(len(r))
    for lo, hi in _chunks(sum(ptr[r + 1] - ptr[r] for _, _, ptr, _ in sides)):
        dS[lo:hi] = sum(_shared_cell_terms(*side, get_m, xlogx, r[lo:hi],
                                           s[lo:hi], B) for side in sides)
    core = np.stack([get_m(x * B + y)
                     for x, y in ((r, r), (r, s), (s, r), (s, s))])
    dS += xlogx(core).sum(axis=0) - xlogx(core.sum(axis=0))
    for dx in (d_out, d_in):
        dS += xlogx(dx[r] + dx[s]) - xlogx(dx[r]) - xlogx(dx[s])
    return r, s, dS


def _shared_cell_terms(keys, w, ptr, flip, get_m, xlogx, r, s, B):
    """Per pair, the sum over the cells (r, t) of `keys` (sorted, with
    weights w and row starts `ptr`) of
    x log x + y log y - (x + y) log(x + y),
    where x and y are the cells (r, t) and (s, t) (0 for t = r or s) of M,
    or of M^T if `flip`, read through M's lookup `get_m`: the w log w that
    rows r and s lose by summing into one."""
    pos, e = _gather(ptr[r], ptr[r + 1] - ptr[r])
    t = keys[e] % B
    x = w[e]
    sp = s[pos]
    y = np.where((t == r[pos]) | (t == sp), 0,
                 get_m(t * B + sp if flip else sp * B + t))
    terms = xlogx(x) + xlogx(y) - xlogx(x + y)
    return np.bincount(pos, weights=terms, minlength=len(r))


def merge_blocks(graph, partition, target_B, config, rng):
    """Greedily merge blocks down to target_B and relabel to [0, target_B).

    Each round groups the blocks merged so far, counts their M once,
    draws every group's candidates from the Generator `rng` and scores
    them in one numpy pass (`merge_candidates`), and each group's best
    enters a heap; a round that draws no candidate gives every group its
    cheapest partner, scored on the state, instead. The first round runs
    on the blocks themselves, and a new round runs whenever the heap runs
    dry. The merges are applied one at a time, cheapest first; a popped
    candidate is re-scored against the live state first, and goes back on
    the heap if earlier merges made it dearer than the next one, and a
    merge commits r into s as one node (`apply_move` of
    `block_edge_counts`). Returns the merged partition.
    """
    if target_B < 1:
        raise ValueError("target_B must be at least 1")
    partition = partition.compact()
    B = partition.num_blocks
    if target_B > B:
        raise ValueError(f"target_B={target_B} exceeds current B={B}")
    if target_B == B:
        return partition
    cells = block_cells(graph, partition.assignment, B)
    state = BlockModelState.from_cells(graph, B, *cells)

    P = config.merge_proposals_per_block
    heap = []
    parent = list(range(B))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = 0
    need = B - target_B
    while merged < need:
        if not heap:
            roots, group = np.unique([find(x) for x in range(B)],
                                     return_inverse=True)
            k = len(roots)
            if cells is None:  # the first round reuses the state's count
                cells = block_cells(graph, group[partition.assignment], k)
            r, s, dS = merge_candidates(*cells, k, rng.random((k, P, 3)),
                                        graph.xlogx)
            cells = None
            # each group's lowest (delta_S, s)
            order = np.lexsort((s, dS, r))
            best = order[np.flatnonzero(np.diff(r[order], prepend=-1))]
            heap = list(zip(dS[best].tolist(), roots[r[best]].tolist(),
                            roots[s[best]].tolist()))
            if not heap:
                # no draw reaches another group: give each its cheapest
                # partner, scored on the state
                roots = roots.tolist()
                heap = [min((merge_delta_S(state, r, s), r, s)
                            for s in roots if s != r) for r in roots]
            heapq.heapify(heap)
            continue
        dS, r, s = heapq.heappop(heap)
        if find(r) != r:
            continue
        s = find(s)
        if s == r:
            continue
        # lazy re-evaluation: earlier merges may have changed this move's cost
        dS_now = merge_delta_S(state, r, s)
        if heap and dS_now > heap[0][0] + 1e-12:
            heapq.heappush(heap, (dS_now, r, s))
            continue
        apply_move(state, r, s, block_edge_counts(state, r))
        parent[r] = s
        merged += 1

    roots = np.fromiter((find(x) for x in range(B)), dtype=np.int64, count=B)
    new_partition = Partition(roots[partition.assignment], B).compact()
    assert new_partition.num_blocks == target_B
    return new_partition


# ---------------------------------------------------------------------------
# golden-section search over B

def split_partition(graph, partition, target, rng):
    """Grow the block count to `target` by halving the largest block along
    its own edges, counting only nodes with edges: half of its nodes with
    edges move to a new block in breadth-first order, from a random one
    and again from the next random one when a walk runs out. A node with
    no edge never moves. Stops early once the largest block has fewer than
    two nodes with edges. A node is marked when it moves."""
    a = partition.assignment.copy()
    B = partition.num_blocks
    ptr, nbr = graph.ptr, graph.nbr
    linked = graph.degree > 0
    while B < target:
        big = int(np.argmax(np.bincount(a[linked], minlength=B)))
        starts = rng.permutation(np.flatnonzero((a == big) & linked)).tolist()
        half = len(starts) // 2
        if not half:
            break
        queue = deque()
        while half:
            i = queue.popleft() if queue else starts.pop()
            if a[i] == big:
                a[i] = B
                half -= 1
                queue.extend(nbr[ptr[i]:ptr[i + 1]].tolist())
        B += 1
    return Partition(a, B)


def golden_section_search(graph, config, initial_partition=None, trace=None):
    """Find the partition minimizing description length across block counts.

    The search walks one bracket (lo, mid, hi) from B0 blocks: one per
    node (cold), or the given partition (warm), relaxed by one probe at B0
    unless B0 = 1. In order, it
    - halves B (times merge_reduction_rate, at least 1) until H rises;
    - doubles above B0 (`split_partition`, then MCMC) until H stops
      falling, only if a warm start looks under-split: the first halving
      already rises, the halving reaches B = 1 without a rise, or B0 = 1;
    - takes golden-section steps on integer B strictly inside (lo, hi);
    - probes every B in [lo, hi];
    - polishes the best cached partition to full convergence.
    Each probe starts from the cached partition with the closest higher
    block count, or splits the largest one if none is higher.
    If `trace` is a list, one dict per MCMC probe is appended to it:
    phase (relax, halve, climb, golden or polish), target, start_B, B, H
    and sweeps. It never changes the result.
    Returns (best_partition, best_B, best_H).
    """
    N = graph.num_nodes
    if N == 0:
        raise ValueError("empty graph")
    merge_rng = np.random.default_rng([config.rng_seed, 0xB10C])
    split_rng = np.random.default_rng([config.rng_seed, 0x5B117])
    sweep_counter = [0]
    cache = {}  # probe target -> [H, assignment, actual_B]

    def probe(part, phase, target, cap=PROBE_SWEEPS):
        start_B = part.num_blocks
        part, H, sweeps = run_mcmc(graph, part, config,
                                   sweep_base=sweep_counter[0], sweep_cap=cap)
        sweep_counter[0] += sweeps
        if trace is not None:
            trace.append({"phase": phase, "target": target, "start_B": start_B,
                          "B": part.num_blocks, "H": H, "sweeps": sweeps})
        return part, H

    warm = initial_partition is not None
    part0 = initial_partition.compact() if warm else Partition.identity(N)
    B0 = part0.num_blocks
    if warm and B0 > 1:
        # a split warm start has had no MCMC yet: relax it before its H
        # bounds anything
        part0, H0 = probe(part0, "relax", B0)
    else:
        H0 = description_length(graph, part0)
    cache[B0] = [H0, part0.assignment, part0.num_blocks]

    def run_at(target, phase):
        if target in cache:
            return cache[target][0]
        above = [(v[2], k) for k, v in cache.items() if v[2] >= target]
        if above:
            _, start_key = min(above)
            part = Partition(cache[start_key][1].copy())
            if part.num_blocks > target:
                # target_B by keyword: perfbench's tracer reads it from there
                part = merge_blocks(graph, part, target_B=target,
                                    config=config, rng=merge_rng)
        else:
            _, start_key = max((v[2], k) for k, v in cache.items())
            part = split_partition(graph, Partition(cache[start_key][1]),
                                   target, split_rng)
        part, H = probe(part, phase, target)
        cache[target] = [H, part.assignment, part.num_blocks]
        return H

    # halve B until H turns upward; the bracket is (lo, mid, hi)
    rate = config.merge_reduction_rate
    lo = mid = hi = B0
    while mid > 1:
        lo = max(1, int(mid * rate))
        if run_at(lo, "halve") > cache[mid][0]:
            break
        hi, mid = mid, lo

    if warm and (lo == mid or mid == B0):
        # the start looks under-split: double above B0 until H turns upward
        lo, mid, hi = max(1, int(B0 * rate)), B0, B0
        while hi < N:
            hi = min(N, 2 * mid)
            if run_at(hi, "climb") >= cache[mid][0]:
                break
            lo, mid = mid, hi

    if lo < mid:
        # golden-section steps keep lo < mid <= hi; with hi - lo >= 3
        # every step lands strictly inside (lo, hi) and off mid
        while hi - lo > 2:
            if mid == hi:
                x = (lo + hi) // 2
            elif hi - mid >= mid - lo:
                x = mid + max(1, int(round((hi - mid) * (1.0 - INVPHI))))
            else:
                x = mid - max(1, int(round((mid - lo) * (1.0 - INVPHI))))
            if run_at(x, "golden") < cache[mid][0]:
                lo, mid, hi = (mid, x, hi) if x > mid else (lo, x, mid)
            elif x > mid:
                hi = x
            else:
                lo = x
        for bb in range(lo, hi + 1):
            run_at(bb, "golden")

    # polish the winner to full convergence (probes run on a sweep budget)
    best = min(cache.values(), key=lambda v: (v[0], v[2]))
    part, H = probe(Partition(best[1].copy()), "polish", best[2], cap=None)
    if H <= best[0]:
        return part, part.num_blocks, H
    return Partition(best[1]), best[2], best[0]


# ---------------------------------------------------------------------------
# warm starts for streaming

def warm_start(previous, graph_now):
    """Carry a previous partition onto a grown graph.

    The first len(previous) nodes keep their blocks; each new node, in id
    order, takes the block of its highest-weight already-assigned neighbor
    (lowest id wins ties), or a fresh singleton block if it has none.
    """
    n_prev = len(previous.assignment)
    N = graph_now.num_nodes
    if n_prev > N:
        raise ValueError("previous partition covers more nodes than the graph")
    a = np.full(N, -1, dtype=np.int64)
    a[:n_prev] = previous.assignment
    next_block = previous.num_blocks
    for i in range(n_prev, N):
        assigned = [(-(w_out + w_in), j) for j, w_out, w_in
                    in graph_now.neighbors(i) if j != i and a[j] >= 0]
        if assigned:
            a[i] = a[min(assigned)[1]]
        else:
            a[i] = next_block
            next_block += 1
    return Partition(a, next_block)
