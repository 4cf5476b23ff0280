"""Block partition engine: MCMC nodal updates, greedy block merges, and a
golden-section search over the number of blocks minimizing description length.

The objective for merges and nodal moves is the log posterior
S = sum_{t1,t2} M[t1,t2] * log(M[t1,t2] / (d_out[t1] * d_in[t2]))
restricted to the affected rows/columns when evaluating a single move, which
is exact because a node move only touches rows and columns r and s.
All logarithms are natural.
"""
from __future__ import annotations

import heapq
import math
import os
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .graph import (
    BlockModelState,
    NodeTables,
    Partition,
    _bump,
    apply_delta,
    block_cells,
    move_delta,
    node_block_edge_counts,
    recompute_block_matrix,
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
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if not 0.0 < self.merge_reduction_rate < 1.0:
            raise ValueError("merge_reduction_rate must be in (0, 1)")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")
        if self.convergence_threshold <= 0:
            raise ValueError("convergence_threshold must be positive")
        if self.execution_mode not in ("sequential", "batch"):
            raise ValueError(f"unknown execution mode {self.execution_mode!r}")
        if not 1 <= self.workers <= (os.cpu_count() or 1):
            raise ValueError(f"workers must be between 1 and the CPU count "
                             f"({os.cpu_count() or 1}), got {self.workers}")


def _h(x):
    if x <= 0.0:
        return 0.0
    return (1.0 + x) * math.log(1.0 + x) - x * math.log(x)


def description_length(graph, partition):
    """Total description length H of the model plus the graph given the
    model, read from M's sorted cells: S = sum M log(M / (d_out d_in)) is
    sum m log m - sum d_out log d_out - sum d_in log d_in."""
    N, E, B = graph.num_nodes, graph.total_edge_weight, partition.num_blocks
    if B < 1:
        raise ValueError("partition has no blocks")
    if E == 0:
        return N * math.log(B) if B > 1 else 0.0
    cell, m, _ = block_cells(graph, partition.assignment, B)
    S = (_xlogx(m).sum() - _xlogx(np.bincount(cell // B, weights=m)).sum()
         - _xlogx(np.bincount(cell % B, weights=m)).sum())
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


def _propose(a, state, cache, B, j, u_coin, u_prop):
    """The block proposal for a node whose drawn neighbour is j: a uniform
    block, or the first block by id whose running weight in row a[j] of
    M + M^T exceeds floor(u_prop * d). `cache` holds each block's sorted
    row ids and running weights; a move must drop the rows it changes."""
    u = a[j]
    du = state.d[u]
    if u_coin <= B / (du + B):
        return min(int(u_prop * B), B - 1)
    row = cache.get(u)
    if row is None:
        comb = dict(state.rows[u])
        for t, w in state.cols[u].items():
            comb[t] = comb.get(t, 0) + w
        keys = sorted(comb)
        cum = list(accumulate(map(comb.__getitem__, keys)))
        row = cache[u] = keys, cum
    keys, cum = row
    return keys[min(bisect_right(cum, u_prop * du), len(keys) - 1)]


def _evaluate(tables, a, state, cache, B, beta, i, j,
              u_coin, u_prop, u_accept):
    """One proposal for node i, whose drawn neighbour is j, against the
    labelling `a` (a list), its state and the `_propose` row cache; no
    mutation.

    Returns (r, s, commit, (delta_S, p_forward, p_backward, p_accept)) for
    the move r -> s, where commit is the move_delta triple (delta, ki_out,
    ki_in) if the move was accepted, else None.
    """
    r = a[i]
    s = _propose(a, state, cache, B, j, u_coin, u_prop)
    if s == r:
        return r, s, None, (0.0, 0.0, 0.0, 0.0)
    counts = node_block_edge_counts(tables, a, i)
    delta, ki_out, ki_in = move_delta(counts, r, s)
    rows, cols = state.rows, state.cols
    d_out, d_in, d = state.d_out, state.d_in, state.d
    dor, dos = d_out[r], d_out[s]
    dir_, dis = d_in[r], d_in[s]
    dor_a, dos_a = dor - ki_out, dos + ki_out
    dir_a, dis_a = dir_ - ki_in, dis + ki_in
    # S collapses to sum(w log w) - sum(d_out log d_out) - sum(d_in log d_in)
    # over the whole matrix, so dS only involves changed cells and degrees
    xlogx = state.xlogx
    dS = 0.0
    for (t1, t2), dw in delta.items():
        if dw == 0:
            continue
        w_b = rows[t1].get(t2, 0)
        dS += xlogx[w_b]
        dS -= xlogx[w_b + dw]
    for db, da in ((dor, dor_a), (dos, dos_a), (dir_, dir_a), (dis, dis_a)):
        dS -= xlogx[db]
        dS += xlogx[da]

    # Hastings correction: the proposal probabilities of s before the move
    # and of r after it. Cells (t, r) and (r, t) lose the node's k edges
    # from and to t, unless t is r or s, where other updates meet them.
    dr_a = dor_a + dir_a
    ds_a = dos_a + dis_a
    pf = 0.0
    pb = 0.0
    row_r, col_r = rows[r], cols[r]
    row_s, col_s = rows[s], cols[s]
    for t, k in counts.combined.items():
        dt = d[t]
        pf += k * (col_s.get(t, 0) + row_s.get(t, 0) + 1) / (dt + B)
        if t == r or t == s:
            m_a = col_r.get(t, 0) + delta.get((t, r), 0) \
                + row_r.get(t, 0) + delta.get((r, t), 0)
            pb += k * (m_a + 1) / ((dr_a if t == r else ds_a) + B)
        else:
            pb += k * (col_r.get(t, 0) + row_r.get(t, 0) - k + 1) / (dt + B)
    if pf <= 0.0:
        # unreachable with the +1 smoothing whenever K is nonempty; guarded
        p_accept = 1.0 if dS < 0 else 0.0
    else:
        try:
            p_accept = min(math.exp(-beta * dS) * pb / pf, 1.0)
        except OverflowError:
            p_accept = 1.0
    commit = (delta, ki_out, ki_in) if u_accept <= p_accept else None
    return r, s, commit, (dS, pf, pb, p_accept)


# ---------------------------------------------------------------------------
# snapshot (one-iteration-old) sweep: every node in one numpy pass

# Moving nodes are evaluated in chunks of about this many neighbour-table
# entries, which bounds the pass's temporaries.
_CHUNK_ENTRIES = 2048
# M is read from a dense B * B vector up to this many cells (512 KB), and by
# binary search over its sorted cell keys above, so that memory stays
# O(E + nnz M) at large B.
_DENSE_CELLS = 65536


def _xlogx(x):
    x = x.astype(np.float64)
    return x * np.log(np.where(x > 0, x, 1.0))


def _search(keys, values, query):
    """values at `query` in the sorted `keys`, 0 where a key is absent."""
    if not len(keys):
        return np.zeros(len(query), dtype=values.dtype)
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return np.where(keys[pos] == query, values[pos], 0)


def _cell_reader(cell, m, B):
    """M at an array of cell keys r * B + s, given M's sorted nonzero cells
    (`block_cells`): read from a dense vector up to _DENSE_CELLS cells, by
    binary search over the keys above."""
    if B * B <= _DENSE_CELLS:
        dense = np.zeros(B * B, dtype=np.int64)
        dense[cell] = m
        return dense.__getitem__
    return lambda q: _search(cell, m, q)


def _row_sampler(cell, m, B):
    """A draw from rows of M + M^T, given M's sorted nonzero cells.

    draw(rows, d, u) picks, for each row r of `rows` with total weight
    d > 0 and variate u, the first block t (by id) whose running weight in
    row r exceeds floor(u * d).
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


def snapshot_proposals(graph, assignment, B, beta, uniforms):
    """Evaluate one proposal per node against the frozen labelling
    `assignment` over B blocks, all nodes in one numpy pass.

    Node i draws its proposal from uniforms[i] with the sequential sweep's
    rule and is scored with the same dS and Hastings correction, against
    M as it stands before any move. Nodes without edges and nodes whose
    proposal is their own block are dropped. Returns the arrays (nodes,
    proposed, accepted, delta_S, p_accept) over the remaining nodes.
    """
    b = assignment
    cell, m, _ = block_cells(graph, b, B)
    d_out = np.bincount(cell // B, weights=m, minlength=B).astype(np.int64)
    d_in = np.bincount(cell % B, weights=m, minlength=B).astype(np.int64)
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
    ptr = graph.ptr
    size = ptr[nodes + 1] - ptr[nodes]
    cuts = np.flatnonzero(np.diff((np.cumsum(size) - 1) // _CHUNK_ENTRIES)) + 1
    bounds = np.unique(np.r_[0, cuts, len(nodes)])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        dS[lo:hi], pf[lo:hi], pb[lo:hi] = _score_moves(
            graph, b, B, nodes[lo:hi], r[lo:hi], s[lo:hi], size[lo:hi],
            get_m, d_out, d_in, d)
    with np.errstate(over="ignore"):
        p_accept = np.minimum(np.exp(-beta * dS) * pb / pf, 1.0)
    return nodes, s, u_accept <= p_accept, dS, p_accept


def _score_moves(graph, b, B, nodes, r, s, size, get_m, d_out, d_in, d):
    """dS, p_forward and p_backward of moving each node r -> s, each summed
    term by term in the order `_evaluate` sums it."""
    n, m = len(nodes), int(size.sum())
    pos = np.repeat(np.arange(n), size)
    q = np.arange(m) - np.repeat(np.cumsum(size) - size, size)
    e = graph.ptr[nodes][pos] + q
    j = graph.nbr[e]
    t = b[j]
    wo, wi = graph.w_out[e], graph.w_in[e]
    loop = j == nodes[pos]

    # the node's neighbour blocks t, each with k_t, its edge weight to t,
    # and the cells (r, t), (s, t), (t, r) and (t, s) of M
    order, start = runs(pos * B + t)
    new_run = np.zeros(m, dtype=np.int64)
    new_run[start[1:]] = 1
    group = np.empty(m, dtype=np.int64)
    group[order] = np.cumsum(new_run)
    k_to = np.add.reduceat(wo[order], start)
    k_from = np.add.reduceat(wi[order], start)
    k = k_to + k_from
    gp, gt = pos[order[start]], t[order[start]]
    gr, gs = r[gp], s[gp]
    G = len(start)
    lp = np.flatnonzero(loop)
    # M before the move at each group's four cells, then at (s, s) for
    # each self-loop
    before = get_m(np.concatenate((gr * B + gt, gs * B + gt, gt * B + gr,
                                   gt * B + gs, s[pos[lp]] * (B + 1))))
    m_rt, m_st, m_tr, m_ts = (before[x * G:(x + 1) * G] for x in range(4))
    by_reach = np.argsort(order[start])   # the order the row reaches them

    # The change to M, as the cell updates of move_delta in the order it
    # makes them: (r, t), then (s, t), over the out-entries (a row's
    # prefix); (s, s) for a self-loop; (t, r), then (t, s), over the
    # in-entries by neighbour id. A self-loop's weight only leaves (r, r)
    # for (s, s), so its other updates add 0. Each cell of a node has one
    # id in [0, 4B): by column in row r, then row s, else by row in column
    # r, then column s.
    oi, ii = np.flatnonzero(wo), np.flatnonzero(wi)
    po, pi, pl = pos[oi], pos[ii], pos[lp]
    n_out = np.bincount(po, minlength=n)
    n_in = np.bincount(pi, minlength=n)
    width = 2 * n_out + 1 + 2 * n_in
    base = np.cumsum(width) - width
    qi = np.empty(len(ii), dtype=np.int64)
    qi[np.argsort(pi * graph.num_nodes + j[ii])] = \
        np.arange(len(ii)) - np.repeat(np.cumsum(n_in) - n_in, n_in)
    s_in = base[pi] + 2 * n_out[pi] + 1 + qi
    slot = np.concatenate((base[po] + q[oi], base[po] + n_out[po] + q[oi],
                           base[pl] + 2 * n_out[pl], s_in, s_in + n_in[pi]))
    ri, si, ti = r[pi], s[pi], t[ii]
    in_r, in_s = ti == ri, ti == si
    cid = np.concatenate((
        t[oi], B + t[oi], B + s[pl],
        np.where(in_r, ri, np.where(in_s, B + ri, 2 * B + ti)),
        np.where(in_r, si, np.where(in_s, B + si, 3 * B + ti))))
    key = np.concatenate((po, po, pl, pi, pi)) * (4 * B) + cid
    # where each update's cell value sits in `before`
    at = np.concatenate((group[oi], G + group[oi], 4 * G + np.arange(len(lp)),
                         2 * G + group[ii], 3 * G + group[ii]))
    wo_, wi_ = np.where(loop[oi], 0, wo[oi]), np.where(loop[ii], 0, wi[ii])
    dw = np.concatenate((-wo[oi], wo_, wo[lp], -wi_, wi_))
    by_slot = np.full(base[-1] + width[-1], -1)
    by_slot[slot] = np.arange(len(slot))
    by_slot = by_slot[by_slot >= 0]
    key, at, dw = key[by_slot], at[by_slot], dw[by_slot]
    order, start = runs(key)
    delta = np.add.reduceat(dw[order], start)
    first = order[start]
    key = key[first]
    seq = np.argsort(first)
    seq = seq[delta[seq] != 0]
    w_b = before[at[first[seq]]]
    k_out = np.bincount(po, weights=wo[oi], minlength=n).astype(np.int64)
    k_in = np.bincount(pi, weights=wi[ii], minlength=n).astype(np.int64)
    dor, dos, dir_, dis = d_out[r], d_out[s], d_in[r], d_in[s]
    degrees = np.column_stack((dor, dor - k_out, dos, dos + k_out,
                               dir_, dir_ - k_in, dis, dis + k_in))
    terms = _xlogx(np.concatenate((
        np.column_stack((w_b, w_b + delta[seq])).ravel(), degrees.ravel())))
    terms[1:2 * len(seq):2] *= -1   # w log w after the move
    terms[2 * len(seq)::2] *= -1    # degree entropies before it
    dS = np.bincount(np.concatenate((np.repeat(key[seq] // (4 * B), 2),
                                     np.repeat(np.arange(n), 8))),
                     weights=terms, minlength=n)

    # Hastings correction: the proposal probabilities of s before the move
    # and of r after it. Cells (t, r) and (r, t) lose the node's edges from
    # and to t, unless t is r or s, where other updates meet them.
    pf = k * (m_ts + m_st + 1) / (d[gt] + B)
    kk = (k_out + k_in)[gp]
    dt_a = np.where(gt == gr, d[gr] - kk,
                    np.where(gt == gs, d[gs] + kk, d[gt]))
    d_tr, d_rt = -k_from, -k_to
    sp = np.flatnonzero((gt == gr) | (gt == gs))
    row = gp[sp] * (4 * B)
    d_tr[sp], d_rt[sp] = _search(key, delta, np.concatenate((
        row + np.where(gt[sp] == gr[sp], gr[sp], B + gr[sp]),
        row + gt[sp]))).reshape(2, -1)
    pb = k * (m_tr + d_tr + m_rt + d_rt + 1) / (dt_a + B)
    gp = gp[by_reach]
    return (dS, np.bincount(gp, weights=pf[by_reach], minlength=n),
            np.bincount(gp, weights=pb[by_reach], minlength=n))


def mcmc_sweep(graph, partition, state, config, sweep_index=0, tables=None):
    """One full pass of nodal updates, in one of two sweeps.

    sequential: nodes visited in random order against the live dict state
    of M; each accepted move updates it in place. It reads the graph from
    `tables` (the probe's NodeTables, built here if not given), with every
    node's neighbour drawn up front (the draw reads no state).
    batch: every node is evaluated against the frozen sweep-start labelling
    in one numpy pass (`snapshot_proposals`); the accepted moves are
    applied at a barrier. It reads no state and returns None for it.
    Both replay the same counter-based draws for a given sweep_index.
    Returns (partition, state, H_after, num_accepted).
    """
    N = graph.num_nodes
    U = _sweep_uniforms(config.rng_seed, sweep_index, N)
    b = partition.assignment
    if config.execution_mode == "sequential":
        if tables is None:
            tables = NodeTables(graph)
        B = state.num_blocks
        beta = config.beta
        order = _sweep_permutation(config.rng_seed, sweep_index, N)
        order = order[graph.degree[order] > 0]
        drawn = graph.draw_neighbors(order, U[order, 0])
        a = b.tolist()
        cache = {}
        accepted = 0
        for i, j, (_, u_coin, u_prop, u_accept) in zip(
                order.tolist(), drawn.tolist(), U[order].tolist()):
            r, s, commit, _ = _evaluate(tables, a, state, cache, B, beta, i,
                                        j, u_coin, u_prop, u_accept)
            if commit is not None:
                apply_delta(state, r, s, *commit)
                # every row of M + M^T with a changed cell
                for t1, t2 in commit[0]:
                    cache.pop(t1, None)
                    cache.pop(t2, None)
                a[i] = s
                b[i] = s
                accepted += 1
        return (partition, state, description_length(graph, partition),
                accepted)
    nodes, proposed, accepted, _, _ = snapshot_proposals(
        graph, b, partition.num_blocks, config.beta, U)
    b[nodes[accepted]] = proposed[accepted]
    return (partition, None, description_length(graph, partition),
            int(np.count_nonzero(accepted)))


def run_mcmc(graph, partition, config, sweep_base=0, sweep_cap=None):
    """Sweep until the windowed relative improvement in H drops below the
    convergence threshold, or the sweep budget is hit. The sequential sweep
    edits a dict state of M and reads the graph's NodeTables, both built
    here and dropped on return; the batch sweep needs neither.
    Returns (partition relabelled to its used blocks, H, sweeps)."""
    cap = config.max_sweeps if sweep_cap is None \
        else min(sweep_cap, config.max_sweeps)
    state = tables = None
    if config.execution_mode == "sequential":
        state = recompute_block_matrix(graph, partition)
        tables = NodeTables(graph)
    H = description_length(graph, partition)
    window = deque(maxlen=CONVERGENCE_WINDOW)
    sweeps = 0
    for t in range(cap):
        partition, state, H_new, _ = mcmc_sweep(
            graph, partition, state, config, sweep_index=sweep_base + t,
            tables=tables)
        sweeps += 1
        window.append(abs(H - H_new) / max(abs(H_new), 1e-12))
        H = H_new
        if len(window) == window.maxlen and \
                sum(window) / len(window) < config.convergence_threshold:
            break
    compacted = partition.compact()
    if compacted.num_blocks != partition.num_blocks:
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


def _merge_into(state, r, s):
    """Fold block r into block s on the live state (row/col r become empty)."""
    rows, cols = state.rows, state.cols
    row_r = rows[r]
    col_r = cols[r]
    rows[r] = {}
    cols[r] = {}
    for t in row_r:
        if t != r:
            del cols[t][r]
    for t in col_r:
        if t != r:
            del rows[t][r]
    for t, w in row_r.items():
        tt = s if t == r else t
        _bump(rows[s], tt, w)
        _bump(cols[tt], s, w)
    for t, w in col_r.items():
        if t == r:
            continue
        _bump(rows[t], s, w)
        _bump(cols[s], t, w)
    state.d_out[s] += state.d_out[r]
    state.d_in[s] += state.d_in[r]
    state.d[s] += state.d[r]
    state.d_out[r] = 0
    state.d_in[r] = 0
    state.d[r] = 0


def merge_candidates(cell, m, B, uniforms):
    """Draw and score merge candidates for all B blocks in one numpy pass,
    given M's sorted nonzero cells (`block_cells`).

    uniforms has shape (B, P, 3): uniforms[r, p] draws block r's p-th
    candidate s with the nodal proposal rule on the block graph. With
    the first variate a neighbour block u is drawn from row r of M + M^T;
    then if the second is at most B / (d_u + B), s is the uniform block
    floor(third * B), else s is drawn from row u with the third. A block
    without edges takes u = r and d_u = 0, so it draws a uniform block.
    Returns the arrays (r, s, delta_S) over the candidates with s != r, in
    (r, p) order, where delta_S is `merge_delta_S` of merging r into s.
    """
    d_out = np.bincount(cell // B, weights=m, minlength=B).astype(np.int64)
    d_in = np.bincount(cell % B, weights=m, minlength=B).astype(np.int64)
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
    # M^T, whose sorted cells are the transposed keys. Chunks of about
    # _CHUNK_ENTRIES gathered cells bound the pass's temporaries.
    tkey = cell % B * B + cell // B
    by_col = np.argsort(tkey)
    sides = [(keys, w, _cell_reader(keys, w, B),
              np.searchsorted(keys, np.arange(B + 1) * B))
             for keys, w in ((cell, m), (tkey[by_col], m[by_col]))]
    size = sum(ptr[r + 1] - ptr[r] for *_, ptr in sides)
    cuts = np.flatnonzero(np.diff((np.cumsum(size) - 1) // _CHUNK_ENTRIES)) + 1
    bounds = np.unique(np.r_[0, cuts, len(r)])
    dS = np.empty(len(r))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        dS[lo:hi] = sum(_shared_cell_terms(*side, r[lo:hi], s[lo:hi], B)
                        for side in sides)
    _, _, get_m, _ = sides[0]   # M's own lookup
    core = np.stack([get_m(x * B + y)
                     for x, y in ((r, r), (r, s), (s, r), (s, s))])
    dS += _xlogx(core).sum(axis=0) - _xlogx(core.sum(axis=0))
    for dx in (d_out, d_in):
        dS += _xlogx(dx[r] + dx[s]) - _xlogx(dx[r]) - _xlogx(dx[s])
    return r, s, dS


def _shared_cell_terms(keys, w, get, ptr, r, s, B):
    """Per pair, the sum over the cells (r, t) of `keys` (sorted, with
    weights w, lookup `get` and row starts `ptr`) of
    x log x + y log y - (x + y) log(x + y),
    where x = M[r, t] and y = M[s, t] (0 for t = r or s): the w log w that
    rows r and s lose by summing into one."""
    size = ptr[r + 1] - ptr[r]
    pos = np.repeat(np.arange(len(r)), size)
    e = np.repeat(ptr[r] - (np.cumsum(size) - size), size) \
        + np.arange(int(size.sum()))
    t = keys[e] % B
    x = w[e]
    y = np.where((t == r[pos]) | (t == s[pos]), 0, get(s[pos] * B + t))
    terms = _xlogx(x) + _xlogx(y) - _xlogx(x + y)
    return np.bincount(pos, weights=terms, minlength=len(r))


def _best_merges(cell, m, B, proposals, rng):
    """(delta_S, r, s) of the lowest (delta_S, s) among each block r's
    `proposals` candidates, over the blocks with a candidate."""
    r, s, dS = merge_candidates(cell, m, B, rng.random((B, proposals, 3)))
    order = np.lexsort((s, dS, r))
    best = order[np.flatnonzero(np.diff(r[order], prepend=-1))]
    return list(zip(dS[best].tolist(), r[best].tolist(), s[best].tolist()))


def merge_blocks(graph, partition, target_B, config, rng=None):
    """Greedily merge blocks down to target_B and relabel to [0, target_B).

    Every block's candidates are drawn and scored in one numpy pass
    (`merge_candidates`), and each block's best enters a heap. The merges
    are applied one at a time, cheapest first; a popped candidate is
    re-scored against the live state first, and goes back on the heap if
    earlier merges made it dearer than the next one. When the heap runs
    dry, the pass runs again on the current groups; after 100 passes
    without a candidate, every group's cheapest partner is scored directly.
    Returns the merged partition.
    """
    if target_B < 1:
        raise ValueError("target_B must be at least 1")
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    partition = partition.compact()
    B = partition.num_blocks
    if target_B > B:
        raise ValueError(f"target_B={target_B} exceeds current B={B}")
    if target_B == B:
        return partition
    cell, m, first = block_cells(graph, partition.assignment, B)
    state = BlockModelState.from_cells(B, cell, m, first)

    P = config.merge_proposals_per_block
    heap = _best_merges(cell, m, B, P, rng)
    heapq.heapify(heap)
    parent = list(range(B))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = 0
    need = B - target_B
    empty_refills = 0
    while merged < need:
        if not heap:
            roots, group = np.unique([find(x) for x in range(B)],
                                     return_inverse=True)
            cell, m, _ = block_cells(graph, group[partition.assignment],
                                     len(roots))
            heap = [(dS, int(roots[r]), int(roots[s])) for dS, r, s
                    in _best_merges(cell, m, len(roots), P, rng)]
            if not heap:
                empty_refills += 1
                if empty_refills > 100:
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
        _merge_into(state, r, s)
        parent[r] = s
        merged += 1

    roots = np.fromiter((find(x) for x in range(B)), dtype=np.int64, count=B)
    new_partition = Partition(roots[partition.assignment], B).compact()
    assert new_partition.num_blocks == target_B
    return new_partition


# ---------------------------------------------------------------------------
# golden-section search over B

def _split_to(partition, target, rng):
    """Grow the block count to `target` by random halvings of the largest
    block (stops early if every block is a singleton)."""
    a = partition.assignment.copy()
    B = partition.num_blocks
    while B < target:
        sizes = np.bincount(a, minlength=B)
        big = int(np.argmax(sizes))
        idx = np.nonzero(a == big)[0]
        if len(idx) < 2:
            break
        pick = rng.random(len(idx)) < 0.5
        if not pick.any() or pick.all():
            pick[:] = False
            pick[:len(idx) // 2] = True
        a[idx[pick]] = B
        B += 1
    return Partition(a, B)


def golden_section_search(graph, config, initial_partition=None, trace=None):
    """Find the partition minimizing description length across block counts.

    A cold search starts from one block per node, halves B via merge phases
    until a 3-point bracket around the minimum appears, then narrows with
    golden-section steps on integer B. Each probe warm-starts from the
    cached partition with the closest higher block count.
    A warm search (a given initial partition, B0 blocks) first relaxes the
    start with one probe at B0, unless B0 = 1, and halves from there the
    same way. It climbs above B0 by doubling (random block splits + MCMC)
    until H turns upward only when the start looks under-split: the first
    halving step already rises, the halving reaches B = 1 without an
    upturn, or B0 = 1. The climb then brackets (lo, peak, first rise).
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
            part = _split_to(Partition(cache[start_key][1].copy()),
                             target, split_rng)
        part, H = probe(part, phase, target)
        cache[target] = [H, part.assignment, part.num_blocks]
        return H

    # bracket phase: halve B until H turns upward
    cur = B0
    probes = [cur]
    bracket = None
    while cur > 1:
        nxt = int(cur * config.merge_reduction_rate)
        if nxt >= cur:
            nxt = cur - 1
        if nxt < 1:
            nxt = 1
        run_at(nxt, "halve")
        probes.append(nxt)
        if cache[probes[-1]][0] > cache[probes[-2]][0]:
            hi = probes[-3] if len(probes) >= 3 else probes[-2]
            bracket = (probes[-1], probes[-2], hi)
            break
        cur = nxt

    if warm and (bracket is None or len(probes) == 2):
        # the start looks under-split: double above B0 until H turns upward
        lo, mid, hi = (probes[1] if len(probes) > 1 else B0), B0, B0
        while hi < N:
            hi = min(N, 2 * mid)
            if run_at(hi, "climb") >= cache[mid][0]:
                break
            lo, mid = mid, hi
        bracket = (lo, mid, hi)

    if bracket is not None:
        lo, mid, hi = bracket
        while hi - lo > 2:
            if mid == hi or mid == lo:
                x = (lo + hi) // 2
            elif (hi - mid) >= (mid - lo):
                x = mid + max(1, int(round((hi - mid) * (1.0 - INVPHI))))
            else:
                x = mid - max(1, int(round((mid - lo) * (1.0 - INVPHI))))
            x = min(max(x, lo + 1), hi - 1)
            if x == mid:
                x = x + 1 if (hi - mid) >= (mid - lo) else x - 1
                if x <= lo or x >= hi:
                    break
            Hx = run_at(x, "golden")
            if Hx < cache[mid][0]:
                if x > mid:
                    lo, mid = mid, x
                else:
                    hi, mid = mid, x
            else:
                if x > mid:
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


def split_partition(partition, rng, factor=2):
    """Randomly split each block into up to `factor` parts.

    Gives a streaming restart headroom to probe block counts above the
    previous stage's optimum (merges can only reduce B).
    """
    sub = rng.integers(0, factor, size=len(partition.assignment))
    return Partition(partition.assignment * factor + sub).compact()
