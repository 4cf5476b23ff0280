"""Test-only oracles for the engine's move maths.

`entropy_sum` and `description_length` walk the dict state one entry at a
time: the H oracle of `sbpart.engine.description_length`, which reads M's
sorted cells in one numpy expression. The window entropy recomputes the log-posterior change of one move from the
affected rows and columns of the states before and after it, in the
uncollapsed form, so it shares no arithmetic with the engine's collapsed
dS. The nodal helpers drive the engine's proposal and evaluation kernels
one node at a time from a numpy Generator, and report each proposal as a
`ProposalOutcome`. The merge helpers draw and score one merge candidate at
a time from the dict state: the oracles of the numpy candidate pass
(`sbpart.engine.merge_candidates`). `copy_state`, `to_dense` and
`copy_partition` copy and densify the engine's types for the tests.
"""
import math
from dataclasses import dataclass

import numpy as np

from sbpart.engine import _evaluate, _propose
from sbpart.graph import BlockModelState, NodeTables, Partition, apply_move


@dataclass
class ProposalOutcome:
    node: int
    current_block: int
    proposed_block: int
    delta_S: float
    p_forward: float
    p_backward: float
    p_accept: float
    accepted: bool


def copy_state(state):
    """An independent copy of a dict state."""
    return BlockModelState([dict(r) for r in state.rows],
                           [dict(c) for c in state.cols],
                           state.d_out.copy(), state.d_in.copy(), state.ids,
                           state.xlogx)


def to_dense(state):
    """M of a dict state as a dense B x B int64 matrix."""
    B = len(state.rows)
    m = np.zeros((B, B), dtype=np.int64)
    for r, row in enumerate(state.rows):
        for s, w in row.items():
            m[r, s] = w
    return m


def copy_partition(partition):
    return Partition(partition.assignment.copy(), partition.num_blocks)


def entropy_sum(state):
    """S = sum M log(M / (d_out d_in)) over all nonzero entries of M."""
    tot = 0.0
    for r, row in enumerate(state.rows):
        for t, w in row.items():
            if w > 0:
                tot += w * math.log(w / (state.d_out[r] * state.d_in[t]))
    return tot


def description_length(state, num_nodes, total_edge_weight):
    """H = E h(B^2 / E) + N log B - S of the dict state, where
    h(x) = (1 + x) log(1 + x) - x log x."""
    B, E = len(state.rows), total_edge_weight
    if E == 0:
        return num_nodes * math.log(B) if B > 1 else 0.0
    x = B * B / E
    return (E * ((1 + x) * math.log(1 + x) - x * math.log(x))
            + num_nodes * math.log(B) - entropy_sum(state))


def _outcome(tables, a, state, beta, i, s, u_accept):
    """Node i's proposal s, scored by `_evaluate` unless s is its own
    block; returns the outcome and the commit (None if not accepted)."""
    r = a[i]
    if s == r:
        return ProposalOutcome(i, r, r, 0.0, 0.0, 0.0, 0.0, False), None
    commit, (dS, pf, pb, p_accept) = _evaluate(
        tables, a, state, len(state.rows), beta, i, s, u_accept)
    return (ProposalOutcome(i, r, s, dS, pf, pb, p_accept,
                            commit is not None), commit)


def _window_entropy(row_r, row_s, col_r, col_s, r, s,
                    dor, dos, dir_, dis, d_out, d_in):
    """Entropy restricted to rows r, s and columns r, s (each entry once)."""
    log = math.log
    tot = 0.0
    for row, do in ((row_r, dor), (row_s, dos)):
        if do > 0:
            for t, w in row.items():
                if w > 0:
                    dt = dir_ if t == r else dis if t == s else d_in[t]
                    tot += w * log(w / (do * dt))
    for col, di in ((col_r, dir_), (col_s, dis)):
        if di > 0:
            for t, w in col.items():
                if t != r and t != s and w > 0:
                    tot += w * log(w / (d_out[t] * di))
    return tot


def _state_window_entropy(state, r, s):
    return _window_entropy(state.rows[r], state.rows[s],
                           state.cols[r], state.cols[s], r, s,
                           state.d_out[r], state.d_out[s],
                           state.d_in[r], state.d_in[s],
                           state.d_out, state.d_in)


def delta_log_posterior(before, after, r, s):
    """Change in log posterior for one move r -> s, from the affected
    rows/columns of the two states. Equals the full entropy difference."""
    return _state_window_entropy(before, r, s) - _state_window_entropy(after, r, s)


def propose_block(i, partition, state, graph, rng):
    """Draw a block proposal for node i per the nodal-update proposal rule."""
    u = rng.random(3)
    return _propose(partition.assignment.tolist(), state, len(state.rows),
                    draw_neighbor(graph, i, u[0]), u[1], u[2])


def draw_neighbor(graph, i, u):
    """`Graph.draw_neighbors` for one node."""
    return int(graph.draw_neighbors(np.array([i]), np.array([u]))[0])


def hastings_correction(i, counts, state_before, state_after, r, s, B):
    """Forward/backward proposal probabilities for the move r -> s of node i."""
    pf = 0.0
    pb = 0.0
    rows_b, cols_b = state_before.rows, state_before.cols
    rows_a, cols_a = state_after.rows, state_after.cols
    for t, k in counts.combined.items():
        pf += k * (cols_b[s].get(t, 0) + rows_b[s].get(t, 0) + 1) \
            / (int(state_before.d[t]) + B)
        pb += k * (cols_a[r].get(t, 0) + rows_a[r].get(t, 0) + 1) \
            / (int(state_after.d[t]) + B)
    return pf, pb


def nodal_update(i, partition, state, graph, config, rng):
    """Metropolis-Hastings update of node i's block assignment (in place)."""
    r = int(partition.assignment[i])
    if graph.degree[i] == 0:
        return ProposalOutcome(i, r, r, 0.0, 0.0, 0.0, 0.0, False)
    u = rng.random(4)
    a = partition.assignment.tolist()
    s = _propose(a, state, len(state.rows), draw_neighbor(graph, i, u[0]),
                 u[1], u[2])
    outcome, commit = _outcome(NodeTables(graph), a, state, config.beta, i,
                               s, u[3])
    if commit is not None:
        apply_move(state, r, outcome.proposed_block, commit)
        partition.assignment[i] = outcome.proposed_block
    return outcome


def snapshot_outcomes(graph, assignment, state, config, uniforms):
    """Evaluate every node against the frozen (assignment, state) snapshot,
    one `_evaluate` per node: the per-node oracle of the numpy snapshot
    sweep (`sbpart.engine.snapshot_proposals`). Each proposal is drawn with
    the numpy pass's by-id rule (`_propose_by_id`)."""
    B = len(state.rows)
    tables, a = NodeTables(graph), assignment.tolist()
    out = []
    for i in range(graph.num_nodes):
        if graph.degree[i] == 0:
            continue
        _, u_coin, u_prop, u_accept = uniforms[i].tolist()
        s = _propose_by_id(state, a[draw_neighbor(graph, i, uniforms[i, 0])],
                           B, u_coin, u_prop)
        out.append(_outcome(tables, a, state, config.beta, i, s,
                            u_accept)[0])
    return out


def _draw_from_row(state, u, x):
    """The first block t by id whose running weight in row u of M + M^T
    exceeds x * d_u."""
    comb = dict(state.rows[u])
    for t, w in state.cols[u].items():
        comb[t] = comb.get(t, 0) + w
    thresh = x * int(state.d[u])
    c = 0
    t = u
    for t in sorted(comb):
        c += comb[t]
        if c > thresh:
            break
    return t


def propose_merge_target(state, r, B, u_nbr, u_coin, u_prop):
    """One merge candidate for block r from three uniforms: a neighbour
    block u of r (r itself when r has no edges), then a uniform block with
    probability B / (d_u + B), else a block drawn from row u."""
    u = _draw_from_row(state, r, u_nbr) if state.d[r] else r
    return _propose_by_id(state, u, B, u_coin, u_prop)


def _propose_by_id(state, u, B, u_coin, u_prop):
    """A uniform block with probability B / (d_u + B), else a block drawn
    from row u of M + M^T by id (`_draw_from_row`): the numpy passes'
    proposal rule from neighbour block u."""
    if u_coin <= B / (int(state.d[u]) + B):
        return min(int(u_prop * B), B - 1)
    return _draw_from_row(state, u, u_prop)


def _merge_window_after(state, r, s):
    """Rows/cols of the window after merging block r into block s."""
    row_s_a, col_s_a = {}, {}
    for src in (state.rows[s], state.rows[r]):
        for t, w in src.items():
            tt = s if t == r else t
            row_s_a[tt] = row_s_a.get(tt, 0) + w
    for src in (state.cols[s], state.cols[r]):
        for t, w in src.items():
            tt = s if t == r else t
            col_s_a[tt] = col_s_a.get(tt, 0) + w
    return row_s_a, col_s_a


def merge_delta_S(state, r, s):
    """Log-posterior change of reassigning every node of block r to block s.

    Uses the collapsed form of S (sum of w log w minus block-degree
    entropies), so only the changed cells of rows/cols r and s enter.
    """
    rows, cols = state.rows, state.cols
    dS = 0.0
    for w in rows[r].values():
        dS += w * math.log(w)
    for w in rows[s].values():
        dS += w * math.log(w)
    for t, w in cols[r].items():
        if t != r and t != s:
            dS += w * math.log(w)
    for t, w in cols[s].items():
        if t != r and t != s:
            dS += w * math.log(w)
    row_s_a, col_s_a = _merge_window_after(state, r, s)
    for w in row_s_a.values():
        dS -= w * math.log(w)
    for t, w in col_s_a.items():
        if t != r and t != s:
            dS -= w * math.log(w)
    dor, dos = int(state.d_out[r]), int(state.d_out[s])
    dir_, dis = int(state.d_in[r]), int(state.d_in[s])
    for db in (dor, dos, dir_, dis):
        if db:
            dS -= db * math.log(db)
    if dor + dos:
        dS += (dor + dos) * math.log(dor + dos)
    if dir_ + dis:
        dS += (dir_ + dis) * math.log(dir_ + dis)
    return dS
