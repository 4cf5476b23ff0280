"""Test-only oracles for the engine's move maths.

The window entropy recomputes the log-posterior change of one move from the
affected rows and columns of the states before and after it, in the
uncollapsed form, so it shares no arithmetic with the engine's collapsed
dS. The other helpers drive the engine's proposal and evaluation kernels
one node at a time from a numpy Generator.
"""
import math

from sbpart.engine import ProposalOutcome, _evaluate, _propose
from sbpart.graph import apply_delta


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
    return _propose(graph, partition.assignment, state, state.num_blocks,
                    i, u[0], u[1], u[2])


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
    outcome, commit = _evaluate(graph, partition.assignment, state,
                                state.num_blocks, config.beta, i,
                                u[0], u[1], u[2], u[3])
    if commit is not None:
        apply_delta(state, r, outcome.proposed_block, *commit)
        partition.assignment[i] = outcome.proposed_block
    return outcome


def snapshot_outcomes(graph, assignment, state, config, uniforms):
    """Evaluate every node against the frozen (assignment, state) snapshot,
    one `_evaluate` per node: the per-node oracle of the numpy snapshot
    sweep (`sbpart.engine.snapshot_proposals`)."""
    B = state.num_blocks
    out = []
    for i in range(graph.num_nodes):
        if graph.degree[i] == 0:
            continue
        o, _ = _evaluate(graph, assignment, state, B, config.beta, i,
                         uniforms[i, 0], uniforms[i, 1],
                         uniforms[i, 2], uniforms[i, 3])
        out.append(o)
    return out
