"""Matrix-form snapshot sweep: the independent reference that the numpy
snapshot sweep (`sbpart.engine.snapshot_proposals`) is checked against.

It evaluates every node against one frozen state using dense block-matrix
rows and the node-to-block counts A.Gamma and A^T.Gamma, so it shares no
counting or delta code with the engine. It holds dense N x B arrays and is
meant for small test graphs only.
"""
import math

import numpy as np

from engine_reference import to_dense


def batch_outcomes(graph, assignment, state, config, uniforms):
    """Vectorized snapshot evaluation of all nodes in matrix form.

    Proposals use matrix products M = Gamma^T A Gamma, dM_row = A Gamma and
    dM_col = A^T Gamma; per-proposal edge counts are restricted to the two
    affected rows/columns. Returns arrays keyed per node.
    """
    from scipy.sparse import csr_matrix

    N = graph.num_nodes
    B = len(state.rows)
    beta = config.beta
    b = assignment
    M = to_dense(state)
    d_out = np.asarray(state.d_out)
    d_in = np.asarray(state.d_in)
    d = np.asarray(state.d)
    edges = np.array(graph.edge_list(), dtype=np.int64).reshape(-1, 3)
    A = csr_matrix((edges[:, 2], (edges[:, 0], edges[:, 1])), shape=(N, N),
                   dtype=np.int64)
    gamma = csr_matrix((np.ones(N, dtype=np.int64), (np.arange(N), b)),
                       shape=(N, B))
    K_out = np.asarray((A @ gamma).todense(), dtype=np.int64)
    K_in = np.asarray((A.T @ gamma).todense(), dtype=np.int64)
    selfw = A.diagonal()
    comb_cum = np.cumsum(M + M.T, axis=1)

    proposal = np.full(N, -1, dtype=np.int64)
    dS = np.zeros(N)
    p_fwd = np.zeros(N)
    p_bwd = np.zeros(N)
    p_acc = np.zeros(N)
    accept = np.zeros(N, dtype=bool)
    evaluated = np.zeros(N, dtype=bool)

    for i in range(N):
        if graph.degree[i] == 0:
            continue
        r = int(b[i])
        j = int(graph.draw_neighbors(np.array([i]), uniforms[i:i + 1, 0])[0])
        u_blk = int(b[j])
        du = int(d[u_blk])
        if uniforms[i, 1] <= B / (du + B):
            s = min(int(uniforms[i, 2] * B), B - 1)
        else:
            s = int(np.searchsorted(comb_cum[u_blk],
                                    uniforms[i, 2] * du, side="right"))
            s = min(s, B - 1)
        proposal[i] = s
        if s == r:
            continue
        evaluated[i] = True
        ko = K_out[i]
        ki = K_in[i]
        w_self = int(selfw[i])
        out_a = ko.copy()
        in_a = ki.copy()
        if w_self:
            out_a[r] -= w_self
            out_a[s] += w_self
            in_a[r] -= w_self
            in_a[s] += w_self
        row_r_a = M[r] - ko
        row_s_a = M[s] + out_a
        col_r_a = M[:, r] - ki
        col_s_a = M[:, s] + in_a
        # cross entries appear in both a row and a column of the window
        row_r_a[r] += -ki[r] + w_self
        row_r_a[s] += in_a[r]
        row_s_a[r] += -ki[s]
        row_s_a[s] += in_a[s] - w_self
        col_r_a[r] += -ko[r] + w_self
        col_r_a[s] += out_a[r]
        col_s_a[r] += -ko[s]
        col_s_a[s] += out_a[s] - w_self
        ki_out = int(ko.sum())
        ki_in = int(ki.sum())
        dor_a = int(d_out[r]) - ki_out
        dos_a = int(d_out[s]) + ki_out
        dir_a = int(d_in[r]) - ki_in
        dis_a = int(d_in[s]) + ki_in

        # collapsed-form dS over changed cells; identical before/after values
        # cancel exactly, matching the per-node evaluation's sparse formula
        dSi = 0.0
        for before, after, is_col in ((M[r], row_r_a, False),
                                      (M[s], row_s_a, False),
                                      (M[:, r], col_r_a, True),
                                      (M[:, s], col_s_a, True)):
            chg = np.nonzero(before != after)[0]
            if is_col:
                chg = chg[(chg != r) & (chg != s)]
            for t in chg:
                w_b = int(before[t])
                w_a = int(after[t])
                if w_b:
                    dSi += w_b * math.log(w_b)
                if w_a:
                    dSi -= w_a * math.log(w_a)
        for db, da in ((int(d_out[r]), dor_a), (int(d_out[s]), dos_a),
                       (int(d_in[r]), dir_a), (int(d_in[s]), dis_a)):
            if db:
                dSi -= db * math.log(db)
            if da:
                dSi += da * math.log(da)
        dS[i] = dSi

        K = (ko + ki).astype(np.float64)
        pf = float(np.sum(K * (M[:, s] + M[s, :] + 1.0) / (d + B)))
        d_a = d.astype(np.float64).copy()
        d_a[r] = dor_a + dir_a
        d_a[s] = dos_a + dis_a
        pb = float(np.sum(K * (col_r_a + row_r_a + 1.0) / (d_a + B)))
        p_fwd[i] = pf
        p_bwd[i] = pb
        if pf <= 0.0:
            pa = 1.0 if dS[i] < 0 else 0.0
        else:
            try:
                pa = min(math.exp(-beta * dS[i]) * pb / pf, 1.0)
            except OverflowError:
                pa = 1.0
        p_acc[i] = pa
        accept[i] = uniforms[i, 3] <= pa
    return {"proposal": proposal, "delta_S": dS, "p_forward": p_fwd,
            "p_backward": p_bwd, "p_accept": p_acc, "accept": accept,
            "evaluated": evaluated}
