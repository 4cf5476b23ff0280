"""Property tests of the neighbour table against dict-merge references."""
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from sbpart.graph import (NodeTables, Partition, build_graph,
                          node_block_edge_counts, recompute_block_matrix)
from sbpart.io import (read_assignment_tsv, read_edge_tsv,
                       write_assignment_tsv, write_edge_tsv)

# few ids, so that duplicates, self-loops and opposite edges are common
_ids = st.integers(0, 7)
_rows = st.lists(st.one_of(st.tuples(_ids, _ids),
                           st.tuples(_ids, _ids, st.integers(1, 4))),
                 max_size=30)
_isolated = st.integers(0, 3)   # extra nodes above the largest id

_settings = settings(max_examples=150, deadline=None)


def _build(rows, isolated):
    n = max((max(r[0], r[1]) for r in rows), default=-1) + 1 + isolated
    return build_graph(rows, num_nodes=n if isolated else None), n


def _merged(rows):
    merged = {}
    for r in rows:
        w = r[2] if len(r) == 3 else 1
        merged[(r[0], r[1])] = merged.get((r[0], r[1]), 0) + w
    return merged


def _documented_neighbors(merged, i):
    """Out-neighbours by id, then the remaining in-neighbours by id, each
    with (weight of i -> j, weight of j -> i)."""
    outs = sorted(t for (s, t) in merged if s == i)
    ins = sorted(s for (s, t) in merged if t == i and (i, s) not in merged)
    return [(j, merged.get((i, j), 0), merged.get((j, i), 0))
            for j in outs + ins]


@_settings
@given(_rows, _isolated)
def test_table_matches_dict_merge(rows, isolated):
    g, n = _build(rows, isolated)
    merged = _merged(rows)
    assert g.num_nodes == n
    assert g.edge_list() == sorted((s, t, w) for (s, t), w in merged.items())
    assert all(type(x) is int for e in g.edge_list() for x in e)
    assert g.total_edge_weight == sum(merged.values())
    for i in range(n):
        assert g.degree[i] == sum(w for (s, t), w in merged.items()
                                  if s == i) \
            + sum(w for (s, t), w in merged.items() if t == i)
        assert NodeTables(g).self_loop[i] == merged.get((i, i), 0)
        assert list(g.neighbors(i)) == _documented_neighbors(merged, i)


@_settings
@given(_rows, _isolated, st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                  min_size=1, max_size=5))
def test_draw_neighbor_follows_documented_order(rows, isolated, us):
    g, n = _build(rows, isolated)
    merged = _merged(rows)
    for i in range(n):
        table = _documented_neighbors(merged, i)
        if not table:
            continue
        weights = [wo + wi for _, wo, wi in table]
        cum = np.cumsum(weights)
        # every boundary and a point inside each interval, plus the draws
        probes = list(us) + [c / cum[-1] for c in cum[:-1]] \
            + [(c - 0.5) / cum[-1] for c in cum]
        expected = []
        for u in probes:
            k = min(int(np.searchsorted(cum, u * cum[-1], side="right")),
                    len(cum) - 1)
            expected.append(table[k][0])
        assert g.draw_neighbors(np.full(len(probes), i),
                                np.array(probes)).tolist() == expected


@_settings
@given(_rows, _isolated, st.data())
def test_node_block_edge_counts_brute_force(rows, isolated, data):
    g, n = _build(rows, isolated)
    merged = _merged(rows)
    b = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    tables = NodeTables(g)
    for i in range(n):
        c = node_block_edge_counts(tables, b, i)
        out_c, in_c, comb = {}, {}, {}
        # the in-neighbours in table order: those that are also
        # out-neighbours first
        table = _documented_neighbors(merged, i)
        for j, w, _ in table:
            if w:
                out_c[b[j]] = out_c.get(b[j], 0) + w
                comb[b[j]] = comb.get(b[j], 0) + w
        for j, _, w in table:
            if w:
                in_c[b[j]] = in_c.get(b[j], 0) + w
                comb[b[j]] = comb.get(b[j], 0) + w
        # the maps list their blocks in this order too; the sweep's sums
        # follow `combined`
        assert list(c.out_counts.items()) == list(out_c.items())
        assert list(c.in_counts.items()) == list(in_c.items())
        assert list(c.combined.items()) == list(comb.items())
        assert c.self_loop == merged.get((i, i), 0)


@_settings
@given(_rows, _isolated, st.data())
def test_recompute_block_matrix_matches_edge_loop(rows, isolated, data):
    g, n = _build(rows, isolated)
    b = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    state = recompute_block_matrix(g, Partition(b, 4))
    ref = [dict() for _ in range(4)]
    for s, t, w in g.edge_list():
        ref[b[s]][b[t]] = ref[b[s]].get(b[t], 0) + w
    # rows and columns both list their blocks by id
    assert [list(r.items()) for r in state.rows] == \
        [sorted(r.items()) for r in ref]
    assert [list(c.items()) for c in state.cols] == \
        [[(r, ref[r][s]) for r in range(4) if s in ref[r]] for s in range(4)]
    assert state.d_out == [sum(r.values()) for r in ref]
    assert state.d_in == [sum(r.get(s, 0) for r in ref) for s in range(4)]


@_settings
@given(_rows, _isolated, st.randoms(use_true_random=False))
def test_build_ignores_input_order(rows, isolated, rnd):
    g1, _ = _build(rows, isolated)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    g2, _ = _build(shuffled, isolated)
    for name in ("ptr", "nbr", "w_out", "w_in", "cumw", "degree"):
        assert np.array_equal(getattr(g1, name), getattr(g2, name))
    assert g1.edge_list() == g2.edge_list()


@_settings
@given(_rows, _isolated, st.data())
def test_tsv_round_trip(rows, isolated, data):
    g, n = _build(rows, isolated)
    b = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    with tempfile.TemporaryDirectory() as tmp:
        edges_path = os.path.join(tmp, "g.tsv")
        write_edge_tsv(edges_path, g.edge_list())
        assert read_edge_tsv(edges_path) == g.edge_list()
        if n:
            part_path = os.path.join(tmp, "p.tsv")
            write_assignment_tsv(part_path, b)
            assert read_assignment_tsv(part_path, num_nodes=n) == b
