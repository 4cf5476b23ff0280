import numpy as np
import pytest

from sbpart import graph as graph_module
from sbpart.engine import MCMCConfig, description_length, golden_section_search
from sbpart.generator import GeneratorConfig, generate
from sbpart.graph import (NodeTables, Partition, apply_move, build_graph,
                          node_block_edge_counts, recompute_block_matrix)

from conftest import random_graph, random_partition
from engine_reference import to_dense


def three_cycle():
    return build_graph([(0, 1, 1), (1, 2, 1), (2, 0, 1)])


def test_build_single_edge():
    g = build_graph([(0, 1, 1)])
    assert g.num_nodes == 2
    assert g.edge_list() == [(0, 1, 1)]
    assert list(g.neighbors(0)) == [(1, 1, 0)]
    assert list(g.neighbors(1)) == [(0, 0, 1)]
    assert g.total_edge_weight == 1


def test_build_merges_duplicates():
    g = build_graph([(0, 1, 1), (0, 1, 2)])
    assert g.edge_list() == [(0, 1, 3)]
    assert g.total_edge_weight == 3


def test_three_cycle_degrees():
    g = three_cycle()
    assert g.total_edge_weight == 3
    assert list(g.degree) == [2, 2, 2]


def test_build_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph([(0, 1, 0)])
    with pytest.raises(ValueError):
        build_graph([(-1, 0, 1)])
    with pytest.raises(ValueError):
        build_graph([(0, 5, 1)], num_nodes=3)


def test_build_canonical_order():
    e1 = [(0, 1, 1), (2, 0, 1), (1, 2, 1)]
    e2 = [(1, 2, 1), (0, 1, 1), (2, 0, 1)]
    g1 = build_graph(e1)
    g2 = build_graph(e2)
    assert g1.edge_list() == g2.edge_list() == sorted(e1)
    for i in range(3):
        assert list(g1.neighbors(i)) == list(g2.neighbors(i))


def test_recompute_single_edge():
    g = build_graph([(0, 1, 1)])
    state = recompute_block_matrix(g, Partition([0, 1]))
    assert to_dense(state).tolist() == [[0, 1], [0, 0]]
    assert list(state.d_out) == [1, 0]
    assert list(state.d_in) == [0, 1]


def test_recompute_all_one_block():
    g = three_cycle()
    state = recompute_block_matrix(g, Partition([0, 0, 0], 1))
    assert to_dense(state).tolist() == [[3]]


def test_recompute_three_cycle_two_blocks():
    g = three_cycle()
    state = recompute_block_matrix(g, Partition([0, 0, 1]))
    assert to_dense(state).tolist() == [[1, 1], [1, 0]]


def test_node_block_edge_counts_examples():
    g = three_cycle()
    p = Partition([0, 0, 1])
    c = node_block_edge_counts(NodeTables(g), p.assignment, 0)
    assert c.out_counts == {0: 1}
    assert c.in_counts == {1: 1}
    assert c.combined == {0: 1, 1: 1}
    assert c.self_loop == 0


def test_node_block_edge_counts_isolated():
    g = build_graph([(0, 1, 1)], num_nodes=3)
    c = node_block_edge_counts(NodeTables(g), [0, 0, 0], 2)
    assert c.out_counts == {}
    assert c.in_counts == {}
    assert c.combined == {}


def test_node_block_edge_counts_self_loop():
    g = build_graph([(0, 0, 2), (0, 1, 1)])
    c = node_block_edge_counts(NodeTables(g), [0, 1], 0)
    # the self-loop shows up in both direction maps, hence twice in combined
    assert c.out_counts == {0: 2, 1: 1}
    assert c.in_counts == {0: 2}
    assert c.combined == {0: 4, 1: 1}
    assert c.self_loop == 2


def test_apply_move_single_edge():
    g = build_graph([(0, 1, 1)])
    p = Partition([0, 1])
    state = recompute_block_matrix(g, p)
    counts = node_block_edge_counts(NodeTables(g), p.assignment, 1)
    apply_move(state, 1, 0, counts)
    assert to_dense(state).tolist() == [[1, 0], [0, 0]]
    assert list(state.d_out) == [1, 0]
    assert list(state.d_in) == [1, 0]


def test_apply_move_rejects_noop():
    g = build_graph([(0, 1, 1)])
    p = Partition([0, 1])
    state = recompute_block_matrix(g, p)
    counts = node_block_edge_counts(NodeTables(g), p.assignment, 0)
    with pytest.raises(ValueError):
        apply_move(state, 0, 0, counts)


def test_apply_move_three_cycle_collapse():
    g = three_cycle()
    p = Partition([0, 0, 1])
    state = recompute_block_matrix(g, p)
    counts = node_block_edge_counts(NodeTables(g), p.assignment, 2)
    apply_move(state, 1, 0, counts)
    assert to_dense(state).tolist() == [[3, 0], [0, 0]]


def _states_equal(a, b):
    if not np.array_equal(a.d_out, b.d_out) or not np.array_equal(a.d_in, b.d_in):
        return False
    for ra, rb in zip(a.rows, b.rows):
        if {k: v for k, v in ra.items() if v} != {k: v for k, v in rb.items() if v}:
            return False
    return True


def test_random_moves_match_recompute():
    """1000 random single-node moves stay bit-identical to recomputation."""
    rng = np.random.default_rng(7)
    moves_done = 0
    while moves_done < 1000:
        g = random_graph(rng, max_nodes=30, min_nodes=4)
        p = random_partition(rng, g.num_nodes)
        state = recompute_block_matrix(g, p)
        tables = NodeTables(g)
        for _ in range(25):
            i = int(rng.integers(g.num_nodes))
            r = int(p.assignment[i])
            s = int(rng.integers(p.num_blocks))
            if s == r:
                continue
            counts = node_block_edge_counts(tables, p.assignment, i)
            apply_move(state, r, s, counts)
            p.assignment[i] = s
            moves_done += 1
        fresh = recompute_block_matrix(g, p)
        assert _states_equal(state, fresh)
        assert to_dense(state).sum() == g.total_edge_weight
        assert sum(state.d_out) == g.total_edge_weight
        assert sum(state.d_in) == g.total_edge_weight


def test_state_row_col_mirror():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng)
        p = random_partition(rng, g.num_nodes)
        state = recompute_block_matrix(g, p)
        m = to_dense(state)
        for s, col in enumerate(state.cols):
            for r, w in col.items():
                assert m[r, s] == w


def test_partition_compact():
    p = Partition([5, 2, 5, 9], 10).compact()
    assert p.num_blocks == 3
    assert list(p.assignment) == [1, 0, 1, 2]


def test_draw_neighbor_weighting():
    g = build_graph([(0, 1, 3), (2, 0, 1)])
    # node 0's combined neighbor weights: {1: 3, 2: 1}, total 4
    hits = {1: 0, 2: 0}
    rng = np.random.default_rng(0)
    for j in g.draw_neighbors(np.zeros(4000, dtype=np.int64),
                              rng.random(4000)).tolist():
        hits[j] += 1
    assert abs(hits[1] / 4000 - 0.75) < 0.03


# ---------------------------------------------------------------------------
# constant tables

@pytest.mark.parametrize("entries", [None, 0])
def test_xlogx_tables_hold_the_expression(monkeypatch, entries):
    """The gather over 0..E equals `_xlogx` of 0..E bit for bit and the
    Python kernels' list equals its `tolist()`, from the table and, with
    `_TABLE_ENTRIES` at 0, from the expression and its memo."""
    if entries is not None:
        monkeypatch.setattr(graph_module, "_TABLE_ENTRIES", entries)
    rng = np.random.default_rng(5)
    rows = list(zip(*rng.integers(0, 40, (2, 200)).tolist(),
                    rng.integers(1, 300, 200).tolist()))
    g = build_graph(rows, num_nodes=40)
    E = g.total_edge_weight
    assert E > 9170
    want = graph_module._xlogx(np.arange(E + 1))
    got = g.xlogx(np.arange(E + 1))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    xl = g.xlogx_list
    assert [xl[x] for x in range(E + 1)] == want.tolist()
    assert isinstance(xl, list) == (entries is None)


def test_node_weights_and_edge_arrays():
    g = build_graph([(0, 1, 2), (1, 1, 3), (2, 0, 1), (0, 2, 4)],
                    num_nodes=4)
    k_out, k_in = g.node_weights
    assert k_out.tolist() == [6, 3, 1, 0]
    assert k_in.tolist() == [1, 5, 4, 0]
    assert (k_out + k_in).tolist() == g.degree.tolist()
    src, dst, w = g.edge_arrays
    assert list(zip(src.tolist(), dst.tolist(), w.tolist())) == \
        g.edge_list() == [(0, 1, 2), (0, 2, 4), (1, 1, 3), (2, 0, 1)]
    assert g.edge_arrays is g.edge_arrays
    for a in (k_out, k_in, src, dst, w):
        with pytest.raises(ValueError):
            a[0] = 0


def test_tables_of_an_edgeless_graph():
    g = build_graph([], num_nodes=3)
    assert g.xlogx_list == [0.0]
    assert g.xlogx(np.zeros(2, dtype=np.int64)).tolist() == [0.0, 0.0]
    assert [x.tolist() for x in g.node_weights] == [[0, 0, 0], [0, 0, 0]]
    assert [x.tolist() for x in g.edge_arrays] == [[], [], []]
    assert description_length(g, Partition.identity(3)) == 3 * np.log(3)
    for mode in ("sequential", "batch"):
        _, B, H = golden_section_search(
            g, MCMCConfig(rng_seed=0, execution_mode=mode))
        assert (B, H) == (1, 0.0)


def test_generated_graph_builds_no_table():
    """Generating a graph and listing its edges (the benchmark's set-up)
    builds none of the tables that partitioning reads."""
    gen = generate(GeneratorConfig(num_nodes=60, num_blocks=3,
                                   target_total_edges=600, rng_seed=0))
    gen.graph.edge_list()
    g = gen.graph
    assert g._xlogx_pair is None and g._weights is None and g._tables is None
