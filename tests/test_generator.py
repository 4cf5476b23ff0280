import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbpart import generator
from sbpart.generator import (GeneratedGraph, GeneratorConfig,
                              embed_in_real_graph,
                              emit_streaming_stages, generate, generate_edges,
                              resolve_interaction_matrix,
                              sample_bounded_powerlaw,
                              sample_degree_corrections,
                              sample_truth_partition)
from sbpart.graph import Partition, build_graph

from engine_reference import to_dense


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(num_nodes=0, num_blocks=1, target_total_edges=10)
    with pytest.raises(ValueError):
        GeneratorConfig(num_nodes=10, num_blocks=11, target_total_edges=10)
    with pytest.raises(ValueError):
        GeneratorConfig(num_nodes=10, num_blocks=2, target_total_edges=10,
                        powerlaw_exponent=-1.5)
    with pytest.raises(ValueError):
        GeneratorConfig(num_nodes=10, num_blocks=2)  # no size information
    with pytest.raises(ValueError):
        GeneratorConfig(num_nodes=10, num_blocks=2,
                        interaction_matrix=np.ones((3, 3)))
    with pytest.raises(ValueError):
        GeneratorConfig(num_nodes=10, num_blocks=2, target_total_edges=10,
                        rng_seed=-1)
    for alpha in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            GeneratorConfig(num_nodes=10, num_blocks=2, target_total_edges=10,
                            block_size_concentration=alpha)
    for edges in (0, -5):
        with pytest.raises(ValueError, match="target_total_edges"):
            GeneratorConfig(num_nodes=10, num_blocks=2,
                            target_total_edges=edges)
        with pytest.raises(ValueError, match="target_total_edges"):
            GeneratorConfig(num_nodes=2, num_blocks=2,
                            interaction_matrix=np.ones((2, 2)),
                            target_total_edges=edges)


def test_truth_sizes_concentrate():
    """Very large concentration pins block proportions at 1/B."""
    cfg = GeneratorConfig(num_nodes=1000, num_blocks=4,
                          block_size_concentration=1e6,
                          target_total_edges=1000, rng_seed=1)
    truth = sample_truth_partition(cfg)
    sizes = np.bincount(truth.assignment, minlength=4)
    sigma = np.sqrt(1000 * 0.25 * 0.75)
    assert np.all(np.abs(sizes - 250) <= 3 * sigma)


def test_truth_single_block():
    cfg = GeneratorConfig(num_nodes=50, num_blocks=1, target_total_edges=100)
    truth = sample_truth_partition(cfg)
    assert np.all(truth.assignment == 0)


def test_truth_no_empty_blocks():
    cfg = GeneratorConfig(num_nodes=12, num_blocks=10,
                          block_size_concentration=0.2,
                          target_total_edges=20, rng_seed=3)
    truth = sample_truth_partition(cfg)
    assert len(np.unique(truth.assignment)) == 10


def test_generate_deterministic():
    cfg = GeneratorConfig(num_nodes=80, num_blocks=3, target_total_edges=400,
                          rng_seed=9)
    g1 = generate(cfg)
    g2 = generate(cfg)
    assert g1.graph.edge_list() == g2.graph.edge_list()
    assert np.array_equal(g1.truth.assignment, g2.truth.assignment)


def test_theta_normalized_per_block():
    cfg = GeneratorConfig(num_nodes=200, num_blocks=4, target_total_edges=500,
                          rng_seed=2)
    truth = sample_truth_partition(cfg)
    theta = sample_degree_corrections(cfg, truth)
    for r in range(4):
        members = truth.assignment == r
        assert theta[members].sum() == pytest.approx(1.0, abs=1e-12)


def test_theta_uniform_flag():
    cfg = GeneratorConfig(num_nodes=100, num_blocks=2, target_total_edges=100,
                          uniform_degrees=True, rng_seed=2)
    truth = sample_truth_partition(cfg)
    theta = sample_degree_corrections(cfg, truth)
    for r in range(2):
        members = truth.assignment == r
        assert np.allclose(theta[members], 1.0 / members.sum())


def test_powerlaw_tail_slope():
    """CCDF regression on the unbounded-like region recovers the exponent."""
    rng = np.random.default_rng(17)
    upper = 1000.0 ** 0.75
    draws = sample_bounded_powerlaw(100_000, -2.5, 1.0, upper, rng)
    assert draws.min() >= 1.0 and draws.max() <= upper
    xs = np.sort(draws)
    ccdf = 1.0 - np.arange(1, len(xs) + 1) / len(xs)
    keep = (xs > 1.0) & (xs <= np.sqrt(upper)) & (ccdf > 0)
    slope = np.polyfit(np.log(xs[keep]), np.log(ccdf[keep]), 1)[0]
    # density exponent = CCDF slope - 1
    assert slope - 1.0 == pytest.approx(-2.5, abs=0.2)


def test_resolve_interaction_shares():
    cfg = GeneratorConfig(num_nodes=10, num_blocks=2, target_total_edges=100,
                          overlap_ratio=0.2)
    truth = sample_truth_partition(cfg)
    omega = resolve_interaction_matrix(cfg, truth)
    sizes = np.bincount(truth.assignment, minlength=2)
    assert np.trace(omega) == pytest.approx(80.0)
    assert omega.sum() - np.trace(omega) == pytest.approx(20.0)
    # diagonal shares proportional to size products
    assert omega[0, 0] / omega[1, 1] == pytest.approx(
        (sizes[0] / sizes[1]) ** 2)
    explicit = GeneratorConfig(num_nodes=10, num_blocks=2,
                               interaction_matrix=np.array([[5.0, 1.0],
                                                            [1.0, 5.0]]))
    assert np.array_equal(resolve_interaction_matrix(explicit, truth),
                          [[5.0, 1.0], [1.0, 5.0]])


def test_single_block_edge_total_mean():
    """With Omega=[[100]] the realized edge total is Poisson(100)."""
    totals = []
    for seed in range(200):
        cfg = GeneratorConfig(num_nodes=50, num_blocks=1,
                              interaction_matrix=np.array([[100.0]]),
                              rng_seed=seed)
        truth = sample_truth_partition(cfg)
        theta = sample_degree_corrections(cfg, truth)
        gen = generate_edges(cfg, truth, theta)
        totals.append(gen.graph.total_edge_weight)
    assert abs(np.mean(totals) - 100.0) <= 3.0


def test_zero_interaction_gives_empty_graph():
    cfg = GeneratorConfig(num_nodes=20, num_blocks=2,
                          interaction_matrix=np.zeros((2, 2)), rng_seed=0)
    gen = generate(cfg)
    assert gen.graph.total_edge_weight == 0


def test_block_matrix_mean_tracks_interaction():
    """Truth-block edge totals are unbiased for Omega (Poisson totals)."""
    from sbpart.graph import recompute_block_matrix
    omega = np.array([[200.0, 40.0], [40.0, 200.0]])
    acc = np.zeros((2, 2))
    seeds = 50
    for seed in range(seeds):
        cfg = GeneratorConfig(num_nodes=60, num_blocks=2,
                              interaction_matrix=omega, rng_seed=seed)
        truth = sample_truth_partition(cfg)
        theta = sample_degree_corrections(cfg, truth)
        gen = generate_edges(cfg, truth, theta)
        acc += to_dense(recompute_block_matrix(gen.graph, truth))
    mean = acc / seeds
    assert np.all(np.abs(mean - omega) <= 0.08 * omega)


def test_embed_zero_coupling_disjoint():
    real = build_graph([(0, 1, 1), (1, 2, 1)])
    cfg = GeneratorConfig(num_nodes=30, num_blocks=2, target_total_edges=90,
                          rng_seed=4)
    gen = generate(cfg)
    emb = embed_in_real_graph(real, gen, 0.0)
    assert emb.graph.num_nodes == 33
    assert emb.graph.total_edge_weight == \
        real.total_edge_weight + gen.graph.total_edge_weight
    # mask flags only generated nodes
    assert not emb.generated_node_mask[:3].any()
    assert emb.generated_node_mask[3:].all()
    # no edges cross the boundary
    for i, j, _ in emb.graph.edge_list():
        assert (i < 3) == (j < 3)


def test_embed_cross_edge_count():
    real = build_graph([(i, (i + 1) % 40, 1) for i in range(40)])
    cfg = GeneratorConfig(num_nodes=40, num_blocks=2, target_total_edges=120,
                          rng_seed=4)
    gen = generate(cfg)
    base = real.total_edge_weight + gen.graph.total_edge_weight
    coupling = 50.0
    crosses = []
    for seed in range(100):
        emb = embed_in_real_graph(real, gen, coupling, rng_seed=seed)
        crosses.append(emb.graph.total_edge_weight - base)
    assert abs(np.mean(crosses) - coupling) <= 0.2 * coupling


@pytest.mark.parametrize("block_cells", [1, 100])
def test_embed_blocked_draw_matches_one_draw(block_cells, monkeypatch):
    """The hit draw in blocks of real-node rows gives the cross edges of
    one draw over all real x generated pairs."""
    real = build_graph([(i, (i * 7 + 3) % 25, 1) for i in range(25)])
    cfg = GeneratorConfig(num_nodes=30, num_blocks=2, target_total_edges=90,
                          rng_seed=2)
    gen = generate(cfg)
    for seed in range(3):
        for coupling in (1.0, 20.0, 1e6):
            whole = embed_in_real_graph(real, gen, coupling, rng_seed=seed)
            with monkeypatch.context() as m:
                m.setattr(generator, "EMBED_BLOCK_CELLS", block_cells)
                blocked = embed_in_real_graph(real, gen, coupling,
                                              rng_seed=seed)
            assert blocked.graph.edge_list() == whole.graph.edge_list()


def test_embed_rejects_negative_coupling():
    real = build_graph([(0, 1, 1)])
    cfg = GeneratorConfig(num_nodes=10, num_blocks=1, target_total_edges=20)
    with pytest.raises(ValueError):
        embed_in_real_graph(real, generate(cfg), -1.0)


def _edge_multiset(batches):
    out = {}
    for batch in batches:
        for i, j, w in batch:
            out[(i, j)] = out.get((i, j), 0) + w
    return out


def test_stages_single_stage_is_whole_graph():
    cfg = GeneratorConfig(num_nodes=40, num_blocks=2, target_total_edges=120,
                          rng_seed=5)
    gen = generate(cfg)
    sched = emit_streaming_stages(gen, "edge-emergence", 1)
    assert len(sched.stages) == 1
    assert _edge_multiset(sched.stages) == \
        {(i, j): w for i, j, w in gen.graph.edge_list()}


@st.composite
def _stream_cases(draw):
    """A graph with self-loops, isolated nodes and repeated edges, wrapped
    as a generated graph, a stage count up to its edge count, and a
    stream seed."""
    n = draw(st.integers(1, 30))
    ids = st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(ids, ids, st.integers(1, 3)), min_size=1,
                         max_size=80))
    g = build_graph(rows, num_nodes=n)
    gen = GeneratedGraph(g, Partition(np.zeros(n, dtype=np.int64), 1),
                         np.ones(n, dtype=bool))
    stages = draw(st.integers(1, len(g.edge_list())))
    return gen, stages, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("mode", ["edge-emergence", "snowball"])
@settings(max_examples=100, deadline=None)
@given(case=_stream_cases())
def test_stage_union_is_whole_graph(mode, case):
    gen, stages, seed = case
    sched = emit_streaming_stages(gen, mode, stages, rng_seed=seed)
    assert len(sched.stages) == stages
    assert _edge_multiset(sched.stages) == \
        {(i, j): w for i, j, w in gen.graph.edge_list()}


def test_snowball_path_prefix():
    """On a path graph the snowball frontier is a contiguous segment."""
    edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1)]
    g = build_graph(edges)
    gen = GeneratedGraph(g, Partition([0, 0, 0, 0], 1),
                         np.ones(4, dtype=bool))
    sched = emit_streaming_stages(gen, "snowball", 2, rng_seed=0)
    assert len(sched.stages) == 2
    first = sched.stages[0]
    assert first and len(first) < 3
    nodes = sorted({i for e in first for i in e[:2]})
    assert nodes == list(range(nodes[0], nodes[-1] + 1))
    assert _edge_multiset(sched.stages) == {(0, 1): 1, (1, 2): 1, (2, 3): 1}


def test_stages_validation():
    cfg = GeneratorConfig(num_nodes=10, num_blocks=1, target_total_edges=20,
                          rng_seed=0)
    gen = generate(cfg)
    with pytest.raises(ValueError):
        emit_streaming_stages(gen, "edge-emergence", 0)
    with pytest.raises(ValueError):
        emit_streaming_stages(gen, "edge-emergence", 10 ** 6)
    with pytest.raises(ValueError):
        emit_streaming_stages(gen, "avalanche", 2)


def test_stages_deterministic():
    cfg = GeneratorConfig(num_nodes=30, num_blocks=2, target_total_edges=90,
                          rng_seed=6)
    gen = generate(cfg)
    s1 = emit_streaming_stages(gen, "edge-emergence", 4, rng_seed=6)
    s2 = emit_streaming_stages(gen, "edge-emergence", 4, rng_seed=6)
    assert s1.stages == s2.stages
