"""Degree-corrected stochastic blockmodel graph generation.

Edges are drawn with the grouped Poisson equivalence: the edge total for each
block pair (r, s) is Poisson with mean Omega[r, s], and endpoints are then
assigned independently within each block proportional to the degree
corrections theta. With theta normalized to sum to one per block this is
distributionally identical to independent per-pair Poisson draws with rate
theta_i * theta_j * Omega[b_i, b_j], and E[M[r, s]] = Omega[r, s] exactly.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, Partition, build_graph

EMBED_BLOCK_CELLS = 1 << 20     # cells per block of embed_in_real_graph's draw


@dataclass
class GeneratorConfig:
    num_nodes: int
    num_blocks: int
    powerlaw_exponent: float = -2.5
    block_size_concentration: float = 10.0
    interaction_matrix: np.ndarray | None = None
    target_total_edges: int | None = None
    overlap_ratio: float = 0.1
    uniform_degrees: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        if self.num_blocks < 1 or self.num_blocks > self.num_nodes:
            raise ValueError("num_blocks must be in [1, num_nodes]")
        if not -3.0 <= self.powerlaw_exponent <= -2.0:
            raise ValueError("powerlaw_exponent must be in [-3, -2]")
        if not self.block_size_concentration > 0:
            raise ValueError("block_size_concentration must be positive")
        if not 0.0 <= self.overlap_ratio < 1.0:
            raise ValueError("overlap_ratio must be in [0, 1)")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if self.target_total_edges is not None and self.target_total_edges < 1:
            raise ValueError("target_total_edges must be positive")
        if self.interaction_matrix is not None:
            om = np.asarray(self.interaction_matrix, dtype=np.float64)
            if om.shape != (self.num_blocks, self.num_blocks):
                raise ValueError("interaction matrix shape must be B x B")
            if (om < 0).any():
                raise ValueError("interaction matrix entries must be >= 0")
            self.interaction_matrix = om
        elif self.target_total_edges is None:
            raise ValueError("need interaction_matrix or target_total_edges")


@dataclass
class GeneratedGraph:
    graph: Graph
    truth: Partition
    generated_node_mask: np.ndarray


@dataclass
class StreamSchedule:
    stages: list = field(default_factory=list)


def sample_truth_partition(config):
    """Block proportions ~ Dirichlet(alpha), nodes assigned i.i.d. multinomial.

    Empty blocks are repaired by reassigning one random node from the largest
    block, so all num_blocks labels are realized.
    """
    rng = np.random.default_rng([config.rng_seed, 0])
    N, B = config.num_nodes, config.num_blocks
    alpha = config.block_size_concentration
    props = rng.dirichlet(np.full(B, alpha))
    a = rng.choice(B, size=N, p=props)
    counts = np.bincount(a, minlength=B)
    while (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0])
        largest = int(counts.argmax())
        donors = np.flatnonzero(a == largest)
        a[donors[rng.integers(len(donors))]] = empty
        counts = np.bincount(a, minlength=B)
    return Partition(a, B)


def sample_bounded_powerlaw(n, exponent, lower, upper, rng):
    """Draws from density proportional to x**exponent on [lower, upper]."""
    a1 = exponent + 1.0
    u = rng.random(n)
    return (lower ** a1 + u * (upper ** a1 - lower ** a1)) ** (1.0 / a1)


def sample_degree_corrections(config, truth):
    """Per-node theta from a bounded power law, normalized per block to 1."""
    rng = np.random.default_rng([config.rng_seed, 1])
    N = config.num_nodes
    if config.uniform_degrees:
        raw = np.ones(N)
    else:
        upper = max(2.0, float(N) ** 0.75)
        raw = sample_bounded_powerlaw(N, config.powerlaw_exponent, 1.0,
                                      upper, rng)
    theta = raw.copy()
    for r in range(config.num_blocks):
        members = truth.assignment == r
        theta[members] /= theta[members].sum()
    return theta


def resolve_interaction_matrix(config, truth):
    """Omega with expected edge counts per block pair.

    Explicit matrices pass through. Otherwise the assortative planted form:
    (1 - rho) * E* on the diagonal and rho * E* off-diagonal, each shared
    proportionally to block-size products.
    """
    if config.interaction_matrix is not None:
        return np.asarray(config.interaction_matrix, dtype=np.float64)
    sizes = np.bincount(truth.assignment, minlength=config.num_blocks)
    prod = np.outer(sizes, sizes).astype(np.float64)
    diag = np.diag(np.diag(prod))
    off = prod - diag
    estar = float(config.target_total_edges)
    rho = config.overlap_ratio
    omega = np.zeros_like(prod)
    if diag.sum() > 0:
        omega += diag * ((1.0 - rho) * estar / diag.sum())
    if rho > 0 and off.sum() > 0:
        omega += off * (rho * estar / off.sum())
    return omega


def generate_edges(config, truth, theta):
    """Draw the graph: per block pair, a Poisson edge total with endpoints
    assigned within each block proportional to theta."""
    rng = np.random.default_rng([config.rng_seed, 2])
    omega = resolve_interaction_matrix(config, truth)
    B = config.num_blocks
    members = [np.flatnonzero(truth.assignment == r) for r in range(B)]
    probs = [theta[m] for m in members]
    pairs = [np.empty((0, 2), dtype=np.int64)]
    for r in range(B):
        for s in range(B):
            lam = omega[r, s]
            if lam <= 0:
                continue
            m = int(rng.poisson(lam))
            if m == 0:
                continue
            src = rng.choice(members[r], size=m, p=probs[r])
            dst = rng.choice(members[s], size=m, p=probs[s])
            pairs.append(np.column_stack((src, dst)))
    graph = build_graph(np.concatenate(pairs), num_nodes=config.num_nodes)
    mask = np.ones(config.num_nodes, dtype=bool)
    return GeneratedGraph(graph, truth, mask)


def generate(config):
    """Full deterministic pipeline: truth, degree corrections, edges."""
    truth = sample_truth_partition(config)
    theta = sample_degree_corrections(config, truth)
    return generate_edges(config, truth, theta)


def embed_in_real_graph(real, generated, coupling, rng_seed=0):
    """Union the real graph with a generated one plus random cross edges.

    Each (real u, generated v) pair receives a cross edge with probability
    min(1, coupling * k_u * k_v / (sum k_real * sum k_gen)), so the expected
    number of cross edges is about `coupling`. Cross-edge direction is
    chosen uniformly at random. Real nodes keep ids [0, N_real); generated
    ids are shifted by N_real. The mask flags generated nodes only.
    """
    if coupling < 0:
        raise ValueError("coupling must be nonnegative")
    rng = np.random.default_rng([rng_seed, 3])
    n_real = real.num_nodes
    gen_graph = generated.graph
    n_gen = gen_graph.num_nodes
    edges = real.edge_list()
    edges += [(i + n_real, j + n_real, w) for i, j, w in gen_graph.edge_list()]
    k_real = real.degree.astype(np.float64)
    k_gen = gen_graph.degree.astype(np.float64)
    denom = k_real.sum() * k_gen.sum()
    if coupling > 0 and denom > 0:
        # the hit draw goes by blocks of real-node rows; the uniforms come
        # in the same order as from one N_real x N_gen draw
        step = max(1, EMBED_BLOCK_CELLS // n_gen)
        hits = []
        for lo in range(0, n_real, step):
            k = k_real[lo:lo + step]
            p = np.minimum(coupling * np.outer(k, k_gen) / denom, 1.0)
            u, v = np.nonzero(rng.random(p.shape) < p)
            hits += zip((u + lo).tolist(), v.tolist())
        flips = rng.random(len(hits)) < 0.5
        for (u, v), flip in zip(hits, flips.tolist()):
            if flip:
                edges.append((v + n_real, u, 1))
            else:
                edges.append((u, v + n_real, 1))
    union = build_graph(edges, num_nodes=n_real + n_gen)
    truth = np.zeros(n_real + n_gen, dtype=np.int64)
    truth[n_real:] = generated.truth.assignment
    mask = np.zeros(n_real + n_gen, dtype=bool)
    mask[n_real:] = True
    return GeneratedGraph(union, Partition(truth), mask)


def emit_streaming_stages(generated, mode, num_stages, rng_seed=0):
    """Split the graph's edges into ordered stage batches.

    edge-emergence: a random permutation of edges in near-equal batches.
    snowball: breadth-first frontier growth from a random seed (restarting at
    a random unvisited node when exhausted); stage s holds the edges newly
    internal to the frontier, and the final stage sweeps everything left.
    """
    graph = generated.graph
    edges = graph.edge_list()
    E = len(edges)
    if num_stages < 1:
        raise ValueError("num_stages must be at least 1")
    if num_stages > max(E, 1):
        raise ValueError(f"num_stages={num_stages} exceeds edge count {E}")
    rng = np.random.default_rng([rng_seed, 4])
    if mode == "edge-emergence":
        perm = rng.permutation(E)
        batches = [[edges[k] for k in chunk]
                   for chunk in np.array_split(perm, num_stages)]
        return StreamSchedule(batches)
    if mode != "snowball":
        raise ValueError(f"unknown streaming mode {mode!r}")

    n = graph.num_nodes
    visit_order = []
    visited = np.zeros(n, dtype=bool)
    queue = deque()
    while len(visit_order) < n:
        if not queue:
            unvisited = np.flatnonzero(~visited)
            seed = int(unvisited[rng.integers(len(unvisited))])
            queue.append(seed)
            visited[seed] = True
        node = queue.popleft()
        visit_order.append(node)
        for j, _, _ in sorted(graph.neighbors(node)):
            if not visited[j]:
                visited[j] = True
                queue.append(j)

    # a node entering the frontier emits its edges to nodes already inside:
    # out-edges by target id, then in-edges by source id
    inside = np.zeros(n, dtype=bool)
    batches = []
    pos = 0
    target_w = graph.total_edge_weight
    emitted_w = 0
    for stage in range(num_stages - 1):
        goal = target_w * (stage + 1) / num_stages
        batch = []
        while pos < n and emitted_w < goal:
            node = visit_order[pos]
            pos += 1
            inside[node] = True
            nbrs = sorted(graph.neighbors(node))
            for j, w, _ in nbrs:
                if w and inside[j]:
                    batch.append((node, j, w))
                    emitted_w += w
            for j, _, w in nbrs:
                if w and inside[j] and j != node:
                    batch.append((j, node, w))
                    emitted_w += w
        batches.append(batch)
    final = [(i, j, w) for i, j, w in edges if not (inside[i] and inside[j])]
    batches.append(final)
    return StreamSchedule(batches)
