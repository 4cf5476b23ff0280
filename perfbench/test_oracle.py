"""The benchmark's oracle against the Table 1 fixture and brute force."""
import itertools
import math
import os

import numpy as np
import pytest

import oracle

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tests", "data")


def _read_labels(path):
    rows = np.loadtxt(path, dtype=np.int64, ndmin=2)
    labels = np.empty(len(rows), dtype=np.int64)
    labels[rows[:, 0] - 1] = rows[:, 1] - 1
    return labels


def test_table1_fixture():
    truth = _read_labels(os.path.join(DATA, "table1_truth.tsv"))
    output = _read_labels(os.path.join(DATA, "table1_output.tsv"))
    precision, recall = oracle.pairwise_precision_recall(truth, output)
    assert precision == pytest.approx(0.8999, abs=1e-4)
    assert recall == pytest.approx(0.8148, abs=1e-4)


def _pair_loop(truth, output):
    both = same_out = same_truth = 0
    for i, j in itertools.combinations(range(len(truth)), 2):
        t, o = truth[i] == truth[j], output[i] == output[j]
        both += t and o
        same_out += o
        same_truth += t
    return (both / same_out if same_out else 1.0,
            both / same_truth if same_truth else 1.0)


def test_pairwise_matches_pair_loop():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        truth = rng.integers(0, int(rng.integers(1, 6)), n)
        output = rng.integers(0, int(rng.integers(1, 8)), n)
        assert oracle.pairwise_precision_recall(truth, output) == \
            _pair_loop(truth, output)


def _dl_loop(edges, labels, B):
    """H from its definition with a dense M filled one edge at a time."""
    M = [[0] * B for _ in range(B)]
    for s, t, w in edges:
        M[labels[s]][labels[t]] += w
    E = sum(w for _, _, w in edges)
    d_out = [sum(M[r]) for r in range(B)]
    d_in = [sum(M[r][t] for r in range(B)) for t in range(B)]
    S = sum(M[r][t] * math.log(M[r][t] / (d_out[r] * d_in[t]))
            for r in range(B) for t in range(B) if M[r][t] > 0)
    x = B * B / E
    h = (1 + x) * math.log(1 + x) - x * math.log(x)
    return E * h + len(labels) * math.log(B) - S


def test_description_length_matches_dense_loop():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(3, 30))
        m = int(rng.integers(1, 4 * n))
        edges = [(int(rng.integers(n)), int(rng.integers(n)),
                  int(rng.integers(1, 4))) for _ in range(m)]
        B = int(rng.integers(1, n + 1))
        labels = rng.integers(0, B, n)
        src, dst, w = (np.array(c) for c in zip(*edges))
        got = oracle.description_length(src, dst, w, labels, B)
        assert got == pytest.approx(_dl_loop(edges, labels, B), rel=1e-12)
        # merged parallel edges describe the same graph
        merged = oracle.aggregate_edges(src, dst, w, n)
        assert oracle.description_length(*merged, labels, B) == \
            pytest.approx(got, rel=1e-12)


def test_aggregate_edges_merges_and_sorts():
    src, dst, w = oracle.aggregate_edges([2, 0, 2, 1], [1, 1, 1, 0],
                                         [1, 2, 3, 4], 3)
    assert src.tolist() == [0, 1, 2]
    assert dst.tolist() == [1, 0, 1]
    assert w.tolist() == [2, 4, 4]
