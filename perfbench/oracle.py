"""Reference computations that share no code with sbpart.

Everything here works on plain numpy arrays: edge arrays (src, dst, weight)
and integer label vectors. The benchmark checks the program's reported
description length and pairwise scores against these.
"""
from __future__ import annotations

import math

import numpy as np


def aggregate_edges(src, dst, weight, num_nodes):
    """Merge parallel edges: sorted unique (src, dst) with summed weights."""
    keys = np.asarray(src, dtype=np.int64) * num_nodes + np.asarray(
        dst, dtype=np.int64)
    uniq, inverse = np.unique(keys, return_inverse=True)
    w = np.bincount(inverse, weights=np.asarray(weight, dtype=np.float64))
    return uniq // num_nodes, uniq % num_nodes, w.astype(np.int64)


def description_length(src, dst, weight, labels, num_blocks):
    """H = E h(B^2/E) + N log B - sum M log(M / (d_out d_in)), in nats.

    M is the inter-block edge-count matrix over the labels, built from
    unique r*B + t keys; d_out and d_in are its row and column sums.
    """
    b = np.asarray(labels, dtype=np.int64)
    w = np.asarray(weight, dtype=np.int64)
    N = len(b)
    B = int(num_blocks)
    E = int(w.sum())
    if E == 0:
        return N * math.log(B) if B > 1 else 0.0
    r = b[np.asarray(src, dtype=np.int64)]
    t = b[np.asarray(dst, dtype=np.int64)]
    keys, inverse = np.unique(r * B + t, return_inverse=True)
    m = np.bincount(inverse, weights=w.astype(np.float64))
    rows, cols = keys // B, keys % B
    d_out = np.bincount(rows, weights=m, minlength=B)
    d_in = np.bincount(cols, weights=m, minlength=B)
    S = float(np.sum(m * np.log(m / (d_out[rows] * d_in[cols]))))
    x = B * B / E
    h = (1.0 + x) * math.log(1.0 + x) - x * math.log(x)
    return E * h + N * math.log(B) - S


def _pairs(counts):
    c = np.asarray(counts, dtype=np.int64)
    return int(np.sum(c * (c - 1) // 2))


def pairwise_precision_recall(truth, output):
    """Pairwise precision and recall by counting co-clustered node pairs.

    precision = pairs together in both / pairs together in the output,
    recall = pairs together in both / pairs together in the truth.
    """
    t = np.asarray(truth, dtype=np.int64)
    o = np.asarray(output, dtype=np.int64)
    if len(t) != len(o):
        raise ValueError("truth and output differ in length")
    _, cell = np.unique(np.stack([t, o]), axis=1, return_counts=True)
    both = _pairs(cell)
    same_out = _pairs(np.unique(o, return_counts=True)[1])
    same_truth = _pairs(np.unique(t, return_counts=True)[1])
    precision = both / same_out if same_out else 1.0
    recall = both / same_truth if same_truth else 1.0
    return precision, recall
