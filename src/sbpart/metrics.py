"""Partition correctness metrics and computational reporting.

`correctness_report` scores a partition against the truth from one truth x
output contingency table, in three metric families: unit counting
(assignment-matched accuracy and blockwise precision/recall), pairwise
counting (Rand index, adjusted Rand index, pairwise precision/recall) and
information-theoretic (mutual information ratios). Entropies are in nats.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np
from scipy.optimize import linear_sum_assignment


def _labels(p):
    return np.asarray(p.assignment if hasattr(p, "assignment") else p,
                      dtype=np.int64)


def build_contingency(truth, output, mask=None):
    """R x C int64 count matrix: [t][o] = number of masked-in nodes whose
    truth label is the t-th smallest present and whose output label is the
    o-th smallest present."""
    t = _labels(truth)
    o = _labels(output)
    if len(t) != len(o):
        raise ValueError("truth and output partitions differ in length")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != len(t):
            raise ValueError("mask length mismatch")
        t = t[mask]
        o = o[mask]
    if len(t) == 0:
        raise ValueError("no nodes selected for evaluation")
    row_labels, ti = np.unique(t, return_inverse=True)
    col_labels, oi = np.unique(o, return_inverse=True)
    counts = np.zeros((len(row_labels), len(col_labels)), dtype=np.int64)
    np.add.at(counts, (ti, oi), 1)
    return counts


@dataclass
class CorrectnessReport:
    """Every correctness metric of one partition against the truth.

    blockwise_precision[k] belongs to the k-th smallest output label present
    and blockwise_recall[k] to the k-th smallest truth label present, not to
    label k; an output block that the matching leaves unmatched has
    precision 0.
    """
    num_nodes_evaluated: int
    overall_accuracy: float
    blockwise_precision: list
    blockwise_recall: list
    pair_categories: dict
    rand_index: float
    adjusted_rand_index: float
    pairwise_precision: float
    pairwise_recall: float
    mutual_information: float
    truth_entropy: float
    output_entropy: float
    info_precision: float | None     # I / H(output); None if undefined
    info_recall: float | None        # I / H(truth)

    def to_dict(self):
        return asdict(self)


def _c2(x):
    x = np.asarray(x, dtype=object)
    return int(np.sum(x * (x - 1) // 2))


def correctness_report(truth, output, mask=None):
    """Score output against truth on the nodes mask selects: one block
    matching, closed-form pair counts and plug-in information."""
    counts = build_contingency(truth, output, mask)
    n = int(counts.sum())
    if n < 2:
        raise ValueError("need at least two nodes for pairwise metrics")
    row_tot = counts.sum(axis=1)
    col_tot = counts.sum(axis=0)

    # injective truth-output block matching maximizing matched nodes
    rows, cols = linear_sum_assignment(counts, maximize=True)
    matched = counts[rows, cols]
    precision = np.zeros(counts.shape[1])
    recall = np.zeros(counts.shape[0])
    precision[cols] = matched / col_tot[cols]
    recall[rows] = matched / row_tot[rows]

    # pairs in one block: c1 on both sides, c2 neither, c3 truth, c4 output
    c1 = _c2(counts.ravel())
    same_truth = _c2(row_tot)
    same_out = _c2(col_tot)
    total = n * (n - 1) // 2
    c3 = same_truth - c1
    c4 = same_out - c1
    c2 = total - c1 - c3 - c4
    expected = same_truth * same_out / total
    max_index = 0.5 * (same_truth + same_out)
    ari = 1.0 if max_index == expected else \
        (c1 - expected) / (max_index - expected)

    pt = row_tot / n
    po = col_tot / n
    r, c = np.nonzero(counts)
    pij = counts[r, c] / n
    mi = max(float(np.sum(pij * np.log(pij / (pt[r] * po[c])))), 0.0)
    h_t = float(-np.sum(pt * np.log(pt)))
    h_o = float(-np.sum(po * np.log(po)))

    def ratio(h):
        if h > 0:
            return mi / h
        return 1.0 if mi == 0.0 else None

    return CorrectnessReport(
        num_nodes_evaluated=n,
        overall_accuracy=int(matched.sum()) / n,
        blockwise_precision=precision.tolist(),
        blockwise_recall=recall.tolist(),
        pair_categories={"same_same": c1, "diff_diff": c2,
                         "same_diff": c3, "diff_same": c4},
        rand_index=(c1 + c2) / total,
        adjusted_rand_index=ari,
        pairwise_precision=c1 / (c1 + c4) if c1 + c4 > 0 else 1.0,
        pairwise_recall=c1 / (c1 + c3) if c1 + c3 > 0 else 1.0,
        mutual_information=mi,
        truth_entropy=h_t,
        output_entropy=h_o,
        info_precision=ratio(h_o),
        info_recall=ratio(h_t),
    )


@dataclass
class ComputationalReport:
    num_edges: int
    elapsed_seconds: float
    rate_edges_per_second: float
    num_workers: int = 1
    peak_memory_bytes: int | None = None
    energy_watts: None = None              # not measured
    rate_per_watt: None = None             # not measured

    def to_dict(self):
        return asdict(self)


def peak_memory_bytes():
    """Best-effort peak RSS over the lifetime of the process, not of one
    stage."""
    try:
        import resource
    except ImportError:
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024


def computational_report(num_edges, elapsed_seconds, num_workers=1):
    """Throughput report: rate = edges processed per second."""
    if elapsed_seconds <= 0:
        raise ValueError("elapsed_seconds must be positive")
    return ComputationalReport(
        num_edges=int(num_edges),
        elapsed_seconds=float(elapsed_seconds),
        rate_edges_per_second=num_edges / elapsed_seconds,
        num_workers=num_workers,
        peak_memory_bytes=peak_memory_bytes(),
    )
