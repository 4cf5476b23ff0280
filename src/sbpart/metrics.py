"""Partition correctness metrics and computational reporting.

Three metric families over the truth-vs-output contingency table: unit
counting (assignment-matched accuracy and blockwise precision/recall),
pairwise counting (Rand index, adjusted Rand index, pairwise
precision/recall), and information-theoretic (mutual information ratios).
Entropies are in nats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass
class ContingencyTable:
    counts: np.ndarray          # R truth blocks x C output blocks
    row_labels: np.ndarray      # original truth block labels per row
    col_labels: np.ndarray      # original output block labels per column

    @property
    def row_totals(self):
        return self.counts.sum(axis=1)

    @property
    def col_totals(self):
        return self.counts.sum(axis=0)

    @property
    def grand_total(self):
        return int(self.counts.sum())


def _labels(p):
    return np.asarray(p.assignment if hasattr(p, "assignment") else p,
                      dtype=np.int64)


def build_contingency(truth, output, mask=None):
    """counts[t][o] = number of masked-in nodes with truth t and output o."""
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
    return ContingencyTable(counts, row_labels, col_labels)


def _matching(table):
    """Injective truth-output block matching maximizing matched nodes."""
    rows, cols = linear_sum_assignment(table.counts, maximize=True)
    return list(zip(rows.tolist(), cols.tolist()))


def overall_accuracy(table):
    """Fraction of nodes on the optimally matched diagonal."""
    matched = sum(int(table.counts[r, c]) for r, c in _matching(table))
    return matched / table.grand_total


@dataclass
class BlockwisePR:
    precision: np.ndarray          # per output block; 0 for unmatched blocks
    recall: np.ndarray             # per truth block
    matched_pairs: list            # (truth row, output col) index pairs
    surplus_output_blocks: list    # output cols with no matched truth block


def blockwise_precision_recall(table):
    pairs = _matching(table)
    col_tot = table.col_totals
    row_tot = table.row_totals
    precision = np.zeros(table.counts.shape[1])
    recall = np.zeros(table.counts.shape[0])
    matched_cols = set()
    for r, c in pairs:
        matched_cols.add(c)
        if col_tot[c] > 0:
            precision[c] = table.counts[r, c] / col_tot[c]
        if row_tot[r] > 0:
            recall[r] = table.counts[r, c] / row_tot[r]
    surplus = [c for c in range(table.counts.shape[1])
               if c not in matched_cols]
    return BlockwisePR(precision, recall, pairs, surplus)


@dataclass
class PairwiseMetrics:
    same_same: int          # category 1: same truth block, same output block
    diff_diff: int          # category 2
    same_diff: int          # category 3
    diff_same: int          # category 4
    rand_index: float
    adjusted_rand_index: float
    precision: float
    recall: float


def _c2(x):
    x = np.asarray(x, dtype=object)
    return int(np.sum(x * (x - 1) // 2))


def pairwise_metrics(table):
    """Closed-form pair categories from the contingency table (no pair loop)."""
    n = table.grand_total
    if n < 2:
        raise ValueError("need at least two nodes for pairwise metrics")
    c1 = _c2(table.counts.ravel())
    same_truth = _c2(table.row_totals)
    same_out = _c2(table.col_totals)
    total = n * (n - 1) // 2
    c3 = same_truth - c1
    c4 = same_out - c1
    c2 = total - c1 - c3 - c4
    rand = (c1 + c2) / total
    expected = same_truth * same_out / total
    max_index = 0.5 * (same_truth + same_out)
    if max_index == expected:
        ari = 1.0
    else:
        ari = (c1 - expected) / (max_index - expected)
    precision = c1 / (c1 + c4) if c1 + c4 > 0 else 1.0
    recall = c1 / (c1 + c3) if c1 + c3 > 0 else 1.0
    return PairwiseMetrics(c1, c2, c3, c4, rand, ari, precision, recall)


@dataclass
class InformationMetrics:
    mutual_information: float
    truth_entropy: float
    output_entropy: float
    precision: float | None     # I / H(output); None if undefined
    recall: float | None        # I / H(truth)


def information_metrics(table):
    """Plug-in entropies and mutual information (nats) from the table."""
    n = table.grand_total
    pt = table.row_totals / n
    po = table.col_totals / n
    h_t = float(-np.sum(pt[pt > 0] * np.log(pt[pt > 0])))
    h_o = float(-np.sum(po[po > 0] * np.log(po[po > 0])))
    mi = 0.0
    for r in range(table.counts.shape[0]):
        for c in range(table.counts.shape[1]):
            nij = table.counts[r, c]
            if nij > 0:
                pij = nij / n
                mi += pij * math.log(pij / (pt[r] * po[c]))
    mi = max(mi, 0.0)

    def ratio(h):
        if h > 0:
            return mi / h
        return 1.0 if mi == 0.0 else None

    return InformationMetrics(mi, h_t, h_o, ratio(h_o), ratio(h_t))


@dataclass
class CorrectnessReport:
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
    info_precision: float | None
    info_recall: float | None

    def to_dict(self):
        return asdict(self)


def correctness_report(truth, output, mask=None):
    table = build_contingency(truth, output, mask)
    pw = pairwise_metrics(table)
    info = information_metrics(table)
    bw = blockwise_precision_recall(table)
    return CorrectnessReport(
        num_nodes_evaluated=table.grand_total,
        overall_accuracy=overall_accuracy(table),
        blockwise_precision=bw.precision.tolist(),
        blockwise_recall=bw.recall.tolist(),
        pair_categories={"same_same": pw.same_same, "diff_diff": pw.diff_diff,
                         "same_diff": pw.same_diff, "diff_same": pw.diff_same},
        rand_index=pw.rand_index,
        adjusted_rand_index=pw.adjusted_rand_index,
        pairwise_precision=pw.precision,
        pairwise_recall=pw.recall,
        mutual_information=info.mutual_information,
        truth_entropy=info.truth_entropy,
        output_entropy=info.output_entropy,
        info_precision=info.precision,
        info_recall=info.recall,
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
