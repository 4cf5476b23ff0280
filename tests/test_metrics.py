import math
from itertools import combinations

import numpy as np
import pytest

from sbpart.metrics import (blockwise_precision_recall, build_contingency,
                            computational_report, correctness_report,
                            information_metrics, overall_accuracy,
                            pairwise_metrics)


def brute_force_categories(truth, output):
    c1 = c2 = c3 = c4 = 0
    for i, j in combinations(range(len(truth)), 2):
        st = truth[i] == truth[j]
        so = output[i] == output[j]
        if st and so:
            c1 += 1
        elif not st and not so:
            c2 += 1
        elif st:
            c3 += 1
        else:
            c4 += 1
    return c1, c2, c3, c4


def test_contingency_basic():
    t = build_contingency([0, 0, 1], [0, 0, 1])
    assert t.counts.tolist() == [[2, 0], [0, 1]]
    assert t.grand_total == 3


def test_contingency_mask():
    t = build_contingency([0, 0, 1, 1], [0, 1, 1, 1],
                          mask=[True, False, True, True])
    assert t.grand_total == 3
    assert t.counts.tolist() == [[1, 0], [0, 2]]


def test_contingency_errors():
    with pytest.raises(ValueError):
        build_contingency([0, 1], [0])
    with pytest.raises(ValueError):
        build_contingency([0, 1], [0, 1], mask=[False, False])
    with pytest.raises(ValueError):
        build_contingency([0, 1], [0, 1], mask=[True])


def test_table1_unit_counting(table1):
    truth, output = table1
    t = build_contingency(truth, output)
    assert t.counts.tolist() == [[30, 2, 0], [1, 20, 3]]
    assert overall_accuracy(t) == pytest.approx(50 / 56, abs=1e-12)
    bw = blockwise_precision_recall(t)
    assert bw.precision[0] == pytest.approx(30 / 31, abs=1e-12)
    assert bw.precision[1] == pytest.approx(20 / 22, abs=1e-12)
    assert bw.recall[0] == pytest.approx(30 / 32, abs=1e-12)
    assert bw.recall[1] == pytest.approx(20 / 24, abs=1e-12)
    # third output block has no matched truth block: surplus, precision 0
    assert bw.surplus_output_blocks == [2]
    assert bw.precision[2] == 0.0


def test_table1_pairwise(table1):
    truth, output = table1
    pw = pairwise_metrics(build_contingency(truth, output))
    assert (pw.same_same, pw.diff_diff, pw.same_diff, pw.diff_same) == \
        (629, 698, 143, 70)
    assert pw.precision == pytest.approx(629 / 699, abs=1e-12)
    assert pw.recall == pytest.approx(629 / 772, abs=1e-12)
    assert pw.rand_index == pytest.approx(1327 / 1540, abs=1e-12)
    assert pw.adjusted_rand_index == pytest.approx(0.7234428590217893,
                                                   abs=1e-12)


def test_table1_information(table1):
    truth, output = table1
    info = information_metrics(build_contingency(truth, output))
    assert info.mutual_information == pytest.approx(0.4843424612922911,
                                                    abs=1e-12)
    assert info.truth_entropy == pytest.approx(0.6829081047004717, abs=1e-12)
    assert info.output_entropy == pytest.approx(0.8512021518257418, abs=1e-12)
    assert info.precision == pytest.approx(0.5690099117506058, abs=1e-12)
    assert info.recall == pytest.approx(0.7092351927858978, abs=1e-12)


def test_pairwise_matches_brute_force():
    """Closed-form categories equal explicit all-pairs enumeration."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 41))
        truth = rng.integers(0, rng.integers(1, 6), n)
        output = rng.integers(0, rng.integers(1, 6), n)
        pw = pairwise_metrics(build_contingency(truth, output))
        assert (pw.same_same, pw.diff_diff, pw.same_diff, pw.diff_same) == \
            brute_force_categories(truth, output)
        total = n * (n - 1) // 2
        assert pw.same_same + pw.diff_diff + pw.same_diff + pw.diff_same \
            == total


def test_pairwise_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        a = rng.integers(0, 4, n)
        b = rng.integers(0, 4, n)
        pw = pairwise_metrics(build_contingency(a, b))
        sw = pairwise_metrics(build_contingency(b, a))
        assert pw.rand_index == pytest.approx(sw.rand_index, abs=1e-12)
        assert pw.adjusted_rand_index == pytest.approx(
            sw.adjusted_rand_index, abs=1e-12)
        assert pw.precision == pytest.approx(sw.recall, abs=1e-12)
        assert pw.recall == pytest.approx(sw.precision, abs=1e-12)
        info = information_metrics(build_contingency(a, b))
        info_sw = information_metrics(build_contingency(b, a))
        assert info.mutual_information == pytest.approx(
            info_sw.mutual_information, abs=1e-12)


def test_identical_partitions_score_one():
    a = [0, 0, 1, 1, 2]
    t = build_contingency(a, a)
    assert overall_accuracy(t) == 1.0
    pw = pairwise_metrics(t)
    assert pw.precision == pw.recall == pw.rand_index == 1.0
    assert pw.adjusted_rand_index == 1.0
    info = information_metrics(t)
    assert info.precision == pytest.approx(1.0)
    assert info.recall == pytest.approx(1.0)


def test_single_block_both_sides():
    # zero entropy on both sides with zero MI: ratios defined as 1
    t = build_contingency([0, 0, 0], [0, 0, 0])
    info = information_metrics(t)
    assert info.mutual_information == 0.0
    assert info.precision == 1.0 and info.recall == 1.0
    pw = pairwise_metrics(t)
    assert pw.rand_index == 1.0 and pw.adjusted_rand_index == 1.0


def test_accuracy_invariant_under_relabeling():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(3, 40))
        truth = rng.integers(0, 4, n)
        output = rng.integers(0, 4, n)
        base = overall_accuracy(build_contingency(truth, output))
        perm = rng.permutation(10)
        relabeled = perm[output]
        assert overall_accuracy(build_contingency(truth, relabeled)) \
            == pytest.approx(base, abs=1e-12)
        info = information_metrics(build_contingency(truth, output))
        info2 = information_metrics(build_contingency(truth, relabeled))
        assert info.mutual_information == pytest.approx(
            info2.mutual_information, abs=1e-12)


def test_mi_bounds():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        t = build_contingency(rng.integers(0, 5, n), rng.integers(0, 5, n))
        info = information_metrics(t)
        assert 0.0 <= info.mutual_information \
            <= min(info.truth_entropy, info.output_entropy) + 1e-12


def test_pairwise_needs_two_nodes():
    with pytest.raises(ValueError):
        pairwise_metrics(build_contingency([0], [0]))


def test_correctness_report_fields(table1):
    truth, output = table1
    rep = correctness_report(truth, output).to_dict()
    assert rep["num_nodes_evaluated"] == 56
    assert rep["overall_accuracy"] == pytest.approx(50 / 56)
    assert rep["pair_categories"]["same_same"] == 629
    assert rep["info_precision"] == pytest.approx(0.569, abs=1e-3)


def test_computational_report_arithmetic():
    rep = computational_report(10**6, 100.0)
    assert rep.rate_edges_per_second == pytest.approx(1e4)
    half = computational_report(10**6, 200.0)
    assert half.rate_edges_per_second == pytest.approx(
        rep.rate_edges_per_second / 2)
    assert rep.energy_watts is None and rep.rate_per_watt is None
    with pytest.raises(ValueError):
        computational_report(10, 0.0)
