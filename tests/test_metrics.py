import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbpart import metrics
from sbpart.metrics import (build_contingency, computational_report,
                            correctness_report)


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


def categories(rep):
    cats = rep.pair_categories
    return (cats["same_same"], cats["diff_diff"], cats["same_diff"],
            cats["diff_same"])


def test_contingency_basic():
    t = build_contingency([0, 0, 1], [0, 0, 1])
    assert t.tolist() == [[2, 0], [0, 1]]
    assert t.sum() == 3


def test_contingency_mask():
    t = build_contingency([0, 0, 1, 1], [0, 1, 1, 1],
                          mask=[True, False, True, True])
    assert t.sum() == 3
    assert t.tolist() == [[1, 0], [0, 2]]


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
    assert t.tolist() == [[30, 2, 0], [1, 20, 3]]
    rep = correctness_report(truth, output)
    assert rep.overall_accuracy == pytest.approx(50 / 56, abs=1e-12)
    assert rep.blockwise_precision[0] == pytest.approx(30 / 31, abs=1e-12)
    assert rep.blockwise_precision[1] == pytest.approx(20 / 22, abs=1e-12)
    assert rep.blockwise_recall[0] == pytest.approx(30 / 32, abs=1e-12)
    assert rep.blockwise_recall[1] == pytest.approx(20 / 24, abs=1e-12)
    # third output block has no matched truth block: surplus, precision 0
    assert rep.blockwise_precision[2] == 0.0


def test_table1_pairwise(table1):
    truth, output = table1
    pw = correctness_report(truth, output)
    assert categories(pw) == (629, 698, 143, 70)
    assert pw.pairwise_precision == pytest.approx(629 / 699, abs=1e-12)
    assert pw.pairwise_recall == pytest.approx(629 / 772, abs=1e-12)
    assert pw.rand_index == pytest.approx(1327 / 1540, abs=1e-12)
    assert pw.adjusted_rand_index == pytest.approx(0.7234428590217893,
                                                   abs=1e-12)


def test_table1_information(table1):
    truth, output = table1
    info = correctness_report(truth, output)
    assert info.mutual_information == pytest.approx(0.4843424612922911,
                                                    abs=1e-12)
    assert info.truth_entropy == pytest.approx(0.6829081047004717, abs=1e-12)
    assert info.output_entropy == pytest.approx(0.8512021518257418, abs=1e-12)
    assert info.info_precision == pytest.approx(0.5690099117506058,
                                                abs=1e-12)
    assert info.info_recall == pytest.approx(0.7092351927858978, abs=1e-12)


def test_pairwise_matches_brute_force():
    """Closed-form categories equal explicit all-pairs enumeration."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 41))
        truth = rng.integers(0, rng.integers(1, 6), n)
        output = rng.integers(0, rng.integers(1, 6), n)
        cats = categories(correctness_report(truth, output))
        assert cats == brute_force_categories(truth, output)
        assert sum(cats) == n * (n - 1) // 2


def test_pairwise_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        a = rng.integers(0, 4, n)
        b = rng.integers(0, 4, n)
        pw = correctness_report(a, b)
        sw = correctness_report(b, a)
        assert pw.rand_index == pytest.approx(sw.rand_index, abs=1e-12)
        assert pw.adjusted_rand_index == pytest.approx(
            sw.adjusted_rand_index, abs=1e-12)
        assert pw.pairwise_precision == pytest.approx(sw.pairwise_recall,
                                                      abs=1e-12)
        assert pw.pairwise_recall == pytest.approx(sw.pairwise_precision,
                                                   abs=1e-12)
        assert pw.mutual_information == pytest.approx(
            sw.mutual_information, abs=1e-12)


def test_identical_partitions_score_one():
    a = [0, 0, 1, 1, 2]
    rep = correctness_report(a, a)
    assert rep.overall_accuracy == 1.0
    assert rep.pairwise_precision == rep.pairwise_recall == \
        rep.rand_index == 1.0
    assert rep.adjusted_rand_index == 1.0
    assert rep.info_precision == pytest.approx(1.0)
    assert rep.info_recall == pytest.approx(1.0)


def test_single_block_both_sides():
    # zero entropy on both sides with zero MI: ratios defined as 1
    rep = correctness_report([0, 0, 0], [0, 0, 0])
    assert rep.mutual_information == 0.0
    assert rep.info_precision == 1.0 and rep.info_recall == 1.0
    assert rep.rand_index == 1.0 and rep.adjusted_rand_index == 1.0


def test_accuracy_invariant_under_relabeling():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(3, 40))
        truth = rng.integers(0, 4, n)
        output = rng.integers(0, 4, n)
        base = correctness_report(truth, output)
        perm = rng.permutation(10)
        relabeled = correctness_report(truth, perm[output])
        assert relabeled.overall_accuracy == pytest.approx(
            base.overall_accuracy, abs=1e-12)
        assert base.mutual_information == pytest.approx(
            relabeled.mutual_information, abs=1e-12)


def test_mi_bounds():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        info = correctness_report(rng.integers(0, 5, n),
                                  rng.integers(0, 5, n))
        assert 0.0 <= info.mutual_information \
            <= min(info.truth_entropy, info.output_entropy) + 1e-12


def test_pairwise_needs_two_nodes():
    with pytest.raises(ValueError):
        correctness_report([0], [0])


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


def test_one_matching_per_report(table1, monkeypatch):
    """Accuracy and blockwise precision/recall share one block matching."""
    solve = metrics.linear_sum_assignment
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(metrics, "linear_sum_assignment", counting)
    correctness_report(*table1)
    assert len(calls) == 1


@st.composite
def _masked_labellings(draw):
    n = draw(st.integers(2, 40))
    labels = st.lists(st.integers(0, 6), min_size=n, max_size=n)
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(
        lambda m: sum(m) >= 2))
    return (np.array(draw(labels)), np.array(draw(labels)), np.array(mask))


@settings(max_examples=200, deadline=None)
@given(case=_masked_labellings())
def test_mask_equals_restriction(case):
    """Scoring under a mask is scoring the masked-in nodes alone."""
    truth, output, mask = case
    assert correctness_report(truth, output, mask) == \
        correctness_report(truth[mask], output[mask])
