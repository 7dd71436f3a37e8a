import numpy as np
import pytest

import oracle
from candgen import retrieval


@pytest.fixture
def tied_index():
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(40, 6))
    matrix[[5, 17, 30]] = matrix[2]  # four identical rows
    ids = [f"e{i:03d}" for i in rng.permutation(40)]
    return matrix, ids, oracle.id_ranks(ids)


@pytest.mark.parametrize("metric", ["dot", "cosine", "euclidean"])
def test_program_top_k_matches_full_sort(tied_index, metric):
    matrix, ids, ranks = tied_index
    index = retrieval.EmbeddingIndex(ids, matrix)
    for q in np.random.default_rng(1).normal(size=(20, 6)):
        got = retrieval.top_k(index, q, 10, metric).candidates
        assert oracle.matches(got, oracle.full_sort(matrix, ids, ranks, q, metric, 10))


def test_rejects_a_wrong_ranking(tied_index):
    matrix, ids, ranks = tied_index
    q = np.ones(6)
    want = oracle.full_sort(matrix, ids, ranks, q, "dot", 8)
    planted = [want[1], want[0], *want[2:]]
    assert not oracle.matches(planted, want)
    assert not oracle.matches(want[:-1], want)


def test_rejects_a_tie_broken_the_wrong_way(tied_index):
    matrix, ids, ranks = tied_index
    q = matrix[2]  # the four tied rows are at distance 0
    want = oracle.full_sort(matrix, ids, ranks, q, "euclidean", 4)
    tied = sorted(ids[i] for i in (2, 5, 17, 30))
    assert [e for e, _ in want] == tied
    planted = list(reversed(want))  # same ids and scores, ids descending
    assert not oracle.matches(planted, want)


def test_score_tolerance_is_1e9():
    want = [("a", 0.5), ("b", 123.0)]
    assert oracle.matches([("a", 0.5 + 5e-10), ("b", 123.0 + 1e-7)], want)
    assert not oracle.matches([("a", 0.5 + 2e-9), ("b", 123.0)], want)


def test_accuracy_counts_every_gold_mention():
    results = {"m1": [("e1", 1.0), ("e9", 0.5)]}  # m2 has no results at all
    gold = {"m1": "e1", "m2": "e2"}
    assert oracle.accuracy(results, gold, 1) == 0.5
    # an eval report that divided by the rows present would claim 1.0
    report = {"mention_count": "1", "accuracy@1": "1.000000"}
    assert not oracle.report_agrees(report, len(gold), {1: 0.5})
    assert oracle.report_agrees({"mention_count": "2", "accuracy@1": "0.500000"},
                                len(gold), {1: 0.5})


def test_train_log_must_be_finite(tmp_path):
    path = tmp_path / "train.log"
    path.write_text("0\t2.5\t1e-3\n1\tnan\t5e-4\n")
    assert not oracle.train_log_ok(path, 2)
    path.write_text("0\t2.5\t1e-3\n1\t2.1\t5e-4\n")
    assert oracle.train_log_ok(path, 2)
    assert not oracle.train_log_ok(path, 3)
    path.write_text("0\tnot-a-number\n")
    assert not oracle.train_log_ok(path, 1)


def test_malformed_outputs_are_rejected(tmp_path):
    results = tmp_path / "results.tsv"
    results.write_text("m1\t1\te1\t0.5\nm1\t3\te2\t0.4\n")  # rank 2 missing
    with pytest.raises(ValueError):
        oracle.read_results(results)
    report = tmp_path / "eval.report"
    report.write_text("mention_count\t2\naccuracy@1 0.5\n")
    assert oracle.read_report(report) == {}
