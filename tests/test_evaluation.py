import numpy as np
import pytest

from candgen import evaluation as Ev
from candgen.retrieval import RetrievalResult


def planted_results(rng, n_mentions, n_candidates, gold_ranks):
    """Results with the gold entity planted at a known 1-based rank (or absent)."""
    results, gold = [], {}
    for i in range(n_mentions):
        mid = f"m{i:03d}"
        gold_id = f"gold{i:03d}"
        cands = [(f"filler{i}_{j}", float(n_candidates - j)) for j in range(n_candidates)]
        rank = gold_ranks[i]
        if rank is not None:
            cands[rank - 1] = (gold_id, float(n_candidates - rank + 1))
        results.append(RetrievalResult(mention_id=mid, candidates=cands))
        gold[mid] = gold_id
    return results, gold


def test_accuracy_examples():
    rng = np.random.default_rng(0)
    results, gold = planted_results(rng, 2, 5, [1, 3])
    assert Ev.accuracy_at_k(results, gold, 1) == 0.5
    assert Ev.accuracy_at_k(results, gold, 3) == 1.0


def test_accuracy_zero_when_gold_absent():
    rng = np.random.default_rng(1)
    results, gold = planted_results(rng, 3, 5, [None, None, None])
    assert Ev.accuracy_at_k(results, gold, 5) == 0.0


def test_accuracy_matches_rank_count_oracle():
    rng = np.random.default_rng(2)
    ranks = [int(r) for r in rng.integers(1, 21, size=100)]
    results, gold = planted_results(rng, 100, 20, ranks)
    for k in (1, 5, 10, 20):
        oracle = sum(1 for r in ranks if r <= k) / len(ranks)
        assert Ev.accuracy_at_k(results, gold, k) == oracle


def test_accuracy_monotone_in_k():
    rng = np.random.default_rng(3)
    ranks = [int(r) for r in rng.integers(1, 16, size=60)]
    results, gold = planted_results(rng, 60, 15, ranks)
    accs = [Ev.accuracy_at_k(results, gold, k) for k in range(1, 16)]
    assert accs == sorted(accs)
    assert accs[-1] == 1.0  # gold always planted within the candidate list


def test_missing_gold_rejected():
    results = [RetrievalResult("m1", [("e1", 1.0)])]
    with pytest.raises(Ev.EvaluationError):
        Ev.accuracy_at_k(results, {}, 1)


def test_too_few_candidates_rejected():
    results = [RetrievalResult("m1", [("e1", 1.0)])]
    with pytest.raises(Ev.EvaluationError):
        Ev.accuracy_at_k(results, {"m1": "e1"}, 2)


def test_report_all_gold_at_rank_one():
    rng = np.random.default_rng(4)
    results, gold = planted_results(rng, 10, 5, [1] * 10)
    worlds = {r.mention_id: "w1" for r in results}
    report = Ev.build_report(results, gold, worlds, ks=(1, 3, 5))
    assert all(acc == 1.0 for acc in report.accuracy_by_k.values())


def test_macro_is_mean_of_world_accuracies():
    rng = np.random.default_rng(5)
    results, gold = planted_results(rng, 20, 5, [1] * 10 + [5] * 10)
    worlds = {}
    for i, r in enumerate(results):
        worlds[r.mention_id] = "wa" if i < 10 else "wb"
    report = Ev.build_report(results, gold, worlds, ks=(1,))
    expected = (report.per_world["wa"][1] + report.per_world["wb"][1]) / 2
    assert report.macro_by_k[1] == expected
    assert report.per_world["wa"][1] == 1.0
    assert report.per_world["wb"][1] == 0.0


def test_micro_equals_pooled_accuracy():
    rng = np.random.default_rng(6)
    ranks = [int(r) for r in rng.integers(1, 6, size=40)]
    results, gold = planted_results(rng, 40, 5, ranks)
    worlds = {r.mention_id: ("wa" if i % 3 else "wb") for i, r in enumerate(results)}
    report = Ev.build_report(results, gold, worlds, ks=(2,))
    assert report.accuracy_by_k[2] == Ev.accuracy_at_k(results, gold, 2)


def test_report_invariant_to_mention_order():
    rng = np.random.default_rng(7)
    ranks = [int(r) for r in rng.integers(1, 6, size=30)]
    results, gold = planted_results(rng, 30, 5, ranks)
    worlds = {r.mention_id: "w" for r in results}
    fwd = Ev.build_report(results, gold, worlds, ks=(1, 3))
    rev = Ev.build_report(list(reversed(results)), gold, worlds, ks=(1, 3))
    assert fwd.accuracy_by_k == rev.accuracy_by_k
    assert fwd.per_world == rev.per_world


def test_write_report_files(tmp_path):
    rng = np.random.default_rng(8)
    results, gold = planted_results(rng, 10, 5, [1, 2, 3, 4, 5] * 2)
    worlds = {r.mention_id: "w" for r in results}
    report = Ev.build_report(results, gold, worlds, ks=(1, 5), metric="dot")
    rpath, cpath = tmp_path / "out.report", tmp_path / "out.curve"
    Ev.write_report(report, rpath, cpath)
    kv = dict(line.split("\t") for line in rpath.read_text().splitlines())
    assert kv["metric"] == "dot"
    assert kv["accuracy@1"] == "0.200000"
    curve_rows = [line.split("\t") for line in cpath.read_text().splitlines()]
    assert curve_rows == [["1", "0.200000"], ["5", "1.000000"]]
