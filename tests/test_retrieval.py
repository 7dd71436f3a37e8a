import numpy as np
import pytest

from candgen import retrieval as R
from candgen.encoder import EncoderConfig, init_params
from candgen.templates import shared_slot_count


def brute_force_top_k(ids, matrix, query, k, metric):
    """Independent full-sort oracle, same tie-breaking rule."""
    scored = []
    for eid, row in zip(ids, matrix):
        scored.append((eid, R.similarity(row, query, metric)))
    reverse = metric != R.EUCLIDEAN
    scored.sort(key=lambda t: ((-t[1] if reverse else t[1]), t[0]))
    return [eid for eid, _ in scored[:k]]


def make_index(rng, n=50, p=8):
    ids = [f"e{i:04d}" for i in range(n)]
    return R.EmbeddingIndex(entity_ids=ids, matrix=rng.normal(size=(n, p)))


def test_similarity_examples():
    assert R.similarity([1, 0], [0, 1], R.COSINE) == 0.0
    assert R.similarity([1, 2], [3, 4], R.DOT) == 11.0
    assert R.similarity([0, 0], [3, 4], R.EUCLIDEAN) == 5.0
    with pytest.raises(R.RetrievalError):
        R.similarity([0, 0], [1, 1], R.COSINE)
    with pytest.raises(R.RetrievalError):
        R.similarity([1], [1, 2], R.DOT)
    with pytest.raises(R.RetrievalError):
        R.similarity([1], [1], "manhattan")


def test_top_k_simple():
    index = R.EmbeddingIndex(["e1", "e2"], np.array([[1.0, 0.0], [0.0, 1.0]]))
    result = R.top_k(index, np.array([1.0, 0.0]), 1, R.DOT)
    assert result.candidates == [("e1", 1.0)]


def test_tie_break_ascending_entity_id():
    index = R.EmbeddingIndex(["e9", "e1", "e5"], np.ones((3, 2)))
    result = R.top_k(index, np.array([1.0, 1.0]), 2, R.DOT)
    assert [eid for eid, _ in result.candidates] == ["e1", "e5"]


def test_k_above_index_size_rejected():
    index = R.EmbeddingIndex(["e1"], np.ones((1, 2)))
    with pytest.raises(R.RetrievalError):
        R.top_k(index, np.ones(2), 2, R.DOT)


def test_query_dimension_checked():
    index = R.EmbeddingIndex(["e1"], np.ones((1, 2)))
    with pytest.raises(R.RetrievalError):
        R.top_k(index, np.ones(3), 1, R.DOT)


@pytest.mark.parametrize("metric", R.ALL_METRICS)
def test_matches_brute_force_oracle(metric):
    rng = np.random.default_rng(hash(metric) % 2**32)
    index = make_index(rng, n=200, p=8)
    for _ in range(5):
        q = rng.normal(size=8)
        got = [eid for eid, _ in R.top_k(index, q, 20, metric).candidates]
        assert got == brute_force_top_k(index.entity_ids, index.matrix, q, 20, metric)


def test_oracle_with_planted_ties():
    rng = np.random.default_rng(9)
    matrix = rng.normal(size=(30, 4))
    matrix[10] = matrix[3]
    matrix[25] = matrix[3]
    ids = [f"e{i:03d}" for i in range(30)]
    index = R.EmbeddingIndex(ids, matrix)
    q = matrix[3] * 2.0
    for metric in R.ALL_METRICS:
        got = [eid for eid, _ in R.top_k(index, q, 30, metric).candidates]
        assert got == brute_force_top_k(ids, matrix, q, 30, metric)


def test_metric_consistency_on_unit_vectors():
    rng = np.random.default_rng(11)
    matrix = rng.normal(size=(100, 6))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    index = R.EmbeddingIndex([f"e{i:03d}" for i in range(100)], matrix)
    for _ in range(20):
        q = rng.normal(size=6)
        q /= np.linalg.norm(q)
        dot = [e for e, _ in R.top_k(index, q, 100, R.DOT).candidates]
        cos = [e for e, _ in R.top_k(index, q, 100, R.COSINE).candidates]
        euc = [e for e, _ in R.top_k(index, q, 100, R.EUCLIDEAN).candidates]
        assert dot == cos == euc


def test_cosine_scale_invariance():
    rng = np.random.default_rng(12)
    index = make_index(rng, n=40, p=5)
    scaled = R.EmbeddingIndex(
        list(index.entity_ids), index.matrix * rng.uniform(0.1, 10, size=(40, 1))
    )
    q = rng.normal(size=5)
    a = [e for e, _ in R.top_k(index, q, 40, R.COSINE).candidates]
    b = [e for e, _ in R.top_k(scaled, q, 40, R.COSINE).candidates]
    assert a == b
    # dot ranking is invariant to positive scaling of the query only
    c = [e for e, _ in R.top_k(index, q, 40, R.DOT).candidates]
    d = [e for e, _ in R.top_k(index, q * 7.5, 40, R.DOT).candidates]
    assert c == d


def test_smaller_k_is_prefix_of_larger():
    rng = np.random.default_rng(13)
    index = make_index(rng)
    q = rng.normal(size=8)
    for metric in R.ALL_METRICS:
        small = [e for e, _ in R.top_k(index, q, 10, metric).candidates]
        large = [e for e, _ in R.top_k(index, q, 30, metric).candidates]
        assert large[:10] == small


def test_full_ordering_consistent_with_pairwise():
    rng = np.random.default_rng(14)
    index = make_index(rng, n=30)
    q = rng.normal(size=8)
    result = R.top_k(index, q, 30, R.DOT)
    scores = [s for _, s in result.candidates]
    assert scores == sorted(scores, reverse=True)


def test_build_index_shapes_and_determinism(toy_world, toy_vocab):
    cfg = EncoderConfig(dim=16, layers=1, heads=2, ff_dim=32, max_len=16,
                        vocab_size=len(toy_vocab))
    params = init_params(cfg)
    i1 = R.build_index(toy_world.entities[:3], params, cfg, toy_vocab, "cls")
    assert i1.matrix.shape == (3, 16)
    i2 = R.build_index(toy_world.entities[:3], params, cfg, toy_vocab, "cls")
    np.testing.assert_array_equal(i1.matrix, i2.matrix)
    assert i1.entity_ids == [e.entity_id for e in toy_world.entities[:3]]


def test_build_index_conc_special_padded_slots(toy_world, toy_vocab):
    cfg = EncoderConfig(dim=8, layers=0, heads=2, ff_dim=16, max_len=16,
                        vocab_size=len(toy_vocab))
    params = init_params(cfg)
    slots = shared_slot_count(False)
    idx = R.build_index(toy_world.entities[:4], params, cfg, toy_vocab,
                        "conc_special", slot_count=slots)
    assert idx.matrix.shape == (4, slots * 8)
    # entity side has 3 specials; the 4th slot stays zero
    np.testing.assert_array_equal(idx.matrix[:, 3 * 8 :], 0.0)


def test_build_index_empty_dictionary_rejected(toy_vocab):
    cfg = EncoderConfig(dim=8, layers=0, heads=2, ff_dim=16, max_len=16,
                        vocab_size=len(toy_vocab))
    with pytest.raises(R.RetrievalError):
        R.build_index([], init_params(cfg), cfg, toy_vocab, "cls")


def test_build_index_workers_match_serial(toy_world, toy_vocab):
    cfg = EncoderConfig(dim=8, layers=1, heads=2, ff_dim=16, max_len=16,
                        vocab_size=len(toy_vocab))
    params = init_params(cfg)
    entities = toy_world.entities * 7  # three encoder chunks
    serial = R.build_index(entities, params, cfg, toy_vocab, "cls")
    parallel = R.build_index(entities, params, cfg, toy_vocab, "cls", workers=4)
    np.testing.assert_array_equal(serial.matrix, parallel.matrix)
    np.testing.assert_array_equal(serial.matrix, np.tile(serial.matrix[:20], (7, 1)))


def test_index_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    index = make_index(rng, n=7, p=3)
    index.metric = R.COSINE
    index.pooling_kind = "avg"
    index.world = "toyworld"
    prefix = str(tmp_path / "idx")
    R.save_index(index, prefix)
    loaded = R.load_index(prefix)
    assert loaded.entity_ids == index.entity_ids
    np.testing.assert_array_equal(loaded.matrix, index.matrix)
    assert (loaded.metric, loaded.pooling_kind, loaded.world) == ("cosine", "avg", "toyworld")


def test_misaligned_index_rejected():
    with pytest.raises(R.RetrievalError):
        R.EmbeddingIndex(["e1"], np.ones((2, 2)))
    with pytest.raises(R.RetrievalError):
        R.EmbeddingIndex(["e1"], np.array([[np.nan, 1.0]]))
