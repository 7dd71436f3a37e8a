import os
import re
import struct
import time
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candgen import pooling
from candgen import retrieval as R
from candgen.encoder import EncoderConfig, init_params
from candgen.templates import build_entity_sequence, build_mention_sequence, shared_slot_count
from candgen.training import forward_pooled
from index_files import index_with_header, split_index
from row_scores import similarity


def brute_force_pairs(ids, matrix, query, metric):
    """Independent full-sort oracle: every row scored on its own, ties by id."""
    scored = [(eid, similarity(row, query, metric)) for eid, row in zip(ids, matrix)]
    reverse = metric != R.EUCLIDEAN
    scored.sort(key=lambda t: ((-t[1] if reverse else t[1]), t[0]))
    return scored


def brute_force_top_k(ids, matrix, query, k, metric):
    """Independent full-sort oracle, same tie-breaking rule."""
    return [eid for eid, _ in brute_force_pairs(ids, matrix, query, metric)[:k]]


def einsum_norms(matrix):
    return np.sqrt(np.einsum("ij,ij->i", matrix, matrix))


def score_alone(row, query, metric):
    """A row's score with the row alone as a one-row matrix, so that no other
    row and no position in an index can change its bits."""
    row = row[None, :]
    if metric == R.EUCLIDEAN:
        return float(np.linalg.norm(row - query, axis=1)[0])
    score = np.einsum("ij,j->i", row, query)[0]
    if metric == R.COSINE:
        score /= einsum_norms(row)[0] * np.linalg.norm(query)
    return float(score)


def full_sort_top_k(ids, matrix, query, k, metric):
    """First k (id, score) pairs of every row, each scored alone, sorted by
    score, then id; NaN scores sort last, among themselves by id."""
    sign = 1.0 if metric == R.EUCLIDEAN else -1.0

    def key(pair):
        eid, score = pair
        return np.isnan(score), 0.0 if np.isnan(score) else sign * score, eid

    return sorted(((eid, score_alone(row, query, metric)) for eid, row in zip(ids, matrix)),
                  key=key)[:k]


def score_bits(candidates):
    """(id, score) pairs with each score as its exact hex text, so that NaN
    scores compare equal and -0.0 differs from 0.0."""
    return [(eid, score.hex()) for eid, score in candidates]


def make_index(rng, n=50, p=8):
    ids = [f"e{i:04d}" for i in range(n)]
    return R.EmbeddingIndex(entity_ids=ids, matrix=rng.normal(size=(n, p)))


def test_similarity_examples():
    assert similarity([1, 0], [0, 1], R.COSINE) == 0.0
    assert similarity([1, 2], [3, 4], R.DOT) == 11.0
    assert similarity([0, 0], [3, 4], R.EUCLIDEAN) == 5.0
    with pytest.raises(R.RetrievalError):
        similarity([0, 0], [1, 1], R.COSINE)
    with pytest.raises(R.RetrievalError):
        similarity([1], [1, 2], R.DOT)
    with pytest.raises(R.RetrievalError):
        similarity([1], [1], "manhattan")


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
    params = init_params(cfg, 0)
    i1 = R.build_index(toy_world.entities[:3], params, cfg, toy_vocab)
    assert i1.matrix.shape == (3, 16)
    i2 = R.build_index(toy_world.entities[:3], params, cfg, toy_vocab)
    np.testing.assert_array_equal(i1.matrix, i2.matrix)
    assert i1.entity_ids == tuple(e.entity_id for e in toy_world.entities[:3])


def test_build_index_conc_special_padded_slots(toy_world, toy_vocab):
    cfg = EncoderConfig(dim=8, layers=0, heads=2, ff_dim=16, max_len=16,
                        vocab_size=len(toy_vocab), pooling_kind="conc_special")
    params = init_params(cfg, 0)
    slots = shared_slot_count(False)
    idx = R.build_index(toy_world.entities[:4], params, cfg, toy_vocab)
    assert idx.matrix.shape == (4, slots * 8)
    # entity side has 3 specials; the 4th slot stays zero
    np.testing.assert_array_equal(idx.matrix[:, 3 * 8 :], 0.0)


def test_build_index_empty_dictionary_rejected(toy_vocab):
    cfg = EncoderConfig(dim=8, layers=0, heads=2, ff_dim=16, max_len=16,
                        vocab_size=len(toy_vocab))
    with pytest.raises(R.RetrievalError):
        R.build_index([], init_params(cfg, 0), cfg, toy_vocab)


def test_build_index_workers_match_serial(toy_world, toy_vocab, monkeypatch):
    """Entity and mention sequences on two threads get the rows
    ``forward_pooled`` gives each sequence alone, under every pooling, in one
    matrix of the pooled width: for 0, 1, ``EMBED_CHUNK``, 2 ``EMBED_CHUNK``
    + 1 and all (up to four chunks) of the sequences."""
    monkeypatch.setattr(R, "_usable_cpus", lambda: 2)
    cfg = EncoderConfig(dim=8, layers=1, heads=2, ff_dim=16, max_len=16,
                        vocab_size=len(toy_vocab))
    params = init_params(cfg, 0)
    slots = shared_slot_count(True)
    # 80 entities and 100 mentions: the ids differ, the texts repeat
    entities = [replace(e, entity_id=f"{e.entity_id}.{i}")
                for i in range(4) for e in toy_world.entities]
    mention_seqs = [build_mention_sequence(m, toy_world.documents[m.context_document_id],
                                           toy_vocab, cfg.max_len, True)
                    for m in toy_world.mentions * 2]
    entity_seqs = [build_entity_sequence(e, toy_vocab, cfg.max_len, True) for e in entities]
    for kind in pooling.ALL_KINDS:
        width = pooling.pooled_dim(kind, cfg.dim, slots)
        for seqs in (mention_seqs, entity_seqs):
            assert len(seqs) > 2 * R.EMBED_CHUNK + 1
            alone = np.concatenate(
                [forward_pooled(params, cfg, [s], kind, slots)[0] for s in seqs])
            for n in (0, 1, R.EMBED_CHUNK, 2 * R.EMBED_CHUNK + 1, len(seqs)):
                chunked = R.encode_chunked(
                    seqs[:n], lambda c: forward_pooled(params, cfg, c, kind, slots)[0], width)
                np.testing.assert_array_equal(chunked, alone[:n])
        typed = replace(cfg, pooling_kind=kind, use_entity_type=True)
        index = R.build_index(entities, params, typed, toy_vocab)
        np.testing.assert_array_equal(index.matrix, alone)
        assert (index.pooling_kind, index.use_entity_type) == (kind, True)


def test_encode_chunked_takes_no_chunk_after_a_failure(monkeypatch):
    """Once the first of 40 chunks raises, the other thread finishes the
    chunk it holds, and at most one it took meanwhile; the error comes out."""
    monkeypatch.setattr(R, "_usable_cpus", lambda: 2)
    calls = []

    def encode(chunk):
        calls.append(chunk[0])
        if chunk[0] == 0:
            raise ZeroDivisionError
        time.sleep(0.02)
        return np.zeros((len(chunk), 1))

    with pytest.raises(ZeroDivisionError):
        R.encode_chunked(list(range(40 * R.EMBED_CHUNK)), encode, 1)
    assert len(calls) <= 3, calls


def test_index_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    index = replace(make_index(rng, n=7, p=3), pooling_kind="avg")
    prefix = str(tmp_path / "idx")
    R.save_index(index, prefix)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["idx.mat"]
    loaded = R.load_index(prefix)
    assert loaded.entity_ids == index.entity_ids
    np.testing.assert_array_equal(loaded.matrix, index.matrix)
    assert (loaded.pooling_kind, loaded.use_entity_type) == ("avg", False)


_ODD_IDS = ["", "\x85", "\u2028", "\x0b", "é\u4e2d\U0001f600", "a b"]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    p=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(st.sampled_from([-0.0, 5e-324, 1.7e308, -1.7e308, np.nan, np.inf]),
                      max_size=6),
    text_ids=st.lists(st.text(st.characters(codec="utf-8", exclude_characters="\t\r\n")), max_size=30,
                      unique=True),
    planted=st.lists(st.sampled_from(_ODD_IDS), max_size=3, unique=True),
    kind=st.sampled_from(pooling.ALL_KINDS),
    use_types=st.booleans(),
    bad_kind=(st.sampled_from(["CLS", "", None, 0])
              | st.text().filter(lambda s: s not in pooling.ALL_KINDS)),
    bad_types=st.sampled_from([0, 1, "true", None]) | st.integers() | st.text(),
)
def test_index_round_trip_property(
    tmp_path_factory, n, p, seed, specials, text_ids, planted, kind, use_types, bad_kind,
    bad_types,
):
    """A matrix with a row whose norm is not finite is refused, and its rows
    whose norms are finite make an index that loads back unchanged. The same
    ids and rows with an unknown pooling, or a type mode that is not a bool,
    are refused where the index is made, and a refused matrix is left
    writable."""
    ids = list(dict.fromkeys(planted + text_ids))
    ids = (ids + [f"pad{i}" for i in range(n) if f"pad{i}" not in ids])[:n]
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-300, 300, size=(n, p))
    matrix.flat[rng.integers(0, n * p, size=len(specials))] = specials
    for bad in ({"pooling_kind": bad_kind}, {"use_entity_type": bad_types}):
        with pytest.raises(R.RetrievalError, match="pooling|use_entity_type"):
            R.EmbeddingIndex(ids, matrix, **bad)
        assert matrix.flags.writeable
    finite = np.isfinite(einsum_norms(matrix))
    if not finite.all():
        with pytest.raises(R.RetrievalError, match="non-finite embedding row"):
            R.EmbeddingIndex(ids, matrix, pooling_kind=kind, use_entity_type=use_types)
        assert matrix.flags.writeable
        ids, matrix = [i for i, keep in zip(ids, finite) if keep], matrix[finite]
        n = len(ids)
    index = R.EmbeddingIndex(ids, matrix, pooling_kind=kind, use_entity_type=use_types)
    prefix = str(tmp_path_factory.mktemp("idx") / "idx")
    R.save_index(index, prefix)
    loaded = R.load_index(prefix)
    assert loaded.entity_ids == tuple(ids)
    assert loaded.matrix.tobytes() == index.matrix.tobytes()  # -0.0 and subnormals too
    assert (loaded.pooling_kind, loaded.use_entity_type) == (kind, use_types)
    with open(prefix + ".mat", "rb") as f:
        assert len(split_index(f.read())[1]) == 8 * n * p


# ids that a results file could not hold, each refused by name where the index enters
_UNWRITABLE_IDS = {"tab_id": "e\tx", "cr_id": "e\rx", "lf_id": "e\nx", "surrogate_id": "e\ud800"}


@pytest.mark.parametrize("case", [
    "long_body", "short_body", "cut_header", "cut_length", "bad_magic", "parent_format",
    "not_utf8", "too_deep", "ids_not_strings", "ids_not_list", "unknown_pooling", "types_not_bool",
    "width_zero", "width_float", "missing_key", "repeated_id", *_UNWRITABLE_IDS,
])
def test_load_index_refuses_bad_files(tmp_path, case):
    index = make_index(np.random.default_rng(20), n=4, p=3)
    prefix = str(tmp_path / "idx")
    R.save_index(index, prefix)
    with open(prefix + ".mat", "rb") as f:
        raw = f.read()
    header, body = split_index(raw)
    end = len(raw) - len(body)
    if case == "long_body":
        raw += bytes(8)
    elif case == "short_body":
        raw = raw[:-8]
    elif case == "cut_header":
        raw = raw[: end - 5]
    elif case == "cut_length":
        raw = raw[:12]
    elif case == "bad_magic":
        raw = b"CGCKPT1\n" + raw[8:]
    elif case == "parent_format":  # magic, u64 rows and cols, then the body
        raw = b"CGEIDX1\n" + struct.pack("<QQ", 4, 3) + body
    elif case == "not_utf8":
        raw = raw[:16] + b"\xff" * (end - 16) + body
    elif case == "too_deep":  # nested past the JSON parser's recursion limit
        deep = b"[" * 100_000
        raw = R._INDEX_MAGIC + struct.pack("<Q", len(deep)) + deep
    else:
        if case == "ids_not_strings":
            header["ids"][2] = 7
        elif case == "ids_not_list":
            header["ids"] = "e0000"
        elif case == "unknown_pooling":
            header["pooling"] = 5
        elif case == "types_not_bool":
            header["use_entity_type"] = 1
        elif case == "width_zero":
            header["width"] = 0
        elif case == "width_float":
            header["width"] = 3.0
        elif case == "missing_key":
            del header["pooling"]
        elif case == "repeated_id":
            header["ids"][3] = header["ids"][1]
        elif case in _UNWRITABLE_IDS:
            header["ids"][2] = _UNWRITABLE_IDS[case]
        raw = index_with_header(header, body)
    with open(prefix + ".mat", "wb") as f:
        f.write(raw)
    with pytest.raises(R.RetrievalError, match=re.escape(prefix + ".mat")) as err:
        R.load_index(prefix)
    if case == "parent_format":
        assert "embed" in str(err.value)
    if case == "repeated_id":
        assert repr(header["ids"][1]) in str(err.value)
    if case == "ids_not_strings":
        assert "entity id 7 is not a string" in str(err.value)
    if case in _UNWRITABLE_IDS:
        assert repr(_UNWRITABLE_IDS[case]) in str(err.value)


def test_index_cannot_be_changed():
    """The ids are a tuple and the matrix, kept without a copy, is read-only,
    so neither the index nor its builder can move rows under the norms, and
    save_index always writes what load_index reads."""
    matrix = np.array([[3.0, 4.0], [1.0, 0.0]])
    index = R.EmbeddingIndex(["e1", "e2"], matrix)
    assert index.matrix is matrix and not matrix.flags.writeable
    with pytest.raises(TypeError):
        index.entity_ids[0] = "e\tx"
    with pytest.raises(ValueError, match="read-only"):
        index.matrix[0, 0] = 10.0
    with pytest.raises(ValueError, match="read-only"):
        matrix[1] = [10.0, 0.0]
    with pytest.raises(ValueError, match="read-only"):
        index.norms[1] = 0.1
    with pytest.raises(FrozenInstanceError):
        index.pooling_kind = "bogus"
    assert R.top_k(index, np.array([1.0, 0.0]), 1, R.COSINE).candidates == [("e2", 1.0)]


@pytest.mark.parametrize("field, value, message", [
    ("pooling_kind", "bogus", "unknown pooling 'bogus'"),
    ("use_entity_type", "yes", "use_entity_type must be true or false"),
    ("use_entity_type", 1, "use_entity_type must be true or false"),
])
def test_index_refuses_unknown_pooling_and_non_bool_type_mode(field, value, message):
    matrix = np.eye(2)
    with pytest.raises(R.RetrievalError, match=message):
        R.EmbeddingIndex(["e1", "e2"], matrix, **{field: value})
    assert matrix.flags.writeable


def test_misaligned_index_rejected():
    with pytest.raises(R.RetrievalError):
        R.EmbeddingIndex(["e1"], np.ones((2, 2)))
    for bad in (np.nan, np.inf, -np.inf):  # anywhere, beside finite values of either sign
        matrix = np.array([[1.0, -2.0], [3.0, -1e308]])
        matrix[1, 0] = bad
        with pytest.raises(R.RetrievalError, match="non-finite"):
            R.EmbeddingIndex(["e1", "e2"], matrix)
    R.EmbeddingIndex([], np.zeros((0, 2)))  # an empty index has nothing to check


@pytest.mark.parametrize("matrix", [np.array([1.0, 2.0]), np.ones((2, 2, 2))])
def test_matrix_that_is_not_2d_rejected(matrix):
    with pytest.raises(R.RetrievalError, match=re.escape(f"shape {matrix.shape} is not 2-D")):
        R.EmbeddingIndex(["e0", "e1"], matrix)


def _extreme_rows(rng, entry):
    """Fourteen rows of width 5 under shuffled ids: rows 5 and 13 (the last)
    hold ``entry`` values of random sign, the others normal values."""
    matrix = rng.normal(size=(14, 5))
    matrix[[5, 13]] = entry * rng.choice([-1.0, 1.0], size=(2, 5))
    return [f"e{i:02d}" for i in rng.permutation(14)], matrix


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, None])
@pytest.mark.parametrize("row", [0, 5, 13], ids=["normal_row", "row_of_1e200", "last_row"])
def test_non_finite_value_rejected_in_any_row(bad, row):
    """A row whose norm is not finite is refused. Row 5 and the last hold
    finite entries too large to square, and are refused alone (``None``), as
    is a NaN or an infinity planted beside them in any row."""
    ids, matrix = _extreme_rows(np.random.default_rng(row), 1e200)
    if bad is not None:
        matrix[row, 2] = bad
    with pytest.raises(R.RetrievalError, match="non-finite embedding row"):
        R.EmbeddingIndex(ids, matrix)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
@pytest.mark.parametrize("row", [0, 1, 2])
def test_row_whose_norm_is_not_finite_rejected_beside_finite_rows(bad, row):
    """Among rows whose norms are finite, extreme ones included, one entry
    that is a NaN, an infinity or too large to square is refused in any row.
    Rows such as (1e200, 0) were once accepted, and cosine then scored them
    0.0 and euclidean inf."""
    matrix = np.array([[1e150, 0.0], [-3e-300, 5e-324], [0.0, 1.0]])
    R.EmbeddingIndex(["b", "a", "c"], matrix.copy())
    matrix[row, 0] = bad
    with pytest.raises(R.RetrievalError, match="non-finite embedding row"):
        R.EmbeddingIndex(["b", "a", "c"], matrix)
    assert matrix.flags.writeable


@pytest.mark.parametrize("entry", [1e-200], ids=["norm_underflows"])
@pytest.mark.parametrize("metric", R.ALL_METRICS)
def test_finite_rows_of_extreme_size_accepted(entry, metric):
    """A finite row is valid however small its norm, and then every metric
    ranks like a full sort, except cosine, which refuses a row whose norm is
    zero. (Rows too large to square are refused: see above.)"""
    rng = np.random.default_rng(23)
    ids, matrix = _extreme_rows(rng, entry)
    index = R.EmbeddingIndex(ids, matrix)
    queries = rng.normal(size=(3, 5))
    if metric == R.COSINE:
        for query in queries:
            with pytest.raises(R.RetrievalError, match="zero vector"):
                R.top_k(index, query, 14, metric)
        return
    for k in (4, 14):
        many = R.top_k_many(index, queries, k, metric, ["m0", "m1", "m2"])
        for query, got in zip(queries, many):
            want = score_bits(full_sort_top_k(ids, matrix, query, k, metric))
            assert score_bits(R.top_k(index, query, k, metric).candidates) == want
            assert score_bits(got.candidates) == want


def test_repeated_entity_ids_rejected():
    # Two rows named e1 would let top_k return e1 twice.
    with pytest.raises(R.RetrievalError, match="'e2'"):
        R.EmbeddingIndex(["e1", "e2", "e3", "e2", "e1"], np.ones((5, 2)))


@pytest.mark.parametrize("ids", [[1, 2], ["a", None], [b"a", b"b"]], ids=["ints", "none", "bytes"])
def test_id_that_is_not_a_string_rejected_by_name(ids):
    bad = next(i for i in ids if not isinstance(i, str))
    with pytest.raises(R.RetrievalError, match=re.escape(f"entity id {bad!r} is not a string")):
        R.EmbeddingIndex(ids, np.eye(2))


def _planted(seed, n, p, family, metric, k):
    """An index whose row at position k (or just before it) has copies ranked
    after k, so a tie group straddles the cut; ids are shuffled so that ties
    must be broken by id, not by row position. ``near_ties`` rows and query
    are one base vector x 1e4 plus noise x 1e-3. ``tail_copies`` places the
    copies in the last N mod 4 rows, which OpenBLAS's matrix-vector product
    scores with another kernel than the rows before them."""
    rng = np.random.default_rng(seed)
    ids = [f"e{i:04d}" for i in rng.permutation(n)]
    if family == "near_ties":
        base = rng.normal(size=p)
        matrix = base * 1e4 + rng.normal(size=(n, p)) * 1e-3
        query = base * 1e4 + rng.normal(size=p) * 1e-3
    else:
        matrix = rng.normal(size=(n, p))
        query = matrix[rng.integers(n)].copy() if rng.random() < 0.3 else rng.normal(size=p)
    if k < n or family == "tail_copies":
        order = [i for i, _ in full_sort_top_k(list(range(n)), matrix, query, n, metric)]
        source = order[rng.integers(max(0, k - 3), k)]
        after = order[k:]
        if family == "tail_copies":
            copies = [r for r in range(n - n % 4, n) if r != source]
        else:
            copies = rng.choice(after, size=rng.integers(1, len(after) + 1), replace=False)
        matrix[copies] = matrix[source]
    return ids, matrix, query


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=60),
    p=st.integers(min_value=1, max_value=16),
    family=st.sampled_from(["duplicates", "near_ties", "tail_copies"]),
)
def test_top_k_equals_full_sort(seed, n, p, family):
    for metric in R.ALL_METRICS:
        for k in sorted({1, (n + 1) // 2, n}):
            ids, matrix, query = _planted(seed, n, p, family, metric, k)
            got = R.top_k(R.EmbeddingIndex(ids, matrix), query, k, metric).candidates
            assert score_bits(got) == score_bits(full_sort_top_k(ids, matrix, query, k, metric))
            # ``similarity`` scores with other kernels (a @ b, np.linalg.norm),
            # which order rounding-level ties their own way: only its scores
            # are compared, rank by rank and id by id.
            want = brute_force_pairs(ids, matrix, query, metric)
            own = dict(want)
            for (eid, a), (_, b) in zip(got, want):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-12)
                assert a == pytest.approx(own[eid], rel=1e-9, abs=1e-12)



@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=60),
    p=st.integers(min_value=1, max_value=16),
    family=st.sampled_from(["duplicates", "near_ties", "tail_copies"]),
)
def test_top_k_many_equals_top_k(seed, n, p, family):
    """Seven queries scanned in blocks of 1, 2 and 3 get, query by query, the
    ids and score bits of ``top_k``: the planted query (first and sixth),
    four rows of the index and a random vector."""
    rng = np.random.default_rng(seed)
    for metric in R.ALL_METRICS:
        for k in sorted({1, (n + 1) // 2, n}):
            ids, matrix, query = _planted(seed, n, p, family, metric, k)
            queries = np.vstack([query, matrix[rng.integers(n, size=4)], query,
                                 rng.normal(size=p)])
            names = [f"m{i}" for i in range(len(queries))]
            index = R.EmbeddingIndex(ids, matrix)
            want = [R.top_k(index, q, k, metric, name) for q, name in zip(queries, names)]
            for block in (1, 2, 3):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(R, "SCAN_BLOCK", block * n)
                    got = R.top_k_many(index, queries, k, metric, names)
                assert [r.mention_id for r in got] == names
                assert ([score_bits(r.candidates) for r in got]
                        == [score_bits(r.candidates) for r in want])


def test_top_k_many_of_no_queries_is_empty():
    index = make_index(np.random.default_rng(24), n=5, p=3)
    for metric in R.ALL_METRICS:
        assert R.top_k_many(index, np.empty((0, 3)), 5, metric, []) == []


@pytest.mark.parametrize("queries, k, metric, names, message", [
    (np.ones((2, 4)), 1, R.DOT, ["a", "b"], r"queries of shape \(2, 4\)"),
    (np.ones(3), 1, R.DOT, ["a"], r"queries of shape \(3,\)"),
    (np.ones((2, 3)), 1, R.DOT, ["a"], "1 mention ids for 2 queries"),
    (np.ones((2, 3)), 6, R.DOT, ["a", "b"], "exceeds index size"),
    (np.ones((2, 3)), 0, R.DOT, ["a", "b"], "at least 1"),
    (np.ones((2, 3)), 1, "manhattan", ["a", "b"], "unknown metric"),
    (np.array([[1.0, 0, 0], [0, 0, 0]]), 1, R.COSINE, ["a", "b"], "zero vector"),
])
def test_top_k_many_refuses_bad_queries(queries, k, metric, names, message):
    index = make_index(np.random.default_rng(25), n=5, p=3)
    with pytest.raises(R.RetrievalError, match=message):
        R.top_k_many(index, queries, k, metric, names)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("metric", R.ALL_METRICS)
def test_non_finite_query_ranks_like_a_full_sort(metric, bad):
    """A query with a NaN or infinite component: rows scoring +-inf rank by
    id among themselves, and NaN scores (0 * inf in a row with a zero there,
    or every row) come last, by id, as in the full sort."""
    rng = np.random.default_rng(22)
    n, p = 40, 5
    ids = [f"e{i:04d}" for i in rng.permutation(n)]
    matrix = rng.normal(size=(n, p))
    matrix[::6, 2] = 0.0
    query = rng.normal(size=p)
    query[2] = bad
    index = R.EmbeddingIndex(ids, matrix)
    with np.errstate(invalid="ignore", over="ignore"):
        for k in (1, 7, n):
            got = R.top_k(index, query, k, metric).candidates
            assert score_bits(got) == score_bits(full_sort_top_k(ids, matrix, query, k, metric))
            many = R.top_k_many(index, np.vstack([query, query]), k, metric, ["", ""])
            assert [score_bits(r.candidates) for r in many] == [score_bits(got)] * 2


@pytest.mark.parametrize("metric", R.ALL_METRICS)
def test_ties_at_k_go_by_code_point_not_row(metric):
    """Identical rows tied across the K-th place are cut by id in code-point
    order ("Z" < "e" < "É"), which is neither their row order nor any
    case-folded or accented order."""
    rng = np.random.default_rng(23)
    ids = ["É", "e", "near", "Z", "far", "Éa", "ea", "Za"]
    matrix = rng.normal(size=(8, 4)) * 0.01 + [0.0, 0.0, 0.0, 5.0]
    matrix[[0, 1, 3, 5, 6, 7]] = [1.0, 2.0, -1.0, 0.5]  # six copies, placed out of id order
    matrix[2] = [1.0, 2.0, -1.0, 0.6]  # the nearest row under every metric
    query = np.array([1.0, 2.0, -1.0, 0.7])
    index = R.EmbeddingIndex(ids, matrix)
    for k in range(1, 9):
        got = R.top_k(index, query, k, metric).candidates
        assert score_bits(got) == score_bits(full_sort_top_k(ids, matrix, query, k, metric))
    assert [eid for eid, _ in R.top_k(index, query, 4, metric).candidates] == \
        ["near", "Z", "Za", "e"]


@pytest.mark.parametrize("metric", R.ALL_METRICS)
def test_a_score_depends_only_on_its_row(metric):
    """Each returned score has the bits of its row scored alone, wherever the
    row sits: the same lists come from the rows in reverse order, which moves
    the first N mod 4 rows into the matrix-vector product's tail."""
    rng = np.random.default_rng(16)
    index = make_index(rng, n=2347, p=12)
    flipped = R.EmbeddingIndex(index.entity_ids[::-1], index.matrix[::-1])
    row = {eid: i for i, eid in enumerate(index.entity_ids)}
    for _ in range(3):
        q = rng.normal(size=12)
        got = R.top_k(index, q, 40, metric).candidates
        assert score_bits(R.top_k(flipped, q, 40, metric).candidates) == score_bits(got)
        for eid, score in got:
            assert score.hex() == score_alone(index.matrix[row[eid]], q, metric).hex()


@pytest.mark.parametrize("metric", R.ALL_METRICS)
def test_copy_in_the_gemv_tail_ties_by_id(metric):
    """Row 0 copied into row 102, the last of 103 (N mod 4 = 3): e000 (row
    102) and e001 (row 0) tie, so e000 comes first, with the same score, from
    ``top_k`` and from ``top_k_many`` alike."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(103, 16))
        matrix[102] = matrix[0]
        ids = [f"e{i:03d}" for i in range(1, 103)] + ["e000"]
        query = rng.normal(size=16)
        index = R.EmbeddingIndex(ids, matrix)
        one = R.top_k(index, query, 103, metric).candidates
        many = R.top_k_many(index, query[None, :], 103, metric, [""])[0].candidates
        for got in (one, many):
            at = [eid for eid, _ in got].index("e000")
            assert got[at + 1][0] == "e001", seed
            assert got[at][1].hex() == got[at + 1][1].hex(), seed


def test_row_norms_are_set_once_and_read_only(tmp_path):
    """The constructor computes every row's norm, for every metric; an index
    read by load_index goes through it too."""
    index = make_index(np.random.default_rng(17), n=30, p=4)
    R.save_index(index, str(tmp_path / "idx"))
    for got in (index, R.load_index(str(tmp_path / "idx"))):
        np.testing.assert_array_equal(got.norms, einsum_norms(got.matrix))
        np.testing.assert_allclose(got.norms, np.linalg.norm(got.matrix, axis=1), rtol=1e-15,
                                   atol=0)
        assert not got.norms.flags.writeable


def test_non_c_order_matrix_scored_like_c_order():
    rng = np.random.default_rng(18)
    c_order = make_index(rng, n=40, p=9)
    f_order = R.EmbeddingIndex(list(c_order.entity_ids), np.asfortranarray(c_order.matrix))
    assert f_order.matrix.flags.c_contiguous
    q = rng.normal(size=9)
    for metric in R.ALL_METRICS:
        assert (R.top_k(f_order, q, 40, metric).candidates
                == R.top_k(c_order, q, 40, metric).candidates)


def test_cosine_zero_vectors_rejected_on_every_call():
    index = R.EmbeddingIndex(["e1", "e2"], np.array([[1.0, 0.0], [0.0, 2.0]]))
    for _ in range(2):
        with pytest.raises(R.RetrievalError, match="zero vector"):
            R.top_k(index, np.zeros(2), 1, R.COSINE)
    assert R.top_k(index, np.array([1.0, 0.0]), 1, R.COSINE).candidates == [("e1", 1.0)]

    zero_row = R.EmbeddingIndex(["e1", "e2"], np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(R.RetrievalError, match="zero vector"):
        R.top_k(zero_row, np.ones(2), 1, R.COSINE)
    assert R.top_k(zero_row, np.ones(2), 1, R.EUCLIDEAN).candidates[0][0] == "e1"
    with pytest.raises(R.RetrievalError, match="zero vector"):
        R.top_k(zero_row, np.ones(2), 1, R.COSINE)


def test_unknown_metric_and_bad_k_rejected():
    index = R.EmbeddingIndex(["e1", "e2"], np.eye(2))
    for _ in range(2):
        with pytest.raises(R.RetrievalError, match="unknown metric"):
            R.top_k(index, np.ones(2), 1, "manhattan")
    for k in (0, -1):
        with pytest.raises(R.RetrievalError, match="at least 1"):
            R.top_k(index, np.ones(2), k, R.DOT)


@pytest.mark.parametrize("change", [-8, 8, -20])
def test_index_with_wrong_matrix_size_rejected(tmp_path, change):
    index = make_index(np.random.default_rng(19), n=5, p=3)
    prefix = str(tmp_path / "idx")
    R.save_index(index, prefix)
    with open(prefix + ".mat", "rb") as f:
        data = f.read()
    # -8: one value short; +8: one value extra; -20: two and a half values short
    data = data[:change] if change < 0 else data + bytes(change)
    with open(prefix + ".mat", "wb") as f:
        f.write(data)
    with pytest.raises(R.RetrievalError, match="idx.mat"):
        R.load_index(prefix)
