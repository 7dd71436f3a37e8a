from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candgen.bpe import (
    END_OF_WORD,
    TokenizerError,
    Vocabulary,
    _initial_symbols,
    default_special_tokens,
    train_bpe,
)

SPECIALS = default_special_tokens()
N_SPECIAL = len(SPECIALS)


def brute_force_pair_counts(corpus: str) -> Counter:
    """Independent oracle: count adjacent symbol pairs over the raw corpus."""
    counts = Counter()
    for word in corpus.lower().split():
        symbols = _initial_symbols(word)
        for pair in zip(symbols, symbols[1:]):
            counts[pair] += 1
    return counts


def test_first_merge_matches_pair_count_oracle():
    corpus = "ab ab ab"
    oracle = brute_force_pair_counts(corpus)
    best = max(oracle.values())
    expected = min(p for p, c in oracle.items() if c == best)
    vocab = train_bpe([corpus], len(SPECIALS) + 2 + 1)  # alphabet {a, b</w>} + 1 merge
    assert vocab.merges[0] == expected == ("a", "b" + END_OF_WORD)


def test_overlapping_pair_beats_rarer_pair():
    # (a,a) occurs twice in "aaab", (a,b</w>) once
    oracle = brute_force_pair_counts("aaab")
    assert oracle[("a", "a")] == 2
    vocab = train_bpe(["aaab"], len(SPECIALS) + 2 + 1)
    assert vocab.merges[0] == ("a", "a")


def test_zero_merge_budget_gives_alphabet_plus_specials():
    vocab = train_bpe(["ab ba"], len(SPECIALS) + 4)
    assert vocab.merges == []
    assert len(vocab) == len(SPECIALS) + 4


def test_empty_corpus_rejected():
    with pytest.raises(TokenizerError):
        train_bpe([], 100)
    with pytest.raises(TokenizerError):
        train_bpe(["   "], 100)


def test_budget_below_base_size_rejected():
    with pytest.raises(TokenizerError):
        train_bpe(["ab"], 3)


def test_merge_list_length_contract():
    vocab = train_bpe(["low lower lowest low low"], len(SPECIALS) + 50)
    alphabet = {t for t in vocab.id_to_token if t not in vocab.special_tokens}
    n_products = sum(
        1
        for t in alphabet
        if len(t[: -len(END_OF_WORD)] if t.endswith(END_OF_WORD) else t) > 1
    )
    assert len(vocab.merges) >= n_products
    assert len(vocab) <= len(SPECIALS) + 50


def test_encode_empty():
    vocab = train_bpe(["ab"], len(SPECIALS) + 8)
    assert vocab.encode("") == []


def test_special_tokens_atomic():
    vocab = train_bpe(["ab cd"], len(SPECIALS) + 16)
    for tok in vocab.special_tokens:
        ids = vocab.encode(tok)
        assert ids == [vocab.token_to_id[tok]], tok


def test_specials_inside_text_stay_atomic():
    vocab = train_bpe(["hello world"], len(SPECIALS) + 30)
    ids = vocab.encode("hello [Ms] world [Me]")
    assert ids.count(vocab.special_id("[Ms]")) == 1
    assert ids.count(vocab.special_id("[Me]")) == 1
    assert vocab.decode(ids) == "hello [Ms] world [Me]"


def test_unknown_characters_map_to_unk():
    vocab = train_bpe(["ab"], len(SPECIALS) + 8)
    ids = vocab.encode("aZ9")  # z and 9 unseen in training (lowercased)
    assert vocab.unk_id in ids
    assert all(0 <= i < len(vocab) for i in ids)


def test_decode_examples():
    vocab = train_bpe(["hello world"], len(SPECIALS) + 40)
    assert vocab.decode([]) == ""
    assert vocab.decode([vocab.cls_id]) == "[CLS]"
    assert vocab.decode(vocab.encode("hello world")) == "hello world"


def test_decode_out_of_range():
    vocab = train_bpe(["ab"], len(SPECIALS) + 8)
    with pytest.raises(TokenizerError):
        vocab.decode([len(vocab)])


def test_round_trip_on_large_sample():
    # 1k-word sample; round trip modulo whitespace normalization + lowercasing
    words = [f"word{i % 97}" for i in range(1000)]
    text = " ".join(words)
    vocab = train_bpe([text], len(SPECIALS) + 120)
    assert vocab.decode(vocab.encode(text)) == text


def test_training_determinism():
    corpus = ["the quick brown fox jumps over the lazy dog"] * 3
    v1 = train_bpe(corpus, len(SPECIALS) + 60)
    v2 = train_bpe(corpus, len(SPECIALS) + 60)
    assert v1.merges == v2.merges
    assert v1.id_to_token == v2.id_to_token


def test_encode_reproduces_training_segmentation():
    # training with a large budget collapses every training word to one token
    corpus = "alpha beta gamma alpha beta"
    vocab = train_bpe([corpus], len(SPECIALS) + 60)
    for word in ("alpha", "beta", "gamma"):
        ids = vocab.encode(word)
        assert ids == [vocab.token_to_id[word + END_OF_WORD]]


def test_save_load_round_trip(tmp_path):
    vocab = train_bpe(["hello world hello"], len(SPECIALS) + 30)
    vocab.save(tmp_path / "v.vocab", tmp_path / "v.merges")
    loaded = Vocabulary.load(tmp_path / "v.vocab", tmp_path / "v.merges")
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.merges == vocab.merges
    text = "hello world"
    assert loaded.encode(text) == vocab.encode(text)


def test_load_keeps_bracketed_subwords_ordinary(tmp_path):
    # "[y]" is a learned subword here, not a special token.
    vocab = train_bpe(["x[y]z"], len(SPECIALS) + 40)
    assert "[y]" in vocab.id_to_token and "[y]" not in vocab.special_tokens
    vocab.save(tmp_path / "v.vocab", tmp_path / "v.merges")
    loaded = Vocabulary.load(tmp_path / "v.vocab", tmp_path / "v.merges")
    assert loaded.special_tokens == vocab.special_tokens
    assert loaded.encode("x[y]z") == vocab.encode("x[y]z")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(alphabet="abcd", min_size=1, max_size=6), min_size=1, max_size=20))
def test_round_trip_property(words):
    text = " ".join(words)
    vocab = train_bpe([text], len(SPECIALS) + 40)
    assert vocab.decode(vocab.encode(text)) == text
