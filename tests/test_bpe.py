import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candgen import bpe
from candgen.bpe import (
    END_OF_WORD,
    SPECIAL_TOKENS,
    TokenizerError,
    Vocabulary,
    _initial_symbols,
    _merge_pair,
    train_bpe,
)

SPECIALS = SPECIAL_TOKENS
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
    alphabet = {t for t in vocab.id_to_token if t not in SPECIALS}
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
    for tok in SPECIALS:
        ids = vocab.encode(tok)
        assert ids == [vocab.token_to_id[tok]], tok


def test_specials_inside_text_stay_atomic():
    vocab = train_bpe(["hello world"], len(SPECIALS) + 30)
    ids = vocab.encode("hello [Ms] world [Me]")
    assert ids.count(vocab.special_id("[Ms]")) == 1
    assert ids.count(vocab.special_id("[Me]")) == 1
    assert vocab.decode(ids) == "hello [Ms] world [Me]"


def test_training_learns_no_special_token_strings():
    # Training cuts special-token strings out of the text as encoding does,
    # so none is lower-cased and learned as an ordinary word.
    vocab = train_bpe(["[Ms] hello [Me] world [PERSON]"] * 3, 67)
    assert [t for t in vocab.id_to_token[N_SPECIAL:] if "[" in t] == []
    assert vocab.encode("[Ms] hello") == [vocab.special_id("[Ms]"), *vocab.encode("hello")]


def test_unknown_characters_map_to_unk():
    vocab = train_bpe(["ab"], len(SPECIALS) + 8)
    ids = vocab.encode("aZ9")  # z and 9 unseen in training (lowercased)
    assert vocab.unk_id in ids
    assert all(0 <= i < len(vocab) for i in ids)


def test_decode_examples():
    vocab = train_bpe(["hello world"], len(SPECIALS) + 40)
    assert vocab.decode([]) == ""
    assert vocab.decode([vocab.special_id("[CLS]")]) == "[CLS]"
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
    assert "[y]" in vocab.id_to_token and "[y]" not in SPECIALS
    vocab.save(tmp_path / "v.vocab", tmp_path / "v.merges")
    loaded = Vocabulary.load(tmp_path / "v.vocab", tmp_path / "v.merges")
    assert loaded.id_to_token == vocab.id_to_token
    with pytest.raises(TokenizerError):
        loaded.special_id("[y]")
    assert loaded.encode("x[y]z") == vocab.encode("x[y]z")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(alphabet="abcd", min_size=1, max_size=6), min_size=1, max_size=20))
def test_round_trip_property(words):
    text = " ".join(words)
    vocab = train_bpe([text], len(SPECIALS) + 40)
    assert vocab.decode(vocab.encode(text)) == text


def test_special_tokens_are_fixed():
    assert SPECIALS[:8] == (
        "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[Ms]", "[Me]", "[ENT]", "[H_SEP]"
    )
    assert len(SPECIALS) == 27 and SPECIALS[8] == "[PERSON]" and SPECIALS[-1] == "[<unk>]"
    vocab = train_bpe(["ab"], len(SPECIALS) + 8)
    assert tuple(vocab.id_to_token[: len(SPECIALS)]) == SPECIALS
    assert [vocab.special_id(t) for t in SPECIALS] == list(range(len(SPECIALS)))
    with pytest.raises(TokenizerError, match="not a special token"):
        vocab.special_id("[ms]")


def reference_encode(vocab: Vocabulary, text: str) -> list[int]:
    """An independent copy of the encoder as it was before merges were
    checked on load: symbols outside the vocabulary became placeholders
    that never merge and map to [UNK]."""
    longest_first = sorted(SPECIALS, key=len, reverse=True)
    special_re = "(" + "|".join(re.escape(t) for t in longest_first) + ")"
    ids: list[int] = []
    for segment in re.split(special_re, text):
        if not segment:
            continue
        if segment in SPECIALS:
            ids.append(vocab.token_to_id[segment])
            continue
        for word in segment.lower().split():
            symbols = [
                s if s in vocab.token_to_id or s[0] in vocab.token_to_id else None
                for s in _initial_symbols(word)
            ]
            while True:
                ranks = [
                    vocab.merge_ranks.get((a, b))
                    for a, b in zip(symbols, symbols[1:])
                    if a is not None and b is not None
                ]
                ranks = [r for r in ranks if r is not None]
                if not ranks:
                    break
                symbols = _merge_pair(symbols, vocab.merges[min(ranks)])
            ids.extend(
                vocab.unk_id if s is None else vocab.token_to_id.get(s, vocab.unk_id)
                for s in symbols
            )
    return ids


def _budget(corpus: list[str], merges: int) -> int:
    """A vocabulary size that leaves room for exactly ``merges`` merges."""
    words = [p for t in corpus for p in bpe._pieces(t) if isinstance(p, str)]
    return len(SPECIALS) + len({s for w in words for s in _initial_symbols(w)}) + merges


_pieces = st.one_of(
    st.text(alphabet="abcdeXYé[]<>/ \t", max_size=8),
    st.sampled_from(SPECIALS + ("[ms]", "[person]", "</w>", "[Ms", "H_SEP]")),
)


@settings(max_examples=150, deadline=None)
@given(
    corpus=st.lists(st.text(alphabet="abcde[]< ", min_size=1, max_size=12), min_size=1,
                    max_size=8),
    merges=st.integers(0, 40),
    pieces=st.lists(_pieces, max_size=12),
)
def test_encode_matches_reference_property(corpus, merges, pieces):
    # Texts carry characters the vocabulary never saw and special strings
    # glued to ordinary words.
    if not " ".join(corpus).split():
        corpus = corpus + ["a"]
    vocab = train_bpe(corpus, _budget(corpus, merges))
    text = "".join(pieces)
    assert vocab.encode(text) == reference_encode(vocab, text)
    assert vocab.encode(" ".join(corpus)) == reference_encode(vocab, " ".join(corpus))


@settings(max_examples=60, deadline=None)
@given(
    corpus=st.lists(
        st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12),
        min_size=1, max_size=8,
    ),
    merges=st.integers(0, 60),
)
def test_vocabulary_round_trip_property(tmp_path_factory, corpus, merges):
    # train_bpe learns from words only, and a special-token string is none.
    specials = "|".join(map(re.escape, SPECIALS))
    if not re.sub(specials, " ", " ".join(corpus)).split():
        corpus = corpus + ["a"]
    vocab = train_bpe(corpus, _budget(corpus, merges))
    d = tmp_path_factory.mktemp("vocab")
    vocab.save(d / "v.vocab", d / "v.merges")
    loaded = Vocabulary.load(d / "v.vocab", d / "v.merges")
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.merges == vocab.merges
    text = " ".join(corpus) + " [Ms] zz" + "".join(corpus)
    assert loaded.encode(text) == vocab.encode(text)
    with open(d / "v.vocab", encoding="utf-8") as f:
        assert tuple(f.read().split("\n")[: len(SPECIALS)]) == SPECIALS


# Chunks of a text: a word or a special-token string, each followed by
# nothing (so a special sits inside a word) or by a space.
_planted_text = st.lists(
    st.tuples(
        st.one_of(st.text(alphabet="abcMSPmse", min_size=1, max_size=5),
                  st.sampled_from(SPECIALS)),
        st.sampled_from(["", " "]),
    ),
    min_size=1, max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(texts=st.lists(_planted_text, min_size=1, max_size=6), merges=st.integers(0, 30))
def test_training_ignores_special_strings_property(texts, merges):
    planted = ["".join(chunk + sep for chunk, sep in t) for t in texts]
    blanked = ["".join((" " if chunk in SPECIALS else chunk) + sep for chunk, sep in t)
               for t in texts]
    if not " ".join(blanked).split():
        planted, blanked = planted + ["a"], blanked + ["a"]
    size = _budget(blanked, merges)
    with_specials, without = train_bpe(planted, size), train_bpe(blanked, size)
    assert with_specials.id_to_token == without.id_to_token
    assert with_specials.merges == without.merges


@pytest.mark.parametrize("case", [
    "types_missing", "markers_swapped", "duplicate_token", "duplicate_merge",
    "merge_outside_vocabulary",
])
def test_load_refuses_bad_vocabularies(tmp_path, case):
    vocab = train_bpe(["hello world hello"], len(SPECIALS) + 30)
    vocab_path, merges_path = tmp_path / "v.vocab", tmp_path / "v.merges"
    vocab.save(vocab_path, merges_path)
    tokens = vocab_path.read_text(encoding="utf-8").splitlines()
    merges = merges_path.read_text(encoding="utf-8").splitlines()
    if case == "types_missing":  # the eight markers only, as a hand-made file might be
        tokens = tokens[:8] + tokens[len(SPECIALS):]
    elif case == "markers_swapped":
        tokens[4], tokens[5] = tokens[5], tokens[4]
    elif case == "duplicate_token":
        tokens.append(tokens[len(SPECIALS)])
    elif case == "duplicate_merge":
        merges.append(merges[0])
    elif case == "merge_outside_vocabulary":
        merges.append("q z")
    vocab_path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
    merges_path.write_text("\n".join(merges) + "\n", encoding="utf-8")
    with pytest.raises(TokenizerError, match=re.escape(str(vocab_path))):
        Vocabulary.load(vocab_path, merges_path)


def test_vocabulary_equality_ignores_what_encoding_caches(tmp_path):
    # token_to_id, merge_ranks and the word cache derive from the token list
    # and the merges, so encoding text must not change what compares equal.
    a = train_bpe(["hello world hello"], len(SPECIALS) + 30)
    b = train_bpe(["hello world hello"], len(SPECIALS) + 30)
    assert a == b
    a.encode("hello there world")
    assert a == b
    a.save(tmp_path / "v.vocab", tmp_path / "v.merges")
    loaded = Vocabulary.load(tmp_path / "v.vocab", tmp_path / "v.merges")
    assert loaded == a
    assert train_bpe(["hello world hello"], len(SPECIALS) + 12) != a


def reference_train_bpe(texts: list[str], target_vocab_size: int) -> Vocabulary:
    """The trainer as it was before pair counts were kept across merges:
    every merge recounts every pair of every word and rewrites every word."""
    word_counts = Counter(
        piece for text in texts for piece in bpe._pieces(text) if isinstance(piece, str)
    )
    if not word_counts:
        raise TokenizerError("empty training corpus")
    words = {tuple(_initial_symbols(w)): c for w, c in word_counts.items()}
    alphabet = sorted({s for symbols in words for s in symbols})
    base_size = len(alphabet) + len(SPECIALS)
    if target_vocab_size < base_size:
        raise TokenizerError(
            f"target vocab size {target_vocab_size} below alphabet+specials {base_size}"
        )
    merges: list[tuple[str, str]] = []
    merged_tokens: list[str] = []
    seen = set(SPECIALS) | set(alphabet)
    while len(merges) < target_vocab_size - base_size:
        pairs: Counter = Counter()
        for symbols, freq in words.items():
            for a, b in zip(symbols, symbols[1:]):
                pairs[(a, b)] += freq
        if not pairs:
            break
        best_count = max(pairs.values())
        best = min(p for p, c in pairs.items() if c == best_count)
        merges.append(best)
        words = {tuple(_merge_pair(list(s), best)): c for s, c in words.items()}
        product = best[0] + best[1]
        if product not in seen:
            seen.add(product)
            merged_tokens.append(product)
    return Vocabulary(id_to_token=[*SPECIALS, *alphabet, *merged_tokens], merges=merges)


# Words over two or three letters, so pairs overlap (aaaa, abab) and counts
# tie often, glued to or spaced from special-token strings.
_trainer_text = st.lists(
    st.tuples(
        st.one_of(st.text(alphabet="ab", min_size=1, max_size=8),
                  st.text(alphabet="abc", min_size=1, max_size=5),
                  st.sampled_from(["aaaa", "abab", "aaaaa", "babab", "aabb"]),
                  st.sampled_from(SPECIALS)),
        st.sampled_from(["", " "]),
    ),
    min_size=1, max_size=10,
)


@settings(max_examples=120, deadline=None)
@given(texts=st.lists(_trainer_text, min_size=1, max_size=5), shortfall=st.integers(-2, 6))
def test_train_bpe_matches_reference_property(texts, shortfall):
    texts = ["".join(chunk + sep for chunk, sep in t) for t in texts]
    if not any(isinstance(p, str) for t in texts for p in bpe._pieces(t)):
        texts = texts + ["abab"]
    # a budget far past the merge count where pairs run out, then one below
    # it (shortfall > 0), at it (0) or just past it (< 0)
    past = _budget(texts, 10_000)
    exhausted = reference_train_bpe(texts, past)
    assert train_bpe(texts, past) == exhausted
    size = _budget(texts, max(0, len(exhausted.merges) - shortfall))
    assert train_bpe(texts, size) == reference_train_bpe(texts, size)


def test_stale_count_of_a_lowered_pair_does_not_win():
    # (x, b) merges first (6). It removes two of the five (b, c</w>), which
    # then ties (a, d</w>) at 3, and the smaller (a, d</w>) goes next.
    texts = ["xbc xbc bc bc bc ad ad ad xbe xbf xbg xbh"]
    vocab = train_bpe(texts, _budget(texts, 3))
    c, d = "c" + END_OF_WORD, "d" + END_OF_WORD
    assert vocab.merges == [("x", "b"), ("a", d), ("b", c)]
    assert vocab.merges == reference_train_bpe(texts, _budget(texts, 3)).merges
