import numpy as np
import pytest

from candgen.bpe import END_OF_WORD
from candgen.corpus import EntityRecord, MentionRecord
from candgen.templates import (
    TemplateError,
    build_entity_sequence,
    build_mention_sequence,
    shared_slot_count,
    special_count,
)


def tok(vocab, word):
    return vocab.token_to_id[word + END_OF_WORD]


def mention(start, end, entity_type="<unk>"):
    return MentionRecord("m1", "d1", start, end, "e1", "w", entity_type=entity_type)


def specials_at(seq, vocab):
    """The token strings at the sequence's special indices, in order."""
    return [vocab.id_to_token[i] for i in seq.ids[seq.special_indices]]


def test_basic_mention_layout(char_vocab):
    v = char_vocab
    seq = build_mention_sequence(mention(1, 1), ["a", "b", "c"], v, max_len=8)
    expected = [
        v.special_id("[CLS]"), tok(v, "a"), v.special_id("[Ms]"), tok(v, "b"),
        v.special_id("[Me]"), tok(v, "c"), v.special_id("[SEP]"), v.pad_id,
    ]
    assert seq.ids.tolist() == expected
    assert seq.attn_len == 7
    assert seq.special_indices == [0, 2, 4, 6]
    assert specials_at(seq, v) == ["[CLS]", "[Ms]", "[Me]", "[SEP]"]


def test_typed_mention_layout(char_vocab):
    v = char_vocab
    seq = build_mention_sequence(
        mention(1, 1, entity_type="PERSON"), ["a", "b", "c"], v, max_len=10,
        use_entity_type=True,
    )
    expected = [
        v.special_id("[CLS]"), v.special_id("[PERSON]"), tok(v, "b"), v.special_id("[H_SEP]"),
        tok(v, "a"), v.special_id("[Ms]"), tok(v, "b"), v.special_id("[Me]"),
        tok(v, "c"), v.special_id("[SEP]"),
    ]
    assert seq.ids.tolist() == expected
    assert seq.special_indices == [0, 1, 3, 5, 7, 9]  # type token right after [CLS]
    assert specials_at(seq, v) == ["[CLS]", "[PERSON]", "[H_SEP]", "[Ms]", "[Me]", "[SEP]"]


def test_long_context_truncation_balanced(char_vocab):
    v = char_vocab
    context = ["a"] * 500 + ["b"] + ["c"] * 499
    seq = build_mention_sequence(mention(500, 500), context, v, max_len=32)
    assert len(seq.ids) == 32
    assert seq.attn_len == 32
    ms = seq.ids.tolist().index(v.special_id("[Ms]"))
    me = seq.ids.tolist().index(v.special_id("[Me]"))
    assert seq.ids[ms + 1 : me].tolist() == [tok(v, "b")]
    left = ms - 1  # context tokens left of [Ms], after [CLS]
    right = seq.attn_len - 1 - (me + 1)  # before [SEP]
    assert left + right == 32 - 4 - 1
    assert left - right in (0, 1)  # odd token goes to the left


def test_mention_markers_survive_even_when_mention_truncated(char_vocab):
    v = char_vocab
    context = ["b"] * 50
    seq = build_mention_sequence(mention(0, 49), context, v, max_len=8)
    ids = seq.ids.tolist()
    assert ids.count(v.special_id("[Ms]")) == 1
    assert ids.count(v.special_id("[Me]")) == 1
    assert seq.attn_len == 8
    assert ids[-1] == v.special_id("[SEP]")


def test_empty_mention_rejected(char_vocab):
    bad = MentionRecord("m1", "d1", 0, 0, "e1", "w")
    with pytest.raises(TemplateError):
        build_mention_sequence(bad, [""], char_vocab, 8)


def test_basic_entity_layout(char_vocab):
    v = char_vocab
    e = EntityRecord("e1", "A", "B C", "w")
    seq = build_entity_sequence(e, v, max_len=8)
    expected = [
        v.special_id("[CLS]"), tok(v, "a"), v.special_id("[ENT]"), tok(v, "b"), tok(v, "c"),
        v.special_id("[SEP]"), v.pad_id, v.pad_id,
    ]
    assert seq.ids.tolist() == expected
    assert seq.special_indices == [0, 2, 5]
    assert specials_at(seq, v) == ["[CLS]", "[ENT]", "[SEP]"]


def test_typed_entity_layout(char_vocab):
    v = char_vocab
    e = EntityRecord("e1", "A", "B C", "w", entity_type="LOC")
    seq = build_entity_sequence(e, v, max_len=8, use_entity_type=True)
    expected = [
        v.special_id("[CLS]"), v.special_id("[LOC]"), tok(v, "a"), v.special_id("[ENT]"),
        tok(v, "b"), tok(v, "c"), v.special_id("[SEP]"), v.pad_id,
    ]
    assert seq.ids.tolist() == expected
    assert seq.special_indices == [0, 1, 3, 6]
    assert specials_at(seq, v) == ["[CLS]", "[LOC]", "[ENT]", "[SEP]"]


def test_entity_description_tail_truncated(char_vocab):
    v = char_vocab
    e = EntityRecord("e1", "a", " ".join(["b"] * 50), "w")
    seq = build_entity_sequence(e, v, max_len=10)
    assert seq.attn_len == 10
    assert seq.ids[-1] == v.special_id("[SEP]")
    assert seq.ids[1] == tok(v, "a")  # title survives


def test_marker_counts_per_side(char_vocab, toy_world, toy_vocab):
    v = toy_vocab
    for m in toy_world.mentions[:10]:
        seq = build_mention_sequence(m, toy_world.documents[m.context_document_id], v, 32)
        ids = seq.ids.tolist()
        assert ids.count(v.special_id("[Ms]")) == 1
        assert ids.count(v.special_id("[Me]")) == 1
        assert ids.count(v.special_id("[ENT]")) == 0
    for e in toy_world.entities[:10]:
        seq = build_entity_sequence(e, v, 32)
        ids = seq.ids.tolist()
        assert ids.count(v.special_id("[ENT]")) == 1
        assert ids.count(v.special_id("[Ms]")) == 0


def test_special_positions_strictly_increasing(toy_world, toy_vocab):
    for m in toy_world.mentions:
        seq = build_mention_sequence(
            m, toy_world.documents[m.context_document_id], toy_vocab, 16
        )
        idx = seq.special_indices
        assert idx == sorted(idx)
        assert len(set(idx)) == len(idx)
        assert all(pos < seq.attn_len for pos in idx)
        assert specials_at(seq, toy_vocab) == ["[CLS]", "[Ms]", "[Me]", "[SEP]"]


def test_larger_max_len_preserves_relative_order(toy_world, toy_vocab):
    m = toy_world.mentions[0]
    ctx = toy_world.documents[m.context_document_id]
    small = build_mention_sequence(m, ctx, toy_vocab, 12)
    large = build_mention_sequence(m, ctx, toy_vocab, 32)
    kept = [i for i in small.ids[: small.attn_len]]
    big = list(large.ids[: large.attn_len])
    # every retained token appears in the same relative order in the larger build
    it = iter(big)
    assert all(tok_id in it for tok_id in kept)


def test_special_and_slot_counts():
    assert special_count("mention", False) == 4
    assert special_count("mention", True) == 6
    assert special_count("entity", False) == 3
    assert special_count("entity", True) == 4
    assert shared_slot_count(False) == 4
    assert shared_slot_count(True) == 6


def test_max_len_too_small_rejected(char_vocab):
    with pytest.raises(TemplateError):
        build_mention_sequence(mention(0, 0), ["a"], char_vocab, max_len=4)
