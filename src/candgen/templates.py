"""Structured token sequences for the two encoder sides.

Mention side: ``[CLS] ctxtl [Ms] mention [Me] ctxtr [SEP]``, optionally
prefixed with ``[ent_type] mention [H_SEP]`` right after ``[CLS]``.
Entity side: ``[CLS] title [ENT] description [SEP]``, optionally with the
type token after ``[CLS]``. Each builder declares its layout as one list
of parts, special-token strings and runs of ids; ``_assemble`` pads it to
a fixed length and records where the special tokens sit, so pooling can
find them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bpe import Vocabulary, type_token
from .corpus import EntityRecord, MentionRecord


class TemplateError(ValueError):
    pass


@dataclass
class TokenSequence:
    ids: np.ndarray  # int64, length max_len, [PAD]-padded
    attn_len: int
    special_indices: list[int]  # positions of the special tokens, increasing


def special_count(side: str, use_entity_type: bool) -> int:
    """Number of special tokens the template places on each side."""
    if side == "mention":
        return 6 if use_entity_type else 4
    if side == "entity":
        return 4 if use_entity_type else 3
    raise ValueError(f"unknown side {side!r}")


def shared_slot_count(use_entity_type: bool) -> int:
    """Slot budget shared by both sides for concatenation pooling."""
    return max(
        special_count("mention", use_entity_type),
        special_count("entity", use_entity_type),
    )


def _split_context_budget(budget: int, n_left: int, n_right: int) -> tuple[int, int]:
    # Even split, odd token to the left; unused allowance flows to the other side.
    left = min(n_left, budget - budget // 2)
    right = min(n_right, budget - left)
    left = min(n_left, budget - right)
    return left, right


def _assemble(parts: list, vocab: Vocabulary, max_len: int) -> TokenSequence:
    """Concatenate ``parts`` in order, each a special-token string or a run
    of ids, and pad to ``max_len``."""
    ids: list[int] = []
    specials: list[int] = []
    for part in parts:
        if isinstance(part, str):
            specials.append(len(ids))
            ids.append(vocab.special_id(part))
        else:
            ids.extend(part)
    padded = np.full(max_len, vocab.pad_id, dtype=np.int64)
    padded[: len(ids)] = ids
    return TokenSequence(ids=padded, attn_len=len(ids), special_indices=specials)


def build_mention_sequence(
    mention: MentionRecord,
    context: list[str],
    vocab: Vocabulary,
    max_len: int,
    use_entity_type: bool = False,
) -> TokenSequence:
    """Build the mention-side sequence with symmetric context truncation.

    The remaining budget after specials and mention subwords is split
    evenly between left and right context (odd token to the left); the
    mention subwords and both markers always survive truncation.
    """
    n_special = special_count("mention", use_entity_type)
    if max_len < n_special + 1:
        raise TemplateError(f"max_len {max_len} below special budget {n_special} + 1")

    surface = context[mention.start_index : mention.end_index + 1]
    mention_ids = vocab.encode(" ".join(surface))
    if not mention_ids:
        raise TemplateError(f"mention {mention.mention_id}: empty span after tokenization")
    left_ids = vocab.encode(" ".join(context[: mention.start_index]))
    right_ids = vocab.encode(" ".join(context[mention.end_index + 1 :]))

    budget = max_len - n_special
    body = mention_ids[:budget]
    budget -= len(body)

    typed: list = []  # [type token, the mention again, [H_SEP]] when types are on
    if use_entity_type:
        typed = [type_token(mention.entity_type), mention_ids[:budget], "[H_SEP]"]
        budget -= len(typed[1])
    n_left, n_right = _split_context_budget(budget, len(left_ids), len(right_ids))
    left = left_ids[len(left_ids) - n_left :]
    right = right_ids[:n_right]

    return _assemble(
        ["[CLS]", *typed, left, "[Ms]", body, "[Me]", right, "[SEP]"], vocab, max_len
    )


def mention_sequences(mentions: list[MentionRecord], documents: dict[str, list[str]],
                      vocab: Vocabulary, max_len: int,
                      use_entity_type: bool) -> list[TokenSequence]:
    """Each mention's sequence, built in its context document from ``documents``."""
    return [build_mention_sequence(m, documents[m.context_document_id], vocab, max_len,
                                   use_entity_type) for m in mentions]


def build_entity_sequence(
    entity: EntityRecord,
    vocab: Vocabulary,
    max_len: int,
    use_entity_type: bool = False,
) -> TokenSequence:
    """Build the entity-side sequence; the description is tail-truncated."""
    if not entity.title:
        raise TemplateError(f"entity {entity.entity_id}: empty title")
    n_special = special_count("entity", use_entity_type)
    if max_len < n_special + 1:
        raise TemplateError(f"max_len {max_len} below special budget {n_special} + 1")

    title_ids = vocab.encode(entity.title)
    desc_ids = vocab.encode(entity.description)

    budget = max_len - n_special
    title = title_ids[:budget]
    desc = desc_ids[: budget - len(title)]

    typed = [type_token(entity.entity_type)] if use_entity_type else []
    return _assemble(["[CLS]", *typed, title, "[ENT]", desc, "[SEP]"], vocab, max_len)


def format_sequence(seq: TokenSequence, vocab: Vocabulary) -> str:
    """Token strings for debugging dumps, padding omitted."""
    return " ".join(vocab.id_to_token[i] for i in seq.ids[: seq.attn_len])
