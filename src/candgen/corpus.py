"""Zeshel-format corpus loading: entity dictionaries, mentions, type annotations.

Entity dictionaries are line-delimited JSON with keys ``document_id``,
``title`` and ``text``; mention files carry ``mention_id``,
``context_document_id``, ``start_index``, ``end_index`` (inclusive word
offsets), ``label_document_id`` and ``corpus``. The dictionary documents
double as the mention context documents. Entity-type annotations live in a
sidecar 2-column TAB file; type detection itself is external.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterable

from .bpe import DEFAULT_ENTITY_TYPE_LABELS, UNKNOWN_TYPE


class CorpusParseError(ValueError):
    pass


class CorpusValidationError(ValueError):
    pass


@dataclass(frozen=True)
class EntityRecord:
    entity_id: str
    title: str
    description: str
    world: str
    entity_type: str = UNKNOWN_TYPE


@dataclass(frozen=True)
class MentionRecord:
    mention_id: str
    context_document_id: str
    start_index: int
    end_index: int
    gold_entity_id: str
    world: str
    entity_type: str = UNKNOWN_TYPE


@dataclass
class World:
    name: str
    entities: list[EntityRecord]
    documents: dict[str, list[str]]
    mentions: list[MentionRecord] = field(default_factory=list)

    def entity_by_id(self) -> dict[str, EntityRecord]:
        return {e.entity_id: e for e in self.entities}


def _read_jsonl(path):
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusParseError(f"{path}:{lineno}: malformed line ({e.msg})") from e


def _check_id(path, lineno: int, name: str, ident: str) -> None:
    """Ids are written into TAB-separated, line-based files (results, types)."""
    if any(c in ident for c in "\t\r\n"):
        raise CorpusValidationError(f"{path}:{lineno}: {name} {ident!r} holds a TAB, CR or LF")


def load_entities(path, world: str) -> list[EntityRecord]:
    """Load an entity dictionary file for one world."""
    records: list[EntityRecord] = []
    seen: set[str] = set()
    for lineno, obj in _read_jsonl(path):
        try:
            rec = EntityRecord(
                entity_id=str(obj["document_id"]),
                title=str(obj["title"]),
                description=str(obj["text"]),
                world=world,
            )
        except KeyError as e:
            raise CorpusParseError(f"{path}:{lineno}: missing key {e.args[0]!r}") from e
        _check_id(path, lineno, "entity_id", rec.entity_id)
        if not rec.title:
            raise CorpusValidationError(f"{path}:{lineno}: empty title")
        if rec.entity_id in seen:
            raise CorpusValidationError(
                f"{path}:{lineno}: duplicate entity_id {rec.entity_id!r}"
            )
        seen.add(rec.entity_id)
        records.append(rec)
    return records


def load_mentions(path) -> list[MentionRecord]:
    """Load a mention file; span sanity is checked here, document bounds later."""
    records: list[MentionRecord] = []
    seen: set[str] = set()
    for lineno, obj in _read_jsonl(path):
        try:
            rec = MentionRecord(
                mention_id=str(obj["mention_id"]),
                context_document_id=str(obj["context_document_id"]),
                start_index=int(obj["start_index"]),
                end_index=int(obj["end_index"]),
                gold_entity_id=str(obj["label_document_id"]),
                world=str(obj["corpus"]),
            )
        except KeyError as e:
            raise CorpusParseError(f"{path}:{lineno}: missing key {e.args[0]!r}") from e
        _check_id(path, lineno, "mention_id", rec.mention_id)
        if rec.start_index < 0 or rec.start_index > rec.end_index:
            raise CorpusValidationError(
                f"mention {rec.mention_id}: invalid span "
                f"[{rec.start_index}, {rec.end_index}]"
            )
        if rec.mention_id in seen:
            raise CorpusValidationError(
                f"{path}:{lineno}: duplicate mention_id {rec.mention_id!r}"
            )
        seen.add(rec.mention_id)
        records.append(rec)
    return records


def load_entity_type_annotations(path) -> dict[str, str]:
    """Load ``id<TAB>type`` annotations; absent ids default to <unk> downstream."""
    allowed = {*DEFAULT_ENTITY_TYPE_LABELS, UNKNOWN_TYPE}
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CorpusParseError(f"{path}:{lineno}: expected id<TAB>type")
            ident, label = parts
            if label not in allowed:
                raise CorpusValidationError(
                    f"{path}:{lineno}: unknown type label {label!r}"
                )
            mapping[ident] = label
    return mapping


def documents_from_entities(entities: Iterable[EntityRecord]) -> dict[str, list[str]]:
    """Word-tokenize dictionary documents for use as mention contexts."""
    return {e.entity_id: e.description.split() for e in entities}


def validate_mentions(
    mentions: list[MentionRecord],
    documents: dict[str, list[str]],
    entity_ids: set[str],
) -> None:
    """``validate_spans``, and every gold id must name one of ``entity_ids``."""
    validate_spans(mentions, documents)
    for m in mentions:
        if m.gold_entity_id not in entity_ids:
            raise CorpusValidationError(
                f"mention {m.mention_id}: unresolvable gold id {m.gold_entity_id!r}"
            )


def validate_spans(
    mentions: Iterable[MentionRecord], documents: dict[str, list[str]]
) -> None:
    """Every mention's context document exists and holds its whole span."""
    for m in mentions:
        doc = documents.get(m.context_document_id)
        if doc is None:
            raise CorpusValidationError(
                f"mention {m.mention_id}: unknown context document "
                f"{m.context_document_id!r}"
            )
        if m.end_index >= len(doc):
            raise CorpusValidationError(
                f"mention {m.mention_id}: span [{m.start_index}, {m.end_index}] "
                f"out of bounds for document of length {len(doc)}"
            )


def apply_type_annotations(
    world: World, annotations: dict[str, str]
) -> World:
    """Return a copy of the world with entity/mention types filled in."""
    entities = [
        replace(e, entity_type=annotations.get(e.entity_id, UNKNOWN_TYPE))
        for e in world.entities
    ]
    mentions = [
        replace(m, entity_type=annotations.get(m.mention_id, UNKNOWN_TYPE))
        for m in world.mentions
    ]
    return World(
        name=world.name, entities=entities, documents=world.documents, mentions=mentions
    )


# -- serialization (round-trip with the load functions) ----------------------


def entities_to_jsonl(entities: Iterable[EntityRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for e in entities:
            f.write(
                json.dumps(
                    {"document_id": e.entity_id, "title": e.title, "text": e.description},
                    ensure_ascii=False,
                )
                + "\n"
            )


def mentions_to_jsonl(mentions: Iterable[MentionRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for m in mentions:
            f.write(
                json.dumps(
                    {
                        "mention_id": m.mention_id,
                        "context_document_id": m.context_document_id,
                        "start_index": m.start_index,
                        "end_index": m.end_index,
                        "label_document_id": m.gold_entity_id,
                        "corpus": m.world,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
