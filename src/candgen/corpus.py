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

from .artifact import text_lines
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
    entities: list[EntityRecord]
    documents: dict[str, list[str]]
    mentions: list[MentionRecord] = field(default_factory=list)

    def entity_by_id(self) -> dict[str, EntityRecord]:
        return {e.entity_id: e for e in self.entities}


# JSON key -> (record attribute, JSON type); the first entry is the record id.
_ENTITY_FIELDS = {"document_id": ("entity_id", str), "title": ("title", str),
                  "text": ("description", str)}
_MENTION_FIELDS = {
    "mention_id": ("mention_id", str), "context_document_id": ("context_document_id", str),
    "start_index": ("start_index", int), "end_index": ("end_index", int),
    "label_document_id": ("gold_entity_id", str), "corpus": ("world", str),
}
_JSON_TYPES = {str: "string", int: "integer", float: "number", bool: "boolean",
               type(None): "null", list: "array", dict: "object"}


def _check_tsv_field(where: str, name: str, value: str) -> None:
    """Refuse a value that a TAB, CR or LF would split as a TSV field."""
    if any(c in value for c in "\t\r\n"):
        raise CorpusValidationError(f"{where}: {name} {value!r} holds a TAB, CR or LF")


def _read_records(path, fields: dict[str, tuple[str, type]]):
    """Yield ``(file:line, values)`` for each non-blank line of a JSONL file;
    ``values`` maps each attribute of ``fields`` to its value, which must have
    the declared JSON type (no bool, float or null for an integer) and, as a
    string, encode as UTF-8. Other keys are ignored. The id may not repeat nor
    hold a TAB, CR or LF, which would break the results and types files."""
    seen: set[str] = set()
    for where, line in text_lines(path, CorpusParseError):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as e:
            raise CorpusParseError(f"{where}: malformed line ({getattr(e, 'msg', e)})") from e
        if type(obj) is not dict:
            raise CorpusParseError(
                f"{where}: expected a JSON object, not {_JSON_TYPES[type(obj)]}"
            )
        values = {}
        for key, (attr, kind) in fields.items():
            if key not in obj:
                raise CorpusParseError(f"{where}: missing key {key!r}")
            value = values[attr] = obj[key]
            if type(value) is not kind:
                raise CorpusParseError(
                    f"{where}: {key!r} must be a JSON {_JSON_TYPES[kind]}, "
                    f"not {_JSON_TYPES[type(value)]}"
                )
            if kind is str:
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError as e:
                    raise CorpusValidationError(
                        f"{where}: {key!r} cannot be encoded as UTF-8 ({e.reason})"
                    ) from e
        name, ident = next(iter(values.items()))
        _check_tsv_field(where, name, ident)
        if ident in seen:
            raise CorpusValidationError(f"{where}: duplicate {name} {ident!r}")
        seen.add(ident)
        yield where, values


def read_tab_rows(path, width: int, layout: str):
    """Yield ``(where, fields)`` for each non-empty line of a TAB-separated
    file, ``where`` being ``file:line``; a line that does not split into
    ``width`` fields is refused as not the expected ``layout``."""
    for where, line in text_lines(path, CorpusParseError):
        fields = line.split("\t")
        if len(fields) != width:
            raise CorpusParseError(f"{where}: expected {layout}")
        yield where, fields


def load_entities(path, world: str) -> list[EntityRecord]:
    """Load an entity dictionary file for one world."""
    records: list[EntityRecord] = []
    for where, values in _read_records(path, _ENTITY_FIELDS):
        if not values["title"]:
            raise CorpusValidationError(f"{where}: empty title")
        records.append(EntityRecord(**values, world=world))
    return records


def load_mentions(path) -> list[MentionRecord]:
    """Load a mention file; span order is checked here, document bounds later."""
    records: list[MentionRecord] = []
    for where, values in _read_records(path, _MENTION_FIELDS):
        _check_tsv_field(where, "corpus", values["world"])  # a key of eval's report
        rec = MentionRecord(**values)
        if rec.start_index < 0 or rec.start_index > rec.end_index:
            raise CorpusValidationError(f"{where}: mention {rec.mention_id}: invalid span "
                                        f"[{rec.start_index}, {rec.end_index}]")
        records.append(rec)
    return records


def load_entity_type_annotations(path) -> dict[str, str]:
    """Load ``id<TAB>type`` annotations; absent ids default to <unk> downstream."""
    allowed = {*DEFAULT_ENTITY_TYPE_LABELS, UNKNOWN_TYPE}
    mapping: dict[str, str] = {}
    for where, (ident, label) in read_tab_rows(path, 2, "id<TAB>type"):
        if label not in allowed:
            raise CorpusValidationError(f"{where}: unknown type label {label!r}")
        if ident in mapping:
            raise CorpusValidationError(f"{where}: duplicate id {ident!r}")
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
    return World(entities=entities, documents=world.documents, mentions=mentions)


# -- serialization (round-trip with the load functions) ----------------------


def _write_records(records, fields: dict[str, tuple[str, type]], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            row = {key: getattr(r, attr) for key, (attr, _) in fields.items()}
            f.write(json.dumps(row, ensure_ascii=False) + "\n")


def entities_to_jsonl(entities: Iterable[EntityRecord], path) -> None:
    _write_records(entities, _ENTITY_FIELDS, path)


def mentions_to_jsonl(mentions: Iterable[MentionRecord], path) -> None:
    _write_records(mentions, _MENTION_FIELDS, path)
