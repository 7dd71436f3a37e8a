import json

import pytest

from candgen import corpus as C
from candgen.corpus import (
    CorpusParseError,
    CorpusValidationError,
    EntityRecord,
    MentionRecord,
)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


def test_load_single_entity(tmp_path):
    path = tmp_path / "e.jsonl"
    write_jsonl(path, [{"document_id": "e1", "title": "A", "text": "B"}])
    records = C.load_entities(path, world="w")
    assert records == [
        EntityRecord(entity_id="e1", title="A", description="B", world="w")
    ]
    assert records[0].entity_type == "<unk>"


def test_load_empty_entity_file(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text("")
    assert C.load_entities(path, "w") == []


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text('{"document_id": "e1", "title": "A", "text": "B"}\nnot json\n')
    with pytest.raises(CorpusParseError, match=":2"):
        C.load_entities(path, "w")


def test_duplicate_entity_id_rejected(tmp_path):
    path = tmp_path / "e.jsonl"
    write_jsonl(
        path,
        [
            {"document_id": "e1", "title": "A", "text": "B"},
            {"document_id": "e1", "title": "C", "text": "D"},
        ],
    )
    with pytest.raises(CorpusValidationError, match="duplicate"):
        C.load_entities(path, "w")


def test_empty_title_rejected(tmp_path):
    path = tmp_path / "e.jsonl"
    write_jsonl(path, [{"document_id": "e1", "title": "", "text": "B"}])
    with pytest.raises(CorpusValidationError, match="title"):
        C.load_entities(path, "w")


def _mention_row(**overrides):
    row = {
        "mention_id": "m1",
        "context_document_id": "d1",
        "start_index": 0,
        "end_index": 1,
        "label_document_id": "e1",
        "corpus": "w",
    }
    row.update(overrides)
    return row


def test_load_mentions(tmp_path):
    path = tmp_path / "m.jsonl"
    write_jsonl(path, [_mention_row()])
    records = C.load_mentions(path)
    assert records[0] == MentionRecord(
        mention_id="m1", context_document_id="d1", start_index=0, end_index=1,
        gold_entity_id="e1", world="w",
    )


def test_duplicate_mention_id_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    write_jsonl(path, [_mention_row(), _mention_row(start_index=1), _mention_row()])
    with pytest.raises(CorpusValidationError, match=r"m\.jsonl:2: duplicate mention_id 'm1'"):
        C.load_mentions(path)


@pytest.mark.parametrize("bad", ["e\t0", "e\r0", "e\n0"], ids=["tab", "cr", "lf"])
def test_ids_that_would_break_a_tsv_line_rejected(tmp_path, bad):
    """Results and type files are TAB-separated lines; such an id would
    corrupt them, so it is refused where it enters."""
    entities, mentions = tmp_path / "e.jsonl", tmp_path / "m.jsonl"
    write_jsonl(entities, [{"document_id": "e1", "title": "A", "text": "B"},
                           {"document_id": bad, "title": "C", "text": "D"}])
    with pytest.raises(CorpusValidationError, match=r"e\.jsonl:2: entity_id 'e\\[trn]0'"):
        C.load_entities(entities, "w")
    write_jsonl(mentions, [_mention_row(), _mention_row(mention_id=bad)])
    with pytest.raises(CorpusValidationError, match=r"m\.jsonl:2: mention_id 'e\\[trn]0'"):
        C.load_mentions(mentions)


def test_inverted_span_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    write_jsonl(path, [_mention_row(start_index=3, end_index=1)])
    with pytest.raises(CorpusValidationError, match="m1"):
        C.load_mentions(path)


def test_span_bounds_validated_against_documents():
    m = MentionRecord("m1", "d1", 0, 5, "e1", "w")
    with pytest.raises(CorpusValidationError, match="out of bounds"):
        C.validate_mentions([m], {"d1": ["a", "b"]}, {"e1"})


def test_unresolvable_gold_rejected():
    m = MentionRecord("m1", "d1", 0, 1, "missing", "w")
    with pytest.raises(CorpusValidationError, match="unresolvable"):
        C.validate_mentions([m], {"d1": ["a", "b"]}, {"e1"})


def test_type_annotations(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("m1\tPERSON\ne1\tLOC\n")
    mapping = C.load_entity_type_annotations(path)
    assert mapping == {"m1": "PERSON", "e1": "LOC"}


def test_type_annotations_empty_file(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("")
    assert C.load_entity_type_annotations(path) == {}


def test_unknown_type_label_rejected(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("m1\tNOT_A_TYPE\n")
    with pytest.raises(CorpusValidationError):
        C.load_entity_type_annotations(path)


def test_mostly_unknown_annotations_accepted(tmp_path, toy_world):
    # ~60% of mentions annotated as <unk> is a normal, accepted state
    path = tmp_path / "t.tsv"
    lines = []
    for i, m in enumerate(toy_world.mentions):
        label = "<unk>" if i % 5 < 3 else "PERSON"
        lines.append(f"{m.mention_id}\t{label}")
    path.write_text("\n".join(lines) + "\n")
    mapping = C.load_entity_type_annotations(path)
    world = C.apply_type_annotations(toy_world, mapping)
    typed = sum(m.entity_type != "<unk>" for m in world.mentions)
    coverage = typed / len(world.mentions)
    assert 0.0 < coverage < 0.5


def test_round_trip_serialization(tmp_path, toy_world):
    epath, mpath = tmp_path / "e.jsonl", tmp_path / "m.jsonl"
    C.entities_to_jsonl(toy_world.entities, epath)
    C.mentions_to_jsonl(toy_world.mentions, mpath)
    assert C.load_entities(epath, "toyworld") == toy_world.entities
    assert C.load_mentions(mpath) == toy_world.mentions
