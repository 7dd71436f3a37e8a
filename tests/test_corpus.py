import json
import re
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candgen import corpus as C
from candgen import synthetic
from candgen.bpe import TokenizerError, Vocabulary
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


@pytest.mark.parametrize("loader, row", [
    ("entities", {"document_id": None, "title": "A", "text": "B"}),
    ("entities", {"document_id": "e1", "title": True, "text": "B"}),
    ("entities", {"document_id": "e1", "title": "A", "text": 1.5}),
    ("mentions", _mention_row(start_index=2.9, end_index=3)),
    ("mentions", _mention_row(start_index=True)),
    ("mentions", _mention_row(end_index=None)),
    ("mentions", _mention_row(corpus=["w"])),
], ids=["null_id", "bool_title", "float_text", "float_start", "bool_start", "null_end",
        "array_corpus"])
def test_values_of_another_json_type_rejected(tmp_path, loader, row):
    """Values are not coerced: a null id would load as 'None', a float
    offset would be truncated, and a bool would count as 0 or 1."""
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [row])
    load = C.load_mentions if loader == "mentions" else lambda p: C.load_entities(p, "w")
    with pytest.raises(CorpusParseError, match=r"records\.jsonl:1: '\w+' must be a JSON"):
        load(path)


@pytest.mark.parametrize("line", ["[1, 2]", '"e1"', "3", "null"])
def test_a_line_that_is_not_an_object_rejected(tmp_path, line):
    path = tmp_path / "e.jsonl"
    path.write_text('{"document_id": "e1", "title": "A", "text": "B"}\n' + line + "\n")
    with pytest.raises(CorpusParseError, match=r"e\.jsonl:2: expected a JSON object"):
        C.load_entities(path, "w")


def test_nesting_too_deep_to_parse_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"mention_id": ' + "[" * 100_000 + "]" * 100_000 + "}\n")
    with pytest.raises(CorpusParseError, match=r"m\.jsonl:1: malformed line"):
        C.load_mentions(path)


def test_strings_that_utf8_cannot_encode_rejected(tmp_path):
    """A lone surrogate is valid JSON but no UTF-8 file can hold it, so the
    results or index that would carry it could never be written."""
    entities, mentions = tmp_path / "e.jsonl", tmp_path / "m.jsonl"
    write_jsonl(entities, [{"document_id": "e\ud800", "title": "A", "text": "B"}])
    with pytest.raises(CorpusValidationError,
                       match=r"e\.jsonl:1: 'document_id' cannot be encoded as UTF-8"):
        C.load_entities(entities, "w")
    write_jsonl(mentions, [_mention_row(), _mention_row(mention_id="m2", corpus="\udc00")])
    with pytest.raises(CorpusValidationError, match=r"m\.jsonl:2: 'corpus' cannot be encoded"):
        C.load_mentions(mentions)


@pytest.mark.parametrize("case", ["entities", "mentions", "types", "results", "vocab", "merges"])
def test_bytes_that_are_not_utf8_name_the_line(tmp_path, toy_world, toy_vocab, case):
    """Byte 0xff on line 2 of a corpus, TAB or vocabulary file is refused by
    that file's reader, naming ``file:line`` and the byte."""
    entities, mentions, documents, types, results, vocab, merges = (
        str(tmp_path / name) for name in
        ("e.jsonl", "m.jsonl", "d.jsonl", "t.tsv", "r.tsv", "v.vocab", "v.merges"))
    synthetic.write_world_files(toy_world, entities, mentions, documents, types)
    toy_vocab.save(vocab, merges)
    with open(results, "w") as f:
        f.write("m1\t1\te1\t0.5\nm1\t2\te2\t0.25\n")
    path, read, error = {
        "entities": (entities, lambda: C.load_entities(entities, "w"), CorpusParseError),
        "mentions": (mentions, lambda: C.load_mentions(mentions), CorpusParseError),
        "types": (types, lambda: C.load_entity_type_annotations(types), CorpusParseError),
        "results": (results, lambda: list(C.read_tab_rows(results, 4, "4 fields")),
                    CorpusParseError),
        "vocab": (vocab, lambda: Vocabulary.load(vocab, merges), TokenizerError),
        "merges": (merges, lambda: Vocabulary.load(vocab, merges), TokenizerError),
    }[case]
    with open(path, "rb") as f:
        lines = f.read().split(b"\n")
    lines[1] = lines[1][:3] + b"\xff" + lines[1][3:]
    with open(path, "wb") as f:
        f.write(b"\n".join(lines))
    with pytest.raises(error, match=re.escape(f"{path}:2: byte 0xff is not UTF-8")):
        read()


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


def test_repeated_type_annotation_id_rejected(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("e1\tPERSON\nm1\tLOC\ne1\tORG\n")
    with pytest.raises(CorpusValidationError, match=r"t\.tsv:3: duplicate id 'e1'"):
        C.load_entity_type_annotations(path)


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


_KEYS = {"document_id": str, "title": str, "text": str, "mention_id": str,
         "context_document_id": str, "start_index": int, "end_index": int,
         "label_document_id": str, "corpus": str}
_STRINGS = st.text(max_size=3) | st.sampled_from(["e\ud800", "\udfff", "a\tb", "e1"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _STRINGS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=3),
    max_leaves=6,
)
_VALID = st.fixed_dictionaries({
    key: st.text(max_size=3) if kind is str else st.integers(-1, 4)
    for key, kind in _KEYS.items()
})


def _change_one(record, key, how, value):
    """``record`` with ``key`` kept, replaced by ``value`` or dropped."""
    if how == "drop":
        return {k: v for k, v in record.items() if k != key}
    return {**record, key: value} if how == "replace" else record


_RECORD = st.builds(_change_one, _VALID, st.sampled_from(sorted(_KEYS)),
                    st.sampled_from(["keep", "replace", "drop"]), _JSON)
_LINE = (_RECORD.map(json.dumps) | _JSON.map(json.dumps) | st.text(max_size=6)
         | st.just("[" * 5000 + "]" * 5000))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINE, max_size=4))
def test_loaders_return_typed_records_or_name_the_line(tmp_path_factory, lines):
    """Whatever a line holds, each loader returns records whose fields have
    their declared types, or refuses the file naming ``file:line``."""
    path = tmp_path_factory.mktemp("records") / "records.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for load in (C.load_mentions, lambda p: C.load_entities(p, "w")):
        try:
            records = load(path)
        except (CorpusParseError, CorpusValidationError) as e:
            assert re.match(re.escape(str(path)) + r":\d+: ", str(e)), str(e)
            continue
        for r in records:
            assert all(type(value) is (int if name.endswith("_index") else str)
                       for name, value in asdict(r).items())
