import filecmp
import os

import numpy as np

from inputs import WorldShape, random_index_rows, write_world

SHAPE = WorldShape(entities=30, mentions=40)
FILES = ("entities", "mentions", "documents", "types")


def _write(tmp_path, name, seed):
    return write_world(str(tmp_path / name), SHAPE, seed)


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    a, b = _write(tmp_path, "a", 7), _write(tmp_path, "b", 7)
    for key in FILES:
        assert filecmp.cmp(getattr(a, key), getattr(b, key), shallow=False), key
    assert a.gold == b.gold


def test_different_seed_gives_different_inputs(tmp_path):
    a, b = _write(tmp_path, "a", 7), _write(tmp_path, "b", 8)
    for key in FILES:
        assert not filecmp.cmp(getattr(a, key), getattr(b, key), shallow=False), key


def test_inputs_load_through_the_program(tmp_path):
    from candgen import corpus

    f = _write(tmp_path, "w", 3)
    entities = corpus.load_entities(f.entities, "w")
    mentions = corpus.load_mentions(f.mentions)
    documents = corpus.documents_from_entities(corpus.load_entities(f.documents, "_"))
    corpus.validate_mentions(mentions, documents, {e.entity_id for e in entities})
    corpus.load_entity_type_annotations(f.types)
    assert len(entities) == SHAPE.entities and len(mentions) == SHAPE.mentions
    assert os.path.getsize(f.types) > 0


def test_random_index_plants_ties_and_shuffles_ids():
    m1, ids1 = random_index_rows(np.random.default_rng(5), 500, 8, 0.3)
    m2, ids2 = random_index_rows(np.random.default_rng(5), 500, 8, 0.3)
    assert np.array_equal(m1, m2) and ids1 == ids2
    distinct = np.unique(m1, axis=0).shape[0]
    assert distinct <= 500 - 100  # at least a fifth of the rows are copies
    assert ids1 != sorted(ids1)
