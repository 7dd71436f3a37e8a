"""Synthetic single-world corpora for sanity experiments and tests.

Each entity gets its own small surface vocabulary, so a bi-encoder trained
from scratch can separate the entities quickly. Files are written in the
same line-delimited format the loaders expect.
"""

from __future__ import annotations

import numpy as np

from .bpe import DEFAULT_ENTITY_TYPE_LABELS, train_bpe
from .corpus import (
    EntityRecord,
    MentionRecord,
    World,
    documents_from_entities,
    entities_to_jsonl,
    mentions_to_jsonl,
    validate_mentions,
)

_FILLER = ["the", "of", "a", "in", "was", "and", "on", "by"]


def make_toy_world(
    n_entities: int = 20,
    n_mentions: int = 50,
    seed: int = 0,
    name: str = "toyworld",
) -> World:
    """Single world with distinctive per-entity vocabularies.

    Mentions live in dedicated context documents that are not part of the
    entity dictionary, so retrieval runs over the entities alone.
    """
    rng = np.random.default_rng(seed)
    entities = []
    words_of = {}
    for i in range(n_entities):
        words = [f"zq{i}x{j}" for j in range(4)]
        words_of[i] = words
        entities.append(
            EntityRecord(
                entity_id=f"e{i:03d}",
                title=f"title{i} {words[0]}",
                description=" ".join(
                    [words[0], "is", _FILLER[i % len(_FILLER)]] + words[1:] * 2
                ),
                world=name,
            )
        )

    documents = documents_from_entities(entities)
    mentions = []
    for j in range(n_mentions):
        i = int(j % n_entities)
        words = words_of[i]
        left = [str(rng.choice(_FILLER)), words[1 + int(rng.integers(3))]]
        surface = [words[0]]
        right = [words[1 + int(rng.integers(3))], str(rng.choice(_FILLER))]
        doc_id = f"ctx{j:03d}"
        documents[doc_id] = left + surface + right
        mentions.append(
            MentionRecord(
                mention_id=f"m{j:03d}",
                context_document_id=doc_id,
                start_index=len(left),
                end_index=len(left) + len(surface) - 1,
                gold_entity_id=f"e{i:03d}",
                world=name,
            )
        )
    world = World(entities=entities, documents=documents, mentions=mentions)
    validate_mentions(mentions, documents, {e.entity_id for e in entities})
    return world


def toy_vocabulary(world: World, vocab_size: int = 400):
    texts = [e.title + " " + e.description for e in world.entities]
    texts += [" ".join(doc) for doc in world.documents.values()]
    return train_bpe(texts, vocab_size)


def write_world_files(world: World, entities_path, mentions_path, documents_path, types_path=None):
    """Dump a world in Zeshel-format files.

    ``documents_path`` gets every context document (dictionary entries
    included).
    """
    entities_to_jsonl(world.entities, entities_path)
    mentions_to_jsonl(world.mentions, mentions_path)
    docs = world.documents
    entities_to_jsonl(
        (EntityRecord(d, d, " ".join(docs[d]), "_") for d in sorted(docs)), documents_path
    )
    if types_path is not None:
        labels = DEFAULT_ENTITY_TYPE_LABELS
        with open(types_path, "w", encoding="utf-8") as f:
            for i, e in enumerate(world.entities):
                f.write(f"{e.entity_id}\t{labels[i % len(labels)]}\n")
            for i, m in enumerate(world.mentions):
                f.write(f"{m.mention_id}\t{labels[i % len(labels)]}\n")
