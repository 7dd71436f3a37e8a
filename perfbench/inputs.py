"""Seeded synthetic inputs in the Zeshel file formats the CLI reads.

A world has an entity dictionary (titles plus descriptions) and mentions
whose context documents live in a separate documents file. Each entity owns
a few keywords; descriptions and mention contexts mix those keywords with
Zipf-distributed common words and a little noise from other entities, so a
bi-encoder trained from scratch can learn the task but not perfectly.

Everything is drawn from ``numpy.random.default_rng(seed)`` in a fixed
order, so the same seed writes byte-identical files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# OntoNotes labels, as accepted by the entity-type annotation reader.
TYPE_LABELS = ("PERSON", "ORG", "GPE", "LOC", "FAC", "NORP", "PRODUCT", "EVENT",
               "WORK_OF_ART")

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "st", "th", "sh", "gr", "kl", "tr")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ou", "ae")
_CODAS = ("", "", "", "n", "r", "s", "th", "x", "l")

N_COMMON = 1500
KEYWORDS_PER_ENTITY = 6


@dataclass(frozen=True)
class WorldShape:
    entities: int
    mentions: int
    desc_words: int = 48
    context_words: int = 24  # per side of a mention


@dataclass
class WorldFiles:
    entities: str
    mentions: str
    documents: str
    types: str
    gold: dict[str, str]  # mention id -> gold entity id


def _word(rng, syllables: int) -> str:
    parts = []
    for _ in range(syllables):
        parts.append(_ONSETS[rng.integers(len(_ONSETS))])
        parts.append(_NUCLEI[rng.integers(len(_NUCLEI))])
        parts.append(_CODAS[rng.integers(len(_CODAS))])
    return "".join(parts)


def _distinct_words(rng, count: int, syllables: tuple[int, int], taken: set) -> list[str]:
    out = []
    while len(out) < count:
        w = _word(rng, int(rng.integers(*syllables)))
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


def _hex_ids(rng, count: int) -> list[str]:
    seen: set[str] = set()
    out = []
    while len(out) < count:
        eid = f"{int(rng.integers(1 << 62)):016X}"
        if eid not in seen:
            seen.add(eid)
            out.append(eid)
    return out


def _mixed_text(rng, n: int, own: list[str], common: list[str], zipf: np.ndarray,
                others: list[list[str]]) -> list[str]:
    """``n`` words: ~50% own keywords, ~5% another entity's, the rest common."""
    kinds = rng.random(n)
    common_idx = rng.choice(len(common), size=n, p=zipf)
    words = []
    for i in range(n):
        if kinds[i] < 0.50:
            words.append(own[rng.integers(len(own))])
        elif kinds[i] < 0.55 and others:
            other = others[rng.integers(len(others))]
            words.append(other[rng.integers(len(other))])
        else:
            words.append(common[common_idx[i]])
    return words


def _jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


def write_world(out_dir: str, shape: WorldShape, seed: int,
                name: str = "world") -> WorldFiles:
    """Write entities, mentions, context documents and type annotations."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    taken: set[str] = set()
    common = _distinct_words(rng, N_COMMON, (1, 3), taken)
    zipf = 1.0 / np.arange(1, N_COMMON + 1)
    zipf /= zipf.sum()
    keywords = [_distinct_words(rng, KEYWORDS_PER_ENTITY, (1, 3), taken)
                for _ in range(shape.entities)]
    ids = _hex_ids(rng, shape.entities)
    types = [TYPE_LABELS[i] for i in rng.integers(len(TYPE_LABELS), size=shape.entities)]

    def others():
        return [keywords[j] for j in rng.integers(shape.entities, size=3)]

    entity_rows = []
    for i in range(shape.entities):
        title = " ".join(keywords[i][: 1 + int(rng.integers(2))])
        desc = _mixed_text(rng, shape.desc_words, keywords[i], common, zipf, others())
        entity_rows.append({"document_id": ids[i], "title": title, "text": " ".join(desc)})

    # Popular entities get more mentions, as in real dictionaries.
    popularity = 1.0 / np.sqrt(np.arange(1, shape.entities + 1))
    popularity /= popularity.sum()
    golds = rng.choice(shape.entities, size=shape.mentions, p=popularity)
    mention_rows, doc_rows, type_lines = [], [], []
    gold: dict[str, str] = {}
    for j, g in enumerate(golds):
        g = int(g)
        surface = keywords[g][: 1 + int(rng.integers(2))]
        left = _mixed_text(rng, shape.context_words, keywords[g], common, zipf, others())
        right = _mixed_text(rng, shape.context_words, keywords[g], common, zipf, others())
        mid, doc_id = f"m{j:06d}", f"c{j:06d}"
        doc_rows.append({"document_id": doc_id, "title": doc_id,
                         "text": " ".join(left + surface + right)})
        mention_rows.append({
            "mention_id": mid, "context_document_id": doc_id,
            "start_index": len(left), "end_index": len(left) + len(surface) - 1,
            "label_document_id": ids[g], "corpus": name,
        })
        type_lines.append(f"{mid}\t{types[g]}\n")
        gold[mid] = ids[g]

    files = WorldFiles(
        entities=os.path.join(out_dir, "entities.jsonl"),
        mentions=os.path.join(out_dir, "mentions.jsonl"),
        documents=os.path.join(out_dir, "documents.jsonl"),
        types=os.path.join(out_dir, "types.tsv"),
        gold=gold,
    )
    _jsonl(files.entities, entity_rows)
    _jsonl(files.mentions, mention_rows)
    _jsonl(files.documents, doc_rows)
    with open(files.types, "w", encoding="utf-8") as f:
        for eid, label in zip(ids, types):
            f.write(f"{eid}\t{label}\n")
        f.writelines(type_lines)
    return files


def write_subset(src: str, dst: str, count: int) -> str:
    """Copy the first ``count`` JSONL lines of ``src`` to ``dst``."""
    with open(src, encoding="utf-8") as f:
        lines = [next(f) for _ in range(count)]
    with open(dst, "w", encoding="utf-8") as f:
        f.writelines(lines)
    return dst


def random_index_rows(rng, n: int, dim: int, dup_share: float):
    """Random float64 rows where ``dup_share`` of them copy another row.

    Returns (matrix, entity_ids). Ids are a shuffled permutation of zero-
    padded numbers, so id order differs from row order and ties between
    duplicated rows must be broken by id, not by position.
    """
    matrix = rng.normal(size=(n, dim))
    perm = rng.permutation(n)
    n_dup = int(n * dup_share)
    copies, sources = perm[:n_dup], perm[n_dup:][rng.integers(n - n_dup, size=n_dup)]
    # Copy in chunks so set-up holds no large temporary beside the matrix;
    # sources are never copies, so the chunk order does not matter.
    for i in range(0, n_dup, 1024):
        matrix[copies[i:i + 1024]] = matrix[sources[i:i + 1024]]
    ids = [f"r{int(i):07d}" for i in rng.permutation(n)]
    return matrix, ids
