"""Exact top-K candidate retrieval over cached entity embeddings.

The dictionary of one world is embedded once; queries then run a brute
force scan under dot product, cosine similarity, or euclidean distance.
Ties are broken by ascending entity id so results are deterministic.
"""

from __future__ import annotations

import json
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import pooling
from .encoder import EncoderConfig
from .templates import build_entity_sequence
from .training import forward_pooled

DOT = "dot"
COSINE = "cosine"
EUCLIDEAN = "euclidean"
ALL_METRICS = (DOT, COSINE, EUCLIDEAN)
EMBED_CHUNK = 64  # sequences per encoder forward pass


class RetrievalError(ValueError):
    pass


@dataclass
class EmbeddingIndex:
    entity_ids: list[str]
    matrix: np.ndarray  # (N, P)
    metric: str = DOT
    pooling_kind: str = pooling.CLS
    world: str = ""

    _id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.entity_ids) != self.matrix.shape[0]:
            raise RetrievalError("entity ids not aligned with matrix rows")
        if not np.isfinite(self.matrix).all():
            raise RetrievalError("non-finite embedding row")
        order = sorted(range(len(self.entity_ids)), key=lambda i: self.entity_ids[i])
        self._id_rank = np.empty(len(order), dtype=np.int64)
        self._id_rank[order] = np.arange(len(order))


@dataclass
class RetrievalResult:
    mention_id: str
    candidates: list[tuple[str, float]]  # (entity_id, score), best first


def similarity(a: np.ndarray, b: np.ndarray, metric: str) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise RetrievalError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if metric == DOT:
        return float(a @ b)
    if metric == COSINE:
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0.0 or nb == 0.0:
            raise RetrievalError("cosine similarity undefined for a zero vector")
        return float(a @ b / (na * nb))
    if metric == EUCLIDEAN:
        return float(np.linalg.norm(a - b))
    raise RetrievalError(f"unknown metric {metric!r}")


def _score_all(index: EmbeddingIndex, query: np.ndarray, metric: str) -> np.ndarray:
    m = index.matrix
    if metric == DOT:
        return m @ query
    if metric == COSINE:
        qn = np.linalg.norm(query)
        norms = np.linalg.norm(m, axis=1)
        if qn == 0.0 or (norms == 0.0).any():
            raise RetrievalError("cosine similarity undefined for a zero vector")
        return (m @ query) / (norms * qn)
    if metric == EUCLIDEAN:
        return np.linalg.norm(m - query, axis=1)
    raise RetrievalError(f"unknown metric {metric!r}")


def top_k(
    index: EmbeddingIndex, query: np.ndarray, k: int, metric: str | None = None,
    mention_id: str = "",
) -> RetrievalResult:
    """Exact K best entities under the metric, ties by ascending entity id."""
    metric = metric or index.metric
    n = index.matrix.shape[0]
    if k > n:
        raise RetrievalError(f"K={k} exceeds index size {n}")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.matrix.shape[1],):
        raise RetrievalError(
            f"query dimension {query.shape} does not match index width "
            f"{index.matrix.shape[1]}"
        )
    scores = _score_all(index, query, metric)
    key = scores if metric == EUCLIDEAN else -scores
    order = np.lexsort((index._id_rank, key))[:k]
    return RetrievalResult(
        mention_id=mention_id,
        candidates=[(index.entity_ids[i], float(scores[i])) for i in order],
    )


def build_index(
    entities,
    params_e: dict[str, np.ndarray],
    enc_cfg: EncoderConfig,
    vocab,
    pooling_kind: str,
    slot_count: int | None = None,
    use_entity_type: bool = False,
    world: str = "",
    metric: str = DOT,
    workers: int = 1,
) -> EmbeddingIndex:
    """Embed every dictionary entry once; one matrix row per entity."""
    entities = list(entities)
    if not entities:
        raise RetrievalError("cannot build an index over an empty dictionary")
    seqs = [
        build_entity_sequence(e, vocab, enc_cfg.max_len, use_entity_type)
        for e in entities
    ]

    def embed_chunk(chunk):
        return forward_pooled(params_e, enc_cfg, chunk, pooling_kind, slot_count)[0]

    chunks = [seqs[i : i + EMBED_CHUNK] for i in range(0, len(seqs), EMBED_CHUNK)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(embed_chunk, chunks))
    else:
        blocks = [embed_chunk(c) for c in chunks]
    matrix = np.concatenate(blocks, axis=0)
    return EmbeddingIndex(
        entity_ids=[e.entity_id for e in entities],
        matrix=matrix,
        metric=metric,
        pooling_kind=pooling_kind,
        world=world,
    )


# -- persistence -------------------------------------------------------------

_MAT_MAGIC = b"CGEIDX1\n"


def save_index(index: EmbeddingIndex, prefix: str) -> None:
    """Write ``prefix.ids`` (one id per line), ``prefix.mat`` (shape header +
    little-endian float64 rows) and ``prefix.meta`` (JSON)."""
    with open(prefix + ".ids", "w", encoding="utf-8") as f:
        for eid in index.entity_ids:
            f.write(eid + "\n")
    with open(prefix + ".mat", "wb") as f:
        f.write(_MAT_MAGIC)
        f.write(struct.pack("<QQ", *index.matrix.shape))
        f.write(np.ascontiguousarray(index.matrix, dtype="<f8").tobytes())
    with open(prefix + ".meta", "w", encoding="utf-8") as f:
        json.dump(
            {"metric": index.metric, "pooling": index.pooling_kind, "world": index.world},
            f, sort_keys=True,
        )
        f.write("\n")


def load_index(prefix: str) -> EmbeddingIndex:
    with open(prefix + ".ids", encoding="utf-8") as f:
        entity_ids = [line.rstrip("\n") for line in f if line.rstrip("\n")]
    with open(prefix + ".mat", "rb") as f:
        if f.read(len(_MAT_MAGIC)) != _MAT_MAGIC:
            raise RetrievalError(f"{prefix}.mat: not an index matrix file")
        rows, cols = struct.unpack("<QQ", f.read(16))
        matrix = np.frombuffer(f.read(rows * cols * 8), dtype="<f8").astype(np.float64)
        matrix = matrix.reshape(rows, cols)
    meta = {"metric": DOT, "pooling": pooling.CLS, "world": ""}
    try:
        with open(prefix + ".meta", encoding="utf-8") as f:
            meta.update(json.load(f))
    except FileNotFoundError:
        pass
    return EmbeddingIndex(
        entity_ids=entity_ids, matrix=matrix, metric=meta["metric"],
        pooling_kind=meta["pooling"], world=meta["world"],
    )
