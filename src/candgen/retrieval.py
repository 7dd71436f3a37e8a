"""Exact top-K candidate retrieval over cached entity embeddings.

The dictionary of one world is embedded once; queries then run a brute
force scan under dot product, cosine similarity, or euclidean distance.
Ties are broken by ascending entity id so results are deterministic.

A single query (``top_k``) scores every row with one matrix-vector product
on the caller's BLAS threads. A matrix of queries (``top_k_many``, which
``retrieve`` and ``experiment`` use) is scanned in blocks of queries, each
scored with one product ``block @ m.T`` of at most ``SCAN_BLOCK`` values, on
one BLAS thread. Either product only builds a shortlist: ``np.partition``
finds the K-th best key, and the shortlist keeps every row whose key ties
with or beats it (the tie closure), widened by a proven bound on the key's
rounding error (see ``_margin``), so a row tied with the K-th is never cut
off by its position or by the product's rounding. The shortlist is put in
id order, rescored row by row with ``einsum("ij,j->i", m, q)`` (the sum of
products that gave the row norms when the index was made), that over
``norms * |q|``, or ``norm(m - q)``, and sorted stably by that score. Every
returned score depends only on its row's bytes and the query, never on
where the row sits, so identical rows tie exactly and go by id, and a query
gets the same results, bit for bit, from either function and in any block.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import artifact, blas, pooling
from .encoder import EncoderConfig, Workspace
from .templates import build_entity_sequence, mention_sequences
from .training import forward_pooled, pooled_width

DOT = "dot"
COSINE = "cosine"
EUCLIDEAN = "euclidean"
ALL_METRICS = (DOT, COSINE, EUCLIDEAN)
EMBED_CHUNK = 32  # sequences per encoder forward pass, and per thread in flight
SCAN_BLOCK = 2**20  # values in one block's product of queries and index rows (8 MB)


class RetrievalError(ValueError):
    pass


def _check_ids(ids: tuple[str, ...]) -> None:
    """Refuse an id that is not a string, names more than one row, holds a TAB,
    CR or LF, or cannot be encoded as UTF-8, so that every id can be written to
    a results file and read back. Valid ids pass on the joined string alone;
    only invalid ones are looked at one by one, to name the first bad one."""
    try:
        joined = "\t".join(ids)
        joined.encode("utf-8")
    except (TypeError, UnicodeEncodeError):
        pass
    else:
        if (joined.count("\t") == len(ids) - 1 and "\r" not in joined
                and "\n" not in joined and len(set(ids)) == len(ids)):
            return
    seen: set[str] = set()
    for i in ids:
        if not isinstance(i, str):
            raise RetrievalError(f"entity id {i!r} is not a string")
        if "\t" in i or "\r" in i or "\n" in i:
            raise RetrievalError(f"entity id {i!r} holds a TAB, CR or LF")
        try:
            i.encode("utf-8")
        except UnicodeEncodeError as e:
            raise RetrievalError(
                f"entity id {i!r} cannot be encoded as UTF-8 ({e.reason})"
            ) from None
        if i in seen:
            raise RetrievalError(f"entity id {i!r} names more than one row")
        seen.add(i)


@dataclass(frozen=True)
class EmbeddingIndex:
    """Row i of ``matrix`` embeds entity ``entity_ids[i]`` and has the norm
    ``norms[i]``. The constructor is the one check of a valid index, and the
    index cannot be changed through its fields: the ids are a tuple, and the
    matrix (not copied if already C-ordered float64) and norms are read-only.
    Writes through a writable array that the matrix views are not prevented."""

    entity_ids: tuple[str, ...]
    matrix: np.ndarray  # (N, P)
    pooling_kind: str = pooling.CLS
    use_entity_type: bool = False
    norms: np.ndarray = field(init=False, repr=False)  # (N,)

    def __post_init__(self):
        ids, matrix = tuple(self.entity_ids), np.ascontiguousarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise RetrievalError(f"embedding matrix of shape {matrix.shape} is not 2-D")
        if len(ids) != matrix.shape[0]:
            raise RetrievalError("entity ids not aligned with matrix rows")
        _check_ids(ids)
        if self.pooling_kind not in pooling.ALL_KINDS:
            raise RetrievalError(f"unknown pooling {self.pooling_kind!r}")
        if not isinstance(self.use_entity_type, bool):
            raise RetrievalError("use_entity_type must be true or false")
        # One einsum pass, with no (N, P) temporary (one that size, once freed,
        # raises glibc's dynamic mmap and trim thresholds, and every later
        # working set below them stays resident); in C order a row's norm is
        # that of the row alone. Every metric reads the norm, so a row is valid
        # only if its norm is finite: this refuses a NaN or an infinity, and
        # finite entries too large to square (about 1e154 and up).
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        if not np.isfinite(norms).all():
            raise RetrievalError("non-finite embedding row")
        matrix.flags.writeable = norms.flags.writeable = False
        object.__setattr__(self, "entity_ids", ids)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "norms", norms)


@dataclass
class RetrievalResult:
    mention_id: str
    candidates: list[tuple[str, float]]  # (entity_id, score), best first


# Shortlist margin. The product y = m @ q only builds the shortlist: it
# gives each row a key s_i, and the shortlist is rescored row by row into the
# key d_i that is sorted (and, negated for dot and cosine, returned). Let u =
# 2**-53, P the width, g_P = Pu / (1 - Pu) and g = g_{P+8}. The dot-product
# error bound |fl(x . y) - x . y| <= g_P |x| . |y| (Higham, Accuracy and
# Stability of Numerical Algorithms, sec. 3.1; it holds for any summation
# order, FMA or not) bounds both keys' distance from an exact t_i, so y may
# come from top_k's GEMV or from a row of top_k_many's GEMM block, however
# either splits its sums; the margin is 5 g S for a scale S that each metric
# supplies. Let T be the K-th smallest key s, and n_i the row norm that the
# index holds. While n_i and |q| lie in [2**-500, 2**500], they are within
# g_P / 2 + u of |m_i| and |q|.
#
# Dot and cosine: if |s_i - t_i| <= E and |d_i - t_i| <= E for every row,
# the K rows with s <= T have d <= T + 2E, so the K-th smallest d is at most
# T + 2E, and a row j whose d_j ties with or beats it has t_j <= T + 3E and
# s_j <= T + 4E.
#   dot: s_i = -y_i, d_i = -fl(sum_j m_ij q_j) and t_i = -m_i . q, so by
#       Cauchy-Schwarz E = g_P N |q| with N = max_i |m_i|. While max_i n_i and
#       |q| lie in that range, so does N up to rounding, and S = fl(max_i n_i
#       fl(|q|)) >= (1 - g_P - 3u) N |q|: 4E < 4 g S.
#   cosine: s_i = -y_i / D_i and d_i = -fl(sum_j m_ij q_j) / D_i divide by
#       the same bits D_i = fl(n_i fl(|q|)); t_i = -m_i . q / D_i. While all
#       n_i and |q| lie in that range, D_i >= (1 - g_P - 3u) |m_i| |q|, and by
#       Cauchy-Schwarz and one rounding of the quotient E <= g: S = 1, 4E <= 4 g S.
# Euclidean: s_i = fl(n_i**2) - 2 y_i; exactly, t_i = |m_i|**2 - 2 m_i . q =
# |m_i - q|**2 - |q|**2. With R = max_i n_i + |q| and S = R**2,
#   (a) |s_i - t_i| <= E = g R**2: the norm, its square, the product and the
#       subtraction are at most P+4 roundings of terms bounded by R**2;
#   (b) the rescored d_i = fl(norm(fl(m_i - q))) has d_i**2 = |m_i - q|**2
#       (1 + th) with |th| <= g: one subtraction and one square per entry,
#       P-1 additions, one square root.
# The K rows with s <= T have exact t <= T + E, so the K-th smallest rescored
# distance d_K has d_K**2 <= (1+g) X with X = T + E + |q|**2 <= (1 + 2g) R**2,
# since |m - q| <= R. By (b) a row j with d_j <= d_K has t_j <= (1+g)/(1-g) X
# - |q|**2 <= T + E + 2.01 g R**2, and by (a) s_j <= T + 4.01 g R**2.
#
# Keeping every row with s <= T + 5 g S thus keeps every row that ties with
# or beats the K-th rescored key; the spare, at least 0.99 g S, covers the
# rounding of S and of T + margin and, while the margin is a normal float,
# every product or square that underflowed (each is off by under 2**-1074,
# which over a cosine D_i > 2**-1001 is under 2**-20 g / P). Outside those
# ranges the margin is infinite and every row is rescored.
def _margin(scale: float, width: int, *norms: float) -> float:
    w = (width + 8) * 2.0**-53  # (P + 8) u
    margin = 5.0 * w / (1.0 - w) * scale
    proven = all(2.0**-500 <= n <= 2.0**500 for n in norms)  # False on a NaN
    return margin if proven and np.finfo(np.float64).tiny <= margin < np.inf else np.inf


def _check(index: EmbeddingIndex, k: int, metric: str) -> None:
    n = index.matrix.shape[0]
    if k > n:
        raise RetrievalError(f"K={k} exceeds index size {n}")
    if k < 1:
        raise RetrievalError(f"K={k} must be at least 1")
    if metric not in ALL_METRICS:
        raise RetrievalError(f"unknown metric {metric!r}")


def _ranked(
    index: EmbeddingIndex, query: np.ndarray, g: np.ndarray, k: int, metric: str, mention_id: str
) -> RetrievalResult:
    """The K best entities for ``query``, given ``g``: ``m @ query`` summed in
    any order, which only builds the shortlist."""
    m, norms = index.matrix, index.norms
    qn, top = float(np.linalg.norm(query)), float(norms.max())
    if metric == DOT:
        key, scale, sizes = -g, top * qn, (top, qn)
    elif metric == COSINE:
        sizes = (float(norms.min()), top, qn)
        if 0.0 in sizes:
            raise RetrievalError("cosine similarity undefined for a zero vector")
        key, scale = -g / (norms * qn), 1.0
    else:
        key, scale, sizes = norms * norms - 2.0 * g, (top + qn) * (top + qn), ()
    bound = np.partition(key, k - 1)[k - 1] + _margin(scale, len(query), *sizes)
    # Tie closure: every row whose key ties with the K-th stays. A NaN key
    # (from a non-finite query) is never above the bound, so it stays too and
    # sorts last, as in a full sort. Only the shortlist is put in id order, and
    # the stable sort by the rescored key then leaves tied rows in it.
    shortlist = np.flatnonzero(~(key > bound)).tolist()
    rows = np.array(sorted(shortlist, key=index.entity_ids.__getitem__))
    if metric == EUCLIDEAN:
        scores = np.linalg.norm(m[rows] - query, axis=1)
    else:
        scores = np.einsum("ij,j->i", m[rows], query)
        if metric == COSINE:
            scores /= norms[rows] * qn
    best = np.argsort(scores if metric == EUCLIDEAN else -scores, kind="stable")[:k]
    ranked = zip(rows[best].tolist(), scores[best].tolist())
    return RetrievalResult(mention_id, [(index.entity_ids[r], s) for r, s in ranked])


def top_k(
    index: EmbeddingIndex, query: np.ndarray, k: int, metric: str, mention_id: str = ""
) -> RetrievalResult:
    """Exact K best entities under the metric, ties by ascending entity id.
    One matrix-vector product on the caller's BLAS threads builds the
    shortlist, so a single request is not held to one thread."""
    _check(index, k, metric)
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.matrix.shape[1],):
        raise RetrievalError(
            f"query dimension {query.shape} does not match index width {index.matrix.shape[1]}"
        )
    return _ranked(index, query, index.matrix @ query, k, metric, mention_id)


@blas.one_thread()
def top_k_many(
    index: EmbeddingIndex, queries: np.ndarray, k: int, metric: str, mention_ids: list[str]
) -> list[RetrievalResult]:
    """``top_k`` of each row of ``queries``, named by ``mention_ids``, in
    order. Each block of queries is scored with one product ``block @ m.T`` of
    at most ``SCAN_BLOCK`` values, on one BLAS thread (``blas.one_thread``): a
    caller may hash or read on the other CPUs meanwhile. The results are
    ``top_k``'s, bit for bit, since the product only builds shortlists."""
    _check(index, k, metric)
    m = index.matrix
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != m.shape[1]:
        raise RetrievalError(
            f"queries of shape {queries.shape} do not match index width {m.shape[1]}"
        )
    if len(mention_ids) != len(queries):
        raise RetrievalError(f"{len(mention_ids)} mention ids for {len(queries)} queries")
    step = max(1, SCAN_BLOCK // m.shape[0])
    results = []
    for start in range(0, len(queries), step):
        block = queries[start : start + step]
        for query, g, mention_id in zip(block, block @ m.T, mention_ids[start : start + step]):
            results.append(_ranked(index, query, g, k, metric, mention_id))
    return results


def _usable_cpus() -> int:
    """``nproc``, or every CPU where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@blas.one_thread()
def encode_chunked(seqs: list, params: np.ndarray, enc_cfg: EncoderConfig) -> np.ndarray:
    """The (N, P) rows of ``forward_pooled(params, enc_cfg, ...)`` over
    ``EMBED_CHUNK``-sized chunks of ``seqs``, in input order, on T =
    ``min(usable CPUs, chunks)`` threads. Each thread takes the next chunk not
    yet taken, so a thread whose CPU another process holds takes fewer chunks
    instead of finishing last. Each writes its chunks' rows straight into the
    one (N, P) matrix allocated here, so none holds blocks for a final
    concatenation. The calling thread is one of them, so one chunk starts no
    thread and the pool adds T - 1. Each thread encodes in its own
    ``Workspace`` for ``EMBED_CHUNK`` sequences (7.4 MB at the default
    config), allocated once and freed when the call returns; a chunk's rows
    are copied out before its thread's next chunk reuses it. So peak memory
    grows by one workspace per thread, and the working set stays mapped from
    chunk to chunk. OpenBLAS runs on one thread meanwhile
    (``blas.one_thread``), so the pool is all the parallelism there is. A row
    does not depend on its chunk: the rows are the same for any T."""
    out = np.empty((len(seqs), pooled_width(enc_cfg)))
    chunks = range(0, len(seqs), EMBED_CHUNK)
    threads = max(1, min(_usable_cpus(), len(chunks)))
    starts, taking, failed = iter(chunks), threading.Lock(), threading.Event()

    def run(_):
        workspace = Workspace(enc_cfg, EMBED_CHUNK)
        while not failed.is_set():
            with taking:
                i = next(starts, None)
            if i is None:
                return
            try:
                out[i : i + EMBED_CHUNK] = forward_pooled(
                    params, enc_cfg, seqs[i : i + EMBED_CHUNK], workspace=workspace)[0]
            except BaseException:
                failed.set()  # the other threads take no further chunk
                raise

    with ThreadPoolExecutor(max_workers=threads) as pool:  # T - 1 threads start
        rest = pool.map(run, range(1, threads))
        run(0)
        list(rest)  # raises what a pool thread raised
    return out


def build_index(entities, params_e: np.ndarray, enc_cfg: EncoderConfig, vocab) -> EmbeddingIndex:
    """Embed every dictionary entry once, one matrix row per entity, under
    the pooling and the entity-type mode of ``enc_cfg``; the index records both."""
    entities = list(entities)
    if not entities:
        raise RetrievalError("cannot build an index over an empty dictionary")
    seqs = [build_entity_sequence(e, vocab, enc_cfg.max_len, enc_cfg.use_entity_type)
            for e in entities]
    return EmbeddingIndex(
        entity_ids=[e.entity_id for e in entities],
        matrix=encode_chunked(seqs, params_e, enc_cfg),
        pooling_kind=enc_cfg.pooling_kind,
        use_entity_type=enc_cfg.use_entity_type,
    )


def encode_mentions(mentions, documents, params_m: np.ndarray, enc_cfg: EncoderConfig, vocab):
    """One row per mention, templated in its context document from ``documents``
    and encoded under the pooling and the entity-type mode of ``enc_cfg``."""
    return encode_chunked(mention_sequences(mentions, documents, vocab, enc_cfg.max_len,
                                            enc_cfg.use_entity_type), params_m, enc_cfg)


# -- persistence -------------------------------------------------------------

_INDEX_MAGIC = b"CGEIDX2\n"


def save_index(index: EmbeddingIndex, prefix: str) -> None:
    """Write the one file ``prefix.mat`` (see ``artifact``): a header holding
    the entity ids, pooling, entity-type mode and row width, then the rows."""
    header = {"ids": index.entity_ids, "pooling": index.pooling_kind,
              "use_entity_type": index.use_entity_type, "width": index.matrix.shape[1]}
    artifact.write(prefix + ".mat", _INDEX_MAGIC, header, index.matrix)


def _value_count(header: dict) -> int:
    ids, width = header.get("ids"), header.get("width")
    if not isinstance(ids, list):
        raise RetrievalError("index ids must be a list")
    if type(width) is not int or width < 1:
        raise RetrievalError(f"index width {width!r} must be a positive integer")
    return len(ids) * width


def load_index(prefix: str, digests: dict | None = None) -> EmbeddingIndex:
    """The index in ``prefix.mat``; ``digests`` as in ``artifact.read``."""
    path = prefix + ".mat"
    h, body = artifact.read(path, _INDEX_MAGIC, "index", RetrievalError, _value_count, digests)
    try:
        return EmbeddingIndex(h["ids"], body.reshape(-1, h["width"]), h.get("pooling"),
                              h.get("use_entity_type"))
    except RetrievalError as e:
        raise RetrievalError(f"{path}: {e}") from None
