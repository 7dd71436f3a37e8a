"""The tests' per-row scoring oracle: one pair of vectors at a time, with no
matrix product shared with ``retrieval.top_k``."""

import numpy as np

from candgen.retrieval import COSINE, DOT, EUCLIDEAN, RetrievalError


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
