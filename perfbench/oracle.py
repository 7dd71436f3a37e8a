"""Independent checks of the program's outputs.

The retrieval oracle scores every index row and sorts the whole list:
by score (descending for dot and cosine, ascending for euclidean), then by
ascending entity id, so tied rows keep a fixed order. A result matches
when its ids equal the oracle's first K ids exactly and each score is
within 1e-9 of the oracle's; for scores above 1 in magnitude the
tolerance is relative, because the results TSV carries 12 significant
digits.
"""

from __future__ import annotations

import math

import numpy as np

SCORE_TOL = 1e-9


def id_ranks(entity_ids: list[str]) -> np.ndarray:
    """Position of each id in ascending id order."""
    order = sorted(range(len(entity_ids)), key=entity_ids.__getitem__)
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(len(order))
    return ranks


def scores(matrix: np.ndarray, query: np.ndarray, metric: str) -> np.ndarray:
    if metric == "dot":
        return matrix @ query
    if metric == "cosine":
        return (matrix @ query) / (np.linalg.norm(matrix, axis=1) * np.linalg.norm(query))
    if metric == "euclidean":
        return np.linalg.norm(matrix - query, axis=1)
    raise ValueError(f"unknown metric {metric!r}")


def full_sort(matrix, entity_ids, ranks, query, metric, k):
    """The first ``k`` (id, score) pairs of the full sorted list."""
    s = scores(matrix, np.asarray(query, dtype=np.float64), metric)
    key = s if metric == "euclidean" else -s
    order = np.lexsort((ranks, key))[:k]
    return [(entity_ids[i], float(s[i])) for i in order]


def matches(got: list[tuple[str, float]], want: list[tuple[str, float]]) -> bool:
    if [e for e, _ in got] != [e for e, _ in want]:
        return False
    return all(abs(a - b) <= SCORE_TOL * max(1.0, abs(b))
               for (_, a), (_, b) in zip(got, want))


def read_results(path) -> dict[str, list[tuple[str, float]]]:
    """Parse ``mention<TAB>rank<TAB>entity<TAB>score`` lines, ordered by rank.

    Raises ValueError on a malformed line or a gap in the ranks.
    """
    rows: dict[str, list[tuple[int, str, float]]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            mid, rank, eid, score = line.rstrip("\n").split("\t")
            rows.setdefault(mid, []).append((int(rank), eid, float(score)))
    out = {}
    for mid, rs in rows.items():
        rs.sort()
        if [r for r, _, _ in rs] != list(range(1, len(rs) + 1)):
            raise ValueError(f"{path}: ranks of {mid} are not 1..{len(rs)}")
        out[mid] = [(eid, score) for _, eid, score in rs]
    return out


def accuracy(results: dict[str, list[tuple[str, float]]], gold: dict[str, str],
             k: int) -> float:
    """Share of **all** gold mentions whose gold id is in the first k results."""
    hits = sum(1 for mid, g in gold.items()
               if any(eid == g for eid, _ in results.get(mid, [])[:k]))
    return hits / len(gold)


def read_report(path) -> dict[str, str]:
    """``key<TAB>value`` lines; empty when a line is malformed."""
    with open(path, encoding="utf-8") as f:
        pairs = [line.rstrip("\n").split("\t", 1) for line in f if line.strip()]
    return dict(pairs) if all(len(p) == 2 for p in pairs) else {}


def report_agrees(report: dict[str, str], gold_count: int,
                  expected: dict[int, float]) -> bool:
    """The eval report counts every gold mention and matches our accuracies."""
    if report.get("mention_count") != str(gold_count):
        return False
    for k, acc in expected.items():
        value = report.get(f"accuracy@{k}")
        if value is None or abs(float(value) - acc) > 1e-6:
            return False
    return True


def train_log_ok(path, epochs: int) -> bool:
    """One line per epoch, each with a finite mean loss."""
    with open(path, encoding="utf-8") as f:
        lines = [line.split("\t") for line in f if line.strip()]
    try:
        losses = [float(p[1]) for p in lines]
    except (IndexError, ValueError):
        return False
    return len(losses) == epochs and all(math.isfinite(x) for x in losses)
