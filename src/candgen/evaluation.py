"""Top-K accuracy over retrieval results, per world and pooled.

Accuracy at K is the fraction of mentions whose gold entity appears among
the first K candidates. The report carries a per-K curve (directly
plottable) and both micro (pooled) and macro (mean of worlds) numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .retrieval import RetrievalResult

DEFAULT_K_GRID = (1, 10, 25, 50)


class EvaluationError(ValueError):
    pass


@dataclass
class EvalReport:
    accuracy_by_k: dict[int, float]
    per_world: dict[str, dict[int, float]]
    macro_by_k: dict[int, float]
    mention_count: int
    metric: str = ""

    def curve(self) -> list[tuple[int, float]]:
        return sorted(self.accuracy_by_k.items())


def accuracy_at_k(
    results: list[RetrievalResult], gold: dict[str, str], k: int
) -> float:
    """Fraction of mentions whose gold id is within the first k candidates."""
    if k < 1:
        raise EvaluationError(f"K={k} must be at least 1")
    if not results:
        raise EvaluationError("no retrieval results to evaluate")
    hits = 0
    for r in results:
        if r.mention_id not in gold:
            raise EvaluationError(f"no gold entity for mention {r.mention_id!r}")
        if len(r.candidates) < k:
            raise EvaluationError(
                f"mention {r.mention_id!r} has {len(r.candidates)} candidates, "
                f"fewer than K={k}"
            )
        if any(eid == gold[r.mention_id] for eid, _ in r.candidates[:k]):
            hits += 1
    return hits / len(results)


def build_report(
    results: list[RetrievalResult],
    gold: dict[str, str],
    world_of_mention: dict[str, str],
    ks,
    metric: str = "",
) -> EvalReport:
    ks = sorted(set(int(k) for k in ks))
    by_world: dict[str, list[RetrievalResult]] = {}
    for r in results:
        by_world.setdefault(world_of_mention.get(r.mention_id, ""), []).append(r)
    per_world = {
        w: {k: accuracy_at_k(rs, gold, k) for k in ks}
        for w, rs in sorted(by_world.items())
    }
    micro = {k: accuracy_at_k(results, gold, k) for k in ks}
    macro = {
        k: sum(accs[k] for accs in per_world.values()) / len(per_world) for k in ks
    }
    return EvalReport(
        accuracy_by_k=micro,
        per_world=per_world,
        macro_by_k=macro,
        mention_count=len(results),
        metric=metric,
    )


def write_report(report: EvalReport, report_path, curve_path) -> None:
    """Line-delimited key/value report plus a TAB-separated (K, accuracy) curve."""
    lines = [
        ("mention_count", str(report.mention_count)),
        ("metric", report.metric),
    ]
    for k, acc in report.curve():
        lines.append((f"accuracy@{k}", f"{acc:.6f}"))
    for k in sorted(report.macro_by_k):
        lines.append((f"macro_accuracy@{k}", f"{report.macro_by_k[k]:.6f}"))
    for world in sorted(report.per_world):
        for k, acc in sorted(report.per_world[world].items()):
            lines.append((f"world.{world}.accuracy@{k}", f"{acc:.6f}"))
    with open(report_path, "w", encoding="utf-8") as f:
        for key, value in lines:
            f.write(f"{key}\t{value}\n")
    with open(curve_path, "w", encoding="utf-8") as f:
        for k, acc in report.curve():
            f.write(f"{k}\t{acc:.6f}\n")
