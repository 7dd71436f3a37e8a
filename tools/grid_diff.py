"""Compare two ``tools/artifact_grid.py`` trees under the same-numbers rule.

    python3 tools/grid_diff.py A B

A change that reorders a floating-point sum keeps "the same numbers" when,
between a grid written before it (A) and one written after it (B):

- both trees hold the same files;
- every results TSV (``<cell>/<metric>.tsv``) has the same mention ids,
  ranks and entity ids, line by line; scores may differ, and the largest
  absolute difference is reported;
- every report, every curve, ``grid/table.tsv`` and the vocabulary
  (``vocab.vocab`` and ``vocab.merges``) are byte-identical: BPE training
  counts in integers, so no floating-point sum reaches them;
- every ``train.log`` prints the same losses (the same text of each
  field, at the digits it prints).

Checkpoints, indexes and manifests are not compared: their bytes carry the
last bits of every parameter and the digests of other files. Prints one
line per check and exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

MAX_SHOWN = 5  # mismatches listed per check


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


def compare(a: Path, b: Path) -> tuple[bool, list[str]]:
    """Whether tree ``b`` keeps tree ``a``'s numbers, and the lines to print."""
    names_a, names_b = _files(a), _files(b)
    problems, lines = [], []
    for name in sorted(names_a ^ names_b):
        problems.append(f"only in {a if name in names_a else b}: {name}")
    names = sorted(names_a & names_b)

    results = [n for n in names if n.endswith(".tsv") and "/" in n and not n.startswith("grid/")]
    worst, worst_at, row_count = 0.0, "", 0
    for name in results:
        rows_a, rows_b = _rows(a / name), _rows(b / name)
        row_count += len(rows_a)
        if [r[:3] for r in rows_a] != [r[:3] for r in rows_b]:
            problems.append(f"{name}: ids or ranks differ")
            continue
        for ra, rb in zip(rows_a, rows_b):
            diff = abs(float(ra[3]) - float(rb[3]))
            if diff > worst:
                worst, worst_at = diff, f"{name} {ra[0]} rank {ra[1]}"
    lines.append(f"results: {len(results)} files, {row_count} rows; largest |score "
                 f"difference| {worst:.3g}" + (f" ({worst_at})" if worst_at else ""))

    exact = [n for n in names
             if n.endswith((".report", ".curve", ".vocab", ".merges")) or n == "grid/table.tsv"]
    for name in exact:
        if (a / name).read_bytes() != (b / name).read_bytes():
            problems.append(f"{name}: bytes differ")
    lines.append(f"byte-compared: {len(exact)} reports, curves, tables and vocabulary files")

    logs = [n for n in names if n.endswith("train.log")]
    for name in logs:
        if _rows(a / name) != _rows(b / name):
            problems.append(f"{name}: printed losses differ")
    lines.append(f"train logs: {len(logs)}")

    lines += problems[:MAX_SHOWN]
    if len(problems) > MAX_SHOWN:
        lines.append(f"... and {len(problems) - MAX_SHOWN} more")
    lines.append("FAIL" if problems else "PASS")
    return not problems, lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    ok, lines = compare(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
