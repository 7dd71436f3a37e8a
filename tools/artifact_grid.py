"""Write every CLI artifact of a small fixed grid, for byte-identity checks.

    PYTHONPATH=src python3 tools/artifact_grid.py OUT

Runs the candgen package found on PYTHONPATH through its command line on a
toy world, with every path relative to OUT (so manifests do not depend on
where OUT lives):

- the world files, 70 entities (three encoder chunks, so ``embed`` crosses
  chunk boundaries) and 30 mentions, and a ``train-bpe`` vocabulary with V=300;
- for each pooling with entity types off and on: ``train --seed 9``, ``embed``,
  ``retrieve`` under each metric at K=5, and ``eval --ks 1,5`` of each result;
- a 2-seed ``experiment`` (``grid/``).

Two runs of one program give identical trees; ``diff -r`` between a run of
one ``src/`` and a run of another shows whether a change kept every number.
A change that reorders a sum moves last bits; ``tools/grid_diff.py`` compares
such trees by ids, ranks, reports and losses instead.
"""

from __future__ import annotations

import os
import sys

from candgen import pooling, retrieval, synthetic
from candgen.cli import main

MODEL = ["--dim", "16", "--layers", "1", "--heads", "2", "--ff-dim", "32",
         "--max-len", "16", "--epochs", "3"]
DATA = ["--entities", "entities.jsonl", "--mentions", "mentions.jsonl",
        "--documents", "documents.jsonl"]


def _run(argv: list[str]) -> None:
    if main(argv) != 0:
        raise SystemExit(f"candgen {' '.join(argv)} failed")


def write_grid(out: str) -> None:
    os.makedirs(out, exist_ok=True)
    os.chdir(out)
    world = synthetic.make_toy_world(70, 30, seed=0)
    synthetic.write_world_files(
        world, "entities.jsonl", "mentions.jsonl", "documents.jsonl", "types.tsv"
    )
    _run(["train-bpe", "--input", "entities.jsonl", "documents.jsonl",
          "--vocab-size", "300", "--out", "vocab"])
    for kind in pooling.ALL_KINDS:
        for arm, types in (("off", "off"), ("on", "types.tsv")):
            cell = f"{kind}-{arm}"
            model = ["--vocab", "vocab", "--pooling", kind, "--entity-types", types]
            _run(["train", *DATA, *model, "--seed", "9", "--out", cell, *MODEL])
            _run(["embed", "--entities", "entities.jsonl", *model,
                  "--checkpoint", f"{cell}/entity.ckpt", "--out", f"{cell}/index"])
            for metric in retrieval.ALL_METRICS:
                results = f"{cell}/{metric}.tsv"
                _run(["retrieve", "--index", f"{cell}/index", *model,
                      "--checkpoint", f"{cell}/mention.ckpt", "--mentions", "mentions.jsonl",
                      "--documents", "documents.jsonl", "--metric", metric, "--k", "5",
                      "--out", results])
                _run(["eval", "--results", results, "--mentions", "mentions.jsonl",
                      "--ks", "1,5", "--metric", metric, "--out", f"{cell}/{metric}"])
    _run(["experiment", *DATA, "--vocab", "vocab", "--entity-types", "types.tsv",
          "--k", "5", "--seeds", "2", "--out", "grid", *MODEL])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    write_grid(sys.argv[1])
