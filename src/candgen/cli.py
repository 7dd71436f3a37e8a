"""Command-line pipeline: tokenizer training, bi-encoder training, entity
embedding, retrieval, evaluation, and the pooling/metric/type ablation grid.

Subcommands compose through files on disk; every run writes a manifest
with its effective options and input digests so runs are reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import evaluation, pooling, retrieval, training
from .bpe import Vocabulary, train_bpe
from .corpus import (
    World,
    apply_type_annotations,
    documents_from_entities,
    load_entities,
    load_entity_type_annotations,
    load_mentions,
    validate_mentions,
)
from .encoder import EncoderConfig, load_checkpoint, save_checkpoint
from .templates import build_mention_sequence, shared_slot_count
from .training import TrainConfig, forward_pooled


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(path, subcommand: str, options: dict, inputs: list):
    lines = [f"subcommand={subcommand}"]
    for key in sorted(options):
        lines.append(f"{key}={options[key]}")
    for p in sorted(str(p) for p in inputs):
        lines.append(f"sha256:{p}={_sha256(p)}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _load_config_file(path) -> dict:
    """Flat key=value file; keys use the flag spelling without leading dashes."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _types_enabled(args) -> bool:
    return bool(args.entity_types) and args.entity_types != "off"


def _typed(args, world: World) -> World:
    """``world`` typed from --entity-types (ids absent there get <unk>);
    unchanged when types are off."""
    if not _types_enabled(args):
        return world
    return apply_type_annotations(world, load_entity_type_annotations(args.entity_types))


def _load_world(args) -> World:
    entities = load_entities(args.entities, args.world)
    mentions = load_mentions(args.mentions)
    doc_path = getattr(args, "documents", None) or args.entities
    documents = documents_from_entities(load_entities(doc_path, args.world))
    validate_mentions(mentions, documents, {e.entity_id for e in entities})
    return _typed(args, World(args.world, entities, documents, mentions))


def _mention_vectors(args, mentions, documents, vocab, params_m, enc_cfg, kind):
    """Pooled mention vectors, encoded ``retrieval.EMBED_CHUNK`` at a time."""
    use_types = _types_enabled(args)
    seqs = [
        build_mention_sequence(
            m, documents[m.context_document_id], vocab, enc_cfg.max_len, use_types
        )
        for m in mentions
    ]
    slots, step = shared_slot_count(use_types), retrieval.EMBED_CHUNK
    return [
        y
        for i in range(0, len(seqs), step)
        for y in forward_pooled(params_m, enc_cfg, seqs[i : i + step], kind, slots)[0]
    ]


def _encoder_config(args, vocab_size: int) -> EncoderConfig:
    return EncoderConfig(
        dim=args.dim, layers=args.layers, heads=args.heads, ff_dim=args.ff_dim,
        max_len=args.max_len, vocab_size=vocab_size, seed=args.seed,
    )


def _effective_options(args, skip=("config", "func")) -> dict:
    return {k: v for k, v in vars(args).items() if k not in skip}


# -- subcommands -------------------------------------------------------------


def cmd_train_bpe(args):
    texts = []
    for path in args.input:
        if path.endswith((".json", ".jsonl")):
            for e in load_entities(path, world="_"):
                texts.append(e.title + " " + e.description)
        else:
            with open(path, encoding="utf-8") as f:
                texts.extend(f.read().splitlines())
    vocab = train_bpe(texts, args.vocab_size)
    vocab.save(args.out + ".vocab", args.out + ".merges")
    _write_manifest(
        args.out + ".manifest", "train-bpe", _effective_options(args), args.input
    )
    print(f"trained vocabulary of {len(vocab)} tokens -> {args.out}.vocab")
    return 0


def cmd_train(args):
    use_types = _types_enabled(args)
    world = _load_world(args)
    vocab = Vocabulary.load(args.vocab + ".vocab", args.vocab + ".merges")
    enc_cfg = _encoder_config(args, len(vocab))
    train_cfg = TrainConfig(
        batch_size=args.batch_size, epochs=args.epochs, learning_rate=args.lr,
        weight_decay=args.weight_decay, seed=args.seed, pooling_kind=args.pooling,
        use_entity_type=use_types,
    )
    result = training.train(world, vocab, enc_cfg, train_cfg)
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(os.path.join(args.out, "mention.ckpt"), enc_cfg, result.params_m)
    save_checkpoint(os.path.join(args.out, "entity.ckpt"), enc_cfg, result.params_e)
    with open(os.path.join(args.out, "train.log"), "w", encoding="utf-8") as f:
        f.write("\n".join(result.log_lines) + "\n")
    inputs = [args.entities, args.mentions, args.vocab + ".vocab", args.vocab + ".merges"]
    if use_types:
        inputs.append(args.entity_types)
    _write_manifest(
        os.path.join(args.out, "manifest"), "train", _effective_options(args), inputs
    )
    print(f"trained {args.epochs} epochs -> {args.out}")
    return 0


def cmd_embed(args):
    use_types = _types_enabled(args)
    entities = load_entities(args.entities, args.world)
    entities = _typed(args, World(args.world, entities, {})).entities
    vocab = Vocabulary.load(args.vocab + ".vocab", args.vocab + ".merges")
    enc_cfg, params_e = load_checkpoint(args.checkpoint)
    index = retrieval.build_index(
        entities, params_e, enc_cfg, vocab, args.pooling,
        slot_count=shared_slot_count(use_types), use_entity_type=use_types,
        world=args.world, workers=args.workers,
    )
    retrieval.save_index(index, args.out)
    inputs = [args.entities, args.checkpoint, args.vocab + ".vocab", args.vocab + ".merges"]
    if use_types:
        inputs.append(args.entity_types)
    _write_manifest(
        args.out + ".manifest", "embed", _effective_options(args), inputs
    )
    print(f"embedded {len(index.entity_ids)} entities -> {args.out}.mat")
    return 0


def cmd_retrieve(args):
    use_types = _types_enabled(args)
    index = retrieval.load_index(args.index)
    if args.k > len(index.entity_ids):
        raise SystemExit(f"--k {args.k} exceeds index size {len(index.entity_ids)}")
    mentions = _typed(args, World("", [], {}, load_mentions(args.mentions))).mentions
    documents = documents_from_entities(load_entities(args.documents, world="_"))
    vocab = Vocabulary.load(args.vocab + ".vocab", args.vocab + ".merges")
    enc_cfg, params_m = load_checkpoint(args.checkpoint)
    ys = _mention_vectors(args, mentions, documents, vocab, params_m, enc_cfg, args.pooling)
    results = [
        retrieval.top_k(index, y, args.k, args.metric, m.mention_id)
        for m, y in zip(mentions, ys)
    ]
    with open(args.out, "w", encoding="utf-8") as f:
        for r in results:
            for rank, (eid, score) in enumerate(r.candidates, 1):
                f.write(f"{r.mention_id}\t{rank}\t{eid}\t{score:.12g}\n")
    inputs = [args.mentions, args.documents, args.checkpoint,
              args.index + ".ids", args.index + ".mat",
              args.vocab + ".vocab", args.vocab + ".merges"]
    if use_types:
        inputs.append(args.entity_types)
    _write_manifest(
        args.out + ".manifest", "retrieve", _effective_options(args), inputs
    )
    print(f"retrieved top-{args.k} for {len(results)} mentions -> {args.out}")
    return 0


def _read_results_tsv(path) -> list[retrieval.RetrievalResult]:
    by_mention: dict[str, list[tuple[int, str, float]]] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise SystemExit(f"{path}:{lineno}: expected 4 TAB-separated fields")
            mid, rank, eid, score = parts
            by_mention.setdefault(mid, []).append((int(rank), eid, float(score)))
    results = []
    for mid, rows in by_mention.items():
        rows.sort()
        results.append(
            retrieval.RetrievalResult(
                mention_id=mid, candidates=[(eid, score) for _, eid, score in rows]
            )
        )
    return results


def cmd_eval(args):
    results = _read_results_tsv(args.results)
    mentions = load_mentions(args.mentions)
    gold = {m.mention_id: m.gold_entity_id for m in mentions}
    worlds = {m.mention_id: m.world for m in mentions}
    retrieved = {r.mention_id for r in results}
    missing = [mid for mid in gold if mid not in retrieved]
    if missing:
        raise SystemExit(
            f"{args.results} has no rows for {len(missing)} of the {len(gold)} "
            f"mentions in {args.mentions} (first: {missing[0]})"
        )
    ks = [int(k) for k in args.ks.split(",")]
    max_k = min(len(r.candidates) for r in results)
    ks = [k for k in ks if k <= max_k] or [max_k]
    report = evaluation.build_report(results, gold, worlds, ks, metric=args.metric)
    evaluation.write_report(report, args.out + ".report", args.out + ".curve")
    _write_manifest(
        args.out + ".manifest", "eval", _effective_options(args),
        [args.results, args.mentions],
    )
    for k, acc in report.curve():
        print(f"accuracy@{k}\t{acc:.6f}")
    return 0


def cmd_experiment(args):
    """Run the pooling x entity-type x metric grid and emit a comparison table."""
    vocab = Vocabulary.load(args.vocab + ".vocab", args.vocab + ".merges")
    seeds = [args.seed + i for i in range(args.seeds)]
    rows = []
    for use_types in (False, True):
        type_args = argparse.Namespace(**vars(args))
        type_args.entity_types = args.entity_types if use_types else "off"
        if use_types and not _types_enabled(type_args):
            raise SystemExit("experiment needs --entity-types for the types-on arm")
        world = _load_world(type_args)
        gold = {m.mention_id: m.gold_entity_id for m in world.mentions}
        enc_cfg = _encoder_config(args, len(vocab))
        slots = shared_slot_count(use_types)
        for kind in pooling.ALL_KINDS:
            per_metric: dict[str, list[float]] = {m: [] for m in retrieval.ALL_METRICS}
            per_metric1: dict[str, list[float]] = {m: [] for m in retrieval.ALL_METRICS}
            for seed in seeds:
                train_cfg = TrainConfig(
                    batch_size=args.batch_size, epochs=args.epochs,
                    learning_rate=args.lr, seed=seed, pooling_kind=kind,
                    use_entity_type=use_types,
                )
                result = training.train(world, vocab, enc_cfg, train_cfg)
                index = retrieval.build_index(
                    world.entities, result.params_e, enc_cfg, vocab, kind,
                    slot_count=slots, use_entity_type=use_types, world=args.world,
                )
                ys = _mention_vectors(
                    type_args, world.mentions, world.documents, vocab,
                    result.params_m, enc_cfg, kind,
                )
                for metric in retrieval.ALL_METRICS:
                    results = [
                        retrieval.top_k(index, y, args.k, metric, m.mention_id)
                        for m, y in zip(world.mentions, ys)
                    ]
                    per_metric[metric].append(
                        evaluation.accuracy_at_k(results, gold, args.k)
                    )
                    per_metric1[metric].append(
                        evaluation.accuracy_at_k(results, gold, 1)
                    )
            for metric in retrieval.ALL_METRICS:
                rows.append(
                    (
                        kind,
                        "on" if use_types else "off",
                        metric,
                        float(np.mean(per_metric1[metric])),
                        float(np.mean(per_metric[metric])),
                    )
                )
    os.makedirs(args.out, exist_ok=True)
    table_path = os.path.join(args.out, "table.tsv")
    with open(table_path, "w", encoding="utf-8") as f:
        f.write(f"pooling\tentity_type\tmetric\taccuracy@1\taccuracy@{args.k}\n")
        for kind, types, metric, acc1, acck in rows:
            f.write(f"{kind}\t{types}\t{metric}\t{acc1:.6f}\t{acck:.6f}\n")
    inputs = [args.entities, args.mentions, args.vocab + ".vocab", args.vocab + ".merges"]
    if args.entity_types and args.entity_types != "off":
        inputs.append(args.entity_types)
    _write_manifest(
        os.path.join(args.out, "manifest"), "experiment",
        _effective_options(args), inputs,
    )
    print(f"wrote {len(rows)} comparison rows -> {table_path}")
    return 0


# -- argument parsing --------------------------------------------------------


def _add_model_flags(p):
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--ff-dim", type=int, default=256)
    p.add_argument("--max-len", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)


def _add_train_flags(p):
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--weight-decay", type=float, default=0.01)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="candgen",
        description="Dense-retrieval candidate generation for entity linking.",
    )
    parser.add_argument("--config", help="flat key=value config file; flags win")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train-bpe", help="learn a BPE vocabulary")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_bpe)

    p = sub.add_parser("train", help="train the bi-encoder")
    p.add_argument("--entities", required=True)
    p.add_argument("--mentions", required=True)
    p.add_argument("--documents", help="context documents file (default: --entities)")
    p.add_argument("--vocab", required=True, help="vocabulary file prefix")
    p.add_argument("--world", default="world")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--pooling", choices=pooling.ALL_KINDS, default=pooling.CLS)
    p.add_argument("--entity-types", default="off", help="annotation file or 'off'")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="embed an entity dictionary into an index")
    p.add_argument("--entities", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True, help="entity encoder checkpoint")
    p.add_argument("--world", default="world")
    p.add_argument("--pooling", choices=pooling.ALL_KINDS, default=pooling.CLS)
    p.add_argument("--entity-types", default="off")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="index file prefix")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("retrieve", help="top-K candidates for each mention")
    p.add_argument("--index", required=True, help="index file prefix")
    p.add_argument("--checkpoint", required=True, help="mention encoder checkpoint")
    p.add_argument("--mentions", required=True)
    p.add_argument("--documents", required=True, help="context documents file")
    p.add_argument("--vocab", required=True)
    p.add_argument("--metric", choices=retrieval.ALL_METRICS, default=retrieval.DOT)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--pooling", choices=pooling.ALL_KINDS, default=pooling.CLS)
    p.add_argument("--entity-types", default="off")
    p.add_argument("--out", required=True, help="results TSV path")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("eval", help="top-K accuracy report from results")
    p.add_argument("--results", required=True, help="retrieve output TSV")
    p.add_argument("--mentions", required=True, help="gold mention file")
    p.add_argument("--ks", default="1,10,25,50,64")
    p.add_argument("--metric", default="", help="recorded in the report only")
    p.add_argument("--out", required=True, help="report file prefix")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="pooling x types x metric ablation grid")
    p.add_argument("--entities", required=True)
    p.add_argument("--mentions", required=True)
    p.add_argument("--documents")
    p.add_argument("--vocab", required=True)
    p.add_argument("--entity-types", required=True, help="annotation file")
    p.add_argument("--world", default="world")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_experiment)
    return parser


def _apply_config(argv: list) -> list:
    """Inject key=value config entries right after the subcommand token.

    Explicit flags come later in argv and therefore win. The scan stops at
    the subcommand (the first non-flag token), so only the top-level
    ``--config`` is honoured.
    """
    config_path = None
    sub_idx = None
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
            i += 2
            continue
        if tok.startswith("--config="):
            config_path = tok.split("=", 1)[1]
            i += 1
            continue
        if not tok.startswith("-"):
            sub_idx = i
            break
        i += 1
    if config_path is None or sub_idx is None:
        return argv
    injected: list[str] = []
    for key, value in sorted(_load_config_file(config_path).items()):
        injected.append(f"--{key.replace('_', '-')}")
        injected.extend(value.split())
    return argv[: sub_idx + 1] + injected + argv[sub_idx + 1 :]


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_apply_config(list(argv)))
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:
        if isinstance(e.code, int):
            return e.code
        print(f"error: {e.code}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
