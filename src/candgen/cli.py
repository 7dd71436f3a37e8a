"""Command-line pipeline: tokenizer training, bi-encoder training, entity
embedding, retrieval, evaluation, and the pooling/metric/type ablation grid.

Subcommands compose through files on disk; every run writes a manifest
with its effective options and input digests so runs are reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

from . import evaluation, pooling, retrieval, training
from .bpe import Vocabulary, train_bpe
from .artifact import text_lines
from .corpus import (
    CorpusParseError,
    World,
    apply_type_annotations,
    documents_from_entities,
    load_entities,
    load_entity_type_annotations,
    load_mentions,
    read_tab_rows,
    validate_mentions,
    validate_spans,
)
from .encoder import EncoderConfig, load_checkpoint, save_checkpoint
from .templates import build_mention_sequence
# perfbench's layer test pins the cli.forward_pooled binding (ROADMAP item 10)
from .training import TrainConfig, forward_pooled  # noqa: F401


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(path, args, inputs: list, digests=None, **recorded):
    """``key=value`` lines of the effective options in ``args`` and of ``recorded``,
    then each input's SHA-256, from ``digests`` if there (``artifact.read``)."""
    options = {k: v for k, v in vars(args).items() if k != "func"} | recorded
    lines = [f"{key}={options[key]}" for key in sorted(options)]
    for p in sorted(str(p) for p in inputs):
        digest = digests[p]() if p in (digests or {}) else _sha256(p)
        lines.append(f"sha256:{p}={digest}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _types_file(args) -> str | None:
    """The --entity-types annotation file, or None when types are off."""
    if args.entity_types and args.entity_types != "off":
        return args.entity_types
    return None


def _vocab_files(args) -> tuple[str, str]:
    return args.vocab + ".vocab", args.vocab + ".merges"


def _inputs(args, *paths) -> list:
    """Manifest inputs: ``paths``, the vocabulary files and the types file."""
    types_file = _types_file(args)
    return [*paths, *_vocab_files(args), *([types_file] if types_file else [])]


def _typed(world: World, types_file: str | None) -> World:
    """``world`` typed from ``types_file`` (ids absent there get <unk>);
    unchanged when it is None."""
    if types_file is None:
        return world
    return apply_type_annotations(world, load_entity_type_annotations(types_file))


def _load_world(args, types_file: str | None) -> World:
    entities = load_entities(args.entities, world="_")
    mentions = load_mentions(args.mentions)
    documents = documents_from_entities(
        load_entities(args.documents, world="_") if args.documents else entities
    )
    validate_mentions(mentions, documents, {e.entity_id for e in entities})
    return _typed(World(entities, documents, mentions), types_file)


def _load_model(args, *recorded):
    """The vocabulary and the --checkpoint encoder, refused unless they agree
    on the vocabulary size, and unless the checkpoint agrees with the flags
    and with the (name, index) pairs in ``recorded`` (``_agree``)."""
    vocab = Vocabulary.load(*_vocab_files(args))
    enc_cfg, params = load_checkpoint(args.checkpoint)
    if enc_cfg.vocab_size != len(vocab):
        raise SystemExit(
            f"{args.checkpoint} was trained with a {enc_cfg.vocab_size}-token "
            f"vocabulary, but {args.vocab}.vocab holds {len(vocab)} tokens"
        )
    _agree(args, *recorded, (f"checkpoint {args.checkpoint}", enc_cfg))
    return vocab, enc_cfg, params


def _agree(args, *artifacts) -> None:
    """Refuse unless the pooling and the entity-type mode that each (name,
    index or encoder config) in ``artifacts`` records agree with --pooling if
    given, else with the first artifact's, and with --entity-types being on
    or off. --pooling then holds the recorded pooling, for the manifest."""
    claim = f"{args.subcommand} was given --pooling {args.pooling}"
    for name, rec in artifacts:
        kind, typed = rec.pooling_kind, rec.use_entity_type
        if args.pooling is None:
            args.pooling, claim = kind, f"{name} was built with pooling {kind!r}"
        elif kind != args.pooling:
            raise SystemExit(f"{name} was built with pooling {kind!r}, but {claim}")
        if typed != (_types_file(args) is not None):
            raise SystemExit(f"{name} was built with entity types {'on' if typed else 'off'}, "
                             f"but {args.subcommand} was given --entity-types {args.entity_types}")


def _check_k(k: int, entity_count: int) -> None:
    if not 1 <= k <= entity_count:
        raise SystemExit(f"--k {k} must lie in [1, {entity_count}], the number of entities")


def _k_values(text: str) -> list[int]:
    """The K values of ``--ks``: comma-separated integers, each at least 1."""
    try:
        ks = [int(k) for k in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not comma-separated integers") from None
    if min(ks) < 1:
        raise argparse.ArgumentTypeError(f"K={min(ks)} must be at least 1")
    return ks


def _train(args, world: World, vocab, kind: str, seed: int, use_types: bool):
    """Both encoders trained on ``world``; returns (encoder config, TrainResult)."""
    enc_cfg = EncoderConfig(
        dim=args.dim, layers=args.layers, heads=args.heads, ff_dim=args.ff_dim,
        max_len=args.max_len, vocab_size=len(vocab), pooling_kind=kind,
        use_entity_type=use_types,
    )
    train_cfg = TrainConfig(
        batch_size=args.batch_size, epochs=args.epochs, learning_rate=args.lr,
        weight_decay=args.weight_decay, seed=seed,
    )
    return enc_cfg, training.train(world, vocab, enc_cfg, train_cfg)


def _mention_vectors(mentions, documents, vocab, params_m, enc_cfg):
    """Pooled mention vectors under ``enc_cfg``'s pooling and entity-type mode,
    one row per mention (``retrieval.encode_chunked``)."""
    seqs = [
        build_mention_sequence(m, documents[m.context_document_id], vocab, enc_cfg.max_len,
                               enc_cfg.use_entity_type)
        for m in mentions
    ]
    return retrieval.encode_chunked(seqs, params_m, enc_cfg)


# -- subcommands -------------------------------------------------------------


def cmd_train_bpe(args):
    texts = []
    for path in args.input:
        if path.endswith((".json", ".jsonl")):
            for e in load_entities(path, world="_"):
                texts.append(e.title + " " + e.description)
        else:
            texts.extend(line for _, line in text_lines(path, CorpusParseError))
    vocab = train_bpe(texts, args.vocab_size)
    vocab.save(args.out + ".vocab", args.out + ".merges")
    _write_manifest(args.out + ".manifest", args, args.input)
    print(f"trained vocabulary of {len(vocab)} tokens -> {args.out}.vocab")
    return 0


def cmd_train(args):
    types_file = _types_file(args)
    world = _load_world(args, types_file)
    vocab = Vocabulary.load(*_vocab_files(args))
    enc_cfg, result = _train(
        args, world, vocab, args.pooling, args.seed, types_file is not None
    )
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(os.path.join(args.out, "mention.ckpt"), enc_cfg, result.params_m)
    save_checkpoint(os.path.join(args.out, "entity.ckpt"), enc_cfg, result.params_e)
    with open(os.path.join(args.out, "train.log"), "w", encoding="utf-8") as f:
        f.write("\n".join(result.log_lines) + "\n")
    _write_manifest(os.path.join(args.out, "manifest"), args,
                    _inputs(args, args.entities, args.mentions))
    print(f"trained {args.epochs} epochs -> {args.out}")
    return 0


def cmd_embed(args):
    types_file = _types_file(args)
    vocab, enc_cfg, params_e = _load_model(args)
    entities = load_entities(args.entities, world="_")
    entities = _typed(World(entities, {}), types_file).entities
    index = retrieval.build_index(entities, params_e, enc_cfg, vocab)
    retrieval.save_index(index, args.out)
    _write_manifest(args.out + ".manifest", args, _inputs(args, args.entities, args.checkpoint))
    print(f"embedded {len(index.entity_ids)} entities -> {args.out}.mat")
    return 0


def cmd_retrieve(args):
    digests = {}  # the index file's SHA-256, taken while the rest runs
    try:
        index = retrieval.load_index(args.index, digests)
        _check_k(args.k, len(index.entity_ids))
        vocab, enc_cfg, params_m = _load_model(args, (f"index {args.index}", index))
        mentions = load_mentions(args.mentions)
        documents = documents_from_entities(load_entities(args.documents, world="_"))
        validate_spans(mentions, documents)
        mentions = _typed(World([], documents, mentions), _types_file(args)).mentions
        ys = _mention_vectors(mentions, documents, vocab, params_m, enc_cfg)
        results = retrieval.top_k_many(index, ys, args.k, args.metric,
                                       [m.mention_id for m in mentions])
        _write_results_tsv(results, args.out)
        _write_manifest(
            args.out + ".manifest", args,
            _inputs(args, args.mentions, args.documents, args.checkpoint, args.index + ".mat"),
            digests, results_sha256=_sha256(args.out))
    finally:  # a refused retrieve leaves no helper thread running
        for join in digests.values():
            join()
    print(f"retrieved top-{args.k} for {len(results)} mentions -> {args.out}")
    return 0


def _write_results_tsv(results: list[retrieval.RetrievalResult], path) -> None:
    """``mention_id<TAB>rank<TAB>entity_id<TAB>score`` lines, the score to 12
    significant digits; ``_read_results_tsv`` reads them back. Every id reads
    back: the corpus reader refuses a mention id, and the index an entity id,
    that holds a TAB, CR or LF or that UTF-8 cannot encode."""
    with open(path, "w", encoding="utf-8") as f:
        for r in results:
            for rank, (eid, score) in enumerate(r.candidates, 1):
                f.write(f"{r.mention_id}\t{rank}\t{eid}\t{score:.12g}\n")


def _read_results_tsv(path) -> list[retrieval.RetrievalResult]:
    """One result per mention; each mention's ranks must be exactly 1..n."""
    by_mention: dict[str, list[tuple[int, str, float]]] = {}
    for where, (mid, rank, eid, score) in read_tab_rows(path, 4, "4 TAB-separated fields"):
        try:
            by_mention.setdefault(mid, []).append((int(rank), eid, float(score)))
        except ValueError as e:
            raise SystemExit(f"{where}: {e}") from None
    results = []
    for mid, rows in by_mention.items():
        rows.sort()
        if [rank for rank, _, _ in rows] != list(range(1, len(rows) + 1)):
            raise SystemExit(f"{path}: the ranks of mention {mid!r} are not 1..{len(rows)}")
        results.append(
            retrieval.RetrievalResult(
                mention_id=mid, candidates=[(eid, score) for _, eid, score in rows]
            )
        )
    return results


def _results_metric(args) -> str:
    """The ``metric=`` line of the results' manifest, which ``retrieve``
    writes, refused when ``--metric`` names another; ``--metric`` without one.
    A manifest whose ``results_sha256=`` line is not the results' digest is
    refused: it describes other results."""
    manifest, fields = args.results + ".manifest", {}
    if os.path.exists(manifest):
        with open(manifest, encoding="utf-8") as f:
            fields = dict(line.rstrip("\n").split("=", 1) for line in f if "=" in line)
        if fields.get("results_sha256") != _sha256(args.results):
            raise SystemExit(
                f"{manifest} does not describe {args.results}: the results digest it "
                "records is not the file's"
            )
    recorded = fields.get("metric", "")
    if recorded and args.metric and args.metric != recorded:
        raise SystemExit(
            f"{args.results} was retrieved with metric {recorded} ({manifest}), "
            f"but eval was given --metric {args.metric}"
        )
    return recorded or args.metric


def cmd_eval(args):
    args.metric = _results_metric(args)
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
    report = evaluation.build_report(results, gold, worlds, args.ks, metric=args.metric)
    evaluation.write_report(report, args.out + ".report", args.out + ".curve")
    _write_manifest(args.out + ".manifest", args, [args.results, args.mentions],
                    ks=",".join(map(str, args.ks)))
    for k, acc in report.curve():
        print(f"accuracy@{k}\t{acc:.6f}")
    return 0


def cmd_experiment(args):
    """Run the pooling x entity-type x metric grid and emit a comparison table.

    Each cell trains, embeds, retrieves and scores with the same stages as
    ``train``, ``embed``, ``retrieve`` and ``eval``; the mean over seeds is
    reported.
    """
    types_file = _types_file(args)
    if types_file is None:
        raise SystemExit("experiment needs --entity-types for the types-on arm")
    if args.seeds < 1:
        raise SystemExit(f"--seeds {args.seeds} must be at least 1")
    vocab = Vocabulary.load(*_vocab_files(args))
    world = _load_world(args, None)
    worlds = {False: world, True: _typed(world, types_file)}
    _check_k(args.k, len(world.entities))
    rows = []
    for use_types, world in worlds.items():
        gold = {m.mention_id: m.gold_entity_id for m in world.mentions}
        world_of = {m.mention_id: m.world for m in world.mentions}
        mention_ids = [m.mention_id for m in world.mentions]
        for kind in pooling.ALL_KINDS:
            accs: dict[str, list[dict[int, float]]] = {m: [] for m in retrieval.ALL_METRICS}
            for seed in range(args.seed, args.seed + args.seeds):
                enc_cfg, result = _train(args, world, vocab, kind, seed, use_types)
                index = retrieval.build_index(world.entities, result.params_e, enc_cfg, vocab)
                ys = _mention_vectors(world.mentions, world.documents, vocab,
                                      result.params_m, enc_cfg)
                for metric in retrieval.ALL_METRICS:
                    results = retrieval.top_k_many(index, ys, args.k, metric, mention_ids)
                    report = evaluation.build_report(results, gold, world_of, [1, args.k])
                    accs[metric].append(report.accuracy_by_k)
            for metric, by_seed in accs.items():
                rows.append((kind, "on" if use_types else "off", metric,
                             float(np.mean([a[1] for a in by_seed])),
                             float(np.mean([a[args.k] for a in by_seed]))))
    os.makedirs(args.out, exist_ok=True)
    table_path = os.path.join(args.out, "table.tsv")
    with open(table_path, "w", encoding="utf-8") as f:
        f.write(f"pooling\tentity_type\tmetric\taccuracy@1\taccuracy@{args.k}\n")
        for kind, types, metric, acc1, acck in rows:
            f.write(f"{kind}\t{types}\t{metric}\t{acc1:.6f}\t{acck:.6f}\n")
    _write_manifest(os.path.join(args.out, "manifest"), args,
                    _inputs(args, args.entities, args.mentions))
    print(f"wrote {len(rows)} comparison rows -> {table_path}")
    return 0


# -- argument parsing --------------------------------------------------------


def _add_model_flags(p):
    p.add_argument("--dim", type=int, default=EncoderConfig.dim)
    p.add_argument("--layers", type=int, default=EncoderConfig.layers)
    p.add_argument("--heads", type=int, default=EncoderConfig.heads)
    p.add_argument("--ff-dim", type=int, default=EncoderConfig.ff_dim)
    p.add_argument("--max-len", type=int, default=EncoderConfig.max_len)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)


def _add_train_flags(p):
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="candgen",
        description="Dense-retrieval candidate generation for entity linking.",
        fromfile_prefix_chars="@",
    )
    # An @file holds whitespace-separated arguments; a line starting with # is
    # a comment. They expand in place, so a later flag wins.
    parser.convert_arg_line_to_args = lambda line: (
        [] if line.lstrip().startswith("#") else line.split()
    )
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
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--pooling", choices=pooling.ALL_KINDS, default=EncoderConfig.pooling_kind)
    p.add_argument("--entity-types", default="off", help="annotation file or 'off'")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="embed an entity dictionary into an index")
    p.add_argument("--entities", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True, help="entity encoder checkpoint")
    p.add_argument("--pooling", choices=pooling.ALL_KINDS,
                   help="checked against the checkpoint (default: the checkpoint's pooling)")
    p.add_argument("--entity-types", default="off")
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
    p.add_argument("--pooling", choices=pooling.ALL_KINDS,
                   help="checked against the index (default: the index's pooling)")
    p.add_argument("--entity-types", default="off")
    p.add_argument("--out", required=True, help="results TSV path")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("eval", help="top-K accuracy report from results")
    p.add_argument("--results", required=True, help="retrieve output TSV")
    p.add_argument("--mentions", required=True, help="gold mention file")
    p.add_argument("--ks", type=_k_values, default=",".join(map(str, evaluation.DEFAULT_K_GRID)))
    p.add_argument("--metric", default="", help="checked against the results' manifest")
    p.add_argument("--out", required=True, help="report file prefix")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="pooling x types x metric ablation grid")
    p.add_argument("--entities", required=True)
    p.add_argument("--mentions", required=True)
    p.add_argument("--documents")
    p.add_argument("--vocab", required=True)
    p.add_argument("--entity-types", required=True, help="annotation file")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:
        if isinstance(e.code, int):
            return e.code
        print(f"error: {e.code}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
