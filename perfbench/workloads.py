"""The three workloads: their shapes, set-up, timed body and output checks.

Every workload body runs the whole command-line pipeline through
``candgen.cli.main`` (train-bpe, train, embed, retrieve under each metric,
eval of each result file) and then a closed loop of single requests, one
outstanding at a time: encode one mention, then ``retrieval.top_k``. The
shapes decide which stage dominates; README.md gives the reasons.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

import oracle
from inputs import WorldFiles, WorldShape, random_index_rows, write_subset, write_world

METRICS = ("dot", "cosine", "euclidean")
POOLING = "conc_special"
DIM = 64  # the CLI's default encoder width; P = slots * DIM for conc_special
K = 64
DUP_SHARE = 0.3  # share of the query workload's random rows that copy another row
ENCODE_BATCH = 64


@dataclass(frozen=True)
class Shape:
    world: WorldShape
    bpe_entities: int  # entities in the train-bpe input sample
    vocab_size: int
    train_mentions: int
    epochs: int
    batch_size: int
    types: bool
    requests: int  # closed-loop requests per repetition
    random_rows: int = 0  # > 0: retrieve and the loop scan a random index of this many rows
    scan_mentions: int = 0  # mentions retrieved against that random index

    @property
    def pooled_dim(self) -> int:
        return (6 if self.types else 4) * DIM


SHAPES = {
    # Training-bound: train dominates, the dictionary is small.
    "fit": Shape(world=WorldShape(entities=100, mentions=96), bpe_entities=60,
                 vocab_size=250, train_mentions=96, epochs=3, batch_size=16,
                 types=False, requests=100),
    # Dictionary-bound: embed once, retrieve under every metric; types on.
    "index": Shape(world=WorldShape(entities=800, mentions=80), bpe_entities=80,
                   vocab_size=350, train_mentions=64, epochs=1, batch_size=16,
                   types=True, requests=100),
    # Scan-bound: a toy pipeline trains the mention encoder, then retrieve
    # under every metric and single requests scan a large random index with
    # planted exact ties.
    "query": Shape(world=WorldShape(entities=70, mentions=48), bpe_entities=70,
                   vocab_size=200, train_mentions=48, epochs=1, batch_size=16,
                   types=False, requests=100, random_rows=50_000, scan_mentions=8),
}


class SubcommandFailed(RuntimeError):
    pass


@dataclass
class Inputs:
    files: WorldFiles
    bpe_input: str
    train_mentions: str
    retrieve_mentions: str  # mentions file the retrieve and eval subcommands read
    retrieve_gold: dict[str, str]  # gold entity of each of those mentions
    index: object = None  # EmbeddingIndex of random rows, query workload only
    index_prefix: str = ""  # that index as saved by the program, query workload only


def setup(shape: Shape, seed: int, work_dir: str) -> Inputs:
    """Write the workload's input files and, for query, build and save its index."""
    from candgen import retrieval

    files = write_world(work_dir, shape.world, seed)
    inputs = Inputs(
        files=files,
        bpe_input=write_subset(files.entities, os.path.join(work_dir, "bpe.jsonl"),
                               shape.bpe_entities),
        train_mentions=write_subset(files.mentions, os.path.join(work_dir, "train.jsonl"),
                                    shape.train_mentions),
        retrieve_mentions=files.mentions,
        retrieve_gold=files.gold,
    )
    if shape.random_rows:
        rng = np.random.default_rng([seed, 1])
        matrix, ids = random_index_rows(rng, shape.random_rows, shape.pooled_dim, DUP_SHARE)
        inputs.index = retrieval.EmbeddingIndex(ids, matrix, pooling_kind=POOLING)
        inputs.index_prefix = os.path.join(work_dir, "random")
        retrieval.save_index(inputs.index, inputs.index_prefix)
        inputs.retrieve_mentions = write_subset(
            files.mentions, os.path.join(work_dir, "scan.jsonl"), shape.scan_mentions)
        # write_world numbers mentions in file order, so the subset's gold
        # entities are the first ones.
        inputs.retrieve_gold = dict(list(files.gold.items())[:shape.scan_mentions])
    return inputs


@dataclass
class Rep:
    """What one repetition of the body measured and produced."""

    out_dir: str
    stage_s: dict[str, float] = field(default_factory=dict)
    pipeline_s: float = 0.0
    windows: list[tuple[float, float]] = field(default_factory=list)  # per request
    requests: list[tuple[str, np.ndarray, list]] = field(default_factory=list)
    subcommands: int = 0

    @property
    def latencies(self) -> list[float]:
        return [end - start for start, end in self.windows]


def _cli(rep: Rep, stage: str, argv: list[str]) -> None:
    from candgen import cli

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    rep.stage_s[stage] = time.perf_counter() - start
    rep.subcommands += 1
    if code != 0:
        raise SubcommandFailed(f"{stage} exited with {code}: {argv}")


def _paths(out_dir):
    return dict(vocab=os.path.join(out_dir, "vocab"),
                model=os.path.join(out_dir, "model"),
                index=os.path.join(out_dir, "index"))


def run_body(shape: Shape, inputs: Inputs, out_dir: str) -> Rep:
    """One timed repetition: the CLI pipeline, then the request loop."""
    os.makedirs(out_dir, exist_ok=True)
    p, f = _paths(out_dir), inputs.files
    types = ["--entity-types", f.types] if shape.types else []
    pooling = ["--pooling", POOLING]
    rep = Rep(out_dir)
    start = time.perf_counter()
    _cli(rep, "train-bpe", ["train-bpe", "--input", inputs.bpe_input,
                            "--vocab-size", str(shape.vocab_size), "--out", p["vocab"]])
    _cli(rep, "train", ["train", "--entities", f.entities, "--mentions", inputs.train_mentions,
                        "--documents", f.documents, "--vocab", p["vocab"], "--out", p["model"],
                        "--epochs", str(shape.epochs), "--batch-size", str(shape.batch_size),
                        *pooling, *types])
    _cli(rep, "embed", ["embed", "--entities", f.entities, "--vocab", p["vocab"],
                        "--checkpoint", os.path.join(p["model"], "entity.ckpt"),
                        "--out", p["index"], *pooling, *types])
    index = inputs.index_prefix or p["index"]
    for metric in METRICS:
        _cli(rep, f"retrieve-{metric}", [
            "retrieve", "--index", index,
            "--checkpoint", os.path.join(p["model"], "mention.ckpt"),
            "--mentions", inputs.retrieve_mentions, "--documents", f.documents,
            "--vocab", p["vocab"],
            "--metric", metric, "--k", str(K),
            "--out", os.path.join(out_dir, f"results-{metric}.tsv"), *pooling, *types])
    for metric in METRICS:
        _cli(rep, f"eval-{metric}", [
            "eval", "--results", os.path.join(out_dir, f"results-{metric}.tsv"),
            "--mentions", inputs.retrieve_mentions, "--ks", f"1,{K}", "--metric", metric,
            "--out", os.path.join(out_dir, f"eval-{metric}")])
    _request_loop(shape, inputs, rep)
    rep.pipeline_s = time.perf_counter() - start
    return rep


def _load_queries(shape: Shape, inputs: Inputs, vocab_prefix: str, mentions_path: str):
    """Vocabulary, mentions with their types, and context documents."""
    from candgen import bpe, corpus

    f = inputs.files
    vocab = bpe.Vocabulary.load(vocab_prefix + ".vocab", vocab_prefix + ".merges")
    mentions = corpus.load_mentions(mentions_path)
    if shape.types:
        ann = corpus.load_entity_type_annotations(f.types)
        mentions = [replace(m, entity_type=ann.get(m.mention_id, m.entity_type))
                    for m in mentions]
    documents = corpus.documents_from_entities(corpus.load_entities(f.documents, world="_"))
    return vocab, mentions, documents


def _request_loop(shape: Shape, inputs: Inputs, rep: Rep) -> None:
    from candgen import encoder, retrieval, templates, training

    p = _paths(rep.out_dir)
    vocab, mentions, documents = _load_queries(shape, inputs, p["vocab"], inputs.files.mentions)
    cfg, params = encoder.load_checkpoint(os.path.join(p["model"], "mention.ckpt"))
    index = inputs.index if inputs.index is not None else retrieval.load_index(p["index"])
    slots = templates.shared_slot_count(shape.types)
    for i in range(shape.requests):
        m = mentions[i % len(mentions)]
        t0 = time.perf_counter()
        seq = templates.build_mention_sequence(
            m, documents[m.context_document_id], vocab, cfg.max_len, shape.types)
        y, _ = training.forward_pooled(params, cfg, [seq], POOLING, slots)
        result = retrieval.top_k(index, y[0], K, "dot", m.mention_id)
        rep.windows.append((t0, time.perf_counter()))
        rep.requests.append((m.mention_id, y[0], result.candidates))


# -- checks, outside the timed region ------------------------------------------


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    accuracy: dict[int, float] = field(default_factory=dict)  # dot results
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str, new_op: bool = True) -> None:
        self.attempted += new_op
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(what)


def _query_vectors(shape: Shape, inputs: Inputs, out_dir: str):
    """Re-encode every retrieved mention in batches, as the oracle's queries."""
    from candgen import encoder, templates, training

    p = _paths(out_dir)
    vocab, mentions, documents = _load_queries(shape, inputs, p["vocab"],
                                               inputs.retrieve_mentions)
    cfg, params = encoder.load_checkpoint(os.path.join(p["model"], "mention.ckpt"))
    slots = templates.shared_slot_count(shape.types)
    seqs = [templates.build_mention_sequence(m, documents[m.context_document_id], vocab,
                                             cfg.max_len, shape.types) for m in mentions]
    blocks = [training.forward_pooled(params, cfg, seqs[i:i + ENCODE_BATCH], POOLING, slots)[0]
              for i in range(0, len(seqs), ENCODE_BATCH)]
    return [m.mention_id for m in mentions], np.concatenate(blocks)


def check_rep(shape: Shape, inputs: Inputs, rep: Rep, memo: dict) -> Check:
    """Compare every output of one repetition with the benchmark's own oracle.

    On fit and index the oracle sorts the repetition's own index afresh. On
    query the random index is the same in every set-up of a run, and one
    full sort of its 50k rows takes 15-120 ms while the same mention
    vectors recur in every repetition, so its id ranks and oracle lists are
    kept in ``memo`` for the run; every repetition's outputs are still
    compared with them.
    """
    from candgen import retrieval

    chk = Check(attempted=rep.subcommands)
    out, gold, p = rep.out_dir, inputs.retrieve_gold, _paths(rep.out_dir)
    chk.record(oracle.train_log_ok(os.path.join(p["model"], "train.log"), shape.epochs),
               "train.log: missing epochs or non-finite loss", new_op=False)

    if inputs.index is not None:
        index = inputs.index
        if "ranks" not in memo:
            memo["ranks"] = oracle.id_ranks(index.entity_ids)
        ranks, lists = memo["ranks"], memo.setdefault("lists", {})
    else:
        index = retrieval.load_index(p["index"])
        ranks, lists = oracle.id_ranks(index.entity_ids), {}

    def want(query, metric):
        key = (metric, query.tobytes())
        if key not in lists:
            lists[key] = oracle.full_sort(index.matrix, index.entity_ids, ranks, query,
                                          metric, K)
        return lists[key]

    mention_ids, vectors = _query_vectors(shape, inputs, out)
    for metric in METRICS:
        try:
            results = oracle.read_results(os.path.join(out, f"results-{metric}.tsv"))
        except ValueError as e:  # every list of this file then fails below
            results = {}
            chk.problems.append(str(e))
        for mid, q in zip(mention_ids, vectors):
            chk.record(oracle.matches(results.get(mid, []), want(q, metric)),
                       f"{metric} {mid}")
        acc = {k: oracle.accuracy(results, gold, k) for k in (1, K)}
        if metric == "dot":
            chk.accuracy = acc
        report = oracle.read_report(os.path.join(out, f"eval-{metric}.report"))
        chk.record(oracle.report_agrees(report, len(gold), acc), f"eval-{metric} report")

    for mid, y, got in rep.requests:
        chk.record(oracle.matches(got, want(y, "dot")), f"request {mid}")
    return chk
