"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
so the suite doubles as a release checklist. Scales are kept small enough
for a laptop CPU; the checks are property-based rather than benchmark
reproductions.
"""

import filecmp
import os
import time

import numpy as np

from candgen import evaluation, pooling, retrieval, synthetic, training
from candgen.bpe import DEFAULT_ENTITY_TYPE_LABELS
from candgen.cli import main as cli_main
from candgen.corpus import EntityRecord, MentionRecord, apply_type_annotations
from candgen.encoder import EncoderConfig, init_params
from candgen.templates import (
    build_entity_sequence,
    build_mention_sequence,
    shared_slot_count,
)


def _announce(capsys, num, label, ok):
    with capsys.disabled():
        print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}", flush=True)


def test_criterion_1_gradient_correctness(capsys, char_vocab):
    ok = False
    start = time.time()
    try:
        cfg = EncoderConfig(dim=8, layers=1, heads=2, ff_dim=16, max_len=6,
                            vocab_size=len(char_vocab), seed=0)
        letters = ["a", "b", "c", "d"]
        mention_seqs, entity_seqs = [], []
        for i in range(2):
            m = MentionRecord(f"m{i}", "d", 1, 1, f"e{i}", "w")
            mention_seqs.append(
                build_mention_sequence(
                    m, [letters[i], letters[i + 1], letters[i + 2]], char_vocab, 6
                )
            )
            e = EntityRecord(f"e{i}", letters[i], letters[i + 1], "w")
            entity_seqs.append(build_entity_sequence(e, char_vocab, 6))
        params_m = init_params(cfg)
        params_e = init_params(EncoderConfig(**{**cfg.__dict__, "seed": 1}))
        slots = shared_slot_count(False)
        for kind in pooling.ALL_KINDS:
            report = training.gradient_check(
                params_m, params_e, cfg, cfg, mention_seqs, entity_seqs, kind,
                slot_count=slots, samples_per_tensor=8,
            )
            assert report.ok(1e-4), (kind, report.max_rel_error, report.worst_param)
        assert time.time() - start < 60.0
        ok = True
    finally:
        _announce(capsys, 1, "gradient correctness (all pooling kinds, FD < 1e-4)", ok)


def test_criterion_2_retrieval_oracle_equivalence(capsys):
    ok = False
    start = time.time()
    try:
        rng = np.random.default_rng(42)
        n, p, k = 1000, 16, 50
        ids = [f"e{i:05d}" for i in range(n)]
        matrix = rng.normal(size=(n, p))
        matrix[7] = matrix[3]  # plant an exact tie
        index = retrieval.EmbeddingIndex(ids, matrix)
        for _ in range(20):
            q = rng.normal(size=p)
            for metric in retrieval.ALL_METRICS:
                got = [e for e, _ in retrieval.top_k(index, q, k, metric).candidates]
                scored = [
                    (eid, retrieval.similarity(row, q, metric))
                    for eid, row in zip(ids, matrix)
                ]
                reverse = metric != retrieval.EUCLIDEAN
                scored.sort(key=lambda t: ((-t[1] if reverse else t[1]), t[0]))
                assert got == [eid for eid, _ in scored[:k]], metric
        assert time.time() - start < 10.0
        ok = True
    finally:
        _announce(capsys, 2, "retrieval equals full-sort oracle (ties included)", ok)


def test_criterion_3_metric_consistency(capsys):
    ok = False
    try:
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(200, 12))
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        index = retrieval.EmbeddingIndex([f"e{i:04d}" for i in range(200)], matrix)
        for _ in range(100):
            q = rng.normal(size=12)
            q /= np.linalg.norm(q)
            rankings = [
                [e for e, _ in retrieval.top_k(index, q, 200, m).candidates]
                for m in (retrieval.DOT, retrieval.COSINE, retrieval.EUCLIDEAN)
            ]
            assert rankings[0] == rankings[1] == rankings[2]
        ok = True
    finally:
        _announce(capsys, 3, "dot/cosine/euclidean agree on unit vectors", ok)


def test_criterion_4_pooling_identities(capsys):
    ok = False
    try:
        rng = np.random.default_rng(11)
        for _ in range(100):
            attn_len = int(rng.integers(2, 10))
            h = rng.normal(size=(12, 5))
            h[attn_len:] = 0.0
            specials = sorted(set(int(i) for i in rng.integers(0, attn_len, size=3)))
            np.testing.assert_allclose(
                pooling.reduce(h[None], [attn_len], [specials], pooling.AVG)[0],
                pooling.reduce(h[None], [attn_len], [specials], pooling.SUM)[0] / attn_len,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                pooling.reduce(h[None], [attn_len], [specials], pooling.SUM_SPECIAL)[0],
                pooling.reduce(h[None], [attn_len], [specials], pooling.AVG_SPECIAL)[0]
                * len(specials),
                atol=1e-12,
            )
            everything = list(range(attn_len))
            np.testing.assert_allclose(
                pooling.reduce(h[None], [attn_len], [everything], pooling.AVG)[0],
                pooling.reduce(h[None], [attn_len], [everything], pooling.AVG_SPECIAL)[0],
                atol=1e-12,
            )
        ok = True
    finally:
        _announce(capsys, 4, "pooling identities to 1e-12", ok)


def test_criterion_5_loss_properties(capsys):
    ok = False
    try:
        loss, _ = training.inbatch_loss(np.array([[12.34]]))
        assert loss == 0.0
        loss, _ = training.inbatch_loss(np.full((2, 2), 0.7))
        assert abs(loss - np.log(2)) < 1e-12
        rng = np.random.default_rng(13)
        scores = rng.normal(size=(5, 5))
        base, grad = training.inbatch_loss(scores)
        shifted = scores.copy()
        shifted[1] += 250.0
        again, _ = training.inbatch_loss(shifted)
        assert abs(base - again) < 1e-10
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)
        ok = True
    finally:
        _announce(capsys, 5, "in-batch loss properties", ok)


def test_criterion_6_overfit_sanity(capsys, toy_world, toy_vocab):
    ok = False
    start = time.time()
    try:
        enc_cfg = EncoderConfig(dim=64, layers=2, heads=2, ff_dim=256, max_len=32,
                                vocab_size=len(toy_vocab))
        train_cfg = training.TrainConfig(
            epochs=30, learning_rate=2e-3, seed=0, pooling_kind=pooling.CONC_SPECIAL
        )
        result = training.train(toy_world, toy_vocab, enc_cfg, train_cfg)
        slots = shared_slot_count(False)
        index = retrieval.build_index(
            toy_world.entities, result.params_e, enc_cfg, toy_vocab,
            pooling.CONC_SPECIAL, slot_count=slots, world=toy_world.name,
        )
        mention_seqs = [
            build_mention_sequence(
                m, toy_world.documents[m.context_document_id], toy_vocab,
                enc_cfg.max_len,
            )
            for m in toy_world.mentions
        ]
        ys, _ = training.forward_pooled(
            result.params_m, enc_cfg, mention_seqs, pooling.CONC_SPECIAL, slots
        )
        results = [
            retrieval.top_k(index, ys[i], 10, retrieval.DOT, m.mention_id)
            for i, m in enumerate(toy_world.mentions)
        ]
        gold = {m.mention_id: m.gold_entity_id for m in toy_world.mentions}
        curve = [evaluation.accuracy_at_k(results, gold, k) for k in range(1, 11)]
        assert curve[0] >= 0.9, curve
        assert curve[4] == 1.0, curve
        assert curve == sorted(curve)
        assert time.time() - start < 300.0
        ok = True
    finally:
        _announce(capsys, 6, "overfit sanity (acc@1 >= 0.9, acc@5 = 1.0, monotone curve)", ok)


def test_criterion_7_ablation_harness(capsys, tmp_path, toy_world, toy_vocab):
    ok = False
    try:
        entities = str(tmp_path / "entities.jsonl")
        mentions = str(tmp_path / "mentions.jsonl")
        documents = str(tmp_path / "documents.jsonl")
        types = str(tmp_path / "types.tsv")
        synthetic.write_world_files(toy_world, entities, mentions, documents, types)
        vocab_prefix = str(tmp_path / "toy")
        toy_vocab.save(vocab_prefix + ".vocab", vocab_prefix + ".merges")
        out = str(tmp_path / "grid")
        # smaller encoder than criterion 6 keeps the 60 training runs tractable
        code = cli_main([
            "experiment", "--entities", entities, "--mentions", mentions,
            "--documents", documents, "--vocab", vocab_prefix,
            "--entity-types", types, "--world", toy_world.name,
            "--k", "5", "--seeds", "5",
            "--dim", "32", "--layers", "1", "--heads", "2", "--ff-dim", "128",
            "--max-len", "16", "--epochs", "20", "--lr", "2e-3",
            "--out", out,
        ])
        assert code == 0
        with open(os.path.join(out, "table.tsv")) as f:
            header, *rows = f.read().splitlines()
        assert header == "pooling\tentity_type\tmetric\taccuracy@1\taccuracy@5"
        assert len(rows) == 36
        by_metric = {m: [] for m in retrieval.ALL_METRICS}
        for row in rows:
            kind, type_mode, metric, acc1, acck = row.split("\t")
            by_metric[metric].append((float(acc1), float(acck)))
        # directional check: averaged over the grid (and 5 seeds per cell),
        # euclidean never strictly beats the dot product
        for col in (0, 1):
            mean = {m: np.mean([r[col] for r in v]) for m, v in by_metric.items()}
            assert mean["euclidean"] <= mean["dot"], mean
        ok = True
    finally:
        _announce(capsys, 7, "ablation grid (36 rows, euclidean <= dot)", ok)


def test_criterion_8_template_conformance(capsys):
    ok = False
    try:
        world = synthetic.make_toy_world(100, 500, seed=2, name="bigtoy")
        labels = DEFAULT_ENTITY_TYPE_LABELS
        annotations = {
            e.entity_id: labels[i % len(labels)] for i, e in enumerate(world.entities)
        }
        annotations.update(
            {m.mention_id: labels[i % len(labels)] for i, m in enumerate(world.mentions)}
        )
        world = apply_type_annotations(world, annotations)
        vocab = synthetic.toy_vocabulary(world, 600)
        rng = np.random.default_rng(3)
        ms_id = vocab.special_id("[Ms]")
        me_id = vocab.special_id("[Me]")
        ent_id = vocab.special_id("[ENT]")
        checked = 0
        for i in range(600):
            m = world.mentions[int(rng.integers(len(world.mentions)))]
            typed = bool(rng.integers(2))
            max_len = int(rng.integers(16, 33))
            ctx = world.documents[m.context_document_id]
            seq = build_mention_sequence(m, ctx, vocab, max_len, typed)
            live = seq.ids[: seq.attn_len].tolist()
            assert live.count(ms_id) == 1 and live.count(me_id) == 1
            full = build_mention_sequence(m, ctx, vocab, 512, typed)
            if full.attn_len > max_len:
                assert seq.attn_len == max_len
            if typed:
                assert seq.ids[1] == vocab.special_id(f"[{m.entity_type}]")
            checked += 1
        for i in range(400):
            e = world.entities[int(rng.integers(len(world.entities)))]
            typed = bool(rng.integers(2))
            max_len = int(rng.integers(16, 33))
            seq = build_entity_sequence(e, vocab, max_len, typed)
            live = seq.ids[: seq.attn_len].tolist()
            assert live.count(ent_id) == 1
            full = build_entity_sequence(e, vocab, 512, typed)
            if full.attn_len > max_len:
                assert seq.attn_len == max_len
            if typed:
                assert seq.ids[1] == vocab.special_id(f"[{e.entity_type}]")
            checked += 1
        assert checked == 1000
        ok = True
    finally:
        _announce(capsys, 8, "template conformance on 1000 random samples", ok)


def test_criterion_9_determinism(capsys, tmp_path, toy_world):
    ok = False
    try:
        entities = str(tmp_path / "entities.jsonl")
        mentions = str(tmp_path / "mentions.jsonl")
        documents = str(tmp_path / "documents.jsonl")
        synthetic.write_world_files(toy_world, entities, mentions, documents)
        dirs = []
        for name in ("run1", "run2"):
            base = tmp_path / name
            base.mkdir()
            vocab = str(base / "v")
            assert cli_main(["train-bpe", "--input", entities, documents,
                             "--vocab-size", "300", "--out", vocab]) == 0
            model = str(base / "model")
            assert cli_main(["train", "--entities", entities, "--mentions", mentions,
                             "--documents", documents, "--vocab", vocab,
                             "--world", toy_world.name, "--pooling", "avg",
                             "--seed", "9", "--dim", "16", "--layers", "1",
                             "--heads", "2", "--ff-dim", "32", "--max-len", "16",
                             "--epochs", "3", "--lr", "1e-3", "--out", model]) == 0
            index = str(base / "index")
            assert cli_main(["embed", "--entities", entities, "--vocab", vocab,
                             "--checkpoint", os.path.join(model, "entity.ckpt"),
                             "--pooling", "avg", "--world", toy_world.name,
                             "--out", index]) == 0
            results = str(base / "results.tsv")
            assert cli_main(["retrieve", "--index", index,
                             "--checkpoint", os.path.join(model, "mention.ckpt"),
                             "--mentions", mentions, "--documents", documents,
                             "--vocab", vocab, "--metric", "dot", "--k", "5",
                             "--pooling", "avg", "--out", results]) == 0
            assert cli_main(["eval", "--results", results, "--mentions", mentions,
                             "--ks", "1,5", "--out", str(base / "eval")]) == 0
            dirs.append(base)
        for rel in ("v.vocab", "v.merges", "model/mention.ckpt", "model/entity.ckpt",
                    "index.mat", "index.ids", "results.tsv", "eval.report",
                    "eval.curve"):
            assert filecmp.cmp(dirs[0] / rel, dirs[1] / rel, shallow=False), rel
        ok = True
    finally:
        _announce(capsys, 9, "pipeline determinism (bit-identical artifacts)", ok)
