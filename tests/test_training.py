import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candgen import pooling
from candgen import training as T
from candgen.corpus import EntityRecord, MentionRecord, apply_type_annotations
from candgen.encoder import EncoderConfig, init_params
from candgen.templates import (
    build_entity_sequence,
    build_mention_sequence,
    shared_slot_count,
)


def reference_loss(scores):
    """Plain-summation reference for the in-batch loss formula."""
    b = scores.shape[0]
    total = 0.0
    for i in range(b):
        total += -scores[i, i] + math.log(sum(math.exp(s) for s in scores[i]))
    return total / b


def test_pair_score_examples():
    assert T.pair_score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert T.pair_score(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0
    a, b = np.array([0.3, -1.2, 5.0]), np.array([2.0, 0.1, -0.4])
    assert T.pair_score(a, b) == T.pair_score(b, a)
    with pytest.raises(T.TrainingError):
        T.pair_score(np.zeros(2), np.zeros(3))


def test_loss_single_pair_is_zero():
    loss, grad = T.inbatch_loss(np.array([[3.7]]))
    assert loss == 0.0
    np.testing.assert_allclose(grad, [[0.0]], atol=1e-15)


def test_loss_uniform_scores_is_log_batch():
    loss, _ = T.inbatch_loss(np.full((2, 2), 1.5))
    assert abs(loss - math.log(2)) < 1e-12


def test_loss_matches_reference_and_finite_differences():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(4, 4))
    loss, grad = T.inbatch_loss(scores)
    assert abs(loss - reference_loss(scores)) < 1e-10
    step = 1e-6
    for i in range(4):
        for j in range(4):
            pert = scores.copy()
            pert[i, j] += step
            lp, _ = T.inbatch_loss(pert)
            pert[i, j] -= 2 * step
            lm, _ = T.inbatch_loss(pert)
            fd = (lp - lm) / (2 * step)
            assert abs(fd - grad[i, j]) < 1e-6


def test_loss_row_shift_invariance():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=(5, 5))
    loss, _ = T.inbatch_loss(scores)
    shifted = scores.copy()
    shifted[2] += 137.5
    loss2, _ = T.inbatch_loss(shifted)
    assert abs(loss - loss2) < 1e-10


def test_loss_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(2)
    _, grad = T.inbatch_loss(rng.normal(size=(6, 6)))
    np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def test_loss_non_negative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        scores = rng.normal(size=(4, 4)) * 3
        loss, _ = T.inbatch_loss(scores)
        row_losses = [
            -scores[i, i] + math.log(sum(math.exp(s) for s in scores[i]))
            for i in range(4)
        ]
        assert all(r >= 0 for r in row_losses)
        assert loss >= 0


def test_loss_rejects_bad_matrices():
    with pytest.raises(T.TrainingError):
        T.inbatch_loss(np.zeros((2, 3)))
    with pytest.raises(T.TrainingError):
        T.inbatch_loss(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def test_linear_schedule():
    assert T.linear_lr(1.0, 0, 10) == 1.0
    assert T.linear_lr(1.0, 5, 10) == 0.5
    assert T.linear_lr(3e-5, 10, 10) == 0.0


def test_adamw_without_decay_is_plain_adam():
    cfg = T.TrainConfig(weight_decay=0.0, learning_rate=0.1)
    w = np.array([1.0, -2.0])
    params = {"w": w.copy()}
    opt = T.AdamW(params, cfg)
    g = np.array([0.5, -0.25])
    opt.step({"w": g}, lr=0.1)
    # hand-rolled Adam step 1
    m = (1 - cfg.beta1) * g / (1 - cfg.beta1)
    v = (1 - cfg.beta2) * g * g / (1 - cfg.beta2)
    expected = w - 0.1 * m / (np.sqrt(v) + cfg.eps)
    np.testing.assert_allclose(params["w"], expected, atol=1e-15)


def test_adamw_decay_is_decoupled():
    cfg = T.TrainConfig(weight_decay=0.5, learning_rate=0.1)
    params = {"w": np.array([2.0])}
    opt = T.AdamW(params, cfg)
    opt.step({"w": np.array([0.0])}, lr=0.1)
    # zero gradient: only the decay term acts on the weight
    np.testing.assert_allclose(params["w"], [2.0 * (1 - 0.1 * 0.5)])


def _tiny_pipeline(char_vocab, kind="cls", batch=2):
    cfg = EncoderConfig(dim=8, layers=1, heads=2, ff_dim=16, max_len=6,
                        vocab_size=len(char_vocab), seed=0)
    mention_seqs, entity_seqs = [], []
    letters = ["a", "b", "c", "d"]
    for i in range(batch):
        m = MentionRecord(f"m{i}", "d", 1, 1, f"e{i}", "w")
        mention_seqs.append(
            build_mention_sequence(m, [letters[i], letters[i + 1], letters[i + 2]],
                                   char_vocab, 6)
        )
        e = EntityRecord(f"e{i}", letters[i], letters[i + 1], "w")
        entity_seqs.append(build_entity_sequence(e, char_vocab, 6))
    params_m = init_params(cfg)
    params_e = init_params(EncoderConfig(**{**cfg.__dict__, "seed": 1}))
    return cfg, params_m, params_e, mention_seqs, entity_seqs


def test_doubling_loss_scale_doubles_gradients(char_vocab):
    cfg, pm, pe, ms, es = _tiny_pipeline(char_vocab)
    _, g1m, g1e = T.batch_loss_and_grads(pm, pe, cfg, cfg, ms, es, "cls")
    _, g2m, g2e = T.batch_loss_and_grads(pm, pe, cfg, cfg, ms, es, "cls", loss_scale=2.0)
    for k in g1m:
        np.testing.assert_allclose(2 * g1m[k], g2m[k], atol=1e-14)
        np.testing.assert_allclose(2 * g1e[k], g2e[k], atol=1e-14)


def test_zero_upstream_means_zero_entity_gradients(char_vocab):
    cfg, pm, pe, ms, es = _tiny_pipeline(char_vocab)
    ye, state_e = T.forward_pooled(pe, cfg, es, "cls")
    grads = T.backward_pooled(state_e, np.zeros_like(ye))
    for name, g in grads.items():
        assert not g.any(), name


def test_gradient_check_tiny_model(char_vocab):
    cfg, pm, pe, ms, es = _tiny_pipeline(char_vocab)
    report = T.gradient_check(pm, pe, cfg, cfg, ms, es, "avg", samples_per_tensor=6)
    assert report.ok(1e-4), (report.max_rel_error, report.worst_param)


def test_training_deterministic(toy_world, toy_vocab):
    enc_cfg = EncoderConfig(dim=16, layers=1, heads=2, ff_dim=32, max_len=16,
                            vocab_size=len(toy_vocab))
    tc = T.TrainConfig(epochs=2, learning_rate=1e-3, seed=5)
    r1 = T.train(toy_world, toy_vocab, enc_cfg, tc)
    r2 = T.train(toy_world, toy_vocab, enc_cfg, tc)
    assert r1.log_lines == r2.log_lines
    for name in r1.params_m:
        np.testing.assert_array_equal(r1.params_m[name], r2.params_m[name])
        np.testing.assert_array_equal(r1.params_e[name], r2.params_e[name])


def test_encoders_trained_independently(toy_world, toy_vocab):
    enc_cfg = EncoderConfig(dim=16, layers=1, heads=2, ff_dim=32, max_len=16,
                            vocab_size=len(toy_vocab))
    tc = T.TrainConfig(epochs=1, learning_rate=1e-3, seed=5)
    r = T.train(toy_world, toy_vocab, enc_cfg, tc)
    diffs = [
        not np.array_equal(r.params_m[name], r.params_e[name]) for name in r.params_m
    ]
    assert any(diffs)


def test_collision_logged(toy_world, toy_vocab, caplog):
    # batch size above the entity count forces duplicate golds in a batch
    enc_cfg = EncoderConfig(dim=8, layers=0, heads=2, ff_dim=16, max_len=16,
                            vocab_size=len(toy_vocab))
    tc = T.TrainConfig(batch_size=25, epochs=1, learning_rate=1e-3, seed=0)
    with caplog.at_level(logging.INFO, logger="candgen.training"):
        T.train(toy_world, toy_vocab, enc_cfg, tc)
    assert any("collision" in rec.message for rec in caplog.records)


def test_train_config_validation():
    with pytest.raises(T.TrainingError):
        T.TrainConfig(batch_size=0)
    with pytest.raises(T.TrainingError):
        T.TrainConfig(learning_rate=0.0)
    with pytest.raises(T.TrainingError):
        T.TrainConfig(pooling_kind="nope")


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(pooling.ALL_KINDS),
    typed=st.booleans(),
    max_len=st.integers(min_value=10, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_batched_pooling_equals_row_by_row(toy_world, toy_vocab, kind, typed, max_len, seed):
    """One batch of mixed mention and entity sequences (so mixed attention
    lengths and special positions) pools exactly as one sequence at a time,
    and each row's gradients are exactly those of that row alone."""
    rng = np.random.default_rng(seed)
    world = toy_world
    if typed:
        labels = ("PERSON", "ORG", "GPE")
        ids = [e.entity_id for e in world.entities] + [m.mention_id for m in world.mentions]
        world = apply_type_annotations(world, {i: labels[rng.integers(3)] for i in ids})
    pool = [
        build_mention_sequence(
            m, world.documents[m.context_document_id], toy_vocab, max_len, typed
        )
        for m in world.mentions[:20]
    ] + [build_entity_sequence(e, toy_vocab, max_len, typed) for e in world.entities]
    picked = rng.choice(len(pool), size=int(rng.integers(2, 10)), replace=False)
    seqs = [pool[i] for i in picked]
    cfg = EncoderConfig(dim=8, layers=1, heads=2, ff_dim=16, max_len=max_len,
                        vocab_size=len(toy_vocab), seed=seed)
    params = init_params(cfg)
    slots = shared_slot_count(typed)

    y, state = T.forward_pooled(params, cfg, seqs, kind, slots)
    rows = [T.forward_pooled(params, cfg, [s], kind, slots) for s in seqs]
    np.testing.assert_array_equal(y, np.concatenate([r[0] for r in rows]))

    dy = rng.normal(size=y.shape)
    for i, (_, row_state) in enumerate(rows):
        only_row = np.zeros_like(dy)
        only_row[i] = dy[i]
        batched = T.backward_pooled(state, only_row)
        alone = T.backward_pooled(row_state, dy[i : i + 1])
        for name in batched:
            np.testing.assert_array_equal(batched[name], alone[name], err_msg=name)
