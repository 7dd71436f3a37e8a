import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from candgen import encoder, pooling
from candgen import training as T
from candgen.corpus import EntityRecord, MentionRecord, apply_type_annotations
from candgen.encoder import EncoderConfig, EncoderError, init_params, param_views
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
    params = w.copy()
    opt = T.AdamW(params, cfg)
    g = np.array([0.5, -0.25])
    opt.step(g, lr=0.1)
    # hand-rolled Adam step 1
    m = (1 - T.ADAM_BETA1) * g / (1 - T.ADAM_BETA1)
    v = (1 - T.ADAM_BETA2) * g * g / (1 - T.ADAM_BETA2)
    expected = w - 0.1 * m / (np.sqrt(v) + T.ADAM_EPS)
    np.testing.assert_allclose(params, expected, atol=1e-15)


def test_adamw_decay_is_decoupled():
    cfg = T.TrainConfig(weight_decay=0.5, learning_rate=0.1)
    params = np.array([2.0])
    opt = T.AdamW(params, cfg)
    opt.step(np.array([0.0]), lr=0.1)
    # zero gradient: only the decay term acts on the weight
    np.testing.assert_allclose(params, [2.0 * (1 - 0.1 * 0.5)])


def test_adamw_vector_step_equals_per_tensor_steps():
    """One update of the whole vector has the bits of updating every named
    tensor on its own."""
    cfg = T.TrainConfig(weight_decay=0.01, learning_rate=1e-2)
    enc = EncoderConfig(dim=4, layers=1, heads=2, ff_dim=6, max_len=4, vocab_size=5)
    params = init_params(enc, 2)
    per_tensor = {k: v.copy() for k, v in param_views(params, enc).items()}
    opts = {k: T.AdamW(v, cfg) for k, v in per_tensor.items()}
    opt = T.AdamW(params, cfg)
    rng = np.random.default_rng(4)
    for step in range(3):
        grads = rng.normal(size=params.shape)
        opt.step(grads, lr=1e-2 / (step + 1))
        for name, g in param_views(grads, enc).items():
            opts[name].step(g, lr=1e-2 / (step + 1))
    for name, view in param_views(params, enc).items():
        np.testing.assert_array_equal(view, per_tensor[name], err_msg=name)


def _tiny_pipeline(char_vocab, kind="cls", batch=2):
    cfg = EncoderConfig(dim=8, layers=1, heads=2, ff_dim=16, max_len=6,
                        vocab_size=len(char_vocab))
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
    params_m = init_params(cfg, 0)
    params_e = init_params(cfg, 1)
    return cfg, params_m, params_e, mention_seqs, entity_seqs


def test_zero_upstream_means_zero_entity_gradients(char_vocab):
    cfg, pm, pe, ms, es = _tiny_pipeline(char_vocab)
    ye, state_e = T.forward_pooled(pe, cfg, es, "cls", keep_cache=True)
    grads = T.backward_pooled(state_e, np.zeros_like(ye))
    assert grads.shape == pe.shape
    assert not grads.any()


def test_gradient_check_tiny_model(char_vocab):
    cfg, pm, pe, ms, es = _tiny_pipeline(char_vocab)
    report = T.gradient_check(pm, pe, replace(cfg, pooling_kind="avg"), ms, es,
                              samples_per_tensor=6)
    assert report.ok(), (report.max_rel_error, report.worst_param)


def test_training_deterministic(toy_world, toy_vocab):
    enc_cfg = EncoderConfig(dim=16, layers=1, heads=2, ff_dim=32, max_len=16,
                            vocab_size=len(toy_vocab))
    tc = T.TrainConfig(epochs=2, learning_rate=1e-3, seed=5)
    r1 = T.train(toy_world, toy_vocab, enc_cfg, tc)
    r2 = T.train(toy_world, toy_vocab, enc_cfg, tc)
    assert r1.log_lines == r2.log_lines
    np.testing.assert_array_equal(r1.params_m, r2.params_m)
    np.testing.assert_array_equal(r1.params_e, r2.params_e)


def test_encoders_trained_independently(toy_world, toy_vocab):
    enc_cfg = EncoderConfig(dim=16, layers=1, heads=2, ff_dim=32, max_len=16,
                            vocab_size=len(toy_vocab))
    tc = T.TrainConfig(epochs=1, learning_rate=1e-3, seed=5)
    r = T.train(toy_world, toy_vocab, enc_cfg, tc)
    assert not np.array_equal(r.params_m, r.params_e)
    assert not np.shares_memory(r.params_m, r.params_e)


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
    with pytest.raises(EncoderError, match="'nope'"):
        EncoderConfig(vocab_size=5, pooling_kind="nope")


def _mixed_batch(world, vocab, typed, max_len, rng):
    """2 to 9 mention and entity sequences, so mixed attention lengths and
    special positions, with random entity types when ``typed``."""
    if typed:
        labels = ("PERSON", "ORG", "GPE")
        ids = [e.entity_id for e in world.entities] + [m.mention_id for m in world.mentions]
        world = apply_type_annotations(world, {i: labels[rng.integers(3)] for i in ids})
    pool = [
        build_mention_sequence(m, world.documents[m.context_document_id], vocab, max_len, typed)
        for m in world.mentions[:20]
    ] + [build_entity_sequence(e, vocab, max_len, typed) for e in world.entities]
    picked = rng.choice(len(pool), size=int(rng.integers(2, 10)), replace=False)
    return [pool[i] for i in picked]


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(pooling.ALL_KINDS),
    typed=st.booleans(),
    max_len=st.integers(min_value=10, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_batched_pooling_equals_row_by_row(toy_world, toy_vocab, kind, typed, max_len, seed):
    """One batch of mixed mention and entity sequences pools exactly as one
    sequence at a time, and each row's gradients are exactly those of that
    row alone."""
    rng = np.random.default_rng(seed)
    seqs = _mixed_batch(toy_world, toy_vocab, typed, max_len, rng)
    cfg = EncoderConfig(dim=8, layers=1, heads=2, ff_dim=16, max_len=max_len,
                        vocab_size=len(toy_vocab))
    params = init_params(cfg, seed)
    slots = shared_slot_count(typed)

    y, state = T.forward_pooled(params, cfg, seqs, kind, slots, keep_cache=True)
    rows = [T.forward_pooled(params, cfg, [s], kind, slots, keep_cache=True) for s in seqs]
    np.testing.assert_array_equal(y, np.concatenate([r[0] for r in rows]))

    dy = rng.normal(size=y.shape)
    for i, (_, row_state) in enumerate(rows):
        only_row = np.zeros_like(dy)
        only_row[i] = dy[i]
        batched = T.backward_pooled(state, only_row)
        alone = T.backward_pooled(row_state, dy[i : i + 1])
        np.testing.assert_array_equal(batched, alone)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(pooling.ALL_KINDS),
    typed=st.booleans(),
    layers=st.integers(min_value=0, max_value=2),
    max_len=st.integers(min_value=10, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_backward_cache_changes_no_output(toy_world, toy_vocab, kind, typed, layers, max_len,
                                          seed):
    """``encoder.forward`` gives the same bits with and without the backward
    cache, and so does ``forward_pooled``; only a kept cache backpropagates."""
    rng = np.random.default_rng(seed)
    seqs = _mixed_batch(toy_world, toy_vocab, typed, max_len, rng)
    cfg = EncoderConfig(dim=8, layers=layers, heads=2, ff_dim=16, max_len=max_len,
                        vocab_size=len(toy_vocab))
    params = init_params(cfg, seed)
    ids, lens = np.stack([s.ids for s in seqs]), np.array([s.attn_len for s in seqs])
    h, cache = encoder.forward(params, cfg, ids, lens, keep_cache=True)
    bare_h, bare = encoder.forward(params, cfg, ids, lens)
    assert np.array_equal(bare_h, h)
    assert len(cache["layers"]) == layers and bare["layers"] is None

    slots = shared_slot_count(typed)
    y, state = T.forward_pooled(params, cfg, seqs, kind, slots, keep_cache=True)
    bare_y, bare_state = T.forward_pooled(params, cfg, seqs, kind, slots)
    assert np.array_equal(bare_y, y)
    T.backward_pooled(state, y)
    with pytest.raises(EncoderError, match="no cache"):
        T.backward_pooled(bare_state, y)
