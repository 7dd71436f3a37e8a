import numpy as np
import pytest

from candgen import encoder as E
from candgen.encoder import EncoderConfig


def rand_batch(cfg, rng, batch=2):
    ids = rng.integers(1, cfg.vocab_size, size=(batch, cfg.max_len))
    lens = rng.integers(2, cfg.max_len + 1, size=batch)
    for i, l in enumerate(lens):
        ids[i, l:] = 0
    return ids, lens


def test_config_validation():
    with pytest.raises(E.EncoderError):
        EncoderConfig(dim=10, heads=3, vocab_size=10)
    with pytest.raises(E.EncoderError):
        EncoderConfig(dropout=1.0, vocab_size=10)
    with pytest.raises(E.EncoderError):
        EncoderConfig(vocab_size=0)


def test_init_deterministic_and_shaped():
    cfg = EncoderConfig(dim=64, layers=2, heads=2, ff_dim=128, max_len=16, vocab_size=1000, seed=7)
    p1 = E.init_params(cfg)
    p2 = E.init_params(cfg)
    assert p1["tok_emb"].shape == (1000, 64)
    assert np.array_equal(p1["l0.ln1.g"], np.ones(64))
    assert np.array_equal(p1["l1.ln2.b"], np.zeros(64))
    for name in p1:
        assert np.array_equal(p1[name], p2[name]), name


def test_zero_layers_is_embedding_sum():
    cfg = EncoderConfig(dim=8, layers=0, heads=2, ff_dim=16, max_len=5, vocab_size=12)
    params = E.init_params(cfg)
    ids = np.array([[3, 1, 7, 2, 4]])
    h, _ = E.forward(params, cfg, ids, np.array([5]))
    expected = params["tok_emb"][ids[0]] + params["pos_emb"]
    np.testing.assert_allclose(h[0], expected)


def test_zero_layers_permutation_equivariance():
    cfg = EncoderConfig(dim=8, layers=0, heads=2, ff_dim=16, max_len=4, vocab_size=12)
    params = E.init_params(cfg)
    params["pos_emb"][:] = 0.0
    ids = np.array([[3, 1, 7, 2]])
    swapped = np.array([[3, 7, 1, 2]])
    h1, _ = E.forward(params, cfg, ids, np.array([4]))
    h2, _ = E.forward(params, cfg, swapped, np.array([4]))
    np.testing.assert_array_equal(h1[0][[0, 2, 1, 3]], h2[0])


def test_output_invariant_to_padding_ids(tiny_config):
    params = E.init_params(tiny_config)
    ids = np.array([[3, 1, 7, 0, 0, 0]])
    lens = np.array([3])
    h1, _ = E.forward(params, tiny_config, ids, lens)
    ids2 = ids.copy()
    ids2[0, 3:] = [9, 4, 2]  # garbage beyond the attention length
    h2, _ = E.forward(params, tiny_config, ids2, lens)
    np.testing.assert_array_equal(h1, h2)


def test_forward_deterministic_without_dropout(tiny_config):
    params = E.init_params(tiny_config)
    ids = np.array([[3, 1, 7, 2, 0, 0]])
    lens = np.array([4])
    h1, _ = E.forward(params, tiny_config, ids, lens)
    h2, _ = E.forward(params, tiny_config, ids, lens)
    np.testing.assert_array_equal(h1, h2)


def test_bad_inputs_rejected(tiny_config):
    params = E.init_params(tiny_config)
    with pytest.raises(E.EncoderError):
        E.forward(params, tiny_config, np.zeros((1, 3), dtype=int), np.array([3]))
    with pytest.raises(E.EncoderError):
        E.forward(params, tiny_config, np.full((1, 6), 99), np.array([6]))


@pytest.mark.parametrize("lens", [[0, 3], [3, 7], [3], [[3, 3]], [-1, 3]])
def test_bad_attention_lengths_rejected(tiny_config, lens):
    params = E.init_params(tiny_config)
    ids = np.array([[3, 1, 7, 0, 0, 0], [2, 2, 2, 0, 0, 0]])
    with pytest.raises(E.EncoderError):
        E.forward(params, tiny_config, ids, np.array(lens))


def test_backward_shape_mismatch_rejected(tiny_config):
    params = E.init_params(tiny_config)
    ids = np.array([[3, 1, 7, 2, 0, 0]])
    h, cache = E.forward(params, tiny_config, ids, np.array([4]))
    with pytest.raises(E.EncoderError):
        E.backward(cache, np.zeros((1, 3, 8)))


def test_zero_upstream_gradient_gives_zero_grads(tiny_config):
    params = E.init_params(tiny_config)
    ids = np.array([[3, 1, 7, 2, 0, 0]])
    h, cache = E.forward(params, tiny_config, ids, np.array([4]))
    grads = E.backward(cache, np.zeros_like(h))
    for name, g in grads.items():
        assert not g.any(), name


def test_gradient_additivity_over_examples(tiny_config):
    params = E.init_params(tiny_config)
    rng = np.random.default_rng(0)
    ids, lens = rand_batch(tiny_config, rng, batch=2)
    dh = rng.normal(size=(2, tiny_config.max_len, tiny_config.dim))
    _, cache = E.forward(params, tiny_config, ids, lens)
    g_batch = E.backward(cache, dh)
    g_sum = None
    for i in range(2):
        _, c = E.forward(params, tiny_config, ids[i : i + 1], lens[i : i + 1])
        g = E.backward(c, dh[i : i + 1])
        g_sum = g if g_sum is None else {k: g_sum[k] + g[k] for k in g}
    for name in g_batch:
        np.testing.assert_allclose(g_batch[name], g_sum[name], atol=1e-12, err_msg=name)


def test_gradients_match_finite_differences(tiny_config):
    params = E.init_params(tiny_config)
    rng = np.random.default_rng(1)
    ids, lens = rand_batch(tiny_config, rng)
    w = rng.normal(size=(2, tiny_config.max_len, tiny_config.dim))

    def loss():
        h, _ = E.forward(params, tiny_config, ids, lens)
        return float((w * h).sum())

    _, cache = E.forward(params, tiny_config, ids, lens)
    grads = E.backward(cache, w)
    step = 1e-5
    worst = 0.0
    for name, arr in params.items():
        flat, gflat = arr.reshape(-1), grads[name].reshape(-1)
        sel = rng.choice(flat.size, size=min(10, flat.size), replace=False)
        for i in sel:
            old = flat[i]
            flat[i] = old + step
            lp = loss()
            flat[i] = old - step
            lm = loss()
            flat[i] = old
            fd = (lp - lm) / (2 * step)
            worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-4))
    assert worst < 1e-4


def test_independent_encoders_share_no_storage(tiny_config):
    p1 = E.init_params(tiny_config)
    p2 = E.init_params(tiny_config)
    before = {k: v.copy() for k, v in p2.items()}
    for v in p1.values():
        v += 1.0
    for name in p2:
        np.testing.assert_array_equal(p2[name], before[name])


def test_dropout_train_mode_changes_output(tiny_config):
    cfg = EncoderConfig(**{**tiny_config.__dict__, "dropout": 0.5})
    params = E.init_params(cfg)
    ids = np.array([[3, 1, 7, 2, 0, 0]])
    lens = np.array([4])
    h_eval, _ = E.forward(params, cfg, ids, lens, train=False)
    h_train, _ = E.forward(params, cfg, ids, lens, train=True, rng=np.random.default_rng(0))
    assert not np.array_equal(h_eval, h_train)


def test_checkpoint_round_trip(tmp_path, tiny_config):
    params = E.init_params(tiny_config)
    path = tmp_path / "enc.ckpt"
    E.save_checkpoint(path, tiny_config, params)
    cfg2, params2 = E.load_checkpoint(path)
    assert cfg2 == tiny_config
    for name in params:
        np.testing.assert_array_equal(params[name], params2[name])
