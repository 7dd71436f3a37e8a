import json
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candgen import encoder as E
from candgen import pooling
from candgen.encoder import EncoderConfig
from candgen.training import AdamW, TrainConfig


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
        EncoderConfig(vocab_size=0)
    for bad in (dict(heads=0), dict(dim=0), dict(ff_dim=0), dict(layers=-1), dict(dim=8.0),
                dict(layers=True), dict(pooling_kind=None), dict(use_entity_type=1)):
        with pytest.raises(E.EncoderError):
            EncoderConfig(vocab_size=10, **bad)


def test_init_deterministic_and_shaped():
    cfg = EncoderConfig(dim=64, layers=2, heads=2, ff_dim=128, max_len=16, vocab_size=1000)
    p1 = E.param_views(E.init_params(cfg, 7), cfg)
    p2 = E.param_views(E.init_params(cfg, 7), cfg)
    assert p1["tok_emb"].shape == (1000, 64)
    assert np.array_equal(p1["l0.ln1.g"], np.ones(64))
    assert np.array_equal(p1["l1.ln2.b"], np.zeros(64))
    for name in p1:
        assert np.array_equal(p1[name], p2[name]), name


def test_zero_layers_is_embedding_sum():
    cfg = EncoderConfig(dim=8, layers=0, heads=2, ff_dim=16, max_len=5, vocab_size=12)
    params = E.init_params(cfg, 0)
    ids = np.array([[3, 1, 7, 2, 4]])
    h, _ = E.forward(params, cfg, ids, np.array([5]))
    views = E.param_views(params, cfg)
    expected = views["tok_emb"][ids[0]] + views["pos_emb"]
    np.testing.assert_allclose(h[0], expected)


def test_zero_layers_permutation_equivariance():
    cfg = EncoderConfig(dim=8, layers=0, heads=2, ff_dim=16, max_len=4, vocab_size=12)
    params = E.init_params(cfg, 0)
    E.param_views(params, cfg)["pos_emb"][:] = 0.0
    ids = np.array([[3, 1, 7, 2]])
    swapped = np.array([[3, 7, 1, 2]])
    h1, _ = E.forward(params, cfg, ids, np.array([4]))
    h2, _ = E.forward(params, cfg, swapped, np.array([4]))
    np.testing.assert_array_equal(h1[0][[0, 2, 1, 3]], h2[0])


def test_output_invariant_to_padding_ids(tiny_config):
    params = E.init_params(tiny_config, 3)
    ids = np.array([[3, 1, 7, 0, 0, 0]])
    lens = np.array([3])
    h1, _ = E.forward(params, tiny_config, ids, lens)
    ids2 = ids.copy()
    ids2[0, 3:] = [9, 4, 2]  # garbage beyond the attention length
    h2, _ = E.forward(params, tiny_config, ids2, lens)
    np.testing.assert_array_equal(h1, h2)


def test_forward_deterministic_without_dropout(tiny_config):
    params = E.init_params(tiny_config, 3)
    ids = np.array([[3, 1, 7, 2, 0, 0]])
    lens = np.array([4])
    h1, _ = E.forward(params, tiny_config, ids, lens)
    h2, _ = E.forward(params, tiny_config, ids, lens)
    np.testing.assert_array_equal(h1, h2)


def test_bad_inputs_rejected(tiny_config):
    params = E.init_params(tiny_config, 3)
    with pytest.raises(E.EncoderError):
        E.forward(params, tiny_config, np.zeros((1, 3), dtype=int), np.array([3]))
    with pytest.raises(E.EncoderError):
        E.forward(params, tiny_config, np.full((1, 6), 99), np.array([6]))


@pytest.mark.parametrize("lens", [[0, 3], [3, 7], [3], [[3, 3]], [-1, 3]])
def test_bad_attention_lengths_rejected(tiny_config, lens):
    params = E.init_params(tiny_config, 3)
    ids = np.array([[3, 1, 7, 0, 0, 0], [2, 2, 2, 0, 0, 0]])
    with pytest.raises(E.EncoderError):
        E.forward(params, tiny_config, ids, np.array(lens))


def test_backward_shape_mismatch_rejected(tiny_config):
    params = E.init_params(tiny_config, 3)
    ids = np.array([[3, 1, 7, 2, 0, 0]])
    h, cache = E.forward(params, tiny_config, ids, np.array([4]), keep_cache=True)
    with pytest.raises(E.EncoderError, match="mismatch"):
        E.backward(cache, np.zeros((1, 3, 8)))


def test_zero_upstream_gradient_gives_zero_grads(tiny_config):
    params = E.init_params(tiny_config, 3)
    ids = np.array([[3, 1, 7, 2, 0, 0]])
    h, cache = E.forward(params, tiny_config, ids, np.array([4]), keep_cache=True)
    grads = E.backward(cache, np.zeros_like(h))
    assert grads.shape == params.shape
    for name, g in E.param_views(grads, tiny_config).items():
        assert not g.any(), name


def test_gradient_additivity_over_examples(tiny_config):
    params = E.init_params(tiny_config, 3)
    rng = np.random.default_rng(0)
    ids, lens = rand_batch(tiny_config, rng, batch=2)
    dh = rng.normal(size=(2, tiny_config.max_len, tiny_config.dim))
    _, cache = E.forward(params, tiny_config, ids, lens, keep_cache=True)
    g_batch = E.backward(cache, dh)
    g_sum = 0.0
    for i in range(2):
        _, c = E.forward(params, tiny_config, ids[i : i + 1], lens[i : i + 1], keep_cache=True)
        g_sum = g_sum + E.backward(c, dh[i : i + 1])
    batch_views = E.param_views(g_batch, tiny_config)
    for name, g in E.param_views(g_sum, tiny_config).items():
        np.testing.assert_allclose(batch_views[name], g, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("layers", [0, 1])
def test_backward_refuses_a_forward_that_kept_no_cache(layers):
    cfg = EncoderConfig(dim=8, layers=layers, heads=2, ff_dim=16, max_len=6, vocab_size=32)
    ids = np.array([[3, 1, 7, 2, 0, 0]])
    h, cache = E.forward(E.init_params(cfg, 3), cfg, ids, np.array([4]))
    with pytest.raises(E.EncoderError, match="no cache"):
        E.backward(cache, np.ones_like(h))


def _gelu_pow(x):
    """The GELU formula with its cube as ``x**3``, kept as the reference."""
    t = np.tanh(E._GELU_C * (x + 0.044715 * x**3))
    return 0.5 * x * (1.0 + t), t


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 1.0, 3.0, 30.0]))
def test_gelu_matches_the_power_formula(seed, scale):
    """The cube by multiplication rounds differently from ``x**3``; the
    activation and its backward stay within 1e-14 of the power formula."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, scale, size=(3, 5, 16))
    dy = rng.normal(size=x.shape)
    act, t = E._gelu(x, E._fresh)
    ref_act, ref_t = _gelu_pow(x)
    np.testing.assert_allclose(act, ref_act, rtol=0, atol=1e-14)
    np.testing.assert_allclose(E._gelu_backward(dy, x, t), E._gelu_backward(dy, x, ref_t),
                               rtol=0, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(b=st.integers(1, 4), n=st.integers(1, 9), i=st.integers(1, 12), j=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_linear_backward_matches_einsum(b, n, i, j, seed):
    """``dw`` is one 2-D GEMM, summed in another order than the reference
    ``einsum("bni,bnj->ij")``; each entry stays within 1e-12 of the reference,
    relative to its sum of absolute products. ``db`` and ``dx`` keep their bits."""
    rng = np.random.default_rng(seed)
    x, dy, w = rng.normal(size=(b, n, i)), rng.normal(size=(b, n, j)), rng.normal(size=(i, j))
    dw, db = np.empty((i, j)), np.empty(j)
    dx = E._linear_backward(dy, x, w, dw, db)
    ref = np.einsum("bni,bnj->ij", x, dy)
    scale = np.einsum("bni,bnj->ij", abs(x), abs(dy))
    assert (abs(dw - ref) <= 1e-12 * scale).all()
    assert np.array_equal(db, dy.sum(axis=(0, 1)))
    assert np.array_equal(dx, dy @ w.T)


def test_gradients_match_finite_differences(tiny_config):
    params = E.init_params(tiny_config, 3)
    rng = np.random.default_rng(1)
    ids, lens = rand_batch(tiny_config, rng)
    w = rng.normal(size=(2, tiny_config.max_len, tiny_config.dim))

    def loss():
        h, _ = E.forward(params, tiny_config, ids, lens)
        return float((w * h).sum())

    _, cache = E.forward(params, tiny_config, ids, lens, keep_cache=True)
    grads = E.param_views(E.backward(cache, w), tiny_config)
    step = 1e-5
    worst = 0.0
    for name, arr in E.param_views(params, tiny_config).items():
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
    p1 = E.init_params(tiny_config, 3)
    p2 = E.init_params(tiny_config, 3)
    before = p2.copy()
    p1 += 1.0
    np.testing.assert_array_equal(p2, before)
    assert not np.shares_memory(p1, p2)


def test_param_views_tile_the_vector(tiny_config):
    """Consecutive, non-overlapping views in manifest order that share the
    vector's memory, so an in-place optimiser step reaches ``forward``."""
    params = E.init_params(tiny_config, 3)
    shapes = E.param_shapes(tiny_config)
    views = E.param_views(params, tiny_config)
    assert list(views) == list(shapes) == ["tok_emb", "pos_emb"] + [  # checkpoint order
        "l0." + n for n in ("ln1.g", "ln1.b", "attn.wq", "attn.bq", "attn.wk", "attn.bk",
                            "attn.wv", "attn.bv", "attn.wo", "attn.bo", "ln2.g", "ln2.b",
                            "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")
    ]
    assert params.shape == (E.param_count(tiny_config),)
    start = 0
    for name, view in views.items():
        assert view.shape == shapes[name], name
        assert np.shares_memory(view, params) and view.flags.c_contiguous, name
        offset = (view.__array_interface__["data"][0]
                  - params.__array_interface__["data"][0]) // params.itemsize
        assert offset == start, name
        start += view.size
    assert start == params.size

    ids, lens = np.array([[3, 1, 7, 2, 0, 0]]), np.array([4])
    h1, _ = E.forward(params, tiny_config, ids, lens)
    opt = AdamW(params, TrainConfig(learning_rate=0.1))
    opt.step(np.ones_like(params), lr=0.1)
    h2, _ = E.forward(params, tiny_config, ids, lens)
    assert not np.array_equal(h1, h2)
    assert np.array_equal(views["tok_emb"].reshape(-1), params[: views["tok_emb"].size])


def test_param_views_reject_wrong_size(tiny_config):
    params = E.init_params(tiny_config, 3)
    for bad in (params[:-1], np.append(params, 0.0), params.reshape(1, -1)):
        with pytest.raises(E.EncoderError):
            E.param_views(bad, tiny_config)
        with pytest.raises(E.EncoderError):
            E.forward(bad, tiny_config, np.zeros((1, 6), dtype=int), np.array([3]))


def test_init_matches_per_tensor_draws():
    """The vector holds the bits of drawing each tensor in turn: 2-D
    weights from normal(0, 0.02), ``.g`` scales 1, everything else 0."""
    cfg = EncoderConfig(dim=8, layers=2, heads=2, ff_dim=12, max_len=6, vocab_size=20)
    rng = np.random.default_rng(11)
    parts = []
    for name, shape in E.param_shapes(cfg).items():
        if len(shape) == 2:
            parts.append(rng.normal(0.0, 0.02, size=shape))
        else:
            parts.append(np.full(shape, 1.0 if name.endswith(".g") else 0.0))
    assert np.array_equal(E.init_params(cfg, 11), np.concatenate([p.ravel() for p in parts]))


def test_checkpoint_round_trip(tmp_path, tiny_config):
    params = E.init_params(tiny_config, 3)
    path = tmp_path / "enc.ckpt"
    E.save_checkpoint(path, tiny_config, params)
    cfg2, params2 = E.load_checkpoint(path)
    assert cfg2 == tiny_config
    assert params2.dtype == np.float64
    np.testing.assert_array_equal(params, params2)


@settings(max_examples=40, deadline=None)
@given(
    heads=st.integers(1, 3),
    head_dim=st.integers(1, 4),
    layers=st.integers(0, 2),
    ff_dim=st.integers(1, 9),
    max_len=st.integers(4, 9),
    vocab_size=st.integers(1, 30),
    kind=st.sampled_from(pooling.ALL_KINDS),
    typed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(st.sampled_from([np.inf, -np.inf, -0.0, 5e-324, 1.7e308]), max_size=5),
)
def test_checkpoint_round_trip_property(
    tmp_path_factory, heads, head_dim, layers, ff_dim, max_len, vocab_size, kind, typed, seed,
    specials,
):
    cfg = EncoderConfig(dim=heads * head_dim, layers=layers, heads=heads, ff_dim=ff_dim,
                        max_len=max_len, vocab_size=vocab_size, pooling_kind=kind,
                        use_entity_type=typed)
    rng = np.random.default_rng(seed)
    count = E.param_count(cfg)
    params = rng.normal(size=count) * 10.0 ** rng.integers(-300, 300, size=count)
    params[rng.integers(0, count, size=len(specials))] = specials
    path = tmp_path_factory.mktemp("ckpt") / "enc.ckpt"
    E.save_checkpoint(path, cfg, params)
    cfg2, params2 = E.load_checkpoint(path)
    assert cfg2 == cfg
    assert np.array_equal(params2, params)
    assert params2.tobytes() == params.tobytes()  # -0.0 and subnormals too
    with open(path, "rb") as f:
        f.seek(len(E._CKPT_MAGIC))
        (hlen,) = struct.unpack("<Q", f.read(8))
    assert os.path.getsize(path) == len(E._CKPT_MAGIC) + 8 + hlen + 8 * params.size


def _saved(tmp_path, cfg):
    path = tmp_path / "enc.ckpt"
    E.save_checkpoint(path, cfg, E.init_params(cfg, 3))
    with open(path, "rb") as f:
        raw = f.read()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    return path, raw, 16 + hlen


def _with_header(header):
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return E._CKPT_MAGIC + struct.pack("<Q", len(text)) + text


@pytest.mark.parametrize("case", [
    "long_body", "short_body", "cut_header", "cut_length", "bad_magic", "not_json",
    "old_dropout_field", "seed_field", "missing_field", "float_field", "bad_config",
    "manifest_order", "manifest_shape", "unknown_pooling", "type_mode_as_int",
    "type_mode_as_string", "before_pooling_fields",
])
def test_load_checkpoint_refuses_bad_files(tmp_path, tiny_config, case):
    path, raw, end = _saved(tmp_path, tiny_config)
    header, body = json.loads(raw[16:end]), raw[end:]
    if case == "long_body":
        raw += bytes(8)
    elif case == "short_body":
        raw = raw[:-8]
    elif case == "cut_header":
        raw = raw[: end - 5]
    elif case == "cut_length":
        raw = raw[:12]
    elif case == "bad_magic":
        raw = b"CGCKPT0\n" + raw[8:]
    elif case == "not_json":
        raw = raw[:16] + b"\xff" * (end - 16) + body
    else:
        if case == "old_dropout_field":
            header["config"]["dropout"] = 0.0
        elif case == "seed_field":  # the init seed left the config
            header["config"]["seed"] = 0
        elif case == "missing_field":
            del header["config"]["max_len"]
        elif case == "float_field":
            header["config"]["dim"] = 8.0
        elif case == "bad_config":
            header["config"]["heads"] = 0
        elif case == "manifest_order":
            header["tensors"][0], header["tensors"][1] = header["tensors"][1], header["tensors"][0]
        elif case == "manifest_shape":
            header["tensors"][0][1] = [header["tensors"][0][1][1], header["tensors"][0][1][0]]
        elif case == "unknown_pooling":
            header["config"]["pooling_kind"] = "max"
        elif case == "type_mode_as_int":
            header["config"]["use_entity_type"] = 1
        elif case == "type_mode_as_string":
            header["config"]["use_entity_type"] = "true"
        elif case == "before_pooling_fields":  # as written before the config held them
            del header["config"]["pooling_kind"], header["config"]["use_entity_type"]
        raw = _with_header(header) + body
    with open(path, "wb") as f:
        f.write(raw)
    with pytest.raises(E.EncoderError, match=re.escape(str(path))) as err:
        E.load_checkpoint(path)
    message = str(err.value)
    if case in ("old_dropout_field", "seed_field", "before_pooling_fields"):
        field = {"old_dropout_field": "'dropout'", "seed_field": "'seed'",
                 "before_pooling_fields": "'pooling_kind'"}[case]
        assert field in message and "retrained" in message
    elif case == "unknown_pooling":
        assert "'max'" in message
    elif case.startswith("type_mode_as"):
        assert "use_entity_type must be a bool" in message


def test_save_checkpoint_refuses_wrong_vector(tmp_path, tiny_config):
    with pytest.raises(E.EncoderError):
        E.save_checkpoint(tmp_path / "x.ckpt", tiny_config, E.init_params(tiny_config, 3)[:-1])
