"""Small pre-layer-norm transformer encoder with hand-written backprop.

Two independent instances of this encoder embed mention and entity
sequences. Everything runs in float64 numpy; the backward pass returns a
gradient for every parameter tensor so the whole model can be checked
against finite differences.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

LN_EPS = 1e-5
_GELU_C = np.sqrt(2.0 / np.pi)
_NEG_INF = -1e30


class EncoderError(ValueError):
    pass


@dataclass(frozen=True)
class EncoderConfig:
    dim: int = 64
    layers: int = 2
    heads: int = 2
    ff_dim: int = 256
    max_len: int = 32
    vocab_size: int = 0
    dropout: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.dim % self.heads != 0:
            raise EncoderError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.max_len < 4:
            raise EncoderError("max_len must be at least 4")
        if not 0.0 <= self.dropout < 1.0:
            raise EncoderError("dropout must be in [0, 1)")
        if self.vocab_size <= 0:
            raise EncoderError("vocab_size must be positive")


def param_names(config: EncoderConfig) -> list[str]:
    names = ["tok_emb", "pos_emb"]
    for i in range(config.layers):
        names += [
            f"l{i}.ln1.g", f"l{i}.ln1.b",
            f"l{i}.attn.wq", f"l{i}.attn.bq",
            f"l{i}.attn.wk", f"l{i}.attn.bk",
            f"l{i}.attn.wv", f"l{i}.attn.bv",
            f"l{i}.attn.wo", f"l{i}.attn.bo",
            f"l{i}.ln2.g", f"l{i}.ln2.b",
            f"l{i}.ffn.w1", f"l{i}.ffn.b1",
            f"l{i}.ffn.w2", f"l{i}.ffn.b2",
        ]
    return names


def init_params(config: EncoderConfig) -> dict[str, np.ndarray]:
    """Scaled-normal (std 0.02) weights, unit layer-norm scales, zero offsets."""
    rng = np.random.default_rng(config.seed)
    d, f = config.dim, config.ff_dim

    def w(*shape):
        return rng.normal(0.0, 0.02, size=shape)

    params: dict[str, np.ndarray] = {
        "tok_emb": w(config.vocab_size, d),
        "pos_emb": w(config.max_len, d),
    }
    for i in range(config.layers):
        params[f"l{i}.ln1.g"] = np.ones(d)
        params[f"l{i}.ln1.b"] = np.zeros(d)
        for proj in ("wq", "wk", "wv", "wo"):
            params[f"l{i}.attn.{proj}"] = w(d, d)
        for bias in ("bq", "bk", "bv", "bo"):
            params[f"l{i}.attn.{bias}"] = np.zeros(d)
        params[f"l{i}.ln2.g"] = np.ones(d)
        params[f"l{i}.ln2.b"] = np.zeros(d)
        params[f"l{i}.ffn.w1"] = w(d, f)
        params[f"l{i}.ffn.b1"] = np.zeros(f)
        params[f"l{i}.ffn.w2"] = w(f, d)
        params[f"l{i}.ffn.b2"] = np.zeros(d)
    return params


# -- primitive layers --------------------------------------------------------


def _layernorm_forward(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return xhat * g + b, (xhat, inv)


def _layernorm_backward(dy, g, cache):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


def _gelu(x):
    t = np.tanh(_GELU_C * (x + 0.044715 * x**3))
    return 0.5 * x * (1.0 + t), t


def _gelu_backward(dy, x, t):
    dtanh = _GELU_C * (1.0 + 3 * 0.044715 * x**2) * (1.0 - t**2)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * dtanh)


def _split_heads(x, heads):
    b, n, d = x.shape
    return x.reshape(b, n, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, n, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * dk)


# -- forward / backward ------------------------------------------------------


def forward(
    params: dict[str, np.ndarray],
    config: EncoderConfig,
    ids: np.ndarray,
    attn_lens: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
):
    """Run the encoder on a batch of id sequences.

    Returns (h, cache) where h is (B, n, D) with padding rows zeroed, so
    the output is invariant to whatever ids sit in padding positions.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] != config.max_len:
        raise EncoderError(f"expected ids of shape (B, {config.max_len})")
    if ids.max(initial=0) >= config.vocab_size or ids.min(initial=0) < 0:
        raise EncoderError("token id out of vocabulary range")
    attn_lens = np.asarray(attn_lens, dtype=np.int64)
    b, n = ids.shape
    if attn_lens.shape != (b,):
        raise EncoderError(f"expected attn_lens of shape ({b},), got {attn_lens.shape}")
    if attn_lens.min(initial=1) < 1 or attn_lens.max(initial=1) > n:
        raise EncoderError(f"attention length outside [1, {n}]")
    real = np.arange(n)[None, :] < attn_lens[:, None]  # (B, n)
    attn_bias = np.where(real, 0.0, _NEG_INF)[:, None, None, :]

    dropout = config.dropout if train else 0.0
    if dropout > 0.0 and rng is None:
        rng = np.random.default_rng(config.seed)

    def drop(x):
        if dropout == 0.0:
            return x, None
        mask = rng.random(x.shape) >= dropout
        return x * mask / (1.0 - dropout), mask

    x = params["tok_emb"][ids] + params["pos_emb"][None, :n, :]
    x, emb_mask = drop(x)
    scale = 1.0 / np.sqrt(config.dim // config.heads)

    layer_caches = []
    for i in range(config.layers):
        p = lambda name: params[f"l{i}.{name}"]
        u, ln1_cache = _layernorm_forward(x, p("ln1.g"), p("ln1.b"))
        q = _split_heads(u @ p("attn.wq") + p("attn.bq"), config.heads)
        k = _split_heads(u @ p("attn.wk") + p("attn.bk"), config.heads)
        v = _split_heads(u @ p("attn.wv") + p("attn.bv"), config.heads)
        scores = q @ k.transpose(0, 1, 3, 2) * scale + attn_bias
        scores -= scores.max(axis=-1, keepdims=True)
        e = np.exp(scores)
        probs = e / e.sum(axis=-1, keepdims=True)
        probs_d, attn_mask = drop(probs)
        ctx = _merge_heads(probs_d @ v)
        att = ctx @ p("attn.wo") + p("attn.bo")
        att, att_mask = drop(att)
        a = x + att

        w, ln2_cache = _layernorm_forward(a, p("ln2.g"), p("ln2.b"))
        f1 = w @ p("ffn.w1") + p("ffn.b1")
        act, gelu_t = _gelu(f1)
        ff = act @ p("ffn.w2") + p("ffn.b2")
        ff, ff_mask = drop(ff)
        x_out = a + ff
        if not np.isfinite(x_out).all():
            raise EncoderError(f"non-finite activation in layer {i}")
        layer_caches.append(
            dict(
                x=x, u=u, ln1=ln1_cache, q=q, k=k, v=v, probs=probs, probs_d=probs_d,
                ctx=ctx, a=a, w=w, ln2=ln2_cache, f1=f1, act=act, gelu_t=gelu_t,
                attn_mask=attn_mask, att_mask=att_mask, ff_mask=ff_mask,
            )
        )
        x = x_out

    h = x * real[:, :, None]
    cache = dict(
        ids=ids, real=real, layers=layer_caches, config=config, params=params,
        emb_mask=emb_mask, dropout=dropout, scale=scale,
    )
    return h, cache


def backward(cache: dict, dh: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagate an upstream (B, n, D) gradient to every parameter."""
    config: EncoderConfig = cache["config"]
    ids, real = cache["ids"], cache["real"]
    if dh.shape != (*ids.shape, config.dim):
        raise EncoderError(f"upstream gradient shape {dh.shape} mismatch")
    dropout, scale = cache["dropout"], cache["scale"]
    params = cache["params"]
    grads: dict[str, np.ndarray] = {}

    def undrop(dx, mask):
        if dropout == 0.0:
            return dx
        return dx * mask / (1.0 - dropout)

    dx = dh * real[:, :, None]
    for i in reversed(range(config.layers)):
        c = cache["layers"][i]
        pre = f"l{i}."
        dff = undrop(dx, c["ff_mask"])
        grads[pre + "ffn.b2"] = dff.sum(axis=(0, 1))
        grads[pre + "ffn.w2"] = np.einsum("bnf,bnd->fd", c["act"], dff)
        dact = dff @ params[pre + "ffn.w2"].T
        df1 = _gelu_backward(dact, c["f1"], c["gelu_t"])
        grads[pre + "ffn.b1"] = df1.sum(axis=(0, 1))
        grads[pre + "ffn.w1"] = np.einsum("bnd,bnf->df", c["w"], df1)
        dw = df1 @ params[pre + "ffn.w1"].T
        da_ln, dg2, db2 = _layernorm_backward(
            dw, params[pre + "ln2.g"], c["ln2"]
        )
        grads[pre + "ln2.g"], grads[pre + "ln2.b"] = dg2, db2
        da = dx + da_ln

        datt = undrop(da, c["att_mask"])
        grads[pre + "attn.bo"] = datt.sum(axis=(0, 1))
        grads[pre + "attn.wo"] = np.einsum("bnd,bne->de", c["ctx"], datt)
        dctx = _split_heads(datt @ params[pre + "attn.wo"].T, config.heads)
        dprobs_d = dctx @ c["v"].transpose(0, 1, 3, 2)
        dv = c["probs_d"].transpose(0, 1, 3, 2) @ dctx
        dprobs = undrop(dprobs_d, c["attn_mask"])
        probs = c["probs"]
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dq = dscores @ c["k"] * scale
        dk = dscores.transpose(0, 1, 3, 2) @ c["q"] * scale
        du = np.zeros_like(c["u"])
        for proj, dval in (("wq", dq), ("wk", dk), ("wv", dv)):
            dflat = _merge_heads(dval)
            grads[pre + f"attn.{proj}"] = np.einsum("bnd,bne->de", c["u"], dflat)
            grads[pre + "attn.b" + proj[1]] = dflat.sum(axis=(0, 1))
            du += dflat @ params[pre + f"attn.{proj}"].T
        dx_ln, dg1, db1 = _layernorm_backward(
            du, params[pre + "ln1.g"], c["ln1"]
        )
        grads[pre + "ln1.g"], grads[pre + "ln1.b"] = dg1, db1
        dx = da + dx_ln

    demb = undrop(dx, cache["emb_mask"])
    grads["pos_emb"] = np.zeros((config.max_len, config.dim))
    grads["pos_emb"][: demb.shape[1]] = demb.sum(axis=0)
    grads["tok_emb"] = np.zeros((config.vocab_size, config.dim))
    np.add.at(grads["tok_emb"], ids, demb)
    return grads


# -- checkpoints -------------------------------------------------------------

_CKPT_MAGIC = b"CGCKPT1\n"


def save_checkpoint(path, config: EncoderConfig, params: dict[str, np.ndarray]):
    """Binary checkpoint: JSON header (config + tensor manifest) then raw
    little-endian float64 tensors in manifest order."""
    names = param_names(config)
    header = json.dumps(
        {
            "config": asdict(config),
            "tensors": [[name, list(params[name].shape)] for name in names],
        },
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for name in names:
            f.write(np.ascontiguousarray(params[name], dtype="<f8").tobytes())


def load_checkpoint(path):
    with open(path, "rb") as f:
        if f.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise EncoderError(f"{path}: not a checkpoint file")
        (hlen,) = struct.unpack("<Q", f.read(8))
        header = json.loads(f.read(hlen).decode("utf-8"))
        config = EncoderConfig(**header["config"])
        params = {}
        for name, shape in header["tensors"]:
            count = int(np.prod(shape))
            data = np.frombuffer(f.read(count * 8), dtype="<f8").astype(np.float64)
            params[name] = data.reshape(shape)
    return config, params
