"""Small pre-layer-norm transformer encoder with hand-written backprop.

Two independent instances of this encoder embed mention and entity
sequences. Everything runs in float64 numpy. An encoder's parameters are
one flat vector whose layout only this module knows: ``param_shapes``
lists the tensors in order and ``param_views`` names their slices.
``backward`` returns one flat gradient in the same layout, checked
against finite differences and applied by one vectorised AdamW step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import artifact, pooling

LN_EPS = 1e-5
_GELU_C = np.sqrt(2.0 / np.pi)
_NEG_INF = -1e30


class EncoderError(ValueError):
    pass


@dataclass(frozen=True)
class EncoderConfig:
    """Both towers' architecture, and the pooling and entity-type mode they train with."""

    dim: int = 64
    layers: int = 2
    heads: int = 2
    ff_dim: int = 256
    max_len: int = 32
    vocab_size: int = 0
    pooling_kind: str = pooling.CLS
    use_entity_type: bool = False

    def __post_init__(self):
        for fld in fields(self):  # a checkpoint's config must load back as saved
            value, kind = getattr(self, fld.name), type(fld.default)
            if type(value) is not kind:
                raise EncoderError(f"{fld.name} must be a {kind.__name__}, not {value!r}")
        if min(self.dim, self.heads, self.ff_dim) < 1 or self.layers < 0:
            raise EncoderError("dim, heads and ff_dim must be positive, layers not negative")
        if self.dim % self.heads != 0:
            raise EncoderError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.max_len < 4:
            raise EncoderError("max_len must be at least 4")
        if self.vocab_size <= 0:
            raise EncoderError("vocab_size must be positive")
        if self.pooling_kind not in pooling.ALL_KINDS:
            raise EncoderError(f"unknown pooling kind {self.pooling_kind!r}")


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter tensor's shape, in layout (and checkpoint) order."""
    d, f = config.dim, config.ff_dim
    shapes = {"tok_emb": (config.vocab_size, d), "pos_emb": (config.max_len, d)}
    for i in range(config.layers):
        for name, shape in (
            ("ln1.g", (d,)), ("ln1.b", (d,)),
            ("attn.wq", (d, d)), ("attn.bq", (d,)), ("attn.wk", (d, d)), ("attn.bk", (d,)),
            ("attn.wv", (d, d)), ("attn.bv", (d,)), ("attn.wo", (d, d)), ("attn.bo", (d,)),
            ("ln2.g", (d,)), ("ln2.b", (d,)),
            ("ffn.w1", (d, f)), ("ffn.b1", (f,)), ("ffn.w2", (f, d)), ("ffn.b2", (d,)),
        ):
            shapes[f"l{i}.{name}"] = shape
    return shapes


def param_count(config: EncoderConfig) -> int:
    return sum(math.prod(shape) for shape in param_shapes(config).values())


def param_views(flat: np.ndarray, config: EncoderConfig) -> dict[str, np.ndarray]:
    """Named views into a parameter (or gradient) vector; writing to a view
    writes to the vector."""
    shapes = param_shapes(config)
    sizes = [math.prod(shape) for shape in shapes.values()]
    if flat.shape != (sum(sizes),):
        raise EncoderError(f"expected {sum(sizes)} parameters in a vector, got {flat.shape}")
    views, start = {}, 0
    for (name, shape), size in zip(shapes.items(), sizes):
        views[name] = flat[start : start + size].reshape(shape)
        start += size
    return views


def init_params(config: EncoderConfig, seed: int) -> np.ndarray:
    """Scaled-normal (std 0.02) weights, unit layer-norm scales, zero offsets."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(param_count(config))
    for name, view in param_views(flat, config).items():
        if view.ndim == 2:
            view[...] = rng.normal(0.0, 0.02, size=view.shape)
        elif name.endswith(".g"):
            view[...] = 1.0
    return flat


# -- primitive layers --------------------------------------------------------


def _layernorm_forward(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return xhat * g + b, (xhat, inv)


def _layernorm_backward(dy, g, cache, dg, db):
    """Write the scale and offset gradients into ``dg`` and ``db``; return dx."""
    xhat, inv = cache
    dg[...] = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db[...] = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    return inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )


def _linear_backward(dy, x, w, dw, db):
    """For ``y = x @ w + b`` on (B, n, .) arrays: write the weight and bias
    gradients into ``dw`` and ``db``; return dx."""
    dw[...] = x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])
    db[...] = dy.sum(axis=(0, 1))
    return dy @ w.T


def _gelu(x):
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))  # np.power is fast for squares only
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


def forward(params: np.ndarray, config: EncoderConfig, ids: np.ndarray, attn_lens: np.ndarray,
            *, keep_cache: bool = False):
    """Run the encoder on a batch of id sequences.

    Returns (h, cache) where h is (B, n, D) with padding rows zeroed, so
    the output is invariant to whatever ids sit in padding positions.
    Only ``keep_cache=True`` keeps the per-layer activations that
    ``backward`` needs; inference leaves them to be freed layer by layer.
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

    views = param_views(params, config)
    x = views["tok_emb"][ids] + views["pos_emb"][None, :n, :]
    scale = 1.0 / np.sqrt(config.dim // config.heads)

    layer_caches = [] if keep_cache else None
    for i in range(config.layers):
        p = lambda name: views[f"l{i}.{name}"]
        u, ln1_cache = _layernorm_forward(x, p("ln1.g"), p("ln1.b"))
        q = _split_heads(u @ p("attn.wq") + p("attn.bq"), config.heads)
        k = _split_heads(u @ p("attn.wk") + p("attn.bk"), config.heads)
        v = _split_heads(u @ p("attn.wv") + p("attn.bv"), config.heads)
        scores = q @ k.transpose(0, 1, 3, 2) * scale + attn_bias
        scores -= scores.max(axis=-1, keepdims=True)
        e = np.exp(scores)
        probs = e / e.sum(axis=-1, keepdims=True)
        ctx = _merge_heads(probs @ v)
        a = x + (ctx @ p("attn.wo") + p("attn.bo"))

        w, ln2_cache = _layernorm_forward(a, p("ln2.g"), p("ln2.b"))
        f1 = w @ p("ffn.w1") + p("ffn.b1")
        act, gelu_t = _gelu(f1)
        x = a + (act @ p("ffn.w2") + p("ffn.b2"))
        if not np.isfinite(x).all():
            raise EncoderError(f"non-finite activation in layer {i}")
        if keep_cache:
            layer_caches.append(
                dict(u=u, ln1=ln1_cache, q=q, k=k, v=v, probs=probs, ctx=ctx, w=w,
                     ln2=ln2_cache, f1=f1, act=act, gelu_t=gelu_t)
            )

    h = x * real[:, :, None]
    return h, dict(ids=ids, real=real, layers=layer_caches, config=config, views=views)


def backward(cache: dict, dh: np.ndarray) -> np.ndarray:
    """Backpropagate an upstream (B, n, D) gradient to every parameter;
    returns one flat gradient vector in the parameters' layout. ``cache``
    must come from ``forward(..., keep_cache=True)``."""
    config: EncoderConfig = cache["config"]
    if cache["layers"] is None:
        raise EncoderError("forward kept no cache; call it with keep_cache=True to backpropagate")
    ids, real = cache["ids"], cache["real"]
    if dh.shape != (*ids.shape, config.dim):
        raise EncoderError(f"upstream gradient shape {dh.shape} mismatch")
    params, scale = cache["views"], 1.0 / np.sqrt(config.dim // config.heads)
    flat = np.zeros(param_count(config))
    grads = param_views(flat, config)

    dx = dh * real[:, :, None]
    for i in reversed(range(config.layers)):
        c = cache["layers"][i]
        p = lambda name: params[f"l{i}.{name}"]
        g = lambda name: grads[f"l{i}.{name}"]
        dact = _linear_backward(dx, c["act"], p("ffn.w2"), g("ffn.w2"), g("ffn.b2"))
        df1 = _gelu_backward(dact, c["f1"], c["gelu_t"])
        dw = _linear_backward(df1, c["w"], p("ffn.w1"), g("ffn.w1"), g("ffn.b1"))
        da = dx + _layernorm_backward(dw, p("ln2.g"), c["ln2"], g("ln2.g"), g("ln2.b"))

        dctx = _linear_backward(da, c["ctx"], p("attn.wo"), g("attn.wo"), g("attn.bo"))
        dctx = _split_heads(dctx, config.heads)
        probs = c["probs"]
        dprobs = dctx @ c["v"].transpose(0, 1, 3, 2)
        dv = probs.transpose(0, 1, 3, 2) @ dctx
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dq = dscores @ c["k"] * scale
        dk = dscores.transpose(0, 1, 3, 2) @ c["q"] * scale
        du = np.zeros_like(c["u"])
        for proj, dval in (("q", dq), ("k", dk), ("v", dv)):
            du += _linear_backward(_merge_heads(dval), c["u"], p(f"attn.w{proj}"),
                                   g(f"attn.w{proj}"), g(f"attn.b{proj}"))
        dx = da + _layernorm_backward(du, p("ln1.g"), c["ln1"], g("ln1.g"), g("ln1.b"))

    grads["pos_emb"][: dx.shape[1]] = dx.sum(axis=0)
    np.add.at(grads["tok_emb"], ids, dx)
    return flat


# -- checkpoints -------------------------------------------------------------

_CKPT_MAGIC = b"CGCKPT1\n"


def _manifest(config: EncoderConfig) -> list:
    return [[name, list(shape)] for name, shape in param_shapes(config).items()]


def save_checkpoint(path, config: EncoderConfig, params: np.ndarray):
    """Binary checkpoint (see ``artifact``): a JSON header holding the config
    and the tensor manifest, then the parameter vector in manifest order."""
    param_views(params, config)  # rejects a vector of the wrong size
    header = {"config": asdict(config), "tensors": _manifest(config)}
    artifact.write(path, _CKPT_MAGIC, header, params)


def _config_of(header: dict) -> EncoderConfig:
    stored = header.get("config")
    if not isinstance(stored, dict):
        raise EncoderError("malformed checkpoint header")
    names = {fld.name for fld in fields(EncoderConfig)}
    if set(stored) != names:
        raise EncoderError(
            f"config fields {sorted(stored)} are not {sorted(names)}; "
            "a checkpoint from another version must be retrained"
        )
    config = EncoderConfig(**stored)
    if header.get("tensors") != _manifest(config):
        raise EncoderError("tensor manifest does not match its config")
    return config


def load_checkpoint(path) -> tuple[EncoderConfig, np.ndarray]:
    """Read a checkpoint. Raise EncoderError naming the file unless the
    container, the config fields, the manifest and the body size all hold."""
    header, params = artifact.read(path, _CKPT_MAGIC, "checkpoint", EncoderError,
                                   lambda h: param_count(_config_of(h)))
    return _config_of(header), params
