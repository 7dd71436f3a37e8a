"""Small pre-layer-norm transformer encoder with hand-written backprop.

Two independent instances of this encoder embed mention and entity
sequences. Everything runs in float64 numpy. An encoder's parameters are
one flat vector whose layout only this module knows: ``param_shapes``
lists the tensors in order and ``param_views`` names their slices.
``backward`` returns one flat gradient in the same layout, checked
against finite differences and applied by one vectorised AdamW step.

``forward`` writes every intermediate into buffers that one callable
hands out by name. Called with ``keep_cache=True`` (training), each
buffer is a fresh array, since the cache must outlive the step. An
inference call may pass a ``Workspace`` instead: one float64 block,
allocated once per encode thread and kept for as long as the caller
holds it, in which buffers whose lifetimes within a layer do not overlap
share a slot. At a 32-sequence chunk of the default config (dim 64,
2 heads, ff_dim 256, max_len 32) it is 7.4 MB. Reusing it keeps the
pages of the working set mapped from one chunk to the next; fresh
temporaries are freed after every layer, glibc trims its heap, and the
next layer faults them back in. The buffers receive the same operations
in the same order either way, so both give the same bits.
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


def _fresh(name, shape):
    """Buffer source of a forward that keeps its cache: a new array each time."""
    return np.empty(shape)


# Workspace slot of each buffer ``forward`` takes. The buffers that share a
# slot are live one after another within a layer: q holds LN1's xhat, then q
# until the scores are taken, then ctx, then LN2's xhat; k holds k, then the
# attention output projection, then the FFN's; ln holds u, then w; ff holds
# f1, then act over it (each element read before it is written); tanh holds
# the tanh, then 1 + tanh over it; the stat slots hold the mean or the max,
# then the inverse deviation or the sum.
_SLOTS = {
    "x": "x", "u": "ln", "w": "ln", "xhat": "q", "q": "q", "ctx": "q",
    "k": "k", "proj": "k", "v": "v", "scores": "scores",
    "f1": "ff", "act": "ff", "gelu_t": "tanh", "gelu_1pt": "tanh",
    "mu": "ln_stat", "inv": "ln_stat", "smax": "softmax_stat", "ssum": "softmax_stat",
}


class Workspace:
    """The buffers of cache-less ``forward`` calls on up to ``batch``
    sequences under ``config``, as one float64 block carved into slots
    (``_SLOTS``); ``forward`` refuses a call that does not fit. A buffer is
    valid until the next call that takes its slot, so the ``h`` such a call
    returns must be read before the next call. Not for use by two threads at
    once."""

    def __init__(self, config: EncoderConfig, batch: int):
        n, d, heads = config.max_len, config.dim, config.heads
        per_seq = {"x": n * d, "ln": n * d, "q": n * d, "k": n * d, "v": n * d,
                   "scores": heads * n * n, "ff": n * config.ff_dim,
                   "tanh": n * config.ff_dim, "ln_stat": n, "softmax_stat": heads * n}
        self.config, self.batch, self._slots, end = config, batch, {}, 0
        for slot, size in per_seq.items():
            self._slots[slot] = end
            end += batch * size
        self.block = np.empty(end)

    def __call__(self, name, shape) -> np.ndarray:
        start = self._slots[_SLOTS[name]]
        return self.block[start : start + math.prod(shape)].reshape(shape)


def _layernorm_forward(x, g, b, buf, name):
    """Layer norm of ``x`` into buffer ``name``; returns it and the cache
    (xhat, inv). The same operations as ``x.mean`` and ``x.var``."""
    stat_shape, d = (*x.shape[:-1], 1), x.shape[-1]
    mu = np.sum(x, axis=-1, keepdims=True, out=buf("mu", stat_shape))
    mu /= d
    xhat = np.subtract(x, mu, out=buf("xhat", x.shape))
    y = np.multiply(xhat, xhat, out=buf(name, x.shape))  # the squares, then the output
    inv = np.sum(y, axis=-1, keepdims=True, out=buf("inv", stat_shape))
    inv /= d
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, g, out=y)
    y += b
    return y, (xhat, inv)


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


def _linear(x, w, b, out):
    np.matmul(x, w, out=out)
    out += b
    return out


def _gelu(x, buf):
    """tanh-approximated GELU of ``x``; returns it and the tanh. With a
    workspace the tanh is overwritten by 1 + tanh, which only backward reads."""
    t = np.multiply(x, x, out=buf("gelu_t", x.shape))  # np.power is fast for squares only
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = np.multiply(x, 0.5, out=buf("act", x.shape))
    y *= np.add(t, 1.0, out=buf("gelu_1pt", x.shape))
    return y, t


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
            *, keep_cache: bool = False, workspace: Workspace | None = None):
    """Run the encoder on a batch of id sequences.

    Returns (h, cache) where h is (B, n, D) with padding rows zeroed, so
    the output is invariant to whatever ids sit in padding positions.
    Only ``keep_cache=True`` keeps the per-layer activations that
    ``backward`` needs, in fresh arrays. A cache-less call given a
    ``workspace`` writes every intermediate, and h, into it; otherwise it
    allocates them and frees each layer's as it goes.
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
    if workspace is not None and (keep_cache or workspace.config != config
                                  or b > workspace.batch):
        raise EncoderError("a workspace serves cache-less calls under its config, "
                           "on at most its batch")
    buf = _fresh if workspace is None else workspace
    real = np.arange(n)[None, :] < attn_lens[:, None]  # (B, n)
    attn_bias = np.where(real, 0.0, _NEG_INF)[:, None, None, :]

    views = param_views(params, config)
    heads, shape = config.heads, (b, n, config.dim)
    # the ids are in range, so mode="clip" changes none; it keeps take unbuffered
    x = np.take(views["tok_emb"], ids, axis=0, out=buf("x", shape), mode="clip")
    x += views["pos_emb"][None, :n, :]
    scale = 1.0 / np.sqrt(config.dim // heads)

    layer_caches = [] if keep_cache else None
    for i in range(config.layers):
        p = lambda name: views[f"l{i}.{name}"]
        u, ln1_cache = _layernorm_forward(x, p("ln1.g"), p("ln1.b"), buf, "u")
        q, k, v = (_split_heads(_linear(u, p(f"attn.w{proj}"), p(f"attn.b{proj}"),
                                        buf(proj, shape)), heads) for proj in "qkv")
        scores = np.matmul(q, k.transpose(0, 1, 3, 2), out=buf("scores", (b, heads, n, n)))
        scores *= scale
        scores += attn_bias
        scores -= np.max(scores, axis=-1, keepdims=True, out=buf("smax", (b, heads, n, 1)))
        np.exp(scores, out=scores)
        probs = np.divide(scores, np.sum(scores, axis=-1, keepdims=True,
                                         out=buf("ssum", (b, heads, n, 1))), out=scores)
        ctx = buf("ctx", shape)
        np.matmul(probs, v, out=_split_heads(ctx, heads))  # merges the heads as it writes
        x += _linear(ctx, p("attn.wo"), p("attn.bo"), buf("proj", shape))  # x is now a

        w, ln2_cache = _layernorm_forward(x, p("ln2.g"), p("ln2.b"), buf, "w")
        f1 = _linear(w, p("ffn.w1"), p("ffn.b1"), buf("f1", (b, n, config.ff_dim)))
        act, gelu_t = _gelu(f1, buf)
        x += _linear(act, p("ffn.w2"), p("ffn.b2"), buf("proj", shape))
        if not np.isfinite(x).all():
            raise EncoderError(f"non-finite activation in layer {i}")
        if keep_cache:
            layer_caches.append(
                dict(u=u, ln1=ln1_cache, q=q, k=k, v=v, probs=probs, ctx=ctx, w=w,
                     ln2=ln2_cache, f1=f1, act=act, gelu_t=gelu_t)
            )

    x *= real[:, :, None]
    return x, dict(ids=ids, real=real, layers=layer_caches, config=config, views=views)


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
