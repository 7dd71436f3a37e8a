"""Reductions from per-token hidden states to a single sequence vector.

Six variants: the [CLS] row, average/sum over real tokens, average/sum
over special-token rows only, and concatenation of special-token rows
zero-padded to a shared slot budget so both encoder sides score with a
plain dot product.

Every variant is one weight tensor per batch. ``W`` has shape (B, S, n)
with 0/1 entries: ``W[b, s, i] = 1`` when row i of sequence b feeds slot
s. S is the slot count for conc_special (slot s holds the s-th special
row; unused slots stay zero) and 1 for every other kind. With a per-row
denominator L (the attention length for avg, the special count for
avg_special, 1 otherwise):

    y[b]  = (sum_i W[b, :, i] h[b, i]) / L[b]   reshaped to S * D
    dh[b] = sum_s W[b, s, :]^T g[b, s] / L[b]

The weights stay 0/1 and the division comes after the sum, so each
pooled value is the same float sum, in the same row order, as summing
the selected rows one sequence at a time.
"""

from __future__ import annotations

import numpy as np

CLS = "cls"
AVG = "avg"
SUM = "sum"
AVG_SPECIAL = "avg_special"
SUM_SPECIAL = "sum_special"
CONC_SPECIAL = "conc_special"

ALL_KINDS = (CLS, AVG, SUM, AVG_SPECIAL, SUM_SPECIAL, CONC_SPECIAL)


class PoolingError(ValueError):
    pass


def pooled_dim(kind: str, dim: int, slot_count: int | None = None) -> int:
    if kind == CONC_SPECIAL:
        if slot_count is None:
            raise PoolingError("conc_special needs a slot count")
        return slot_count * dim
    return dim


def _weights(n, attn_lens, special_indices, kind, slot_count):
    """0/1 weights (B, S, n) and denominators (B, 1, 1) for one batch."""
    if kind not in ALL_KINDS:
        raise PoolingError(f"unknown pooling kind {kind!r}")
    lens = np.asarray(attn_lens, dtype=np.int64).reshape(-1)
    b = len(lens)
    slots = pooled_dim(kind, 1, slot_count)  # S
    w = np.zeros((b, slots, n))
    denom = np.ones(b)
    if kind == CLS:
        w[:, 0, 0] = 1.0
    elif kind in (AVG, SUM):
        w[:, 0, :] = np.arange(n) < lens[:, None]
        if kind == AVG:
            if (lens < 1).any():
                raise PoolingError("cannot average an empty sequence")
            denom = lens.astype(np.float64)
    else:
        if len(special_indices) != b:
            raise PoolingError(f"{len(special_indices)} special lists for {b} sequences")
        counts = np.array([len(idx) for idx in special_indices], dtype=np.int64)
        if (counts == 0).any():
            raise PoolingError(f"{kind} pooling requires special-token positions")
        rows = np.repeat(np.arange(b), counts)
        cols = np.concatenate(special_indices).astype(np.int64, copy=False)
        if (cols < 0).any() or (cols >= lens[rows]).any():
            raise PoolingError("special position beyond attention length")
        if (np.diff(rows * n + cols) <= 0).any():
            raise PoolingError("special positions must be strictly increasing")
        if kind == CONC_SPECIAL:
            if counts.max() > slots:
                raise PoolingError(
                    f"slot count {slot_count} below special count {counts.max()}"
                )
            slot = np.arange(len(cols)) - (np.cumsum(counts) - counts)[rows]
        else:
            slot = 0
        w[rows, slot, cols] = 1.0
        if kind == AVG_SPECIAL:
            denom = counts.astype(np.float64)
    return w, denom[:, None, None]


def reduce(
    h: np.ndarray,
    attn_lens,
    special_indices: list[list[int]],
    kind: str,
    slot_count: int | None = None,
):
    """Pool (B, n, D) hidden states into (B, P) vectors.

    Returns (Y, cache); the cache feeds ``backward_reduce``.
    """
    b, n, d = h.shape
    w, denom = _weights(n, attn_lens, special_indices, kind, slot_count)
    y = np.einsum("bsn,bnd->bsd", w, h) / denom
    return y.reshape(b, -1), (w, denom, d)


def backward_reduce(cache, g: np.ndarray) -> np.ndarray:
    """Adjoint of ``reduce``: scatter (B, P) pooled gradients back to (B, n, D)."""
    w, denom, d = cache
    b, s, _ = w.shape
    if g.shape != (b, s * d):
        raise PoolingError(f"gradient shape {g.shape} mismatch, expected {(b, s * d)}")
    return np.einsum("bsn,bsd->bnd", w, g.reshape(b, s, d) / denom)
