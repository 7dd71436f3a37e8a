"""Bi-encoder training: in-batch-negative loss, decoupled-weight-decay Adam,
linear learning-rate decay, and an end-to-end finite-difference gradient check.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import blas, encoder, pooling
from .bpe import Vocabulary
from .corpus import World
from .encoder import EncoderConfig
from .templates import (
    TokenSequence,
    build_entity_sequence,
    mention_sequences,
    shared_slot_count,
)

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
FD_STEP = 1e-5  # central-difference step of ``gradient_check``


class TrainingError(ValueError):
    pass


@dataclass
class TrainConfig:
    batch_size: int = 8
    epochs: int = 30
    learning_rate: float = 2e-3
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")
        for name in ("learning_rate", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise TrainingError(f"{name} must be finite")
        if self.weight_decay < 0:
            raise TrainingError("weight_decay must not be negative")
        if self.learning_rate <= 0:
            raise TrainingError("learning_rate must be positive")


def inbatch_loss(scores: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean in-batch softmax loss and its gradient on the score matrix.

    Row i treats entity i as positive and the other batch entities as
    negatives: loss_i = -s_ii + logsumexp_j(s_ij).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise TrainingError(f"score matrix must be square, got {scores.shape}")
    if not np.isfinite(scores).all():
        raise TrainingError("non-finite score in loss")
    b = scores.shape[0]
    m = scores.max(axis=1, keepdims=True)
    e = np.exp(scores - m)
    z = e.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(z[:, 0])
    loss = float(np.mean(lse - np.diagonal(scores)))
    grad = (e / z - np.eye(b)) / b
    return loss, grad


def linear_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Linear decay from base_lr at step 0 to 0 at the final step."""
    return base_lr * (1.0 - step / total_steps)


class AdamW:
    """Adam with decoupled weight decay (decay acts on the weights directly,
    never through the gradient moments), updating one vector in place."""

    def __init__(self, params: np.ndarray, cfg: TrainConfig):
        self.params, self.cfg = params, cfg
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        self.t = 0

    def step(self, grads: np.ndarray, lr: float):
        cfg, p = self.cfg, self.params
        self.t += 1
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * grads
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * grads * grads
        mhat = self.m / (1.0 - ADAM_BETA1**self.t)
        vhat = self.v / (1.0 - ADAM_BETA2**self.t)
        p -= lr * (mhat / (np.sqrt(vhat) + ADAM_EPS) + cfg.weight_decay * p)


# -- batched forward/backward through encoder + pooling ----------------------


def forward_pooled(
    params: np.ndarray,
    enc_cfg: EncoderConfig,
    seqs: list[TokenSequence],
    kind: str | None = None,
    slot_count: int | None = None,
    *,
    keep_cache: bool = False,
    workspace: encoder.Workspace | None = None,
):
    """Encode a batch of sequences and pool each to a vector, under
    ``enc_cfg``'s pooling padded to the slot budget of its entity-type mode,
    or under ``kind`` and ``slot_count`` when they are given.

    Returns (Y, state) with Y of shape (B, P), a fresh array; state feeds
    backward_pooled when the encoder ran with ``keep_cache=True``. A
    cache-less call may encode in ``workspace`` (see ``encoder.forward``).
    """
    if kind is None:
        kind, slot_count = enc_cfg.pooling_kind, shared_slot_count(enc_cfg.use_entity_type)
    ids = np.stack([s.ids for s in seqs])
    lens = np.array([s.attn_len for s in seqs])
    h, cache = encoder.forward(params, enc_cfg, ids, lens, keep_cache=keep_cache,
                               workspace=workspace)
    y, weights = pooling.reduce(
        h, lens, [s.special_indices for s in seqs], kind, slot_count
    )
    return y, dict(cache=cache, weights=weights)


def pooled_width(enc_cfg: EncoderConfig) -> int:
    """The width of the rows ``forward_pooled`` gives under ``enc_cfg``."""
    return pooling.pooled_dim(enc_cfg.pooling_kind, enc_cfg.dim,
                              shared_slot_count(enc_cfg.use_entity_type))


def backward_pooled(state: dict, dY: np.ndarray) -> np.ndarray:
    return encoder.backward(state["cache"], pooling.backward_reduce(state["weights"], dY))


def batch_loss_and_grads(params_m, params_e, enc_cfg, mention_seqs, entity_seqs):
    """Full pipeline loss for one batch of gold pairs, plus both flat gradients.
    Both towers share ``enc_cfg``, their architecture and pooling."""
    ym, state_m = forward_pooled(params_m, enc_cfg, mention_seqs, keep_cache=True)
    ye, state_e = forward_pooled(params_e, enc_cfg, entity_seqs, keep_cache=True)
    loss, dscores = inbatch_loss(ym @ ye.T)
    grads_m = backward_pooled(state_m, dscores @ ye)
    grads_e = backward_pooled(state_e, dscores.T @ ym)
    return loss, grads_m, grads_e


# -- training loop -----------------------------------------------------------


@dataclass
class TrainResult:
    params_m: np.ndarray
    params_e: np.ndarray
    log_lines: list[str] = field(default_factory=list)


def build_training_pairs(
    world: World, vocab: Vocabulary, enc_cfg: EncoderConfig
) -> tuple[list[TokenSequence], list[TokenSequence], list[str]]:
    """Templated (mention, gold entity) sequence pairs for one world."""
    by_id, max_len, typed = world.entity_by_id(), enc_cfg.max_len, enc_cfg.use_entity_type
    mention_seqs = mention_sequences(world.mentions, world.documents, vocab, max_len, typed)
    gold_ids = [m.gold_entity_id for m in world.mentions]
    entity_seqs = [build_entity_sequence(by_id[g], vocab, max_len, typed) for g in gold_ids]
    return mention_seqs, entity_seqs, gold_ids


@blas.one_thread()
def train(
    world: World,
    vocab: Vocabulary,
    enc_cfg: EncoderConfig,
    train_cfg: TrainConfig,
) -> TrainResult:
    """Train both encoders on one world's gold mention-entity pairs, with
    OpenBLAS on one thread (``blas.one_thread``)."""
    mention_seqs, entity_seqs, gold_ids = build_training_pairs(world, vocab, enc_cfg)
    if not mention_seqs:
        raise TrainingError("no training mentions")
    params_m = encoder.init_params(enc_cfg, train_cfg.seed)
    params_e = encoder.init_params(enc_cfg, train_cfg.seed + 1)
    opt_m = AdamW(params_m, train_cfg)
    opt_e = AdamW(params_e, train_cfg)

    n = len(mention_seqs)
    b = train_cfg.batch_size
    steps_per_epoch = (n + b - 1) // b
    total_steps = steps_per_epoch * train_cfg.epochs
    rng = np.random.default_rng(train_cfg.seed)
    step = 0
    log_lines: list[str] = []
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, b):
            batch = order[start : start + b]
            golds = [gold_ids[i] for i in batch]
            if len(set(golds)) < len(golds):
                log.info("in-batch gold collision at epoch %d: %s", epoch, golds)
            loss, grads_m, grads_e = batch_loss_and_grads(
                params_m, params_e, enc_cfg,
                [mention_seqs[i] for i in batch],
                [entity_seqs[i] for i in batch],
            )
            lr = linear_lr(train_cfg.learning_rate, step, total_steps)
            opt_m.step(grads_m, lr)
            opt_e.step(grads_e, lr)
            epoch_loss += loss * len(batch)
            step += 1
        mean_loss = epoch_loss / n
        log_lines.append(f"{epoch}\t{mean_loss:.10f}\t{lr:.10e}")
    return TrainResult(params_m=params_m, params_e=params_e, log_lines=log_lines)


# -- numerical validation ----------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    worst_side: str

    def ok(self) -> bool:
        return self.max_rel_error < 1e-4


def gradient_check(
    params_m, params_e, enc_cfg, mention_seqs, entity_seqs,
    samples_per_tensor: int | None = None, seed: int = 0,
) -> GradCheckReport:
    """Compare analytic end-to-end gradients against central finite differences.

    Relative error uses a 1e-4 floor in the denominator so near-zero
    gradients are judged on (tight) absolute error instead of blowing up.
    """

    def total_loss():
        ym, _ = forward_pooled(params_m, enc_cfg, mention_seqs)
        ye, _ = forward_pooled(params_e, enc_cfg, entity_seqs)
        return inbatch_loss(ym @ ye.T)[0]

    _, grads_m, grads_e = batch_loss_and_grads(
        params_m, params_e, enc_cfg, mention_seqs, entity_seqs
    )
    rng = np.random.default_rng(seed)
    worst, worst_param, worst_side = 0.0, "", ""
    for side, params, grads in (("mention", params_m, grads_m), ("entity", params_e, grads_e)):
        gviews = encoder.param_views(grads, enc_cfg)
        for name, arr in encoder.param_views(params, enc_cfg).items():
            flat, gflat = arr.reshape(-1), gviews[name].reshape(-1)
            if samples_per_tensor is None or flat.size <= samples_per_tensor:
                idxs = np.arange(flat.size)
            else:
                idxs = rng.choice(flat.size, size=samples_per_tensor, replace=False)
            for i in idxs:
                old = flat[i]
                flat[i] = old + FD_STEP
                lp = total_loss()
                flat[i] = old - FD_STEP
                lm = total_loss()
                flat[i] = old
                fd = (lp - lm) / (2.0 * FD_STEP)
                err = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-4)
                if err > worst:
                    worst, worst_param, worst_side = err, name, side
    return GradCheckReport(max_rel_error=worst, worst_param=worst_param, worst_side=worst_side)
