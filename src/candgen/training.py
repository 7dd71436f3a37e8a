"""Bi-encoder training: in-batch-negative loss, decoupled-weight-decay Adam,
linear learning-rate decay, and an end-to-end finite-difference gradient check.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import encoder, pooling
from .bpe import Vocabulary
from .corpus import World
from .encoder import EncoderConfig
from .templates import (
    TokenSequence,
    build_entity_sequence,
    build_mention_sequence,
    shared_slot_count,
)

log = logging.getLogger(__name__)


class TrainingError(ValueError):
    pass


@dataclass
class TrainConfig:
    batch_size: int = 8
    epochs: int = 5
    learning_rate: float = 3e-5
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    pooling_kind: str = pooling.CLS
    use_entity_type: bool = False
    shuffle: bool = True

    def __post_init__(self):
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise TrainingError("learning_rate must be positive")
        for b in (self.beta1, self.beta2):
            if not 0.0 < b < 1.0:
                raise TrainingError("Adam betas must lie in (0, 1)")
        if self.pooling_kind not in pooling.ALL_KINDS:
            raise TrainingError(f"unknown pooling kind {self.pooling_kind!r}")


def pair_score(y_m: np.ndarray, y_e: np.ndarray) -> float:
    if y_m.shape != y_e.shape:
        raise TrainingError(f"dimension mismatch: {y_m.shape} vs {y_e.shape}")
    return float(np.dot(y_m, y_e))


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
    """Adam with decoupled weight decay: decay acts on the weights directly,
    never through the gradient moments."""

    def __init__(self, params: dict[str, np.ndarray], cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray], lr: float):
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - cfg.beta1**self.t
        bc2 = 1.0 - cfg.beta2**self.t
        for name, p in self.params.items():
            g = grads[name]
            self.m[name] = cfg.beta1 * self.m[name] + (1.0 - cfg.beta1) * g
            self.v[name] = cfg.beta2 * self.v[name] + (1.0 - cfg.beta2) * g * g
            mhat = self.m[name] / bc1
            vhat = self.v[name] / bc2
            p -= lr * (mhat / (np.sqrt(vhat) + cfg.eps) + cfg.weight_decay * p)


# -- batched forward/backward through encoder + pooling ----------------------


def forward_pooled(
    params: dict[str, np.ndarray],
    enc_cfg: EncoderConfig,
    seqs: list[TokenSequence],
    kind: str,
    slot_count: int | None = None,
):
    """Encode a batch of sequences and pool each to a vector.

    Returns (Y, state) with Y of shape (B, P); state feeds backward_pooled.
    """
    ids = np.stack([s.ids for s in seqs])
    lens = np.array([s.attn_len for s in seqs])
    h, cache = encoder.forward(params, enc_cfg, ids, lens)
    y, weights = pooling.reduce(
        h, lens, [s.special_indices for s in seqs], kind, slot_count
    )
    return y, dict(cache=cache, weights=weights)


def backward_pooled(state: dict, dY: np.ndarray) -> dict[str, np.ndarray]:
    return encoder.backward(state["cache"], pooling.backward_reduce(state["weights"], dY))


def batch_loss_and_grads(
    params_m, params_e, enc_cfg_m, enc_cfg_e, mention_seqs, entity_seqs, kind,
    slot_count=None, loss_scale: float = 1.0,
):
    """Full pipeline loss for one batch of gold pairs, plus all gradients."""
    ym, state_m = forward_pooled(params_m, enc_cfg_m, mention_seqs, kind, slot_count)
    ye, state_e = forward_pooled(params_e, enc_cfg_e, entity_seqs, kind, slot_count)
    loss, dscores = inbatch_loss(ym @ ye.T)
    loss *= loss_scale
    dscores = dscores * loss_scale
    grads_m = backward_pooled(state_m, dscores @ ye)
    grads_e = backward_pooled(state_e, dscores.T @ ym)
    return loss, grads_m, grads_e


# -- training loop -----------------------------------------------------------


@dataclass
class TrainResult:
    params_m: dict[str, np.ndarray]
    params_e: dict[str, np.ndarray]
    log_lines: list[str] = field(default_factory=list)


def build_training_pairs(
    world: World,
    vocab: Vocabulary,
    enc_cfg: EncoderConfig,
    use_entity_type: bool,
) -> tuple[list[TokenSequence], list[TokenSequence], list[str]]:
    """Templated (mention, gold entity) sequence pairs for one world."""
    by_id = world.entity_by_id()
    mention_seqs, entity_seqs, gold_ids = [], [], []
    for m in world.mentions:
        context = world.documents[m.context_document_id]
        mention_seqs.append(
            build_mention_sequence(m, context, vocab, enc_cfg.max_len, use_entity_type)
        )
        gold = by_id[m.gold_entity_id]
        entity_seqs.append(
            build_entity_sequence(gold, vocab, enc_cfg.max_len, use_entity_type)
        )
        gold_ids.append(m.gold_entity_id)
    return mention_seqs, entity_seqs, gold_ids


def train(
    world: World,
    vocab: Vocabulary,
    enc_cfg: EncoderConfig,
    train_cfg: TrainConfig,
) -> TrainResult:
    """Train both encoders on one world's gold mention-entity pairs."""
    mention_seqs, entity_seqs, gold_ids = build_training_pairs(
        world, vocab, enc_cfg, train_cfg.use_entity_type
    )
    if not mention_seqs:
        raise TrainingError("no training mentions")
    kind = train_cfg.pooling_kind
    slots = shared_slot_count(train_cfg.use_entity_type)

    cfg_m = replace(enc_cfg, seed=train_cfg.seed)
    cfg_e = replace(enc_cfg, seed=train_cfg.seed + 1)
    params_m = encoder.init_params(cfg_m)
    params_e = encoder.init_params(cfg_e)
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
        order = rng.permutation(n) if train_cfg.shuffle else np.arange(n)
        epoch_loss = 0.0
        lr = train_cfg.learning_rate
        for start in range(0, n, b):
            batch = order[start : start + b]
            golds = [gold_ids[i] for i in batch]
            if len(set(golds)) < len(golds):
                log.info("in-batch gold collision at epoch %d: %s", epoch, golds)
            loss, grads_m, grads_e = batch_loss_and_grads(
                params_m, params_e, cfg_m, cfg_e,
                [mention_seqs[i] for i in batch],
                [entity_seqs[i] for i in batch],
                kind, slots,
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

    def ok(self, threshold: float = 1e-4) -> bool:
        return self.max_rel_error < threshold


def gradient_check(
    params_m, params_e, enc_cfg_m, enc_cfg_e, mention_seqs, entity_seqs, kind,
    slot_count=None, fd_step: float = 1e-5, samples_per_tensor: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic end-to-end gradients against central finite differences.

    Relative error uses a 1e-4 floor in the denominator so near-zero
    gradients are judged on (tight) absolute error instead of blowing up.
    """

    def total_loss():
        ym, _ = forward_pooled(params_m, enc_cfg_m, mention_seqs, kind, slot_count)
        ye, _ = forward_pooled(params_e, enc_cfg_e, entity_seqs, kind, slot_count)
        loss, _ = inbatch_loss(ym @ ye.T)
        return loss

    _, grads_m, grads_e = batch_loss_and_grads(
        params_m, params_e, enc_cfg_m, enc_cfg_e, mention_seqs, entity_seqs,
        kind, slot_count,
    )
    rng = np.random.default_rng(seed)
    worst, worst_param, worst_side = 0.0, "", ""
    for side, params, grads in (("mention", params_m, grads_m), ("entity", params_e, grads_e)):
        for name, arr in params.items():
            flat = arr.reshape(-1)
            gflat = grads[name].reshape(-1)
            if samples_per_tensor is None or flat.size <= samples_per_tensor:
                idxs = np.arange(flat.size)
            else:
                idxs = rng.choice(flat.size, size=samples_per_tensor, replace=False)
            for i in idxs:
                old = flat[i]
                flat[i] = old + fd_step
                lp = total_loss()
                flat[i] = old - fd_step
                lm = total_loss()
                flat[i] = old
                fd = (lp - lm) / (2.0 * fd_step)
                err = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-4)
                if err > worst:
                    worst, worst_param, worst_side = err, name, side
    return GradCheckReport(max_rel_error=worst, worst_param=worst_param, worst_side=worst_side)
