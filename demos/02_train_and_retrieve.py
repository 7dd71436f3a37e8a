"""Walkthrough: training the bi-encoder and retrieving candidates.

Trains a small mention encoder and entity encoder on a synthetic world,
embeds the entity dictionary once, and then answers every mention with an
exact top-K search. Takes ~20 seconds on a laptop CPU.

Run with:  python3 demos/02_train_and_retrieve.py
"""

from candgen import evaluation, retrieval, synthetic, training
from candgen.encoder import EncoderConfig

# ---------------------------------------------------------------------------
# 1. A corpus the model can actually learn
# ---------------------------------------------------------------------------
# 20 entities, each with its own distinctive made-up vocabulary, and 50
# mention contexts drawn from those vocabularies.

world = synthetic.make_toy_world(n_entities=20, n_mentions=50, seed=0)
vocab = synthetic.toy_vocabulary(world)
print(f"{len(world.entities)} entities, {len(world.mentions)} mentions, "
      f"{len(vocab)} vocabulary tokens")

# ---------------------------------------------------------------------------
# 2. Train both encoders with in-batch negatives
# ---------------------------------------------------------------------------
# Each batch scores every mention against every gold entity in the batch;
# the off-diagonal entries act as negatives for free.

# The pooling is part of the encoder config: it is fixed when the model is
# trained, and every later stage reads it from there.
enc_cfg = EncoderConfig(dim=64, layers=2, heads=2, ff_dim=256, max_len=32,
                        vocab_size=len(vocab), pooling_kind="conc_special")
train_cfg = training.TrainConfig()  # 30 epochs at learning rate 2e-3
result = training.train(world, vocab, enc_cfg, train_cfg)
print("first/last epoch:", result.log_lines[0], "|", result.log_lines[-1])

# ---------------------------------------------------------------------------
# 3. Embed the dictionary once, retrieve for every mention
# ---------------------------------------------------------------------------
# Entity vectors do not depend on the query, so the index is built a single
# time and reused for every mention (and for every metric).

index = retrieval.build_index(world.entities, result.params_e, enc_cfg, vocab)

# Each mention is templated in its context document and encoded the way
# `candgen retrieve` does it, one row per mention.
ys = retrieval.encode_mentions(world.mentions, world.documents, result.params_m,
                               enc_cfg, vocab)
results = [retrieval.top_k(index, ys[i], 5, retrieval.DOT, m.mention_id)
           for i, m in enumerate(world.mentions)]

one = results[0]
print(f"\ntop-5 for {one.mention_id} "
      f"(gold {world.mentions[0].gold_entity_id}):")
for rank, (eid, score) in enumerate(one.candidates, 1):
    print(f"  {rank}. {eid}  score={score:.3f}")

# ---------------------------------------------------------------------------
# 4. Top-K accuracy
# ---------------------------------------------------------------------------
gold = {m.mention_id: m.gold_entity_id for m in world.mentions}
for k in (1, 2, 5):
    acc = evaluation.accuracy_at_k(results, gold, k)
    print(f"accuracy@{k} = {acc:.2f}")
