"""Walkthrough: comparing pooling functions and similarity metrics.

Trains one small model per pooling function on the toy world and scores
each under dot product, cosine, and euclidean distance. A scaled-down
version of the full `candgen experiment` grid; takes ~30 seconds.

Run with:  python3 demos/03_pooling_and_metrics.py
"""

from dataclasses import replace

from candgen import evaluation, pooling, retrieval, synthetic, training
from candgen.encoder import EncoderConfig
from candgen.templates import build_mention_sequence

world = synthetic.make_toy_world(n_entities=20, n_mentions=50, seed=0)
vocab = synthetic.toy_vocabulary(world)
gold = {m.mention_id: m.gold_entity_id for m in world.mentions}
mention_ids = [m.mention_id for m in world.mentions]

enc_cfg = EncoderConfig(dim=32, layers=1, heads=2, ff_dim=128, max_len=16,
                        vocab_size=len(vocab))

mention_seqs = [
    build_mention_sequence(m, world.documents[m.context_document_id], vocab,
                           enc_cfg.max_len)
    for m in world.mentions
]

print(f"{'pooling':<14}{'dot':>8}{'cosine':>8}{'euclid':>8}   (accuracy@1)")
train_cfg = training.TrainConfig(epochs=20)
for kind in pooling.ALL_KINDS:
    cfg = replace(enc_cfg, pooling_kind=kind)  # one model per pooling
    result = training.train(world, vocab, cfg, train_cfg)
    index = retrieval.build_index(world.entities, result.params_e, cfg, vocab)
    ys, _ = training.forward_pooled(result.params_m, cfg, mention_seqs)
    row = [kind]
    for metric in retrieval.ALL_METRICS:
        # every mention at once, scanned in blocks, as `candgen retrieve` does
        results = retrieval.top_k_many(index, ys, 1, metric, mention_ids)
        row.append(evaluation.accuracy_at_k(results, gold, 1))
    print(f"{row[0]:<14}{row[1]:>8.2f}{row[2]:>8.2f}{row[3]:>8.2f}")

print("\nNote: the ranking between pooling kinds is noisy at this tiny scale,")
print("but the euclidean column usually trails the dot product — the model")
print("is trained against dot-product scores, so that geometry fits best.")
