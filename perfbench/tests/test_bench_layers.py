import pytest

import layers
import run
from candgen import bpe, cli, encoder, retrieval, templates, training
from spans import Span, Tracer


def test_install_wraps_every_binding_and_restores():
    originals = (training.forward_pooled, bpe.train_bpe, templates.build_entity_sequence,
                 bpe.Vocabulary.__dict__["load"], bpe.Vocabulary.encode)
    tracer = Tracer()
    restore = layers.install(tracer)
    try:
        assert cli.forward_pooled is training.forward_pooled is not originals[0]
        assert cli.train_bpe is bpe.train_bpe is not originals[1]
        assert (retrieval.build_entity_sequence is training.build_entity_sequence
                is templates.build_entity_sequence is not originals[2])
        tracer.active = True
        vocab = bpe.train_bpe(["alpha beta alpha"], 50)
        vocab.encode("alpha")
        names = [s.name for s in tracer.take()]
        assert names == ["bpe.train_bpe", "bpe.Vocabulary.encode"]
    finally:
        restore()
    assert cli.forward_pooled is training.forward_pooled is originals[0]
    assert cli.train_bpe is originals[1]
    assert retrieval.build_entity_sequence is originals[2]
    assert bpe.Vocabulary.__dict__["load"] is originals[3]
    assert bpe.Vocabulary.encode is originals[4]


def test_a_renamed_target_is_reported():
    with pytest.raises(layers.CoverageError, match="no_such_function"):
        layers.install(Tracer(), [layers.Wrapper("training.no_such_function")])


def test_coverage_check_names_silent_wrappers():
    spans = [Span(w.target, 0.0, 1.0, -1) for w in layers.WRAPPERS if w.name is None]
    spans += [Span(f"cli.{sub}", 0.0, 1.0, -1) for sub in layers.SUBCOMMANDS]
    layers.check_coverage(spans, types_on=True)
    with pytest.raises(layers.CoverageError, match="encoder.backward"):
        layers.check_coverage([s for s in spans if s.name != "encoder.backward"], True)
    with pytest.raises(layers.CoverageError, match="cli.main"):
        layers.check_coverage([s for s in spans if s.name != "cli.eval"], True)
    typed = {"corpus.load_entity_type_annotations", "corpus.apply_type_annotations"}
    layers.check_coverage([s for s in spans if s.name not in typed], types_on=False)


def test_forward_flop_formula():
    cfg = encoder.EncoderConfig(dim=64, layers=2, ff_dim=256, max_len=32, vocab_size=10)
    n, d, f = 32, 64, 256
    per_seq = 8 * n * d * d + 4 * n * n * d + 4 * n * d * f
    assert layers.encoder_forward_flop(cfg, 3, n) == 3 * 2 * per_seq


def test_layer_metrics_account_for_the_pipeline():
    spans = [
        Span("cli.train", 0.0, 4.0, -1),
        Span("training.train", 0.5, 3.5, 0),
        Span("encoder.backward", 1.0, 2.0, 1, {"flop": 4e9}),
        Span("retrieval.top_k", 5.0, 5.5, -1, {"scan_bytes": 1e9}),
    ]
    m = layers.layer_metrics(spans, pipeline_s=6.0, request_windows=[(4.8, 5.6)],
                             gold_collisions=2, accuracy={1: 0.25, 64: 0.5})
    assert m["trace.self_sum_s"] == pytest.approx(4.5)
    assert m["trace.unattributed_s"] == pytest.approx(1.5)
    assert m["training.train.share"] == pytest.approx(0.5)
    assert m["encoder.backward.gflop_per_s"] == pytest.approx(4.0)
    assert m["retrieval.top_k.scan_gb_per_s"] == pytest.approx(2.0)
    assert m["retrieval.top_k.request_share"] == pytest.approx(0.5 / 0.8)
    assert m["cli.train.self_s"] == pytest.approx(1.0)
    assert set(m) | {"trace.overhead_s"} == set(run.metric_units("per_layer"))

