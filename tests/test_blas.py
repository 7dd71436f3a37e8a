import builtins
import sys
import threading

import numpy as np
import pytest

from candgen import blas
from candgen import retrieval as R
from candgen import training as T
from candgen.encoder import EncoderConfig

needs_openblas = pytest.mark.skipif(blas._openblas() is None,
                                    reason="numpy is not linked against a loadable OpenBLAS")


def _threads():
    return blas._openblas()[0]()


@needs_openblas
def test_one_thread_holds_and_restores():
    before = _threads()
    with blas.one_thread():
        assert _threads() == 1
        with blas.one_thread():
            assert _threads() == 1
        assert _threads() == 1  # the outer block still holds it
    assert _threads() == before
    with pytest.raises(ZeroDivisionError):
        with blas.one_thread():
            1 / 0
    assert _threads() == before


@needs_openblas
def test_one_thread_concurrent_blocks_restore_once():
    """Eight threads entering and leaving blocks at random switch points:
    each always sees one thread, and the count is back once all are out."""
    before, seen = _threads(), []

    def worker():
        for _ in range(200):
            with blas.one_thread():
                seen.append(_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(seen) == 8 * 200 and set(seen) == {1}
    assert _threads() == before


@needs_openblas
def test_encode_chunked_and_train_run_on_one_blas_thread(toy_world, toy_vocab, monkeypatch):
    """Every encode thread and every training step sees one BLAS thread; the
    caller's count is back afterwards."""
    before = _threads()
    monkeypatch.setattr(R, "_usable_cpus", lambda: 2)
    cfg = EncoderConfig(dim=8, layers=1, heads=2, ff_dim=16, max_len=16,
                        vocab_size=len(toy_vocab))
    seen = []

    def encode(params, enc_cfg, chunk, *, workspace):
        seen.append(_threads())
        return np.zeros((len(chunk), enc_cfg.dim)), None

    monkeypatch.setattr(R, "forward_pooled", encode)
    R.encode_chunked(list(range(3 * R.EMBED_CHUNK)), None, cfg)
    assert seen == [1, 1, 1] and _threads() == before

    seen.clear()
    step = T.batch_loss_and_grads

    def counted(*args):
        seen.append(_threads())
        return step(*args)

    monkeypatch.setattr(T, "batch_loss_and_grads", counted)
    T.train(toy_world, toy_vocab, cfg, T.TrainConfig(epochs=1, learning_rate=1e-3, seed=5))
    assert seen and set(seen) == {1} and _threads() == before



@needs_openblas
def test_top_k_many_runs_on_one_blas_thread_and_top_k_on_the_callers(monkeypatch):
    """A matrix of queries is scored on one BLAS thread; a single query keeps
    the caller's count."""
    before, seen, ranked = _threads(), [], R._ranked

    def counted(*args):
        seen.append(_threads())
        return ranked(*args)

    monkeypatch.setattr(R, "_ranked", counted)
    index = R.EmbeddingIndex(["e1", "e2"], np.eye(2))
    R.top_k_many(index, np.eye(2), 1, R.DOT, ["m1", "m2"])
    assert seen == [1, 1] and _threads() == before
    R.top_k(index, np.ones(2), 1, R.DOT)
    assert seen == [1, 1, before]


def test_a_mapped_path_that_is_not_utf8_is_no_error(tmp_path, monkeypatch):
    """A maps line whose path holds byte 0xff names no loadable OpenBLAS;
    the search goes on, and a block still runs."""
    maps = tmp_path / "maps"
    maps.write_bytes(b"7f00-7f01 r-xp 00000000 08:01 42 /opt/\xff/libopenblas.so\n")
    monkeypatch.setattr(blas, "open", lambda path, *a, **kw: builtins.open(maps, *a, **kw),
                        raising=False)
    blas._openblas.cache_clear()
    try:
        assert blas._openblas() is None
        with blas.one_thread():
            pass
    finally:
        monkeypatch.undo()
        blas._openblas.cache_clear()
