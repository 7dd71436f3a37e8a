"""The binary container's body reader: block by block, with the digest taken
as the blocks arrive, and a body that ends early refused by name."""

import hashlib
import os
import re
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from candgen import artifact
from candgen import encoder as E
from candgen import retrieval as R


def _index_file(tmp_path, n, p):
    rng = np.random.default_rng(n)
    index = R.EmbeddingIndex([f"e{i}" for i in range(n)], rng.normal(size=(n, p)))
    prefix = str(tmp_path / "idx")
    R.save_index(index, prefix)
    return prefix, index


class _RecordingSha256:
    """hashlib.sha256 that records the size of each update."""

    sizes: list = []

    def __init__(self, data=b""):
        self._sha = hashlib.sha256(data)

    def update(self, data):
        self.sizes.append(len(data))
        self._sha.update(data)

    def hexdigest(self):
        return self._sha.hexdigest()


@pytest.mark.parametrize("n, p, updates", [
    (5, 3, [56, 56, 8]),  # 120 bytes: two full blocks and a partial one
    (7, 8, [56] * 8),  # 448 bytes: whole blocks only
    (0, 2, []),  # no body
])
def test_the_body_is_hashed_block_by_block_as_it_is_read(tmp_path, monkeypatch, n, p, updates):
    """Read 56 bytes at a time, the body reaches the digest in the blocks it
    was read in, and the digest is the file's SHA-256."""
    monkeypatch.setattr(artifact, "READ_BLOCK", 56)
    monkeypatch.setattr(artifact, "hashlib", SimpleNamespace(sha256=_RecordingSha256))
    monkeypatch.setattr(_RecordingSha256, "sizes", [])
    prefix, index = _index_file(tmp_path, n, p)
    digests = {}
    loaded = R.load_index(prefix, digests)
    path = prefix + ".mat"
    assert digests[path]() == hashlib.sha256(Path(path).read_bytes()).hexdigest()
    assert _RecordingSha256.sizes == updates
    assert loaded.matrix.tobytes() == index.matrix.tobytes()


@pytest.mark.parametrize("kind, with_digests", [
    ("index", False), ("index", True), ("checkpoint", False),
])
def test_a_body_cut_after_its_size_was_taken_is_refused_by_name(tmp_path, monkeypatch, kind,
                                                                 with_digests):
    """The file loses its last value between taking its size and reading its
    body: the caller's error names the file, and no digest thread is left.
    Both files are far larger than the reader's buffer, which the header
    read fills, so the body read meets the cut."""
    digests = {} if with_digests else None
    if kind == "index":
        prefix, _ = _index_file(tmp_path, 64, 512)
        path, error = prefix + ".mat", R.RetrievalError
        load = lambda: R.load_index(prefix, digests)  # noqa: E731
    else:
        cfg = E.EncoderConfig(dim=64, layers=1, heads=2, ff_dim=256, max_len=6, vocab_size=300)
        path, error = str(tmp_path / "model.ckpt"), E.EncoderError
        E.save_checkpoint(path, cfg, E.init_params(cfg, 0))
        load = lambda: E.load_checkpoint(path)  # noqa: E731
    fstat = os.fstat

    def shrinking_fstat(fd):
        stat = fstat(fd)
        os.truncate(path, stat.st_size - 8)
        return stat

    monkeypatch.setattr(artifact, "os", SimpleNamespace(fstat=shrinking_fstat))
    threads = threading.active_count()
    with pytest.raises(error, match=re.escape(path) + f": the {kind} body ended after"):
        load()
    if with_digests:
        waiter = threading.Thread(target=digests[path], daemon=True)
        waiter.start()
        waiter.join(timeout=10)
        assert not waiter.is_alive()
    assert threading.active_count() == threads
