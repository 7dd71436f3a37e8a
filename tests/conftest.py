import pytest

from candgen import synthetic
from candgen.bpe import train_bpe
from candgen.encoder import EncoderConfig


@pytest.fixture(scope="session")
def toy_world():
    return synthetic.make_toy_world(20, 50, seed=0)


@pytest.fixture(scope="session")
def toy_vocab(toy_world):
    return synthetic.toy_vocabulary(toy_world)


@pytest.fixture(scope="session")
def char_vocab():
    # single-character words stay single tokens: handy for exact layouts
    return train_bpe(["a b c d e f g h"], target_vocab_size=64)


@pytest.fixture
def tiny_config():
    return EncoderConfig(dim=8, layers=1, heads=2, ff_dim=16, max_len=6, vocab_size=32)
