import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candgen import pooling as P


def reduce1(h, attn_len, specials, kind, slot_count=None):
    """Pool one sequence: the same inputs as a batch of one."""
    y, _ = P.reduce(h[None], [attn_len], [specials], kind, slot_count)
    return y[0]


def rand_states(rng, n=8, d=4, attn_len=6):
    h = rng.normal(size=(n, d))
    h[attn_len:] = 0.0  # padding rows are zeroed by the encoder
    return h


def test_cls_is_first_row():
    rng = np.random.default_rng(0)
    h = rand_states(rng)
    np.testing.assert_array_equal(reduce1(h, 6, [0, 3], P.CLS), h[0])


def test_avg_of_identical_rows():
    v = np.array([1.0, -2.0, 3.0])
    h = np.tile(v, (5, 1))
    np.testing.assert_allclose(reduce1(h, 5, [0], P.AVG), v)


def test_sum_arithmetic():
    h = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(reduce1(h, 2, [0], P.SUM), [4.0, 6.0])


def test_conc_special_with_padding_slots():
    h = np.arange(8.0).reshape(4, 2)
    out = reduce1(h, 4, [0, 3], P.CONC_SPECIAL, slot_count=3)
    np.testing.assert_array_equal(out, [0.0, 1.0, 6.0, 7.0, 0.0, 0.0])


def test_avg_equals_sum_over_length():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = rand_states(rng)
        avg = reduce1(h, 6, [0], P.AVG)
        s = reduce1(h, 6, [0], P.SUM)
        np.testing.assert_allclose(avg, s / 6, atol=1e-12)


def test_sum_special_equals_avg_special_times_count():
    rng = np.random.default_rng(2)
    specials = [0, 2, 5]
    for _ in range(20):
        h = rand_states(rng)
        ss = reduce1(h, 6, specials, P.SUM_SPECIAL)
        av = reduce1(h, 6, specials, P.AVG_SPECIAL)
        np.testing.assert_allclose(ss, av * len(specials), atol=1e-12)


def test_all_special_sequence_collapses_variants():
    rng = np.random.default_rng(3)
    h = rand_states(rng, attn_len=4)
    specials = [0, 1, 2, 3]
    np.testing.assert_allclose(
        reduce1(h, 4, specials, P.AVG), reduce1(h, 4, specials, P.AVG_SPECIAL), atol=1e-15
    )
    np.testing.assert_allclose(
        reduce1(h, 4, specials, P.SUM), reduce1(h, 4, specials, P.SUM_SPECIAL), atol=1e-15
    )


def test_single_slot_conc_equals_cls():
    rng = np.random.default_rng(4)
    h = rand_states(rng)
    np.testing.assert_array_equal(
        reduce1(h, 6, [0], P.CONC_SPECIAL, slot_count=1), reduce1(h, 6, [0], P.CLS)
    )


def test_padding_rows_never_read():
    rng = np.random.default_rng(5)
    h = rand_states(rng)
    h2 = h.copy()
    h2[6:] = rng.normal(size=(2, 4))  # poison beyond the attention length
    for kind in P.ALL_KINDS:
        a = reduce1(h, 6, [0, 2], kind, slot_count=4)
        b = reduce1(h2, 6, [0, 2], kind, slot_count=4)
        np.testing.assert_array_equal(a, b, err_msg=kind)


def test_errors():
    h = np.zeros((4, 2))
    with pytest.raises(P.PoolingError):
        reduce1(h, 4, [], P.AVG_SPECIAL)
    with pytest.raises(P.PoolingError):
        reduce1(h, 4, [0, 1, 2], P.CONC_SPECIAL, slot_count=2)
    with pytest.raises(P.PoolingError):
        reduce1(h, 4, [0], "median")
    with pytest.raises(P.PoolingError):
        reduce1(h, 4, [2, 1], P.SUM_SPECIAL)
    with pytest.raises(P.PoolingError):
        reduce1(h, 4, [4], P.SUM_SPECIAL)
    _, cache = P.reduce(h[None], [4], [[0]], P.CLS)
    with pytest.raises(P.PoolingError):
        P.backward_reduce(cache, np.zeros((1, 3)))


def backward1(g, n, d, attn_len, specials, kind, slot_count=None):
    """Adjoint for one sequence of n rows of width d."""
    _, cache = P.reduce(np.zeros((1, n, d)), [attn_len], [specials], kind, slot_count)
    return P.backward_reduce(cache, g[None])[0]


def test_backward_cls_and_sum():
    g = np.array([1.0, 2.0])
    dh = backward1(g, 4, 2, 3, [0], P.CLS)
    np.testing.assert_array_equal(dh, [[1, 2], [0, 0], [0, 0], [0, 0]])
    dh = backward1(g, 4, 2, 3, [0], P.SUM)
    np.testing.assert_array_equal(dh, [[1, 2], [1, 2], [1, 2], [0, 0]])


@pytest.mark.parametrize("kind", P.ALL_KINDS)
def test_backward_matches_finite_differences(kind):
    rng = np.random.default_rng(7)
    n, d, attn_len, specials, slots = 6, 3, 5, [0, 2, 4], 4
    h = rand_states(rng, n=n, d=d, attn_len=attn_len)
    g = rng.normal(size=P.pooled_dim(kind, d, slots))

    def scalar(hm):
        return float(g @ reduce1(hm, attn_len, specials, kind, slots))

    dh = backward1(g, n, d, attn_len, specials, kind, slots)
    step = 1e-6
    worst = 0.0
    for i in range(attn_len):
        for j in range(d):
            old = h[i, j]
            h[i, j] = old + step
            lp = scalar(h)
            h[i, j] = old - step
            lm = scalar(h)
            h[i, j] = old
            fd = (lp - lm) / (2 * step)
            worst = max(worst, abs(fd - dh[i, j]) / max(abs(fd), abs(dh[i, j]), 1.0))
    assert worst < 1e-6


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=1000))
def test_identities_property(attn_len, seed):
    rng = np.random.default_rng(seed)
    h = rand_states(rng, n=12, d=5, attn_len=attn_len)
    specials = sorted(set(int(i) for i in rng.integers(0, attn_len, size=3)))
    np.testing.assert_allclose(
        reduce1(h, attn_len, specials, P.AVG),
        reduce1(h, attn_len, specials, P.SUM) / attn_len,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        reduce1(h, attn_len, specials, P.SUM_SPECIAL),
        reduce1(h, attn_len, specials, P.AVG_SPECIAL) * len(specials),
        atol=1e-12,
    )
