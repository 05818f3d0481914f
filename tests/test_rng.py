import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvr import rng
from helpers import StubGenerator

FIXED_SEED = settings(derandomize=True, max_examples=100, deadline=None, database=None)

# small ranges, the full 31-bit range, and 2^k + 1, where about half of
# the raw power-of-two draws are rejected
INDEX_RANGES = st.one_of(
    st.integers(1, 70),
    st.integers(1, 2**31 - 1),
    st.integers(0, 30).map(lambda k: 2**k + 1),
)
PROBABILITIES = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def test_same_seed_same_sequences():
    a = rng.make_agent_streams(123, 4)
    b = rng.make_agent_streams(123, 4)
    assert [rng.draw_bernoulli(a.bernoulli, 0.4) for _ in range(10_000)] == [
        rng.draw_bernoulli(b.bernoulli, 0.4) for _ in range(10_000)
    ]
    assert [rng.draw_index(a.index, 13) for _ in range(10_000)] == [
        rng.draw_index(b.index, 13) for _ in range(10_000)
    ]


def test_distinct_agents_and_purposes_give_distinct_streams():
    g11 = rng.derived_generator(9, 1, rng.PURPOSE_BERNOULLI)
    g12 = rng.derived_generator(9, 1, rng.PURPOSE_INDEX)
    g21 = rng.derived_generator(9, 2, rng.PURPOSE_BERNOULLI)
    s11 = [g11.random() for _ in range(64)]
    s12 = [g12.random() for _ in range(64)]
    s21 = [g21.random() for _ in range(64)]
    assert s11 != s12 and s11 != s21 and s12 != s21


def test_bernoulli_threshold_rule():
    # draw of 0.999 sits above any small probability
    assert rng.draw_bernoulli(StubGenerator(uniforms=[0.999]), 1e-12) == 0
    assert rng.draw_bernoulli(StubGenerator(uniforms=[0.2999]), 0.3) == 1


def test_bernoulli_rejects_degenerate_probabilities():
    stream = rng.make_agent_streams(0, 1).bernoulli
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            rng.draw_bernoulli(stream, p)


def test_index_rejects_empty_range():
    stream = rng.make_agent_streams(0, 1).index
    with pytest.raises(ValueError):
        rng.draw_index(stream, 0)


def test_index_m1_always_one():
    stream = rng.make_agent_streams(5, 2).index
    assert all(rng.draw_index(stream, 1) == 1 for _ in range(100))


def test_bernoulli_empirical_mean():
    stream = rng.make_agent_streams(2024, 1).bernoulli
    n = 1_000_000
    hits = sum(rng.draw_bernoulli(stream, 0.3) for _ in range(n))
    # binomial standard error sqrt(p (1-p) / n), three sigma
    assert abs(hits / n - 0.3) <= 3.0 * math.sqrt(0.3 * 0.7 / n)


def test_index_uniformity_three_sigma():
    stream = rng.make_agent_streams(77, 3).index
    n = 1_000_000
    m = 7
    # the same values as n calls of draw_index (test_draw_indices_equal_scalar_draws)
    counts = np.bincount(rng.draw_indices(stream, m, n) - 1, minlength=m)
    p = 1.0 / m
    bound = 3.0 * math.sqrt(p * (1.0 - p) / n)
    assert np.abs(counts / n - p).max() <= bound


def test_cross_stream_correlation_small():
    streams = rng.make_agent_streams(31337, 6)
    n = 100_000
    flips = np.array([rng.draw_bernoulli(streams.bernoulli, 0.5) for _ in range(n)], dtype=float)
    idx = np.array([rng.draw_index(streams.index, 1000) for _ in range(n)], dtype=float)
    corr = np.corrcoef(flips, idx)[0, 1]
    assert abs(corr) < 0.01


def test_agent_ids_are_one_based():
    with pytest.raises(ValueError):
        rng.make_agent_streams(0, 0)


def same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    """Equal Philox counter, key and buffered output."""
    sa, sb = a.bit_generator.state, b.bit_generator.state
    return all(np.array_equal(sa["state"][k], sb["state"][k]) for k in ("counter", "key")) and all(
        np.array_equal(sa[k], sb[k]) for k in ("buffer", "buffer_pos", "has_uint32", "uinteger")
    )


@FIXED_SEED
@given(m=INDEX_RANGES, size=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
def test_draw_indices_equal_scalar_draws(m, size, seed):
    block = rng.make_agent_streams(seed, 3).index
    scalar = rng.make_agent_streams(seed, 3).index
    got = rng.draw_indices(block, m, size)
    assert got.dtype == np.int64 and got.shape == (size,)
    assert got.tolist() == [rng.draw_index(scalar, m) for _ in range(size)]
    assert same_state(block, scalar)
    assert rng.draw_index(block, m) == rng.draw_index(scalar, m)


@FIXED_SEED
@given(m=INDEX_RANGES, size=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_draw_indices_equal_scalar_draws_when_chunks_fall_short(m, size, seed):
    # with no margin over the expected raw count, a chunk holds fewer
    # accepted values than needed about half the time
    block = rng.make_agent_streams(seed, 3).index
    scalar = rng.make_agent_streams(seed, 3).index
    with mock.patch.object(rng, "isqrt", lambda n: -1):
        got = rng.draw_indices(block, m, size)
    assert got.tolist() == [rng.draw_index(scalar, m) for _ in range(size)]
    assert same_state(block, scalar)


@FIXED_SEED
@given(p=PROBABILITIES, size=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
def test_draw_bernoullis_equal_scalar_draws(p, size, seed):
    block = rng.make_agent_streams(seed, 2).bernoulli
    scalar = rng.make_agent_streams(seed, 2).bernoulli
    got = rng.draw_bernoullis(block, p, size)
    assert got.dtype == bool and got.shape == (size,)
    assert got.astype(int).tolist() == [rng.draw_bernoulli(scalar, p) for _ in range(size)]
    assert same_state(block, scalar)
    assert rng.draw_bernoulli(block, p) == rng.draw_bernoulli(scalar, p)


def test_block_draws_validate_like_scalar_draws():
    stream = rng.make_agent_streams(0, 1).index
    with pytest.raises(ValueError):
        rng.draw_indices(stream, 0, 5)
    for p in (0.0, 1.0):
        with pytest.raises(ValueError):
            rng.draw_bernoullis(stream, p, 5)


@settings(FIXED_SEED, max_examples=15)
@given(
    m=st.lists(INDEX_RANGES, min_size=1, max_size=5),
    p=PROBABILITIES,
    seed=st.integers(0, 2**32 - 1),
)
def test_swarm_buffer_hands_out_the_scalar_sequence(m, p, seed):
    m = tuple(m)
    buffered = rng.make_swarm_streams(seed, len(m))
    scalar = rng.make_swarm_streams(seed, len(m))
    # past two refills; coins stop early, as a DSGD run after GT-VR would
    rounds = 2 * rng.DRAW_BLOCK + 37
    for k in range(rounds):
        if k < rng.DRAW_BLOCK + 5:
            coins = buffered.coins(p)
            assert coins.dtype == bool
            assert coins.astype(int).tolist() == [rng.draw_bernoulli(s.bernoulli, p) for s in scalar]
        js = buffered.indices(m)
        assert js.dtype == np.int64
        assert js.tolist() == [rng.draw_index(s.index, m_i) for s, m_i in zip(scalar, m)]


def test_swarm_buffer_rejects_a_changed_index_range():
    streams = rng.make_swarm_streams(4, 2)
    streams.indices((5, 6))
    with pytest.raises(ValueError, match="ranges"):
        streams.indices((5, 7))
    with pytest.raises(ValueError, match="one index range per agent"):
        streams.indices((5,))
    with pytest.raises(ValueError):
        streams.coins(1.0)
