import math
from itertools import islice, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvr import rng
from gtvr.problem import FiniteSumProblem
from helpers import StubGenerator, scalar_streams
from reference_rng import draw_bernoulli, draw_index

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
    a = scalar_streams(123, 4)[3]
    b = scalar_streams(123, 4)[3]
    assert [draw_bernoulli(a.bernoulli, 0.4) for _ in range(10_000)] == [
        draw_bernoulli(b.bernoulli, 0.4) for _ in range(10_000)
    ]
    assert [draw_index(a.index, 13) for _ in range(10_000)] == [
        draw_index(b.index, 13) for _ in range(10_000)
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
    assert draw_bernoulli(StubGenerator(uniforms=[0.999]), 1e-12) == 0
    assert draw_bernoulli(StubGenerator(uniforms=[0.2999]), 0.3) == 1


def test_bernoulli_rejects_degenerate_probabilities():
    stream = scalar_streams(0, 1)[0].bernoulli
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            draw_bernoulli(stream, p)


def test_index_rejects_empty_range():
    stream = scalar_streams(0, 1)[0].index
    with pytest.raises(ValueError):
        draw_index(stream, 0)


def test_index_m1_always_one():
    stream = scalar_streams(5, 2)[1].index
    assert all(draw_index(stream, 1) == 1 for _ in range(100))


def test_bernoulli_empirical_mean():
    stream = scalar_streams(2024, 1)[0].bernoulli
    n = 1_000_000
    hits = sum(draw_bernoulli(stream, 0.3) for _ in range(n))
    # binomial standard error sqrt(p (1-p) / n), three sigma
    assert abs(hits / n - 0.3) <= 3.0 * math.sqrt(0.3 * 0.7 / n)


def test_index_uniformity_three_sigma():
    stream = scalar_streams(77, 3)[2].index
    n = 1_000_000
    m = 7
    # the same values as n calls of draw_index (test_uniform_indices_equal_scalar_draws)
    drawn = np.fromiter(islice(rng.uniform_indices(stream, m), n), np.int64, n)
    counts = np.bincount(drawn - 1, minlength=m)
    p = 1.0 / m
    bound = 3.0 * math.sqrt(p * (1.0 - p) / n)
    assert np.abs(counts / n - p).max() <= bound


def test_cross_stream_correlation_small():
    streams = scalar_streams(31337, 6)[5]
    n = 100_000
    flips = np.array([draw_bernoulli(streams.bernoulli, 0.5) for _ in range(n)], dtype=float)
    idx = np.array([draw_index(streams.index, 1000) for _ in range(n)], dtype=float)
    corr = np.corrcoef(flips, idx)[0, 1]
    assert abs(corr) < 0.01


@FIXED_SEED
@given(m=INDEX_RANGES, size=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
def test_uniform_indices_equal_scalar_draws(m, size, seed):
    # past three blocks of raw draws, and for 2^k + 1 past about six
    count = 3 * rng.DRAW_BLOCK + size
    drawn = rng.uniform_indices(scalar_streams(seed, 3)[2].index, m)
    scalar = scalar_streams(seed, 3)[2].index
    assert list(islice(drawn, count)) == [draw_index(scalar, m) for _ in range(count)]


def test_swarm_streams_reject_an_empty_index_range():
    for m in ((5, 0, 6), (-1,), (3, 3, -2)):
        with pytest.raises(ValueError, match="index range"):
            rng.SwarmStreams(4, m, 0.5)


@settings(FIXED_SEED, max_examples=15)
@given(
    m=st.lists(INDEX_RANGES, min_size=1, max_size=5),
    p=PROBABILITIES,
    seed=st.integers(0, 2**32 - 1),
)
def test_swarm_buffer_hands_out_the_scalar_sequence(m, p, seed):
    buffered = rng.SwarmStreams(seed, m, p)
    scalar = scalar_streams(seed, len(m))
    base = layout_base(m)
    # past two refills; coins stop early, as a DSGD run after GT-VR would
    rounds = 2 * rng.DRAW_BLOCK + 37
    for k in range(rounds):
        if k < rng.DRAW_BLOCK + 5:
            coins = buffered.coins()
            assert coins.dtype == bool
            assert coins.astype(int).tolist() == [draw_bernoulli(s.bernoulli, p) for s in scalar]
        rows = buffered.rows()
        assert rows.dtype == np.int64
        assert rows.tolist() == [b + draw_index(s.index, m_i) for b, s, m_i in zip(base, scalar, m)]


def layout_base(m):
    """``layout.base`` of a problem whose agents own m_i samples each: its
    agent i's sample j is stacked row base[i - 1] + j."""
    prob = FiniteSumProblem()
    prob._set_layout(m, 1)
    return prob.layout.base.tolist()


@settings(FIXED_SEED, max_examples=25)
@given(
    m=st.lists(INDEX_RANGES, min_size=1, max_size=5),
    replicas=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_swarm_rows_are_the_layout_base_plus_the_scalar_draws(m, replicas, seed):
    streams = rng.SwarmStreams(seed, m, [0.5] * replicas)
    scalar = scalar_streams(seed, len(m))
    base = layout_base(m)
    # past two refills, each replica handed its agents' rows in turn
    for _ in range(2 * rng.DRAW_BLOCK + 11):
        want = [b + draw_index(s.index, m_i) for b, s, m_i in zip(base, scalar, m)]
        assert streams.rows().tolist() == want * replicas


@pytest.mark.parametrize("bad", [0, 6])
def test_swarm_rows_reject_an_out_of_range_draw_naming_its_agent(monkeypatch, bad):
    # agent 2 (m_i = 5) draws one index outside [1, 5] late in the first block
    def stub_indices(stream, m_i):
        if m_i != 5:
            return repeat(1)
        return iter([3] * (rng.DRAW_BLOCK - 7) + [bad] + [2] * 7)

    monkeypatch.setattr(rng, "uniform_indices", stub_indices)
    streams = rng.SwarmStreams(4, (3, 5, 4), (0.3, 0.6))
    with pytest.raises(IndexError, match=rf"agent 2 drew sample index {bad} outside \[1, 5\]"):
        streams.rows()


def test_swarm_buffer_rejects_a_degenerate_probability():
    for p in (0.0, 1.0, (0.5, 1.0), ()):
        with pytest.raises(ValueError):
            rng.SwarmStreams(4, (5, 6), p)


@settings(FIXED_SEED, max_examples=15)
@given(
    m=st.lists(INDEX_RANGES, min_size=1, max_size=5),
    ps=st.lists(PROBABILITIES, min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_swarm_streams_of_several_runs_hand_each_run_its_own_draws(m, ps, seed):
    batch = rng.SwarmStreams(seed, m, ps)
    alone = [rng.SwarmStreams(seed, m, p) for p in ps]
    # past one refill
    for _ in range(rng.DRAW_BLOCK + 37):
        assert batch.coins().tolist() == [c for s in alone for c in s.coins().tolist()]
        assert batch.rows().tolist() == [row for s in alone for row in s.rows().tolist()]
