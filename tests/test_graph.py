import numpy as np
import pytest

from gtvr import graph
from helpers import dense_deviation_norm


def sample_topologies(max_n=10):
    out = []
    for n in range(2, max_n + 1):
        out.append(graph.build_topology("ring", n))
        out.append(graph.build_topology("path", n))
        out.append(graph.build_topology("complete", n))
        for seed in (1, 2):
            out.append(graph.build_topology("random", n, p_edge=0.4, seed=seed))
    return out


def test_ring_of_three_is_triangle():
    topo = graph.build_topology("ring", 3)
    assert topo.edges == frozenset({(1, 2), (2, 3), (1, 3)})


def test_path_of_four():
    topo = graph.build_topology("path", 4)
    assert topo.edges == frozenset({(1, 2), (2, 3), (3, 4)})


def test_complete_of_five_has_ten_edges():
    assert len(graph.build_topology("complete", 5).edges) == 10


def test_rejects_fewer_than_two_agents():
    with pytest.raises(ValueError):
        graph.build_topology("ring", 1)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown topology"):
        graph.build_topology("torus", 5)


@pytest.mark.parametrize(
    "kind, n, p_edge",
    [
        ("ring", 1, 0.5),
        ("random", 1, 0.5),
        ("torus", 5, 0.5),
        ("random", 5, 0.0),
        ("random", 5, float("nan")),
        ("random", 5, 1.5),
    ],
)
def test_check_topology_rejects_what_build_topology_rejects(kind, n, p_edge):
    with pytest.raises(ValueError) as built:
        graph.build_topology(kind, n, p_edge=p_edge)
    with pytest.raises(ValueError) as checked:
        graph.check_topology(kind, n, p_edge)
    assert str(checked.value) == str(built.value)


@pytest.mark.parametrize(
    "kind, p_edge",
    # p_edge is read only for a random topology
    [(kind, p) for kind in ("ring", "path", "complete") for p in (0.0, float("nan"), 1.5, -1.0)]
    + [("random", 0.5), ("random", 1.0)],
)
def test_check_topology_accepts_what_build_topology_builds(kind, p_edge):
    graph.check_topology(kind, 4, p_edge)
    assert graph.build_topology(kind, 4, p_edge=p_edge).n == 4


def test_random_topology_deterministic_and_connected():
    a = graph.build_topology("random", 9, p_edge=0.15, seed=7)
    b = graph.build_topology("random", 9, p_edge=0.15, seed=7)
    assert a.edges == b.edges
    # sparse draws rely on the ring repair; every seed must come out connected
    for seed in range(20):
        topo = graph.build_topology("random", 8, p_edge=0.05, seed=seed)
        assert graph._is_connected(topo.n, topo.edges)


def test_metropolis_path3_hand_values():
    w = graph.metropolis_weights(graph.build_topology("path", 3)).w
    third = 1.0 / 3.0
    assert w[0, 1] == pytest.approx(third, abs=1e-15)
    assert w[1, 2] == pytest.approx(third, abs=1e-15)
    assert w[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert w[1, 1] == pytest.approx(third, abs=1e-15)
    assert w[0, 2] == 0.0


def test_metropolis_ring4_all_thirds():
    w = graph.metropolis_weights(graph.build_topology("ring", 4)).w
    for i, j in ((0, 1), (1, 2), (2, 3), (0, 3)):
        assert w[i, j] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert np.allclose(np.diag(w), 1.0 / 3.0, atol=1e-15)


def test_metropolis_complete_uniform():
    n = 6
    w = graph.metropolis_weights(graph.build_topology("complete", n)).w
    assert np.allclose(w, 1.0 / n, atol=1e-15)


def test_metropolis_invariants_on_all_sample_topologies():
    for topo in sample_topologies():
        mixing = graph.metropolis_weights(topo)
        w = mixing.w
        assert (w >= 0.0).all()
        assert (np.diag(w) > 0.0).all()
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12
        assert np.abs(w - w.T).max() <= 1e-12
        support = {
            (i + 1, j + 1)
            for i in range(topo.n)
            for j in range(i + 1, topo.n)
            if mixing.w[i, j] > 0.0
        }
        assert support == set(topo.edges)
        assert 0.0 <= mixing.rho < 1.0


def test_rho_complete_graph_is_zero():
    mixing = graph.metropolis_weights(graph.build_topology("complete", 7))
    assert mixing.rho <= 1e-12
    # with n a power of two the uniform weights are exact binary floats
    assert graph.metropolis_weights(graph.build_topology("complete", 4)).rho == 0.0


def test_rho_path3_is_two_thirds():
    mixing = graph.metropolis_weights(graph.build_topology("path", 3))
    # oracle: full symmetric eigendecomposition of W
    eigs = np.sort(np.linalg.eigvalsh(mixing.w))
    assert np.allclose(eigs, [0.0, 2.0 / 3.0, 1.0], atol=1e-12)
    assert mixing.rho == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_rho_matches_dense_oracle_up_to_n8():
    for topo in sample_topologies(max_n=8):
        mixing = graph.metropolis_weights(topo)
        assert mixing.rho == pytest.approx(dense_deviation_norm(mixing.w), abs=1e-9)


@pytest.mark.parametrize("n", [196, 256])
def test_rho_of_large_ring_matches_closed_form(n):
    # Metropolis weights on a ring are 1/3 everywhere on the band, so the
    # deviation operator's largest eigenvalue is 1/3 + (2/3) cos(2 pi / n)
    mixing = graph.metropolis_weights(graph.build_topology("ring", n))
    assert mixing.rho == pytest.approx(1.0 / 3.0 + (2.0 / 3.0) * np.cos(2.0 * np.pi / n), abs=1e-12)


def test_mix_keeps_constant_rows():
    mixing = graph.metropolis_weights(graph.build_topology("ring", 5))
    x = np.tile(np.array([2.5, -1.0, 0.25]), (5, 1))
    assert np.abs(graph.mix(mixing, x) - x).max() <= 1e-15


def test_mix_preserves_column_means():
    rng = np.random.default_rng(0)
    for topo in (graph.build_topology("ring", 6), graph.build_topology("random", 7, 0.5, 1)):
        mixing = graph.metropolis_weights(topo)
        for _ in range(25):
            x = rng.normal(size=(topo.n, 4))
            mixed = graph.mix(mixing, x)
            assert np.abs(mixed.mean(axis=0) - x.mean(axis=0)).max() <= 1e-12


def test_mix_contracts_deviation():
    rng = np.random.default_rng(1)
    for topo in sample_topologies(max_n=6):
        mixing = graph.metropolis_weights(topo)
        for _ in range(50):
            x = rng.normal(size=(topo.n, 3))
            dev = x - x.mean(axis=0)
            lhs = np.linalg.norm(graph.mix(mixing, dev) - 0.0)
            rhs = mixing.rho * np.linalg.norm(dev)
            assert lhs <= rhs * (1.0 + 1e-10) + 1e-13 * np.linalg.norm(dev)


def test_mix_rejects_bad_shape():
    mixing = graph.metropolis_weights(graph.build_topology("ring", 4))
    with pytest.raises(ValueError):
        graph.mix(mixing, np.zeros((3, 2)))
