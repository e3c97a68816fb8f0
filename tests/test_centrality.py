import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inforank import (InputError, closeness_centrality, degree_centrality,
                      degree_sequence, make_graph, pagerank, rescale)
from inforank.generators import erdos_renyi, star

from oracles import bfs_closeness, pagerank_dense, pagerank_linear


def test_degree_centrality_star():
    ranks = degree_centrality(star(5))
    assert ranks.scores.tolist() == [4, 1, 1, 1, 1]
    assert ranks.rescaled.tolist() == [1, 0, 0, 0, 0]


def test_degree_centrality_directed_uses_out_degree():
    g = make_graph(2, [(0, 1)], directed=True)
    assert degree_centrality(g).scores.tolist() == [1, 0]


def test_degree_centrality_matches_degree_sequence():
    g = erdos_renyi(50, 0.1, seed=1)
    assert np.array_equal(degree_centrality(g).scores, degree_sequence(g).k)
    gd = erdos_renyi(50, 0.1, seed=2, directed=True)
    assert np.array_equal(degree_centrality(gd).scores, degree_sequence(gd).k_out)


def test_closeness_zero_out_degree_scores_zero():
    g = make_graph(3, [(0, 1), (0, 2)], directed=True)
    scores = closeness_centrality(g).scores
    assert scores[1] == 0.0 and scores[2] == 0.0
    assert scores[0] == 1.0


def test_closeness_star_center():
    assert closeness_centrality(star(5)).scores[0] == 1.0


def test_closeness_directed_three_cycle():
    g = make_graph(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    assert np.allclose(closeness_centrality(g).scores, 2.0 / 3.0)


def test_closeness_matches_bfs_oracle():
    for directed in (False, True):
        for seed in (3, 4):
            g = erdos_renyi(120, 0.03, seed=seed, directed=directed)
            expect = bfs_closeness(g.n, sorted(g.edges), directed)
            assert np.array_equal(closeness_centrality(g).scores, expect)


def test_pagerank_teleport_only_uniform():
    g = erdos_renyi(10, 0.3, seed=5, directed=True)
    assert np.all(pagerank(g, alpha=0.0).scores == 0.1)


def test_pagerank_reciprocated_pair_symmetric():
    g = make_graph(2, [(0, 1), (1, 0)], directed=True)
    assert np.allclose(pagerank(g, alpha=0.85).scores, 0.5, atol=1e-14)


def test_pagerank_matches_linear_solve_oracle():
    for directed in (True, False):
        for seed in (6, 7, 8):
            g = erdos_renyi(30, 0.1, seed=seed, directed=directed)
            expect = pagerank_linear(g.n, sorted(g.edges), directed, 0.85)
            got = pagerank(g, alpha=0.85).scores
            assert np.abs(got - expect).max() < 1e-10
            assert abs(got.sum() - 1.0) < 1e-12


def test_pagerank_five_node_directed_instance():
    g = make_graph(5, [(0, 1), (1, 2), (2, 0), (3, 0), (4, 3), (0, 4)],
                   directed=True)
    expect = pagerank_linear(5, sorted(g.edges), True, 0.85)
    assert np.abs(pagerank(g).scores - expect).max() < 1e-10


@st.composite
def dangling_graph(draw):
    """A graph on up to 30 linked nodes whose first nodes have no out-links
    (no links at all when undirected), plus up to 3 isolated nodes."""
    directed = draw(st.booleans())
    n = draw(st.integers(1, 30))
    density = draw(st.sampled_from([0.05, 0.2, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hit = rng.random((n, n)) < density
    hit[:draw(st.integers(0, 3))] = False
    if not directed:
        hit &= hit.T
    edges = [(i, j) for i, j in zip(*np.nonzero(hit))
             if i != j and (directed or i < j)]
    return make_graph(n + draw(st.integers(0, 3)), edges, directed=directed)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(dangling_graph(), st.sampled_from([0.5, 0.85]))
def test_pagerank_matches_dense_oracle_bit_for_bit(g, alpha):
    expect = pagerank_dense(g.n, sorted(g.edges), g.directed, alpha)
    assert np.array_equal(pagerank(g, alpha).scores, expect)


def test_pagerank_rejects_bad_alpha():
    g = star(4)
    with pytest.raises(InputError):
        pagerank(g, alpha=1.0)
    with pytest.raises(InputError):
        pagerank(g, alpha=-0.1)


def test_rescale_affine():
    assert rescale(np.array([1.0, 2.0, 3.0])).tolist() == [0.0, 0.5, 1.0]


def test_rescale_constant_vector():
    assert rescale(np.array([5.0, 5.0, 5.0])).tolist() == [0.0, 0.0, 0.0]


def test_rescale_preserves_order():
    rng = np.random.default_rng(9)
    for _ in range(10):
        v = rng.normal(size=20)
        r = rescale(v)
        assert np.array_equal(np.argsort(v, kind="stable"),
                              np.argsort(r, kind="stable"))
        assert r.min() == 0.0 and r.max() == 1.0


def test_rescale_empty_rejected():
    with pytest.raises(InputError):
        rescale(np.array([]))
