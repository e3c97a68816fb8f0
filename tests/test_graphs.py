import io

import numpy as np
import pytest

from inforank import (GraphError, ParseError, degree_sequence,
                      expected_accuracy, load_edge_list, make_graph,
                      serialize_edge_list)
from inforank.entropy import ranking_pass
from inforank.generators import erdos_renyi
from inforank.graphs import Graph

from helpers import relabel


def test_load_two_edge_path():
    g = load_edge_list("a b\nb c")
    assert g.n == 3 and not g.directed
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.labels == ("a", "b", "c")


def test_load_directed_reciprocated_pair():
    g = load_edge_list("a b\nb a", directed=True)
    assert g.n == 2
    assert g.edges == frozenset({(0, 1), (1, 0)})


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        load_edge_list("a a")


def test_empty_input_rejected():
    with pytest.raises(GraphError):
        load_edge_list("")
    with pytest.raises(GraphError):
        load_edge_list("# only a comment\n")


def test_malformed_line_reports_number():
    with pytest.raises(ParseError) as exc:
        load_edge_list("a b\nc\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        load_edge_list("a b notanumber")


def test_comma_separator_and_comments():
    g = load_edge_list("# header\na,b\nb,c, 2.5\n")
    assert g.n == 3
    assert g.weights == {(1, 2): 2.5}


def test_duplicate_edges_deduplicated_weights_summed():
    g = load_edge_list("a b 1\nb a 2\n")
    assert g.m == 1
    assert g.weights == {(0, 1): 3.0}
    gd = load_edge_list("a b\na b\n", directed=True)
    assert gd.m == 1


def test_first_appearance_ordering():
    g = load_edge_list("z y\ny x\n")
    assert g.labels == ("z", "y", "x")


def test_round_trip_identity():
    rng = np.random.default_rng(0)
    for directed in (False, True):
        edges = set()
        while len(edges) < 30:
            i, j = rng.integers(0, 15, 2)
            if i != j:
                edges.add((int(i), int(j)) if directed else (min(i, j), max(i, j)))
        g = make_graph(15, sorted(edges), directed=directed)
        g2 = load_edge_list(io.StringIO(serialize_edge_list(g)), directed=directed)
        assert g2.n == g.n and g2.directed == g.directed
        if directed:
            original = {(g.label(i), g.label(j)) for i, j in g.edges}
            loaded = {(g2.label(i), g2.label(j)) for i, j in g2.edges}
        else:
            original = {frozenset((g.label(i), g.label(j))) for i, j in g.edges}
            loaded = {frozenset((g2.label(i), g2.label(j))) for i, j in g2.edges}
        assert original == loaded


def test_degree_sequence_path_and_star():
    g = load_edge_list("a b\nb c")
    deg = degree_sequence(g)
    assert deg.k.tolist() == [1, 2, 1] and deg.L == 2

    star = make_graph(5, [(0, i) for i in range(1, 5)])
    deg = degree_sequence(star)
    assert deg.k.tolist() == [4, 1, 1, 1, 1] and deg.L == 4


def test_degree_sequence_directed():
    g = load_edge_list("a b\na c", directed=True)
    deg = degree_sequence(g)
    assert deg.k_out.tolist() == [2, 0, 0]
    assert deg.k_in.tolist() == [0, 1, 1]
    assert deg.L == 2


def test_degree_sum_identities_random():
    rng = np.random.default_rng(3)
    for trial in range(5):
        n = int(rng.integers(5, 40))
        p = 0.2
        und = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = make_graph(n, und)
        deg = degree_sequence(g)
        assert deg.k.sum() == 2 * deg.L
        a = g.adjacency()
        assert np.array_equal(deg.k, a.sum(axis=1))
        assert np.array_equal(deg.k, a.sum(axis=0))

        drc = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
        gd = make_graph(n, drc, directed=True)
        degd = degree_sequence(gd)
        assert degd.k_out.sum() == degd.L == degd.k_in.sum()
        a = gd.adjacency()
        assert np.array_equal(degd.k_out, a.sum(axis=1))
        assert np.array_equal(degd.k_in, a.sum(axis=0))


def test_out_of_range_edge_rejected():
    with pytest.raises(GraphError):
        make_graph(2, [(0, 5)])


def test_relabel_permutes_degrees():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    perm = [2, 0, 3, 1]
    g2 = relabel(g, perm)
    k1 = degree_sequence(g).k
    k2 = degree_sequence(g2).k
    for i in range(4):
        assert k1[i] == k2[perm[i]]


def test_adjacency_built_once_per_graph(monkeypatch):
    # the conditioned pass and its accuracy scorer ask for the adjacency of
    # the same graph once per node; it is built on the first call only
    builds = []
    build = Graph._adjacency.func
    monkeypatch.setattr(Graph._adjacency, "func",
                        lambda g: builds.append(g) or build(g))
    g = erdos_renyi(20, 0.2, seed=3, directed=True)
    _, _, (acc,) = ranking_pass(
        g, (lambda i, sol: expected_accuracy(sol.expand(), g),))
    assert not np.isnan(acc).any()
    assert builds == [g]


def test_adjacency_returns_a_fresh_copy():
    g = make_graph(3, [(0, 1), (1, 2)])
    a = g.adjacency()
    a[0, 2] = 5.0
    assert g.adjacency()[0, 2] == 0.0
    assert g.adjacency() is not g.adjacency()
