import numpy as np
import pytest

from inforank import (GraphError, ParseError, degree_sequence,
                      load_edge_list, make_graph)
from inforank.cli import EXIT_OK, main
from inforank.generators import (barabasi_albert, erdos_renyi, from_spec,
                                 scale_free_directed)
from inforank.graphs import Graph
from inforank.maxent import solve_classes
from inforank.sampling import class_samples

from helpers import relabel
from oracles import (barabasi_albert_choice, dense_matrix, erdos_renyi_loops,
                     scale_free_directed_choice)


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


@pytest.mark.parametrize("text", ["a b\na #b\n", "a b\n,#b c\n", "a b\nc,#b, 2\n"])
def test_label_beginning_with_hash_rejected(text):
    # written first on an edge line, such a label would make it a comment
    with pytest.raises(ParseError) as exc:
        load_edge_list(text)
    assert exc.value.line == 2
    assert "'#b'" in str(exc.value)


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


def test_round_trip_identity(tmp_path):
    # every file `sample --output-dir` writes loads back through
    # load_edge_list to the edge set it drew, by label
    names = ["ann", "bo", "cy", "dee", "ed", "flo", "gus", "hal", "ida", "jo"]
    rng = np.random.default_rng(0)
    pairs = [(i, j) for i in range(10) for j in range(10)
             if i != j and rng.random() < 0.3]
    path = tmp_path / "edges.txt"
    path.write_text("".join(f"{names[i]},{names[j]}\n" for i, j in pairs))
    cases = [
        (load_edge_list(path.read_text()), ["--input", str(path)], 0, None),
        (load_edge_list(path.read_text(), directed=True),
         ["--input", str(path), "--directed"], 0, [2]),
        (from_spec("ba:30,2", seed=1), ["--generate", "ba:30,2"], 1, None),
        (from_spec("scalefree:20,2", seed=2), ["--generate", "scalefree:20,2"],
         2, [0]),
    ]
    for k, (g, argv, seed, nodes) in enumerate(cases):
        cond = ["--conditioned-on", str(nodes[0])] if nodes else []
        outdir = tmp_path / f"samples{k}"
        assert main(["sample", *argv, *cond, "--seed", str(seed),
                     "--samples", "3", "--output-dir", str(outdir)]) == EXIT_OK
        files = sorted(outdir.iterdir())
        assert len(files) == 3
        sol = solve_classes(g, nodes)
        pair = tuple if g.directed else frozenset
        draws = class_samples(sol, [(seed, t) for t in range(3)])
        for f, (tails, heads) in zip(files, draws, strict=True):
            drawn = {pair((g.label(i), g.label(j))) for i, j in zip(tails, heads)}
            h = load_edge_list(f.read_text(), directed=g.directed)
            assert {pair((h.label(i), h.label(j))) for i, j in h.edges} == drawn


@pytest.mark.parametrize("n, m", [(5, 1), (5, 3), (40, 2), (150, 3), (600, 2)])
def test_attachment_generators_keep_their_streams(n, m):
    # one cumulative sum per arriving node draws what one rng.choice per
    # target drew, and one array draw what one draw per pair drew
    for seed in range(6):
        assert set(barabasi_albert(n, m, seed).edges) == \
            barabasi_albert_choice(n, m, seed)
        assert set(scale_free_directed(n, m, seed).edges) == \
            scale_free_directed_choice(n, m, seed)
    for seed, p in enumerate((0.0, m / n, 1.0)):
        for directed in (False, True):
            assert set(erdos_renyi(n, p, seed, directed).edges) == \
                erdos_renyi_loops(n, p, seed, directed)


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


@pytest.mark.parametrize("argv", [
    ["rank", "--generate", "ba:20,2"],
    ["compare", "--generate", "er:20,0.1", "--directed"],
    ["accuracy", "--generate", "er:20,0.1", "--directed"],
    ["accuracy", "--generate", "ba:20,2"],
    ["sample", "--generate", "scalefree:20,2", "--samples", "2"],
    ["sample", "--generate", "ba:20,2", "--conditioned-on", "0"],
], ids=["rank", "compare-dir", "accuracy-dir", "accuracy", "sample-dir",
        "sample-cond"])
def test_commands_build_no_dense_graph_matrix(argv, monkeypatch):
    # every command but risk reads a graph through graphs.links only
    def refuse(g):
        raise AssertionError("dense graph matrix built")
    monkeypatch.setattr(Graph, "adjacency", refuse)
    monkeypatch.setattr(Graph, "weight_matrix", refuse)
    assert main(argv) == EXIT_OK


def test_dense_matrices_match_loop_oracle():
    rng = np.random.default_rng(11)
    for directed in (True, False):
        g = erdos_renyi(25, 0.2, seed=4, directed=directed)
        links = sorted(g.edges)
        weights = {e: float(rng.uniform(0.5, 3.0)) for e in links[::2]}
        gw = make_graph(g.n, links, directed=directed, weights=weights)
        assert np.array_equal(gw.adjacency(), dense_matrix(g.n, links, directed))
        assert np.array_equal(gw.weight_matrix(),
                              dense_matrix(g.n, links, directed, weights))
        assert np.array_equal(g.weight_matrix(), g.adjacency())


def test_repeated_pair_takes_its_weight_once():
    g = make_graph(3, [(0, 1), (0, 1)], directed=True, weights={(0, 1): 2.0})
    assert g.weights == {(0, 1): 2.0}
    g = make_graph(3, [(0, 1), (0, 1), (1, 0)], weights={(0, 1): 2.0, (1, 0): 0.5})
    assert g.edges == {(0, 1)} and g.weights == {(0, 1): 2.5}
    assert load_edge_list("a b 2\nb a 0.5\n").weights == {(0, 1): 2.5}


def test_weight_off_the_links_rejected():
    with pytest.raises(GraphError):
        Graph(n=3, directed=True, edges=frozenset({(0, 1)}),
              weights={(1, 2): 2.0})


def test_adjacency_returns_a_fresh_copy():
    g = make_graph(3, [(0, 1), (1, 2)])
    a = g.adjacency()
    a[0, 2] = 5.0
    assert g.adjacency()[0, 2] == 0.0
    assert g.adjacency() is not g.adjacency()
