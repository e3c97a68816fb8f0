import numpy as np

from inforank import (FORCED_OBS, AccuracyReport, ProbMatrix, RankVector,
                      accuracy_report, degree_sequence, make_graph, rescale,
                      solve_ubcm)
from inforank.generators import erdos_renyi, star
from inforank.maxent import solve_classes
from inforank.recon import class_accuracy, solved_pearson

from helpers import relabel
from oracles import expected_accuracy, pearson_two_pass

P4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])


def _pm_from(p, directed=False):
    p = np.asarray(p, dtype=float)
    return ProbMatrix(n=p.shape[0], directed=directed, p=p.copy(),
                      forced=np.zeros(p.shape, dtype=np.int8))


def test_perfect_probabilities_give_accuracy_one():
    g = erdos_renyi(12, 0.3, seed=1)
    assert expected_accuracy(_pm_from(g.adjacency()), g) == 1.0


def test_coin_flip_probabilities_give_half():
    g = erdos_renyi(10, 0.4, seed=2)
    p = np.full((10, 10), 0.5)
    np.fill_diagonal(p, 0.0)
    assert abs(expected_accuracy(_pm_from(p), g) - 0.5) < 1e-12


def test_p4_accuracy_matches_hand_summation():
    _, pm = solve_ubcm(degree_sequence(P4))
    a = P4.adjacency()
    total = 0.0
    for i in range(4):
        for j in range(4):
            if i != j:
                total += a[i, j] * pm.p[i, j] + (1 - a[i, j]) * (1 - pm.p[i, j])
    expect = total / 12.0
    got = class_accuracy(solve_classes(P4))
    assert abs(got - expect) < 1e-12
    assert abs(got - 2.0 / 3.0) < 1e-10  # frozen from the oracle run


def test_accuracy_invariant_under_relabeling():
    g = erdos_renyi(14, 0.3, seed=4)
    base = class_accuracy(solve_classes(g))
    perm = list(np.random.default_rng(5).permutation(14))
    g2 = relabel(g, perm)
    assert abs(class_accuracy(solve_classes(g2)) - base) < 1e-10


def test_node_accuracy_star_center_is_one():
    assert class_accuracy(solve_classes(star(5), [0])) == 1.0


def test_node_accuracy_isolated_appended():
    g = erdos_renyi(15, 0.3, seed=6)
    g_iso = make_graph(16, sorted(g.edges))
    # the isolated node's own rows are exactly known; the rest reduces to
    # the benchmark of the remaining graph
    _, pm = solve_ubcm(degree_sequence(g))
    inner = expected_accuracy(pm, g)
    expect = (inner * (15 * 14) + 2 * 15) / (16 * 15)
    got = class_accuracy(solve_classes(g_iso, [15]))
    assert abs(got - expect) < 1e-8


def test_node_accuracy_p4_end_fully_determined():
    assert class_accuracy(solve_classes(P4, [0])) == 1.0


def test_forced_entries_contribute_exactly_their_count():
    g = erdos_renyi(12, 0.3, seed=7)
    pm = solve_classes(g, [4]).expand()
    a = g.adjacency()
    obs = pm.forced == FORCED_OBS
    terms = a * pm.p + (1 - a) * (1 - pm.p)
    np.fill_diagonal(terms, 1.0)  # diagonal excluded from obs mask anyway
    assert np.all(terms[obs] == 1.0)


def test_pearson_exact_lines():
    x = np.arange(10.0)
    assert abs(solved_pearson(x, 2 * x + 1) - 1.0) < 1e-14
    assert abs(solved_pearson(x, -x) + 1.0) < 1e-14


def test_pearson_matches_two_pass_oracle():
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.normal(size=100)
        y = rng.normal(size=100) + 0.5 * x
        assert abs(solved_pearson(x, y) - pearson_two_pass(x, y)) < 1e-12


def test_pearson_zero_variance_gives_none():
    assert solved_pearson(np.ones(5), np.arange(5.0)) is None
    assert solved_pearson(np.arange(5.0), np.full(5, 2.0)) is None


def test_accuracy_report_constant_rank_flagged_not_fatal():
    g = erdos_renyi(12, 0.3, seed=9)
    const = RankVector("constant", np.ones(12), rescale(np.ones(12)))
    deg = RankVector("degree", degree_sequence(g).k.astype(float),
                     rescale(degree_sequence(g).k.astype(float)))
    rep = accuracy_report(g, [const, deg])
    assert rep.correlations["constant"] is None
    assert rep.correlations["degree"] is not None
    assert np.all((rep.A >= 0) & (rep.A <= 1))
    assert 0 <= rep.A_benchmark <= 1


def test_accuracy_report_skips_nodes_failed_in_a_rank_vector():
    # a rank vector that is NaN at a node (its solve failed) correlates over
    # the other nodes, as accuracy does at its own failed nodes; fewer than
    # two nodes left give None
    acc = np.array([0.9, 0.7, 0.8, 0.6, 0.5])
    scores = np.array([4.0, 2.0, np.nan, 1.0, 0.0])
    ranked = RankVector("inforank", scores, scores / 4.0)
    rep = AccuracyReport.build(0.75, acc, [ranked])
    ok = ~np.isnan(scores)
    assert rep.correlations["inforank"] == solved_pearson(acc[ok],
                                                          ranked.rescaled[ok])
    assert not rep.failed.any()
    lonely = RankVector("lonely", scores, np.array([1.0] + [np.nan] * 4))
    assert AccuracyReport.build(0.75, acc, [lonely]).correlations["lonely"] is None
