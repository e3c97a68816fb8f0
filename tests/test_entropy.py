from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from inforank import (ProbMatrix, SolverOptions, UndefinedIndexError,
                      approx_meanfield, approx_sparse, benchmark_entropy,
                      degree_sequence, expected_accuracy, inforank,
                      inforank_subset, make_graph, maxent,
                      solve_conditioned_set, solve_dbcm, solve_ubcm)
from inforank.entropy import (DEFAULT_LIMIT_EPS, _h, class_contributions,
                              class_entropy, conditioned_pass)
from inforank.graphs import DegreeSeq
from inforank.generators import (barabasi_albert, erdos_renyi, ring_lattice,
                                 scale_free_directed, star)
from inforank.recon import class_accuracy

from helpers import relabel, small_graph
from oracles import entropy_direct

H_EPS = float(_h(1.0 - DEFAULT_LIMIT_EPS))  # entropy floor of one boundary-pinned entry
P4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])


def _probmatrix(p, directed=False):
    p = np.asarray(p, dtype=float)
    return ProbMatrix(n=p.shape[0], directed=directed, p=p.copy(),
                      forced=np.zeros(p.shape, dtype=np.int8))


def test_benchmark_entropy_all_zero():
    s0, contrib = benchmark_entropy(_probmatrix(np.zeros((4, 4))))
    assert s0 == 0.0 and np.all(contrib == 0.0)


def test_benchmark_entropy_single_fair_pair():
    p = np.array([[0.0, 0.5], [0.5, 0.0]])
    s0, contrib = benchmark_entropy(_probmatrix(p))
    assert abs(s0 - np.log(2)) < 1e-15
    assert np.allclose(contrib, np.log(2))


def test_benchmark_entropy_p4_matches_direct_summation():
    _, pm = solve_ubcm(degree_sequence(P4))
    s0, contrib = benchmark_entropy(pm)
    assert abs(s0 - entropy_direct(pm.p, directed=False)) < 1e-12
    assert abs(s0 - 4 * np.log(2)) < 1e-12  # four free half-half pairs


def test_decomposition_identity():
    for g in (P4, star(9), erdos_renyi(40, 0.2, seed=1),
              erdos_renyi(40, 0.1, seed=2, directed=True)):
        from inforank import solve_benchmark
        pm = solve_benchmark(g)
        s0, contrib = benchmark_entropy(pm)
        assert abs(s0 - 0.5 * contrib.sum()) < 1e-10


def test_conditioned_entropy_star_center_zero():
    assert benchmark_entropy(solve_conditioned_set(star(5), [0]))[0] == 0.0


def test_conditioned_entropy_isolated_equals_benchmark():
    g = erdos_renyi(25, 0.2, seed=3)
    from inforank import solve_benchmark
    s0 = benchmark_entropy(solve_benchmark(g))[0]
    g_iso = make_graph(26, sorted(g.edges))
    s_iso = benchmark_entropy(solve_conditioned_set(g_iso, [25]))[0]
    assert abs(s_iso - s0) < 1e-7


def test_conditioned_entropy_p4_end_strict_convention():
    # the reduced (1,2,1) system saturates: literal summation gives zero
    assert benchmark_entropy(solve_conditioned_set(P4, [0]))[0] == 0.0


def test_inforank_star_center_maximal():
    for n in (5, 9):
        rep = inforank(star(n))
        assert int(np.argmax(rep.I)) == 0
        assert abs(rep.I[0] - 1.0) < 1e-12
        assert np.allclose(rep.I[1:], 1.0 / (n - 1), atol=1e-9)


def test_inforank_isolated_node_scores_zero():
    g = erdos_renyi(30, 0.15, seed=5)
    g_iso = make_graph(31, sorted(g.edges))
    rep = inforank(g_iso)
    assert abs(rep.I[30]) <= 1e-8


def test_inforank_p4_matches_composition_oracle():
    # compose the oracle from the benchmark entropy and the per-node
    # conditioned entropies, using the same boundary floor as the report
    from inforank import solve_benchmark
    pm = solve_benchmark(P4)
    s0 = benchmark_entropy(pm, limit_eps=DEFAULT_LIMIT_EPS)[0]
    expected = np.array([
        1.0 - benchmark_entropy(solve_conditioned_set(P4, [i]),
                                limit_eps=DEFAULT_LIMIT_EPS)[0] / s0
        for i in range(4)])
    rep = inforank(P4)
    assert np.abs(rep.I - expected).max() < 1e-12
    # conditioning on any single node pins the whole path, so every score
    # sits within a boundary-floor term of 1; middles edge out the ends
    assert np.all(rep.I > 1.0 - 1e-8)
    assert rep.I[1] > rep.I[0] and rep.I[2] > rep.I[3]
    assert np.allclose(rep.S_cond, [2 * H_EPS, H_EPS, H_EPS, 2 * H_EPS], rtol=1e-9)


def test_inforank_undefined_on_complete_and_empty():
    with pytest.raises(UndefinedIndexError):
        inforank(make_graph(3, [(0, 1), (0, 2), (1, 2)]))
    with pytest.raises(UndefinedIndexError):
        inforank(make_graph(4, []))


def test_inforank_flags_per_node_failures(monkeypatch):
    g = erdos_renyi(12, 0.3, seed=7)
    import inforank.entropy as entropy_mod
    real = entropy_mod.solve_each_conditioned

    def flaky(graph, opts=None):
        for i, pm in real(graph, opts):
            yield i, None if i == 3 else pm

    monkeypatch.setattr(entropy_mod, "solve_each_conditioned", flaky)
    rep = inforank(g)
    assert rep.failed[3] and not rep.failed[[i for i in range(12) if i != 3]].any()
    assert np.isnan(rep.I[3])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_graph(), st.sampled_from([1, 40, maxent.STACK_ELEMENTS]))
def test_stacked_pass_matches_single_solves(case, budget):
    # stacks of every size from one system up, split by the element budget
    g, _ = case
    with mock.patch.object(maxent, "STACK_ELEMENTS", budget):
        s_cond, acc = conditioned_pass(
            g, (lambda i, sol: class_entropy(sol, DEFAULT_LIMIT_EPS),
                lambda i, sol: class_accuracy(sol)))
    for i in range(g.n):
        sol = maxent.solve_classes(g, [i])
        assert s_cond[i] == class_entropy(sol, DEFAULT_LIMIT_EPS)
        assert acc[i] == class_accuracy(sol)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_graph(), st.sampled_from([1, 40, maxent.STACK_ELEMENTS]))
@example((barabasi_albert(40, 3, seed=1), 0), 400)
@example((erdos_renyi(30, 0.15, seed=2, directed=True), 0), 40)
def test_stacks_hold_one_class_count_within_budget(case, budget):
    # every stack that reaches the fixed-point loops is unpadded, of one
    # class count C, and holds max(1, budget // C^2) systems, the last
    # stack of each C at most that many
    g, _ = case
    stacks = []
    real = maxent._solve_systems

    def record(systems, *args):
        stacks.append([len(s.m) for s in systems])
        return real(systems, *args)

    with mock.patch.object(maxent, "STACK_ELEMENTS", budget), \
            mock.patch.object(maxent, "_solve_systems", record):
        assert len(list(maxent.solve_each_conditioned(g))) == g.n
    assert sum(map(len, stacks)) == g.n
    sizes = {}
    for counts in stacks:
        assert counts == [counts[0]] * len(counts)
        sizes.setdefault(counts[0], []).append(len(counts))
    for c, got in sizes.items():
        full = max(1, budget // (c * c))
        assert got[:-1] == [full] * (len(got) - 1) and got[-1] <= full


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_graph(), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, DEFAULT_LIMIT_EPS]))
def test_class_scoring_matches_dense_scoring(case, draw_seed, eps):
    # the benchmark, a one-node set and a larger set, scored on classes and
    # on the expanded ProbMatrix by the dense oracle
    g, node = case
    rng = np.random.default_rng(draw_seed)
    big = rng.choice(g.n, size=int(rng.integers(min(2, g.n - 1), g.n)),
                     replace=False)
    for nodes in (None, [node], big.tolist()):
        sol = maxent.solve_classes(g, nodes)
        pm = sol.expand()
        s, contrib = class_entropy(sol, eps), class_contributions(sol, eps)
        s_dense, contrib_dense = benchmark_entropy(pm, eps)
        np.testing.assert_allclose(s, s_dense, rtol=1e-12, atol=0)
        np.testing.assert_allclose(contrib, contrib_dense, rtol=1e-12, atol=0)
        np.testing.assert_allclose(class_accuracy(sol), expected_accuracy(pm, g),
                                   rtol=1e-12, atol=0)


def _conditioned_iterations(g):
    """Iterations and class count of each node's conditioned system, solved
    on its own as the degree sequence of the other nodes."""
    a = g.adjacency().astype(np.int64)
    iterations, classes = [], []
    for i in range(g.n):
        rest = np.delete(np.delete(a, i, axis=0), i, axis=1)
        k_out, k_in = rest.sum(axis=1), rest.sum(axis=0)
        if g.directed:
            deg = DegreeSeq(directed=True, L=int(k_out.sum()), k_out=k_out, k_in=k_in)
            iterations.append(solve_dbcm(deg)[0].iterations)
        else:
            deg = DegreeSeq(directed=False, L=int(k_out.sum()) // 2, k=k_out)
            iterations.append(solve_ubcm(deg)[0].iterations)
        classes.append(len(set(zip(k_out, k_in))))
    return np.array(iterations), np.array(classes)


@pytest.mark.parametrize("g", [barabasi_albert(40, 3, seed=1),
                               scale_free_directed(30, 2, seed=2)],
                         ids=["ba-40-3", "sf-dir-30-2"])
def test_capped_stack_fails_only_the_slow_nodes(g):
    iterations, classes = _conditioned_iterations(g)
    # cap at the benchmark's own count, which lies inside the nodes' range
    cap = (solve_dbcm if g.directed else solve_ubcm)(degree_sequence(g))[0].iterations
    slow = iterations > cap
    assert any(0 < slow[classes == c].sum() < (classes == c).sum()
               for c in np.unique(classes))

    full = dict(maxent.solve_each_conditioned(g))
    capped = dict(maxent.solve_each_conditioned(
        g, SolverOptions(max_iterations=cap)))
    for i in range(g.n):
        # a system that converges early keeps its iterates while the rest of
        # its stack goes on
        assert np.array_equal(full[i].expand().p,
                              solve_conditioned_set(g, [i]).p)
        if slow[i]:
            assert capped[i] is None
        else:
            assert np.array_equal(capped[i].p, full[i].p)
            assert np.array_equal(capped[i].forced, full[i].forced)

    rep = inforank(g, SolverOptions(max_iterations=cap))
    ref = inforank(g)
    assert np.array_equal(rep.failed, slow)
    assert np.isnan(rep.S_cond[slow]).all() and np.isnan(rep.I[slow]).all()
    assert np.array_equal(rep.S_cond[~slow], ref.S_cond[~slow])
    assert np.array_equal(rep.I[~slow], ref.I[~slow])


def test_inforank_relabel_equivariance():
    g = erdos_renyi(18, 0.25, seed=9)
    perm = list(np.random.default_rng(2).permutation(18))
    rep = inforank(g)
    rep2 = inforank(relabel(g, perm))
    for i in range(18):
        assert abs(rep.I[i] - rep2.I[perm[i]]) < 1e-8


def test_subset_single_node_consistency():
    g = erdos_renyi(15, 0.3, seed=10)
    rep = inforank(g)
    for node in (0, 7):
        assert abs(inforank_subset(g, [node]) - rep.I[node]) < 1e-12


def test_subset_all_but_one_is_one():
    g = erdos_renyi(10, 0.4, seed=11)
    assert inforank_subset(g, list(range(9))) == 1.0


def test_subset_p4_middle_pair():
    # pinning both middle nodes leaves only the end-end pair, with reduced
    # degrees zero: the remainder is deterministic
    assert inforank_subset(P4, [1, 2]) == 1.0


def test_subset_monotone_under_nesting():
    g = erdos_renyi(14, 0.3, seed=12)
    rng = np.random.default_rng(3)
    for _ in range(5):
        small = sorted(rng.choice(14, size=2, replace=False).tolist())
        big = sorted(set(small) | {int(rng.integers(14))})
        if len(big) == len(small):
            continue
        assert inforank_subset(g, big) >= inforank_subset(g, small) - 1e-8


def test_entropy_inequality_random_graphs():
    for seed in range(4):
        g = erdos_renyi(25, 0.2, seed=100 + seed)
        rep = inforank(g)
        assert np.all(rep.S_cond <= rep.S0 + 1e-8)
        assert np.all(rep.I >= -1e-8) and np.all(rep.I <= 1.0 + 1e-12)


def test_approx_sparse_values():
    deg = degree_sequence(erdos_renyi(30, 0.2, seed=13))
    ap = approx_sparse(deg)
    assert np.all(ap[deg.k == 0] == 0.0)
    two_l = 2.0 * deg.L
    i = int(np.argmax(deg.k))
    expect = -deg.k[i] * np.log(deg.k[i] / np.sqrt(two_l)) + deg.k[i]
    assert abs(ap[i] - expect) < 1e-12


def test_approx_sparse_identity_at_sqrt_2l():
    # a node with k = sqrt(2L) has vanishing log term, so the estimate is k
    from inforank.graphs import DegreeSeq
    k = np.array([4, 2, 2, 2, 2, 2, 1, 1], dtype=np.int64)  # 2L = 16, sqrt = 4
    deg = DegreeSeq(directed=False, L=8, k=k)
    assert abs(approx_sparse(deg)[0] - 4.0) < 1e-12


def test_approx_meanfield_half_degree_maximum():
    from inforank.graphs import DegreeSeq
    n = 21
    k = np.zeros(n, dtype=np.int64)
    k[0] = k[1] = (n - 1) // 2
    deg = DegreeSeq(directed=False, L=int(k.sum()) // 2, k=k)
    mf = approx_meanfield(deg)
    assert abs(mf[0] - (n - 1) * np.log(2)) < 1e-12
    assert mf.max() == mf[0]


def test_approx_meanfield_boundary_zero():
    from inforank.graphs import DegreeSeq
    k = np.array([0, 4, 2, 2], dtype=np.int64)
    deg = DegreeSeq(directed=False, L=4, k=k)
    mf = approx_meanfield(deg)
    assert mf[0] == 0.0            # k = 0
    g = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    mfc = approx_meanfield(degree_sequence(g))
    assert np.all(mfc == 0.0)      # k = n-1


def test_approx_meanfield_exact_on_regular_ring():
    g = ring_lattice(30, 4)
    deg = degree_sequence(g)
    _, pm = solve_ubcm(deg)
    _, contrib = benchmark_entropy(pm)
    mf = approx_meanfield(deg)
    assert np.abs(mf - contrib).max() < 1e-6
