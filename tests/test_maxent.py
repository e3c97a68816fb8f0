import numpy as np
import pytest

from inforank import (FORCED_LIM, FORCED_OBS, FREE, InputError, SolverError,
                      SolverOptions, degree_sequence, make_graph,
                      solve_conditioned_set, solve_dbcm, solve_ubcm)
from inforank.graphs import DegreeSeq, relabel
from inforank.generators import erdos_renyi, star

from oracles import dbcm_fixed_point, p4_bisection, reduced_131_bisection

P4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])

# frozen from the bisection oracle (saturation limit of the k=(1,2,2,1)
# system): p_end_mid = 1/2, p_mid_mid = 1, p_end_end = 0
P4_END_MID = 0.5
P4_MID_MID = 1.0
P4_END_END = 0.0


def test_ubcm_all_zero_degrees():
    deg = DegreeSeq(directed=False, L=0, k=np.zeros(3, dtype=np.int64))
    params, pm = solve_ubcm(deg)
    assert np.all(pm.p == 0.0)
    assert np.all(params.x == 0.0)
    assert params.residual == 0.0


def test_ubcm_complete_graph_forced():
    deg = DegreeSeq(directed=False, L=3, k=np.array([2, 2, 2], dtype=np.int64))
    _, pm = solve_ubcm(deg)
    off = ~np.eye(3, dtype=bool)
    assert np.all(pm.p[off] == 1.0)
    assert np.all(pm.forced[off] == FORCED_LIM)


def test_ubcm_p4_matches_bisection_oracle():
    p_ab, p_bb, p_aa = p4_bisection()
    assert abs(p_ab - P4_END_MID) < 1e-8
    assert abs(p_bb - P4_MID_MID) < 1e-8
    assert abs(p_aa - P4_END_END) < 1e-8

    _, pm = solve_ubcm(degree_sequence(P4))
    for i, j, expect in [(0, 1, P4_END_MID), (0, 2, P4_END_MID),
                         (3, 1, P4_END_MID), (3, 2, P4_END_MID),
                         (1, 2, P4_MID_MID), (0, 3, P4_END_END)]:
        assert abs(pm.p[i, j] - expect) < 1e-8


def test_ubcm_residuals_on_random_instances():
    rng = np.random.default_rng(11)
    for trial in range(6):
        n = int(rng.integers(20, 200))
        g = erdos_renyi(n, 0.1, seed=int(rng.integers(1 << 30)))
        deg = degree_sequence(g)
        _, pm = solve_ubcm(deg)
        assert np.abs(pm.row_sums() - deg.k).max() <= 1e-10
        assert np.array_equal(pm.p, pm.p.T)


def test_odd_degree_sum_rejected():
    # an odd-parity sequence cannot even be constructed: sum k = 2L is a
    # DegreeSeq invariant, so the infeasible input errors at the type level
    from inforank import GraphError
    with pytest.raises(GraphError):
        DegreeSeq(directed=False, L=1, k=np.array([1, 1, 1], dtype=np.int64))


def test_ubcm_infeasible_saturation():
    # node 0 needs 3 partners but node 3 has no stubs
    deg = DegreeSeq(directed=False, L=3, k=np.array([3, 2, 1, 0], dtype=np.int64))
    with pytest.raises(InputError):
        solve_ubcm(deg)


def test_ubcm_threshold_sequence_resolves_exactly():
    # (6,6,3,3,2,2,2) meets its prefix bound with equality at s=2 and has a
    # unique realization; the solver must pin the whole matrix
    k = np.array([6, 6, 3, 3, 2, 2, 2], dtype=np.int64)
    deg = DegreeSeq(directed=False, L=int(k.sum()) // 2, k=k)
    _, pm = solve_ubcm(deg)
    assert set(np.unique(pm.p)) <= {0.0, 1.0}
    assert np.array_equal(pm.row_sums(), k)
    expect = np.zeros((7, 7))
    expect[0, 1:] = expect[1:, 0] = 1.0
    expect[1, :] = expect[:, 1] = 1.0
    expect[2, 3] = expect[3, 2] = 1.0
    expect[0, 0] = expect[1, 1] = 0.0
    expect[1, 0] = expect[0, 1] = 1.0
    np.fill_diagonal(expect, 0.0)
    assert np.array_equal(pm.p, expect)


def test_ubcm_permutation_equivariance():
    g = erdos_renyi(25, 0.2, seed=5)
    perm = list(np.random.default_rng(1).permutation(25))
    g2 = relabel(g, perm)
    _, pm = solve_ubcm(degree_sequence(g))
    _, pm2 = solve_ubcm(degree_sequence(g2))
    for i in range(25):
        for j in range(25):
            if i != j:
                assert abs(pm.p[i, j] - pm2.p[perm[i], perm[j]]) < 1e-8


def test_ubcm_monotone_reconvergence_after_adding_edge():
    g = erdos_renyi(30, 0.15, seed=9)
    deg = degree_sequence(g)
    _, pm = solve_ubcm(deg)
    missing = [(i, j) for i in range(30) for j in range(i + 1, 30)
               if not g.has_edge(i, j)][0]
    g2 = make_graph(30, sorted(g.edges | {missing}))
    deg2 = degree_sequence(g2)
    _, pm2 = solve_ubcm(deg2)
    assert np.abs(pm2.row_sums() - deg2.k).max() <= 1e-10
    i = missing[0]
    assert pm2.row_sums()[i] > pm.row_sums()[i]


def test_dbcm_all_zero():
    deg = DegreeSeq(directed=True, L=0, k_out=np.zeros(4, dtype=np.int64),
                    k_in=np.zeros(4, dtype=np.int64))
    _, pm = solve_dbcm(deg)
    assert np.all(pm.p == 0.0)


def test_dbcm_reciprocated_pair_forced():
    g = make_graph(2, [(0, 1), (1, 0)], directed=True)
    _, pm = solve_dbcm(degree_sequence(g))
    assert pm.p[0, 1] == 1.0 and pm.p[1, 0] == 1.0
    assert pm.forced[0, 1] == FORCED_LIM


def test_dbcm_three_cycle_matches_fixed_point_oracle():
    g = make_graph(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    deg = degree_sequence(g)
    oracle = dbcm_fixed_point(deg.k_out, deg.k_in)
    _, pm = solve_dbcm(deg)
    assert np.abs(pm.p - oracle).max() < 1e-10
    off = ~np.eye(3, dtype=bool)
    assert np.allclose(pm.p[off], 0.5, atol=1e-10)


def test_dbcm_residuals_and_sum_mismatch():
    g = erdos_renyi(60, 0.08, seed=17, directed=True)
    deg = degree_sequence(g)
    _, pm = solve_dbcm(deg)
    assert np.abs(pm.row_sums() - deg.k_out).max() <= 1e-10
    assert np.abs(pm.col_sums() - deg.k_in).max() <= 1e-10

    from inforank import GraphError
    with pytest.raises(GraphError):
        DegreeSeq(directed=True, L=2, k_out=np.array([2, 0], dtype=np.int64),
                  k_in=np.array([0, 1], dtype=np.int64))


def test_conditioned_star_center_deterministic_remainder():
    g = star(5)
    pm = solve_conditioned_set(g, [0])
    assert np.all(pm.p[0, 1:] == 1.0)
    sub = pm.p[1:, 1:]
    assert np.all(sub == 0.0)
    assert np.all(pm.forced[0, 1:] == FORCED_OBS)
    assert np.all(pm.forced[1:, 1:][~np.eye(4, dtype=bool)] == FREE)


def test_conditioned_isolated_node_equals_restricted_benchmark():
    g = erdos_renyi(20, 0.3, seed=2)
    g_iso = make_graph(21, sorted(g.edges))
    pm_cond = solve_conditioned_set(g_iso, [20])
    _, pm_bench = solve_ubcm(degree_sequence(g))
    assert np.abs(pm_cond.p[:20, :20] - pm_bench.p).max() < 1e-8
    assert np.all(pm_cond.p[20, :] == 0.0)


def test_conditioned_p4_end_matches_reduced_oracle():
    p_em, p_ee = reduced_131_bisection()
    assert abs(p_em - 1.0) < 1e-8 and abs(p_ee - 0.0) < 1e-8
    pm = solve_conditioned_set(P4, [0])
    # remaining system (nodes 1,2,3 with reduced degrees 1,2,1) saturates
    assert pm.p[2, 1] == 1.0 and pm.p[2, 3] == 1.0
    assert pm.p[1, 3] == 0.0
    assert np.all(pm.forced[0, 1:] == FORCED_OBS)


def test_conditioned_forced_entries_match_adjacency_bit_exact():
    for directed in (False, True):
        g = erdos_renyi(15, 0.25, seed=4, directed=directed)
        a = g.adjacency()
        for node in (0, 7):
            pm = solve_conditioned_set(g, [node])
            assert np.all(pm.p[node, :] == a[node, :])
            assert np.all(pm.p[:, node] == a[:, node])


def test_conditioned_set_validation():
    with pytest.raises(InputError):
        solve_conditioned_set(P4, [])
    with pytest.raises(InputError):
        solve_conditioned_set(P4, [0, 1, 2, 3])
    with pytest.raises(InputError):
        solve_conditioned_set(P4, [9])


def test_conditioned_nonconvergence_names_node():
    g = erdos_renyi(30, 0.2, seed=8)
    with pytest.raises(SolverError) as exc:
        solve_conditioned_set(g, [3], SolverOptions(tolerance=1e-10, max_iterations=2))
    assert exc.value.node == 3

