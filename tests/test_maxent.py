import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inforank import (FORCED_LIM, FORCED_OBS, FREE, InputError, ProbMatrix,
                      SolverError, SolverOptions, UndefinedIndexError,
                      degree_sequence, inforank, inforank_subset, make_graph,
                      maxent, solve_benchmark, solve_dbcm, solve_ubcm)
from inforank.cli import EXIT_CONFIG, main
from inforank.graphs import DegreeSeq
from inforank.generators import barabasi_albert, erdos_renyi, star

from helpers import (FACES, col_sums, face_adjacency, relabel, row_sums,
                     small_graph)
from oracles import (classes, dbcm_fixed_point, dense_dbcm, dense_ubcm,
                     node_pins, p4_bisection, pair_ranges,
                     reduced_131_bisection, step_directed, step_undirected,
                     tight_cut)

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


def test_empty_sequence_and_matrix_raise_input_error():
    with pytest.raises(InputError):
        solve_ubcm(DegreeSeq(directed=False, L=0, k=np.zeros(0, dtype=np.int64)))
    with pytest.raises(InputError):
        ProbMatrix(n=0, directed=False, p=np.zeros((0, 0)),
                   forced=np.zeros((0, 0), dtype=np.int8))


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
        assert np.abs(row_sums(pm) - deg.k).max() <= 1e-10
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
    assert np.array_equal(row_sums(pm), k)
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
               if (i, j) not in g.edges][0]
    g2 = make_graph(30, sorted(g.edges | {missing}))
    deg2 = degree_sequence(g2)
    _, pm2 = solve_ubcm(deg2)
    assert np.abs(row_sums(pm2) - deg2.k).max() <= 1e-10
    i = missing[0]
    assert row_sums(pm2)[i] > row_sums(pm)[i]


@pytest.mark.parametrize("bad", [np.nan, -0.5, 1.5])
def test_probmatrix_rejects_entries_outside_unit_interval(bad):
    p = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(InputError):
        ProbMatrix(n=2, directed=False, p=p, forced=np.zeros((2, 2), np.int8))


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
    assert np.abs(row_sums(pm) - deg.k_out).max() <= 1e-10
    assert np.abs(col_sums(pm) - deg.k_in).max() <= 1e-10

    from inforank import GraphError
    with pytest.raises(GraphError):
        DegreeSeq(directed=True, L=2, k_out=np.array([2, 0], dtype=np.int64),
                  k_in=np.array([0, 1], dtype=np.int64))


def test_conditioned_star_center_deterministic_remainder():
    g = star(5)
    pm = maxent.solve_classes(g, [0]).expand()
    assert np.all(pm.p[0, 1:] == 1.0)
    sub = pm.p[1:, 1:]
    assert np.all(sub == 0.0)
    assert np.all(pm.forced[0, 1:] == FORCED_OBS)
    assert np.all(pm.forced[1:, 1:][~np.eye(4, dtype=bool)] == FREE)


def test_conditioned_isolated_node_equals_restricted_benchmark():
    g = erdos_renyi(20, 0.3, seed=2)
    g_iso = make_graph(21, sorted(g.edges))
    pm_cond = maxent.solve_classes(g_iso, [20]).expand()
    _, pm_bench = solve_ubcm(degree_sequence(g))
    assert np.abs(pm_cond.p[:20, :20] - pm_bench.p).max() < 1e-8
    assert np.all(pm_cond.p[20, :] == 0.0)


def test_conditioned_p4_end_matches_reduced_oracle():
    p_em, p_ee = reduced_131_bisection()
    assert abs(p_em - 1.0) < 1e-8 and abs(p_ee - 0.0) < 1e-8
    pm = maxent.solve_classes(P4, [0]).expand()
    # remaining system (nodes 1,2,3 with reduced degrees 1,2,1) saturates
    assert pm.p[2, 1] == 1.0 and pm.p[2, 3] == 1.0
    assert pm.p[1, 3] == 0.0
    assert np.all(pm.forced[0, 1:] == FORCED_OBS)


def test_conditioned_forced_entries_match_adjacency_bit_exact():
    for directed in (False, True):
        g = erdos_renyi(15, 0.25, seed=4, directed=directed)
        a = g.adjacency()
        for node in (0, 7):
            pm = maxent.solve_classes(g, [node]).expand()
            assert np.all(pm.p[node, :] == a[node, :])
            assert np.all(pm.p[:, node] == a[:, node])


def test_conditioned_set_validation(monkeypatch):
    def solve(*args):
        raise AssertionError("a solve ran before the set was checked")

    monkeypatch.setattr(maxent, "_solve_systems", solve)
    for bad in ([], [0, 1, 2, 3], [9]):
        with pytest.raises(InputError):
            maxent.solve_classes(P4, bad)
        with pytest.raises(InputError):
            inforank_subset(P4, bad)


@pytest.mark.parametrize("g", [barabasi_albert(40, 3, seed=1),
                               erdos_renyi(30, 0.15, seed=2, directed=True)],
                         ids=["ba-40-3", "er-dir-30"])
def test_each_conditioned_system_classified_once(monkeypatch, g):
    # n rows classified in chunks of at most CHUNK_ELEMENTS // n, one per
    # node, and each node's solution handed out once
    chunks = []
    real = maxent._classify
    monkeypatch.setattr(maxent, "_classify", lambda k_out, k_in:
                        chunks.append(len(k_out)) or real(k_out, k_in))
    nodes = [i for i, _ in maxent.solve_each_conditioned(g)]
    assert sorted(nodes) == list(range(g.n))
    assert sum(chunks) == g.n
    assert max(chunks) <= max(1, maxent.CHUNK_ELEMENTS // g.n)


def assert_classified_as_oracles(k_out, k_in):
    """maxent._classify on the (B, N) degree rows against the per-system
    oracles: each row's classes, its tight flag (free is None where no cut
    is tight), its pins against the node-level flow where its degree sums
    match, and the first infeasible row's InputError."""
    expect = []
    for ko, ki in zip(k_out, k_in):
        cls, m, c_out, c_in = classes(ko, ki)
        try:
            expect.append((cls, m, c_out, c_in,
                           tight_cut(np.repeat(c_out, m), np.repeat(c_in, m))))
        except InputError as exc:
            expect.append(str(exc))
    errors = [e for e in expect if isinstance(e, str)]
    if errors:
        with pytest.raises(InputError) as exc:
            maxent._classify(k_out, k_in)
        assert str(exc.value) == errors[0]
        return
    systems = maxent._classify(k_out, k_in)
    assert len(systems) == len(expect)
    for s, (cls, m, c_out, c_in, tight), ko, ki in zip(systems, expect,
                                                      k_out, k_in):
        assert np.array_equal(s.m, m)
        assert (s.free is None) == (not tight) == (s.ones is None)
        if s.free is None:
            assert np.array_equal(s.k_out, c_out) and np.array_equal(s.k_in, c_in)
        if ko.sum() != ki.sum():
            continue
        c = len(m)
        free = np.ones((c, c), bool) if s.free is None else s.free
        ones = np.zeros((c, c), bool) if s.ones is None else s.ones
        n_out, n_in, n_free, n_ones, _ = node_pins(ko, ki)
        off = ~np.eye(len(ko), dtype=bool)
        assert np.array_equal(free[np.ix_(cls, cls)][off], n_free[off])
        assert np.array_equal(ones[np.ix_(cls, cls)][off], n_ones[off])
        assert np.array_equal(s.k_out[cls], n_out)
        assert np.array_equal(s.k_in[cls], n_in)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.booleans(), st.integers(1, 5), st.integers(0, 9),
       st.sampled_from([0.15, 0.5, 0.85, 1.0]), st.integers(0, 2**32 - 1),
       st.integers(0, 2), st.sampled_from(FACES))
def test_classifier_matches_oracles_on_degree_rows(directed, b, n, density,
                                                   seed, moved, face):
    # the degrees of random, threshold and hub graphs, some with `moved`
    # entries moved by one, which breaks many rows' feasibility; undirected
    # rows have k_out = k_in
    rng = np.random.default_rng(seed)
    a = face_adjacency(rng, b, n, directed, density, face)
    k_out, k_in = a.sum(axis=2), a.sum(axis=1)
    for _ in range(moved if n else 0):
        row, node = rng.integers(b), rng.integers(n)
        for k in (k_out, k_in) if directed else (k_out,):
            k[row, node] = min(max(k[row, node] + rng.choice([-1, 1]), 0), n - 1)
    assert_classified_as_oracles(k_out, k_out if not directed else k_in)


def _complete(n, directed):
    return make_graph(n, [(i, j) for i in range(n) for j in range(n)
                          if i != j and (directed or i < j)], directed=directed)


def _face(n, directed, face, seed):
    a = face_adjacency(np.random.default_rng(seed), 1, n, directed, 0.2, face)[0]
    return make_graph(n, [tuple(e) for e in np.argwhere(a)
                          if directed or e[0] < e[1]], directed=directed)


@pytest.mark.parametrize("g", [
    star(8), _complete(6, False), _complete(5, True),
    # a hub saturated by its links, with isolated nodes 7 and 8
    make_graph(9, [(0, j) for j in range(1, 7)] + [(1, 2), (3, 4)]),
    make_graph(9, [(0, j) for j in range(1, 7)] + [(j, 0) for j in (1, 2)]
               + [(1, 2), (3, 4), (5, 3)], directed=True),
    barabasi_albert(40, 3, seed=1), erdos_renyi(30, 0.15, seed=2, directed=True),
    _face(16, False, "threshold", 1), _face(16, True, "threshold", 2),
    _face(20, False, "hubs", 3), _face(20, True, "hubs", 4),
], ids=["star-8", "complete-6", "complete-dir-5", "hub-isolated",
        "hub-isolated-dir", "ba-40-3", "er-dir-30", "threshold-16",
        "threshold-dir-16", "hubs-20", "hubs-dir-20"])
def test_classifier_matches_oracles_on_conditioned_systems(monkeypatch, g):
    # every chunk of one-node systems, and every node's classes in its
    # ClassSolution, against the oracles on the degrees left when that node
    # is conditioned on; chunks of 7 nodes split the pass
    chunks = []
    real = maxent._classify
    monkeypatch.setattr(maxent, "_classify", lambda k_out, k_in:
                        chunks.append((k_out, k_in)) or real(k_out, k_in))
    monkeypatch.setattr(maxent, "CHUNK_ELEMENTS", 7 * g.n)
    a = g.adjacency().astype(np.int64)
    for i, sol in maxent.solve_each_conditioned(g):
        rest = np.delete(np.delete(a, i, axis=0), i, axis=1)
        cls = classes(rest.sum(axis=1), rest.sum(axis=0))[0]
        assert np.array_equal(np.delete(sol.node_cls, i), cls)
        assert sol.node_cls[i] == len(sol.m)
    monkeypatch.setattr(maxent, "_classify", real)
    assert [len(k_out) for k_out, _ in chunks] == [
        min(7, g.n - lo) for lo in range(0, g.n, 7)]
    for i, (k_out, k_in) in enumerate(zip(*map(np.concatenate, zip(*chunks)))):
        rest = np.delete(np.delete(a, i, axis=0), i, axis=1)
        assert np.array_equal(k_out, rest.sum(axis=1))
        assert np.array_equal(k_in, rest.sum(axis=0))
    for k_out, k_in in chunks:
        assert_classified_as_oracles(k_out, k_in)


def _tight_sequences(n, directed):
    """Every feasible degree sequence of n nodes with a tight cut, one per
    order, as (B, n) rows of out- and in-degrees: the multisets of (k_out,
    k_in) pairs, or of k = k_out = k_in with an even sum, that
    oracles.tight_cut accepts."""
    values = (list(itertools.product(range(n), repeat=2)) if directed
              else [(k, k) for k in range(n)])
    seqs = np.array(list(itertools.combinations_with_replacement(values, n)))
    k_out, k_in = seqs[..., 0], seqs[..., 1]
    keep = []
    for ko, ki in zip(k_out, k_in):
        try:
            keep.append(ko.sum() == ki.sum() and (directed or ko.sum() % 2 == 0)
                        and tight_cut(ko, ki))
        except InputError:
            keep.append(False)
    return k_out[keep], k_in[keep]


@pytest.mark.parametrize("directed, largest", [(True, 4), (False, 8)],
                         ids=["directed", "undirected"])
def test_classifier_pins_match_max_flow_on_every_small_sequence(directed,
                                                               largest):
    # the pins read from the row-class cuts alone against the node-level
    # max flow, on every tight sequence of up to `largest` nodes
    for n in range(1, largest + 1):
        k_out, k_in = _tight_sequences(n, directed)
        assert_classified_as_oracles(k_out, k_in)


def _rank_capped_at_zero(tmp_path):
    return main(["rank", "--generate", "er:10,0.3", "--max-iterations", "0",
                 "--output", str(tmp_path / "out.json")])


@pytest.mark.parametrize("call", [
    lambda _: SolverOptions(max_iterations=0),
    _rank_capped_at_zero,
    lambda _: solve_ubcm(DegreeSeq(directed=True, L=1, k_out=np.array([1, 0]),
                                   k_in=np.array([0, 1]))),
    lambda _: solve_dbcm(DegreeSeq(directed=False, L=1, k=np.array([1, 1]))),
    lambda _: solve_ubcm(DegreeSeq(directed=False, L=3, k=np.array([3, 2, 1]))),
    lambda _: list(maxent.solve_each_conditioned(make_graph(1, []))),
], ids=["options-max-iterations-0", "cli-max-iterations-0", "ubcm-directed",
        "dbcm-undirected", "degree-past-n-1", "each-conditioned-one-node"])
def test_invalid_solver_input_fails_at_once(monkeypatch, tmp_path, call):
    # InputError before any system is iterated; the CLI exits 2 on it
    monkeypatch.setattr(maxent, "_solve_systems", None)
    try:
        code = call(tmp_path)
    except InputError:
        code = EXIT_CONFIG
    assert code == EXIT_CONFIG
    assert not (tmp_path / "out.json").exists()


def test_conditioned_nonconvergence_names_node():
    g = erdos_renyi(30, 0.2, seed=8)
    with pytest.raises(SolverError) as exc:
        maxent.solve_classes(g, [3], SolverOptions(tolerance=1e-10, max_iterations=2))
    assert exc.value.node == 3


def test_ubcm_fixed_zero_at_saturated_end_stays_free():
    # node 1 (k=3) is saturated by its links to 0, 3 and 4, all fixed at 1;
    # its pairs with 2 and 5 are fixed at 0 but come out FREE through x_1 = 0,
    # while the pair (2, 5) between two unsaturated ends is FORCED_LIM at 0
    k = np.array([4, 3, 1, 4, 4, 2], dtype=np.int64)
    _, pm = solve_ubcm(DegreeSeq(directed=False, L=int(k.sum()) // 2, k=k))
    lim = [(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (3, 4), (2, 5)]
    expect = np.zeros((6, 6), dtype=np.int8)
    for i, j in lim:
        expect[i, j] = expect[j, i] = FORCED_LIM
    assert np.array_equal(pm.forced, expect)
    for i, j in lim[:-1]:
        assert pm.p[i, j] == 1.0
    assert pm.p[2, 5] == pm.p[1, 2] == pm.p[1, 5] == 0.0
    assert np.abs(row_sums(pm) - k).max() <= 1e-10


def test_dbcm_boundary_face_pins_its_pairs():
    # edges 0<->1, 0<->3, 1<->2: the flow polytope fixes 0<->1 at 1 and
    # 2<->3 at 0, which no saturated single node reveals
    g = make_graph(4, [(0, 1), (1, 0), (0, 3), (3, 0), (1, 2), (2, 1)],
                   directed=True)
    deg = degree_sequence(g)
    _, pm = solve_dbcm(deg)
    assert sorted(map(tuple, np.argwhere(pm.forced == FORCED_LIM))) == \
        [(0, 1), (1, 0), (2, 3), (3, 2)]
    assert pm.p[0, 1] == pm.p[1, 0] == 1.0
    assert pm.p[2, 3] == pm.p[3, 2] == 0.0
    assert np.abs(row_sums(pm) - deg.k_out).max() <= 1e-10
    assert np.abs(col_sums(pm) - deg.k_in).max() <= 1e-10


def lp_forced_lim(k_out, k_in, directed):
    """FORCED_LIM by the labelling rule, over the pairs the LP oracle fixes."""
    ranges = pair_ranges(k_out, k_in if directed else None)
    if ranges is None:
        return None
    lo, hi = ranges
    fixed = hi - lo < 1e-7
    np.fill_diagonal(fixed, False)
    ones = fixed & (lo > 0.5)
    left_out = k_out - ones.sum(axis=1)
    left_in = k_in - ones.sum(axis=0)
    return ones | (fixed & np.outer(left_out > 0, left_in > 0))


def solve_sequence(k_out, k_in, directed):
    if directed:
        deg = DegreeSeq(directed=True, L=int(k_out.sum()), k_out=k_out, k_in=k_in)
        return solve_dbcm(deg)[1]
    return solve_ubcm(DegreeSeq(directed=False, L=int(k_out.sum()) // 2, k=k_out))[1]


@st.composite
def graph_and_sequence(draw):
    """A graph with n <= 6, random or a threshold or hub graph (FACES), a
    permutation of its nodes, and a degree sequence on n nodes that may have
    no realisation: k_out drawn in [0, n-1], k_in a permutation of it (the
    largest degree lowered by one if an undirected sum is odd)."""
    directed = draw(st.booleans())
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and (directed or i < j)]
    face = draw(st.sampled_from(FACES))
    if face == "er":
        edges = [e for e in pairs if draw(st.booleans())]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        a = face_adjacency(rng, 1, n, directed, 0.5, face)[0]
        edges = [e for e in pairs if a[e]]
    k_out = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    if directed:
        k_in = k_out[draw(st.permutations(range(n)))]
    else:
        k_out[np.argmax(k_out)] -= k_out.sum() % 2
        k_in = k_out
    perm = draw(st.permutations(range(n)))
    return make_graph(n, edges, directed=directed), perm, k_out, k_in


@settings(derandomize=True, max_examples=30, deadline=None)
@given(graph_and_sequence())
def test_boundary_pins_match_lp_oracle(case):
    g, perm, seq_out, seq_in = case
    deg = degree_sequence(g)
    k_out, k_in = (deg.k_out, deg.k_in) if g.directed else (deg.k, deg.k)

    pm = solve_sequence(k_out, k_in, g.directed)
    assert np.array_equal(pm.forced == FORCED_LIM,
                          lp_forced_lim(k_out, k_in, g.directed))
    assert np.abs(row_sums(pm) - k_out).max() <= 1e-9
    assert np.abs(col_sums(pm) - k_in).max() <= 1e-9
    try:
        report = inforank(g)
    except UndefinedIndexError:
        pass
    else:
        assert not report.failed.any()
        assert np.all(report.S_cond <= report.S0 * (1.0 + 1e-12))
        assert np.all((report.I >= 0.0) & (report.I <= 1.0))
        # relabelling node i as perm[i] moves its results with it
        moved = inforank(relabel(g, perm))
        assert np.array_equal(moved.failed[perm], report.failed)
        assert abs(moved.S0 - report.S0) <= 1e-12
        assert np.abs(moved.S_cond[perm] - report.S_cond).max() <= 1e-12
        assert np.abs(moved.I[perm] - report.I).max() <= 1e-12

    expect = lp_forced_lim(seq_out, seq_in, g.directed)
    if expect is None:
        with pytest.raises(InputError):
            solve_sequence(seq_out, seq_in, g.directed)
    else:
        pm = solve_sequence(seq_out, seq_in, g.directed)
        assert np.array_equal(pm.forced == FORCED_LIM, expect)


def test_star_pins_on_classes():
    # two degree classes, so the flow network has 6 nodes instead of 4002;
    # the center's links are fixed at 1, and they saturate the leaves, whose
    # pairs therefore stay FREE at an exact 0
    n = 2000
    k = np.ones(n, dtype=np.int64)
    k[0] = n - 1
    params, pm = solve_ubcm(DegreeSeq(directed=False, L=n - 1, k=k))
    expect = np.zeros((n, n), dtype=np.int8)
    expect[0, 1:] = expect[1:, 0] = FORCED_LIM
    assert np.array_equal(pm.forced, expect)
    assert np.array_equal(pm.p, expect == FORCED_LIM)
    assert params.residual <= 1e-10
    assert np.abs(row_sums(pm) - k).max() <= 1e-10


def test_pin_boundary_fixes_a_complete_class_past_int32():
    # one class of m = 50 000 nodes of degree 49 999, a complete graph of
    # m * k = 2 499 950 000 link ends, past int32: every pair is fixed at 1,
    # and no degree is left
    m, k = np.array([50_000]), np.array([49_999])
    k_out, k_in, free, ones = maxent._pin_boundary(k, k, m)
    assert np.array_equal(ones, [[True]]) and not free.any()
    assert np.array_equal(k_out, [0]) and np.array_equal(k_in, [0])


def assert_class_core_matches_dense(k_out, k_in, directed):
    """The class solve against the dense node-level oracle: p, FORCED_LIM,
    iteration counts, and SolverError at max_iterations=1."""
    k_out = np.asarray(k_out, dtype=np.int64)
    k_in = np.asarray(k_in, dtype=np.int64)
    if directed:
        deg = DegreeSeq(directed=True, L=int(k_out.sum()), k_out=k_out, k_in=k_in)
        solve, dense = solve_dbcm, lambda opts: dense_dbcm(k_out, k_in, opts)
    else:
        deg = DegreeSeq(directed=False, L=int(k_out.sum()) // 2, k=k_out)
        solve, dense = solve_ubcm, lambda opts: dense_ubcm(k_out, opts)

    params, pm = solve(deg, SolverOptions())
    p, lim, iterations = dense(SolverOptions())
    np.fill_diagonal(p, 0.0)
    assert np.abs(pm.p - p).max() <= 1e-12
    assert np.array_equal(pm.forced == FORCED_LIM, lim)
    assert np.all((pm.forced == FREE) | lim)
    assert abs(params.iterations - iterations) <= 1

    once = SolverOptions(max_iterations=1)
    for run, needed in ((lambda: solve(deg, once), params.iterations),
                        (lambda: dense(once), iterations)):
        if needed > 1:
            with pytest.raises(SolverError):
                run()
        else:
            run()


@settings(derandomize=True, max_examples=80, deadline=None)
@given(small_graph())
def test_class_core_matches_dense_oracle(case):
    # the benchmark degrees, and the degrees left when one node is
    # conditioned on, which often lie on a boundary face
    g, node = case
    a = g.adjacency().astype(np.int64)
    rest = np.delete(np.delete(a, node, axis=0), node, axis=1)
    for sub in (a, rest):
        assert_class_core_matches_dense(sub.sum(axis=1), sub.sum(axis=0),
                                        g.directed)


@pytest.mark.parametrize("g", [barabasi_albert(120, 3, seed=1),
                               erdos_renyi(80, 0.075, seed=2, directed=True)],
                         ids=["ba-120-3", "er-dir-80"])
def test_class_core_matches_dense_oracle_on_benchmark_graphs(g):
    a = g.adjacency().astype(np.int64)
    hub = int(np.argmax(a.sum(axis=1)))
    rest = np.delete(np.delete(a, hub, axis=0), hub, axis=1)
    for sub in (a, rest):
        assert_class_core_matches_dense(sub.sum(axis=1), sub.sum(axis=0),
                                        g.directed)


def assert_benchmark_routes_agree(g):
    """The graph route of solve_benchmark against the degree-sequence route
    on g's degrees: the same p and forced mask, bit for bit."""
    solve = solve_dbcm if g.directed else solve_ubcm
    _, expect = solve(degree_sequence(g))
    pm = solve_benchmark(g)
    assert np.array_equal(pm.p, expect.p)
    assert np.array_equal(pm.forced, expect.forced)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(small_graph())
def test_benchmark_graph_route_matches_sequence_route(case):
    assert_benchmark_routes_agree(case[0])


@pytest.mark.parametrize("g", [
    barabasi_albert(120, 3, seed=1),
    erdos_renyi(80, 0.075, seed=2, directed=True),
    star(8),
    make_graph(4, [(0, 1), (1, 0), (0, 3), (3, 0), (1, 2), (2, 1)], directed=True),
], ids=["ba-120-3", "er-dir-80", "star-8", "dir-face"])
def test_benchmark_graph_route_matches_sequence_route_on_fixed_graphs(g):
    assert_benchmark_routes_agree(g)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_graph(), st.booleans(), st.data())
def test_row_gather_is_expanded_rows(case, conditioned, data):
    # any run of rows gathered from the classes, clipped at n as a slice
    # is, equals those rows of the expansion; that holds the class values
    # of the free pairs, a zero diagonal and the known nodes' observed links
    g, node = case
    sol = maxent.solve_classes(g, [node] if conditioned else None)
    p = sol.expand().p
    r0 = data.draw(st.integers(0, g.n - 1))
    r1 = data.draw(st.integers(r0 + 1, g.n + 2))
    assert np.array_equal(sol.rows(r0, r1), p[r0:r1])

    cls, known = sol.node_cls, sol.known
    a = g.adjacency()
    expect = np.where(known[:, None] | known, a,
                      np.pad(sol.p, (0, 1))[np.ix_(cls, cls)])
    np.fill_diagonal(expect, 0.0)
    assert np.array_equal(p, expect)


@st.composite
def class_stack(draw):
    """A stack of b class systems of C classes for either step: (directed,
    the (nx, b, C) targets k, the (b, C, C) weights, the (nx, b, C) start
    xs). w has zero rows, some classes and whole systems have x = 0 at the
    fixed point, and the degrees are those of that fixed point."""
    directed = draw(st.booleans())
    b, c = draw(st.integers(1, 40)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nx = 2 if directed else 1
    w = rng.integers(0, 6, size=(nx, b, c, c)).astype(float)
    w[:, rng.random((b, c)) < 0.1] = 0.0
    fix = rng.lognormal(-1.0, 1.0, size=(nx, b, c))
    fix[:, rng.random((b, c)) < 0.1] = 0.0
    fix[:, rng.random(b) < 0.1] = 0.0
    x, y = fix[0], fix[-1]
    d = 1.0 + x[:, :, None] * y[:, None]
    k = [x * (w[0] / d * y[:, None]).sum(axis=2)]
    if directed:
        k.append(y * (w[1] / d * x[:, :, None]).sum(axis=1))
    k, total = np.stack(k), k[0].sum(axis=1)
    return directed, k, list(w), k / np.sqrt(np.where(total > 0, total, 1))[:, None]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(class_stack(), st.integers(0, 8), st.data())
def test_workspace_steps_match_oracle_steps(stack, spare, data):
    # each step writes into a workspace allocated for more systems than
    # are live, and halfway the stack shrinks to its first b systems, as it
    # does in maxent._run; every residual and next iterate equals the
    # oracle's, which allocates every array afresh and builds the outer
    # product by a broadcast multiply, bit for bit
    directed, k, ws, xs = stack
    step, oracle = ((maxent._step_directed, step_directed) if directed
                    else (maxent._step_undirected, step_undirected))
    nx, b, c = xs.shape
    pairs, sums = np.empty((2, b + spare, c, c)), np.empty((nx, b + spare, c))
    cur, nxt = np.empty((2, nx, b + spare, c))
    cur[:, :b] = xs
    for it in range(40):
        if it == 20:
            b = data.draw(st.integers(1, b))
            k, ws, xs = k[:, :b], [w[:b] for w in ws], [x[:b] for x in xs]
        work = tuple(pairs[:, :b]), sums[:, :b], nxt[:, :b]
        residual = step(k, *ws, cur[:, :b], work)
        expect, xs = oracle(*k, *ws, *xs)
        assert np.array_equal(residual, expect)
        for x, got in zip(xs, nxt[:, :b]):
            assert np.array_equal(got, x)
        cur, nxt = nxt, cur


# non-negative floats: 0, subnormals, normals up to 1e150 and from there to
# the largest, whose products overflow, and inf
FACTORS = st.one_of(st.just(0.0), st.just(np.inf),
                    st.floats(0.0, 2.2250738585072014e-308),
                    st.floats(0.0, 1e150), st.floats(1e150, 1.7e308))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.lists(FACTORS, min_size=1, max_size=64))
def test_einsum_outer_product_is_the_broadcast_product(b, c, seed, factors):
    # the steps' outer product rounds once per entry, as the oracles' does,
    # into a (b, C, C) view of a larger buffer as the workspace gives it
    rng = np.random.default_rng(seed)
    x, y = rng.choice(np.array(factors), size=(2, b, c))
    d = np.empty((b + 1, c, c))[:b]
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        np.einsum("bc,bd->bcd", x, y, out=d)
        expect = x[:, :, None] * y[:, None]
    assert np.array_equal(d.view(np.int64), expect.view(np.int64))
