import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inforank import (ClearingProblem, ExternalsConfig, InputError,
                      SolverError, build_liabilities, clear, degree_sequence,
                      fit_trend, make_graph, risk_error_experiment,
                      sample_ensemble, solve_dbcm)
from inforank.clearing import (CLEAR_MAX_ITER, CLEAR_TOL, RiskExperiment,
                               _clear)
from inforank import SampleSpec, clearing
from inforank.generators import erdos_renyi, scale_free_directed
from inforank.maxent import solve_classes
from inforank.sampling import adjacency_samples, seed_words

from helpers import relative_liabilities
from oracles import clear_one, picard_clearing, polyfit_normal_equations

RING_L = np.array([[0.0, 1.0, 0.0],
                   [0.0, 0.0, 1.0],
                   [1.0, 0.0, 0.0]])


def test_problem_validation():
    with pytest.raises(InputError):
        ClearingProblem(L=np.ones((2, 2)), Ae=np.zeros(2), Le=np.zeros(2))
    with pytest.raises(InputError):
        ClearingProblem(L=-RING_L, Ae=np.zeros(3), Le=np.zeros(3))
    with pytest.raises(InputError):
        ClearingProblem(L=RING_L, Ae=np.zeros(3), Le=np.zeros(3), alpha=0.0)
    # NaN passes every sign test, so non-finite entries need their own check
    for bad in (np.nan, np.inf):
        L = RING_L.copy()
        L[0, 1] = bad
        with pytest.raises(InputError):
            ClearingProblem(L=L, Ae=np.zeros(3), Le=np.zeros(3))
        with pytest.raises(InputError):
            ClearingProblem(L=RING_L, Ae=np.array([1.0, bad, 1.0]), Le=np.zeros(3))
        with pytest.raises(InputError):
            ClearingProblem(L=RING_L, Ae=np.zeros(3), Le=np.array([bad, 0.0, 0.0]))


@pytest.mark.parametrize("kwargs", [
    {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")}, {"tol": float("inf")},
    {"max_iter": 0}, {"max_iter": -1},
])
def test_clear_rejects_bad_tolerance_or_iteration_cap(kwargs):
    prob = ClearingProblem(L=RING_L, Ae=np.ones(3), Le=np.ones(3))
    with pytest.raises(InputError):
        clear(prob, **kwargs)


def test_no_interbank_links_pay_externals():
    prob = ClearingProblem(L=np.zeros((3, 3)), Ae=np.array([2.0, 3.0, 4.0]),
                           Le=np.array([1.0, 2.0, 3.0]))
    pv = clear(prob)
    assert np.array_equal(pv.p, prob.Le)
    assert not pv.insolvent.any()


def test_no_contagion_when_assets_cover_obligations():
    Ae = np.array([5.0, 5.0, 5.0])
    prob = ClearingProblem(L=RING_L, Ae=Ae, Le=np.zeros(3), alpha=0.9, beta=0.9)
    pv = clear(prob)
    assert np.array_equal(pv.p, prob.obligations())
    assert pv.iterations <= 2


def test_three_bank_ring_matches_long_iteration_oracle():
    # each bank owes 1 to the next, Ae = (0.5, 2, 2); the greatest fixed
    # point pays in full (ring receipts rescue the thin bank), so the
    # oracle reports no insolvency
    Ae = np.array([0.5, 2.0, 2.0])
    pv = clear(ClearingProblem(L=RING_L, Ae=Ae, Le=np.zeros(3),
                               alpha=0.9, beta=0.9), tol=1e-12)
    oracle = picard_clearing(RING_L, Ae, np.zeros(3), 0.9, 0.9)
    assert np.abs(pv.p - oracle).max() <= 1e-12
    assert np.array_equal(pv.p, np.ones(3))
    assert not pv.insolvent.any()


def test_unbalanced_ring_produces_insolvency():
    L = RING_L.copy()
    L[0, 1] = 2.0
    Ae = np.array([0.5, 2.0, 2.0])
    pv = clear(ClearingProblem(L=L, Ae=Ae, Le=np.zeros(3), alpha=0.9, beta=0.9),
               tol=1e-12)
    oracle = picard_clearing(L, Ae, np.zeros(3), 0.9, 0.9)
    assert np.abs(pv.p - oracle).max() <= 1e-10
    assert pv.insolvent.tolist() == [True, False, False]
    assert abs(pv.p[0] - 1.35) < 1e-12  # 0.9*0.5 + 0.9*1


def test_picard_iterates_monotone_from_full_payment():
    rng = np.random.default_rng(10)
    for _ in range(5):
        n = 6
        L = rng.uniform(0, 2, (n, n)) * (rng.random((n, n)) < 0.5)
        np.fill_diagonal(L, 0.0)
        prob = ClearingProblem(L=L, Ae=rng.uniform(0, 1.5, n),
                               Le=rng.uniform(0, 0.5, n), alpha=0.8, beta=0.85)
        pbar = prob.obligations()
        pi = relative_liabilities(prob)
        p = pbar.copy()
        for _ in range(200):
            receipts = pi.T @ p
            p_next = np.where(prob.Ae + receipts >= pbar, pbar,
                              prob.alpha * prob.Ae + prob.beta * receipts)
            assert np.all(p_next <= p + 1e-12)
            assert np.all(p_next >= -1e-12) and np.all(p_next <= pbar + 1e-12)
            p = p_next
        pv = clear(prob)
        assert np.abs(pv.p - p).max() < 1e-8


def test_alpha_beta_one_reduces_to_plain_clearing():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = 7
        L = rng.uniform(0, 2, (n, n)) * (rng.random((n, n)) < 0.4)
        np.fill_diagonal(L, 0.0)
        Ae = rng.uniform(0, 2, n)
        pv = clear(ClearingProblem(L=L, Ae=Ae, Le=np.zeros(n),
                                   alpha=1.0, beta=1.0), tol=1e-14,
                   max_iter=100_000)
        pbar = L.sum(axis=1)
        pi = np.divide(L, pbar[:, None], out=np.zeros_like(L),
                       where=pbar[:, None] > 0)
        p = pbar.copy()
        for _ in range(100_000):
            p_new = np.minimum(pbar, Ae + pi.T @ p)
            if np.abs(p_new - p).max() < 1e-14:
                break
            p = p_new
        assert np.abs(pv.p - p).max() < 1e-10


def test_clear_of_no_banks():
    pv = clear(ClearingProblem(L=np.zeros((0, 0)), Ae=np.zeros(0), Le=np.zeros(0)))
    assert pv.p.shape == pv.insolvent.shape == (0,) and pv.iterations == 1


def _chains(lengths, n):
    """One liability matrix per length m: banks 0..m-1 of n owe 1 each to
    the next, and the rest owe nothing."""
    L = np.zeros((len(lengths), n, n))
    for b, m in enumerate(lengths):
        L[b, np.arange(m - 1), np.arange(1, m)] = 1.0
    return L


@st.composite
def clearing_stack(draw):
    """(L, Ae, Le, alpha, beta) of a stack of B systems on n banks that
    share their externals. Rows of L and entries of Le are zero in places,
    so some pbar_i = 0; alpha and beta are 1 or below 1. Some systems are a
    default chain of their first m banks, m differing from system to
    system: bank 0 cannot pay, and each bank after it is solvent only while
    its debtor pays in full, so the default moves one bank per iteration."""
    b, n = draw(st.integers(1, 40)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha, beta = (draw(st.sampled_from([1.0, rng.uniform(0.05, 1.0)]))
                   for _ in range(2))
    L = rng.uniform(0.0, 2.0, (b, n, n)) * (rng.random((b, n, n)) < rng.random())
    L[rng.random((b, n)) < 0.2] = 0.0
    L[:, np.arange(n), np.arange(n)] = 0.0
    Le = rng.uniform(0.0, 0.5, n) * (rng.random(n) < 0.7)
    Ae = rng.uniform(0.0, 3.0, n)
    chain = rng.random(b) < 0.5
    if chain.any() and n > 1:
        L[chain] = _chains(rng.integers(2, n + 1, chain.sum()), n)
        Ae = Le + rng.uniform(0.0, 0.01, n)
        Ae[0] = 0.5
    return L, Ae, Le, alpha, beta


@settings(derandomize=True, max_examples=100, deadline=None)
@given(clearing_stack(), st.one_of(st.just(CLEAR_MAX_ITER), st.integers(1, 12)))
def test_stacked_clearing_matches_per_matrix_oracle(stack, max_iter):
    # the stacked kernel, whose systems leave the stack at their own
    # iteration, gives each system the p and iteration count of the
    # per-matrix iteration bit for bit, and raises exactly when that
    # iteration fails for some system
    L, Ae, Le, alpha, beta = stack
    expect = [clear_one(l, Ae, Le, alpha, beta, CLEAR_TOL, max_iter) for l in L]
    if any(q is None for q, _ in expect):
        with pytest.raises(SolverError):
            _clear(L.copy(), Ae, Le, alpha, beta, CLEAR_TOL, max_iter)
        return
    p, iterations = _clear(L.copy(), Ae, Le, alpha, beta, CLEAR_TOL, max_iter)
    assert np.array_equal(p, [q for q, _ in expect])
    assert iterations.tolist() == [it for _, it in expect]


def test_stacked_clearing_cascades_stop_at_their_own_step():
    # chains of 2 to 30 banks in one stack, shuffled: each system stops at
    # its own iteration, and the long ones run well past 9 iterations
    n = 30
    lengths = np.random.default_rng(3).permutation(np.arange(2, n + 1))
    L = _chains(lengths, n)
    Le = np.full(n, 0.1)
    Ae = Le + 0.005
    Ae[0] = 0.5
    p, iterations = _clear(L.copy(), Ae, Le, 0.9, 0.9, CLEAR_TOL, CLEAR_MAX_ITER)
    expect = [clear_one(l, Ae, Le, 0.9, 0.9, CLEAR_TOL, CLEAR_MAX_ITER) for l in L]
    assert np.array_equal(p, [q for q, _ in expect])
    assert iterations.tolist() == [it for _, it in expect]
    # the default moves one bank per iteration, so a chain of m banks
    # stops at iteration m
    assert np.array_equal(iterations, lengths)
    short = int(iterations.max()) - 1
    with pytest.raises(SolverError):
        _clear(L.copy(), Ae, Le, 0.9, 0.9, CLEAR_TOL, short)


def test_clearing_invariant_under_relabeling():
    rng = np.random.default_rng(12)
    n = 5
    L = rng.uniform(0, 2, (n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(L, 0.0)
    Ae = rng.uniform(0, 1, n)
    Le = rng.uniform(0, 0.5, n)
    pv = clear(ClearingProblem(L=L, Ae=Ae, Le=Le, alpha=0.9, beta=0.9))
    perm = np.array([3, 0, 4, 1, 2])
    L2 = L[np.ix_(perm, perm)]
    pv2 = clear(ClearingProblem(L=L2, Ae=Ae[perm], Le=Le[perm],
                                alpha=0.9, beta=0.9))
    assert np.abs(pv2.p - pv.p[perm]).max() < 1e-12


def test_build_liabilities_passthrough_and_uniform():
    edges = [(0, 1), (1, 2), (2, 0)]
    w = np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 4.0], [5.0, 0.0, 0.0]])
    g = make_graph(3, edges, directed=True,
                   weights={(i, j): w[i, j] for i, j in edges})
    assert np.array_equal(build_liabilities(g), w)

    plain = make_graph(3, edges, directed=True)
    assert np.array_equal(build_liabilities(plain), plain.adjacency())

    with pytest.raises(InputError):
        build_liabilities(make_graph(3, [(0, 1)]))


def test_sampled_volume_matches_target_in_expectation():
    g = erdos_renyi(25, 0.15, seed=13, directed=True)
    _, pm = solve_dbcm(degree_sequence(g))
    volume = 100.0
    w = volume / pm.p.sum()
    totals = []
    # the risk scorer's rule: weight volume / (expected links) per sampled link
    for s in sample_ensemble(pm, SampleSpec(count=800, seed=14)):
        totals.append((s.adjacency() * w).sum())
    mean = float(np.mean(totals))
    # binomial Monte-Carlo bound on the total volume
    sd = w * np.sqrt(float((pm.p * (1 - pm.p)).sum()) / 800)
    assert abs(mean - volume) <= 4 * sd


def test_risk_experiment_deterministic_node_zero_error():
    # conditioning on any node of a directed 3-cycle pins the whole network,
    # so its sampled topologies equal the real one and the error vanishes
    g = make_graph(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    res = risk_error_experiment(g, samples_per_node=10, seed=3)
    assert np.allclose(res.mse, 0.0, atol=1e-24)


def test_risk_experiment_externals_defaults():
    cfg = ExternalsConfig()
    assert (cfg.mu_a, cfg.sigma_a, cfg.mu_l, cfg.sigma_l) == (10.0, 0.1, 1.0, 0.1)


def test_risk_experiment_reproducible():
    g = scale_free_directed(15, 2, seed=4)
    r1 = risk_error_experiment(g, samples_per_node=5, seed=9)
    r2 = risk_error_experiment(g, samples_per_node=5, seed=9)
    assert np.array_equal(r1.mse, r2.mse)
    assert np.array_equal(r1.p_real, r2.p_real)



def test_risk_scorer_matches_validated_clearing():
    # the scorer clears its samples without building a ClearingProblem; each
    # mse must equal clearing every sample through the validated public route
    g = scale_free_directed(15, 2, seed=6)
    samples, seed = 4, 2
    res = risk_error_experiment(g, samples_per_node=samples, seed=seed)
    exp = RiskExperiment(g, samples_per_node=samples, seed=seed)
    for node in range(g.n):
        cond = solve_classes(g, [node]).expand()
        w = exp.volume / float(cond.p.sum())
        errors = np.empty(samples)
        words = seed_words(seed, node, samples)
        for t in range(samples):
            (a,) = adjacency_samples(cond.p, words[t:t + 1], np.random.default_rng(0),
                                     np.empty((1, g.n, g.n)))
            liab = a * w
            assert np.all(liab >= 0.0) and np.all(np.diagonal(liab) == 0.0)
            prob = ClearingProblem(L=liab, Ae=exp.ae, Le=exp.le,
                                   alpha=exp.alpha, beta=exp.beta)
            diff = clear(prob).p - exp.p_real
            errors[t] = float(diff @ diff) / exp.norm
        assert res.mse[node] == errors.mean()


@pytest.mark.parametrize("chunk", [1, 5, 6, 4096])
def test_risk_scorer_hashes_seeds_in_chunks(monkeypatch, chunk):
    # passes of whole stacks of 2 samples, below or at the chunk, or one
    # pass, give the same errors
    g = scale_free_directed(12, 2, seed=5)
    monkeypatch.setattr(clearing, "BLOCK_ELEMENTS", 2 * g.n ** 2)
    exp = RiskExperiment(g, samples_per_node=11, seed=7)
    cond = solve_classes(g, [3])
    expect = exp(3, cond)
    monkeypatch.setattr(clearing, "SEED_CHUNK", chunk)
    assert exp(3, cond) == expect


def test_risk_scorer_memory_does_not_grow_per_sample():
    # a node's seeds hash to one (samples, 4) array of state words and its
    # samples go through the workspace and generator made with the
    # experiment, so one call on 20 000 samples stays below 4 MiB traced
    g = scale_free_directed(8, 2, seed=1)
    exp = RiskExperiment(g, samples_per_node=20000, seed=3)
    cond = solve_classes(g, [0])
    tracemalloc.start()
    try:
        mse = exp(0, cond)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert mse == 0.037826081595760806


@pytest.mark.parametrize("kwargs", [
    {"alpha": float("nan")}, {"beta": float("nan")}, {"alpha": 1.5},
    {"beta": 0.0}, {"alpha": 0.0}, {"beta": 1.5}, {"seed": -1},
])
def test_risk_experiment_checks_fixed_inputs_once(kwargs):
    g = scale_free_directed(10, 2, seed=1)
    with pytest.raises(InputError):
        RiskExperiment(g, samples_per_node=1, **kwargs)


def test_fit_trend_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    coeffs, rss = fit_trend(x, 2 * x, degree=1)
    assert abs(coeffs[0] - 2.0) < 1e-12 and abs(coeffs[1]) < 1e-12
    assert rss < 1e-24


def test_fit_trend_constant():
    x = np.array([0.0, 1.0, 2.0])
    coeffs, _ = fit_trend(x, np.full(3, 7.0), degree=1)
    assert abs(coeffs[0]) < 1e-12 and abs(coeffs[1] - 7.0) < 1e-12


def test_fit_trend_matches_normal_equations_oracle():
    rng = np.random.default_rng(15)
    for degree in (1, 2):
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        coeffs, rss = fit_trend(x, y, degree=degree)
        oc, orss = polyfit_normal_equations(x, y, degree)
        assert np.abs(coeffs - oc).max() < 1e-10
        assert abs(rss - orss) < 1e-10


def test_fit_trend_rank_deficient_rejected():
    with pytest.raises(InputError):
        fit_trend(np.ones(5), np.arange(5.0), degree=1)
    with pytest.raises(InputError):
        fit_trend(np.array([1.0, 2.0]), np.array([1.0, 2.0]), degree=2)
