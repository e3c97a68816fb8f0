from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from inforank import (InputError, ProbMatrix, SampleSpec, degree_sequence,
                      sample_ensemble, sample_graph, sampling, solve_dbcm,
                      solve_ubcm)
from inforank.clearing import RiskExperiment
from inforank.generators import barabasi_albert, erdos_renyi, scale_free_directed
from inforank.maxent import solve_classes
from inforank.sampling import (_pcg64_state, adjacency_samples, class_sample,
                               seed_words)

from helpers import small_graph
from oracles import dense_draw


def _pm(p, directed=False):
    p = np.asarray(p, dtype=float)
    return ProbMatrix(n=p.shape[0], directed=directed, p=p.copy(),
                      forced=np.zeros(p.shape, dtype=np.int8))


def _generator():
    """A PCG64 generator for adjacency_samples to re-state."""
    return np.random.Generator(np.random.PCG64(0))


def test_sample_all_zero_gives_empty_graph():
    g = sample_graph(_pm(np.zeros((6, 6))), seed=0)
    assert g.m == 0


def test_sample_all_one_gives_complete_graph():
    p = np.ones((5, 5))
    np.fill_diagonal(p, 0.0)
    g = sample_graph(_pm(p), seed=0)
    assert g.m == 5 * 4 // 2
    gd = sample_graph(_pm(p, directed=True), seed=0)
    assert gd.m == 5 * 4


def test_sample_determinism():
    g = erdos_renyi(20, 0.3, seed=1)
    _, pm = solve_ubcm(degree_sequence(g))
    s1 = sample_graph(pm, seed=(7, 3))
    s2 = sample_graph(pm, seed=(7, 3))
    assert s1.edges == s2.edges
    s3 = sample_graph(pm, seed=(7, 4))
    assert s3.edges != s1.edges


def test_sample_spec_validation():
    with pytest.raises(InputError):
        SampleSpec(count=0, seed=1)
    with pytest.raises(InputError):
        SampleSpec(count=1, seed=-1)


def test_ensemble_samples_are_independent_draws():
    p = np.full((4, 4), 0.5)
    np.fill_diagonal(p, 0.0)
    draws = list(sample_ensemble(_pm(p), SampleSpec(count=5, seed=2)))
    assert len(draws) == 5
    assert len({frozenset(d.edges) for d in draws}) > 1


def test_adjacency_sample_matches_graph_sample():
    g = erdos_renyi(15, 0.3, seed=3, directed=True)
    _, pm = solve_dbcm(degree_sequence(g))
    (a,) = adjacency_samples(pm.p, seed_words(4, 0, 1), _generator(),
                             np.empty((1, 15, 15)))
    s = sample_graph(pm, seed=(4, 0, 0))
    assert np.array_equal(a, s.adjacency())


def test_mean_degree_binomial_bound():
    g = erdos_renyi(30, 0.25, seed=5)
    deg = degree_sequence(g)
    _, pm = solve_ubcm(deg)
    m = 600
    total = np.zeros(30)
    for s in sample_ensemble(pm, SampleSpec(count=m, seed=6)):
        total += degree_sequence(s).k
    mean_k = total / m
    bound = 4.0 * np.sqrt(deg.k * (1.0 - deg.k / 29.0) / m)
    assert np.all(np.abs(mean_k - deg.k) <= np.maximum(bound, 1e-9))


def test_pair_frequency_calibration():
    # acceptance-grade statistical tolerance: at most 1% of pairs may fall
    # outside three binomial standard deviations
    g = erdos_renyi(40, 0.3, seed=7)
    _, pm = solve_ubcm(degree_sequence(g))
    m = 1500
    count = np.zeros((40, 40))
    for s in sample_ensemble(pm, SampleSpec(count=m, seed=8)):
        count += s.adjacency()
    iu = np.triu_indices(40, 1)
    p = pm.p[iu]
    freq = count[iu] / m
    sd = np.sqrt(np.maximum(p * (1 - p), 1e-30) / m)
    outside = np.abs(freq - p) > 3 * sd
    assert outside.mean() <= 0.01


def test_forced_entries_copied_exactly():
    from inforank.generators import star
    from inforank import solve_conditioned_set
    g = star(6)
    pm = solve_conditioned_set(g, [0])
    for s in sample_ensemble(pm, SampleSpec(count=20, seed=9)):
        assert all((0, i) in s.edges for i in range(1, 6))
        assert degree_sequence(s).k.tolist() == [5, 1, 1, 1, 1, 1]


def _block_cases(graphs=small_graph()):
    """A small graph, whether to condition on its drawn node, a draw seed
    and the rows per block, from 1 up to a single block of n rows."""
    return graphs.flatmap(lambda case: st.tuples(
        st.just(case), st.booleans(), st.integers(0, 2**32 - 1),
        st.integers(1, case[0].n)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_block_cases(), st.integers(0, 7))
def test_streamed_draw_matches_dense_oracle(case, spare):
    # blocks of one row, of a few rows, of a count that does not divide n
    # and of all n rows: every one streams the dense draw's hits, and so
    # does the risk scorer's draw, which is directed only
    (g, node), conditioned, seed, rows = case
    sol = solve_classes(g, [node] if conditioned else None)
    pm = sol.expand()
    hit = dense_draw(pm.p, g.directed, (seed, node, 0))
    with mock.patch.object(sampling, "BLOCK_ELEMENTS", rows * g.n + spare % g.n):
        tails, heads = class_sample(sol, (seed, node, 0))
        graph = sample_graph(pm, (seed, node, 0))
        if g.directed:
            (adjacency,) = adjacency_samples(pm.p, seed_words(seed, node, 1),
                                             _generator(), np.empty((1, g.n, g.n)))
            assert np.array_equal(adjacency, hit)
    i, j = np.nonzero(hit)
    assert np.array_equal(tails, i) and np.array_equal(heads, j)
    assert sorted(graph.edges) == list(zip(i.tolist(), j.tolist()))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_block_cases(small_graph(directed=st.just(True))), st.integers(1, 6),
       st.integers(0, 3))
def test_stacked_draw_matches_dense_oracle(case, count, spare):
    # a stack of 1 to 6 directed draws, in an `out` of `spare` more slices
    # than seeds: slice t is the dense draw of (seed, node, t), as 0.0/1.0,
    # and the slices past the seeds are left as they were
    (g, node), conditioned, seed, _ = case
    pm = solve_classes(g, [node] if conditioned else None).expand()
    out = np.full((count + spare, g.n, g.n), np.nan)
    stack = adjacency_samples(pm.p, seed_words(seed, node, count),
                              _generator(), out)
    assert stack.shape == (count, g.n, g.n) and np.shares_memory(stack, out)
    for t, a in enumerate(stack):
        assert np.array_equal(a, dense_draw(pm.p, True, (seed, node, t)))
    assert np.isnan(out[count:]).all()


@pytest.mark.parametrize("budget", [1, 2300, sampling.BLOCK_ELEMENTS])
def test_streamed_draw_matches_dense_oracle_on_large_graphs(budget):
    # BA(300, 3) and directed SF(200, 2) conditioned on node 0, in blocks
    # of one row, of 7 and 11 rows (which divide neither n) and of the
    # default size
    for g, nodes in ((barabasi_albert(300, 3, seed=1), None),
                     (scale_free_directed(200, 2, seed=2), [0])):
        sol = solve_classes(g, nodes)
        hit = dense_draw(sol.expand().p, g.directed, (5, 1))
        with mock.patch.object(sampling, "BLOCK_ELEMENTS", budget):
            tails, heads = class_sample(sol, (5, 1))
        i, j = np.nonzero(hit)
        assert np.array_equal(tails, i) and np.array_equal(heads, j)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**32 + 1, 2**64]),
                 st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                 st.integers(2**64, 2**96 - 1)),
       st.integers(0, 2**32 - 1), st.integers(1, 100), st.integers(1, 5))
@example(0, 2**32 - 1, 3, 2)
def test_seed_states_match_default_rng(seed, node, samples, n):
    # seeds of one to three 32-bit words, so (seed, node, t) is three to
    # five entropy words, past the pool's 4 included: each row of state
    # words is SeedSequence's, the PCG64 state set from it is
    # default_rng's, and so is the stream of a generator set to it. The
    # example holds seed 0 to one word: SeedSequence pads its entropy with
    # zeros, so a dropped 0 shows only where node or t is not 0
    words = seed_words(seed, node, samples)
    assert words.shape == (samples, 4) and words.dtype == np.uint64
    rng = _generator()
    for t, row in enumerate(words):
        seq = np.random.SeedSequence((seed, node, t))
        assert np.array_equal(row, seq.generate_state(4, np.uint64))
        oracle = np.random.default_rng((seed, node, t))
        state = _pcg64_state(*row.tolist())
        assert state == oracle.bit_generator.state
        rng.bit_generator.state = state
        assert np.array_equal(rng.random((n, n)), oracle.random((n, n)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2**96 - 1), st.integers(0, 2**32 - 1),
       st.integers(1, 60), st.integers(1, 9))
def test_seed_words_chunked_as_unchunked(seed, node, samples, chunk):
    # hashed in passes of `chunk` seeds from their start t, the last pass
    # short, the rows are those of one pass over all the seeds
    whole = seed_words(seed, node, samples)
    parts = [seed_words(seed, node, min(chunk, samples - t0), t0)
             for t0 in range(0, samples, chunk)]
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("seed", [
    -1, -2**70, (3, -1), (3, [1, -1]), np.array([1, -1]),
    1.5, (3, 0.5), (3, np.float64(2.0)), np.array([1.0]), (3, None),
])
def test_seed_states_reject_what_default_rng_rejects(seed):
    # the risk scorer hashes only a non-negative int seed; any seed that
    # default_rng rejects fails when the experiment is made, before a draw
    with pytest.raises((TypeError, ValueError)):
        np.random.default_rng(seed)
    with pytest.raises(InputError):
        RiskExperiment(scale_free_directed(10, 2, seed=1), samples_per_node=1,
                       seed=seed)


@pytest.mark.parametrize("budget", [1, 20, sampling.BLOCK_ELEMENTS])
@pytest.mark.parametrize("directed", [False, True])
def test_draw_never_hits_the_diagonal(directed, budget):
    # each draw clears the diagonal itself, even where p_ii was set to 1
    # after the matrix was checked: sample_graph's in both directions, and
    # the risk scorer's, which is directed only
    pm = _pm(np.ones((9, 9)), directed)
    pm.p[...] = 1.0
    with mock.patch.object(sampling, "BLOCK_ELEMENTS", budget):
        (a,) = adjacency_samples(pm.p, seed_words(1, 0, 1), _generator(),
                                 np.empty((1, 9, 9)))
        g = sample_graph(pm, seed=1)
    assert np.array_equal(a, 1.0 - np.eye(9))
    assert g.m == (72 if directed else 36)
