"""Readers of solver results, graph transforms and graph strategies that
only the tests need."""
import numpy as np
from hypothesis import strategies as st

from inforank import ClearingProblem, Graph, GraphError, ProbMatrix, make_graph


def row_sums(pm: ProbMatrix) -> np.ndarray:
    """Expected (out-)degree of each node."""
    return pm.p.sum(axis=1)


def col_sums(pm: ProbMatrix) -> np.ndarray:
    """Expected in-degree of each node."""
    return pm.p.sum(axis=0)


def relative_liabilities(prob: ClearingProblem) -> np.ndarray:
    """Pi[i, j] = L[i, j] / pbar_i (zero rows where pbar_i = 0)."""
    pbar = prob.obligations()
    return prob.L / np.where(pbar > 0, pbar, 1.0)[:, None]


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Return g with node i renamed to perm[i] (perm is a permutation of range(n))."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("perm must be a permutation of range(n)")
    edges = []
    weights = {}
    for i, j in g.edges:
        edges.append((perm[i], perm[j]))
        if g.weights is not None and (i, j) in g.weights:
            weights[(perm[i], perm[j])] = g.weights[(i, j)]
    labels = None
    if g.labels is not None:
        labels = [""] * g.n
        for i in range(g.n):
            labels[perm[i]] = g.labels[i]
    return make_graph(g.n, edges, directed=g.directed, labels=labels,
                      weights=weights if weights else None)


@st.composite
def small_graph(draw, directed=st.booleans()):
    """A graph with n <= 8 at low, middle or high density: zero degrees,
    k_out = 0 or k_in = 0 and saturated nodes all occur. `directed` draws
    whether it is directed."""
    directed = draw(directed)
    n = draw(st.integers(2, 8))
    density = draw(st.sampled_from([0.15, 0.5, 0.85]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hit = rng.random((n, n)) < density
    edges = [(i, j) for i in range(n) for j in range(n)
             if hit[i, j] and i != j and (directed or i < j)]
    return make_graph(n, edges, directed=directed), draw(st.integers(0, n - 1))


FACES = ("er", "threshold", "hubs")


def face_adjacency(rng: np.random.Generator, b: int, n: int, directed: bool,
                   density: float, face: str) -> np.ndarray:
    """b random (n, n) adjacency rows, symmetric when undirected, with no
    self-links. "er" links each pair with probability density. "threshold"
    links i to j where x_i + y_j passes a threshold, for small integer
    weights (y = x undirected): a nested split graph or digraph, whose
    degrees fix the most pairs and tie many classes of different (k_out,
    k_in) at equal cut weight. "hubs" adds 2-3 saturated hubs, linked to and
    from every other node, to an "er" row."""
    if face == "threshold":
        x = rng.integers(0, 4, (b, n))
        y = rng.integers(0, 4, (b, n)) if directed else x
        a = x[:, :, None] + y[:, None] > rng.integers(1, 7, (b, 1, 1))
    else:
        a = rng.random((b, n, n)) < density
        if face == "hubs":
            hubs = rng.permutation(n)[:rng.integers(2, 4)]
            a[:, hubs] = a[:, :, hubs] = True
    a[:, np.arange(n), np.arange(n)] = False
    if not directed:
        a = np.triu(a, 1)
        a |= a.transpose(0, 2, 1)
    return a
