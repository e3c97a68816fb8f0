"""Readers of solver results and graph strategies that only the tests need."""
import numpy as np
from hypothesis import strategies as st

from inforank import ProbMatrix, make_graph


def row_sums(pm: ProbMatrix) -> np.ndarray:
    """Expected (out-)degree of each node."""
    return pm.p.sum(axis=1)


def col_sums(pm: ProbMatrix) -> np.ndarray:
    """Expected in-degree of each node."""
    return pm.p.sum(axis=0)


@st.composite
def small_graph(draw):
    """A graph with n <= 8 at low, middle or high density: zero degrees,
    k_out = 0 or k_in = 0 and saturated nodes all occur."""
    directed = draw(st.booleans())
    n = draw(st.integers(2, 8))
    density = draw(st.sampled_from([0.15, 0.5, 0.85]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hit = rng.random((n, n)) < density
    edges = [(i, j) for i in range(n) for j in range(n)
             if hit[i, j] and i != j and (directed or i < j)]
    return make_graph(n, edges, directed=directed), draw(st.integers(0, n - 1))
