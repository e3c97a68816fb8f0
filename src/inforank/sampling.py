"""Bernoulli sampling of graphs from a probability matrix.

Sample t of a run uses the derived seed (seed, t), so samples are mutually
independent, individually reproducible and safe to generate in parallel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import Graph, make_graph
from .maxent import ProbMatrix


@dataclass(frozen=True)
class SampleSpec:
    count: int
    seed: int

    def __post_init__(self):
        if self.count < 1:
            raise InputError("sample count must be >= 1")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


def _draw(pm: ProbMatrix, seed) -> np.ndarray:
    """Boolean hit matrix of one draw; upper triangle only when undirected."""
    hit = np.random.default_rng(seed).random((pm.n, pm.n)) < pm.p
    if pm.directed:
        np.fill_diagonal(hit, False)
        return hit
    return np.triu(hit, 1)


def sample_graph(pm: ProbMatrix, seed, labels=None) -> Graph:
    """One graph draw: each free entry is an independent Bernoulli(p_ij).

    Undirected matrices use a single draw per unordered pair; entries pinned
    at 0 or 1 are copied deterministically by the same comparison. The draw
    carries `labels`, the node labels of the graph pm was solved for.
    """
    edges = zip(*np.nonzero(_draw(pm, seed)))
    return make_graph(pm.n, [(int(i), int(j)) for i, j in edges],
                      directed=pm.directed, labels=labels)


def sample_ensemble(pm: ProbMatrix, spec: SampleSpec, labels=None):
    """Yield spec.count independent draws with per-sample derived seeds."""
    for t in range(spec.count):
        yield sample_graph(pm, seed=(spec.seed, t), labels=labels)


def adjacency_sample(pm: ProbMatrix, seed) -> np.ndarray:
    """Adjacency-matrix form of sample_graph: the same draw from the same seed."""
    a = _draw(pm, seed).astype(float)
    return a if pm.directed else a + a.T
