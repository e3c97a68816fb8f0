"""Baseline ranking indices and the common [0,1] rescaling.

Distances are unweighted hop counts along link directions; PageRank follows
the damped random-walk equation with dangling nodes contributing only the
teleport term (the final vector is normalized to sum 1).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SolverError
from .graphs import Graph, degree_sequence


@dataclass
class RankVector:
    index_name: str
    scores: np.ndarray
    rescaled: np.ndarray


def rescale(scores: np.ndarray) -> np.ndarray:
    """Affine map of scores onto [0,1]; a constant vector maps to all zeros."""
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise InputError("cannot rescale an empty vector")
    lo, hi = float(scores.min()), float(scores.max())
    if hi == lo:
        return np.zeros_like(scores)
    return (scores - lo) / (hi - lo)


def _rank_vector(name: str, scores: np.ndarray) -> RankVector:
    return RankVector(index_name=name, scores=scores, rescaled=rescale(scores))


def degree_centrality(g: Graph) -> RankVector:
    """k_i for undirected graphs, k_i^out for directed ones."""
    deg = degree_sequence(g)
    scores = (deg.k_out if g.directed else deg.k).astype(float)
    return _rank_vector("degree", scores)


def _adjacency_lists(g: Graph) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges:
        out[i].append(j)
        if not g.directed:
            out[j].append(i)
    return out


def closeness_centrality(g: Graph) -> RankVector:
    """Reachable-count over summed hop distances, per source.

    C_i = kappa_i / sum_j d_ij over the kappa_i nodes reachable from i along
    link directions; nodes that reach nothing (zero out-degree in particular)
    score 0.
    """
    adj = _adjacency_lists(g)
    scores = np.zeros(g.n)
    for src in range(g.n):
        dist = np.full(g.n, -1, dtype=np.int64)
        dist[src] = 0
        queue = deque([src])
        total = 0
        reached = 0
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    total += dist[v]
                    reached += 1
                    queue.append(v)
        if reached > 0:
            scores[src] = reached / total
    return _rank_vector("closeness", scores)


def pagerank(g: Graph, alpha: float = 0.85) -> RankVector:
    """Damped random-walk scores: P_i = (1-a)/N + a sum_j (a_ji/k_j^out) P_j.

    The affine map is an alpha-contraction, so power iteration converges for
    alpha < 1; it stops once an update moves P by less than 1e-12 in L1,
    and the result is normalized once to sum exactly 1.
    """
    if not 0.0 <= alpha < 1.0:
        raise InputError(f"damping must satisfy 0 <= alpha < 1, got {alpha}")
    n = g.n
    if n == 0:
        raise InputError("pagerank needs at least one node")
    if alpha == 0.0:
        return _rank_vector("pagerank", np.full(n, 1.0 / n))

    a = g.adjacency()
    k_out = a.sum(axis=1)
    # column-stochastic transition restricted to non-dangling rows
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(k_out[:, None] > 0, a / np.where(k_out[:, None] > 0, k_out[:, None], 1.0), 0.0)

    p = np.full(n, 1.0 / n)
    teleport = (1.0 - alpha) / n
    max_iter = 100_000
    for _ in range(max_iter):
        p_new = teleport + alpha * (m.T @ p)
        if np.abs(p_new - p).sum() < 1e-12:
            p = p_new
            break
        p = p_new
    else:
        raise SolverError("pagerank power iteration did not converge",
                          residual=float(np.abs(p_new - p).sum()),
                          iterations=max_iter)
    p = p / p.sum()
    return _rank_vector("pagerank", p)
