"""Seeded edge-list generators for the benchmark's inputs.

The benchmark makes its own graphs instead of calling inforank.generators,
so that a change to the package's generators cannot change the workload.
"""
from __future__ import annotations

import numpy as np


def barabasi_albert(n: int, m: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Undirected preferential attachment from a complete core on m+1 nodes."""
    edges = [(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)]
    ends = [v for e in edges for v in e]  # each node once per incident link
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(ends[int(rng.integers(len(ends)))])
        for t in sorted(targets):
            edges.append((t, v))
            ends += (t, v)
    return edges


def erdos_renyi_directed(n: int, p: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Each ordered pair i != j linked independently with probability p."""
    hit = rng.random((n, n)) < p
    np.fill_diagonal(hit, False)
    return [(int(i), int(j)) for i, j in np.argwhere(hit)]


def scale_free_directed(n: int, m: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Two-sided preferential attachment: each new node sends m links to
    targets chosen by in-degree + 1 and receives m from sources chosen by
    out-degree + 1."""
    core = m + 1
    edges = {(i, j) for i in range(core) for j in range(core) if i != j}
    k_out = np.zeros(n)
    k_in = np.zeros(n)
    k_out[:core] = k_in[:core] = m
    for v in range(core, n):
        w_in = (k_in[:v] + 1.0) / (k_in[:v] + 1.0).sum()
        w_out = (k_out[:v] + 1.0) / (k_out[:v] + 1.0).sum()
        targets = rng.choice(v, size=m, replace=False, p=w_in)
        sources = rng.choice(v, size=m, replace=False, p=w_out)
        for t in targets:
            edges.add((v, int(t)))
            k_out[v] += 1
            k_in[t] += 1
        for s in sources:
            edges.add((int(s), v))
            k_out[s] += 1
            k_in[v] += 1
    return sorted(edges)


def edge_list_text(edges) -> str:
    return "".join(f"{i} {j}\n" for i, j in edges)
