"""Seeded synthetic graph generators backing the CLI --generate flag.

Every generator is deterministic for a given seed so acceptance runs are
reproducible without external data.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError
from .graphs import Graph, make_graph


def erdos_renyi(n: int, p: float, seed: int = 0, directed: bool = False) -> Graph:
    """G(n, p): each (ordered) pair linked independently with probability p."""
    if n < 0:
        raise InputError(f"node count must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise InputError(f"edge probability must be in [0,1], got {p}")
    rng = np.random.default_rng(seed)
    edges = []
    if directed:
        r = rng.random((n, n))
        for i in range(n):
            for j in range(n):
                if i != j and r[i, j] < p:
                    edges.append((i, j))
    else:
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j))
    return make_graph(n, edges, directed=directed)


def barabasi_albert(n: int, m: int, seed: int = 0) -> Graph:
    """Undirected preferential attachment; new nodes bring m links each.

    Starts from a complete core on m+1 nodes; targets are drawn proportionally
    to current degree, without replacement per arriving node.
    """
    if m < 1 or n < m + 1:
        raise InputError(f"need n >= m+1 >= 2, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)]
    deg = np.zeros(n)
    deg[: m + 1] = m
    for v in range(m + 1, n):
        targets: set[int] = set()
        weights = deg[:v] / deg[:v].sum()
        while len(targets) < m:
            t = int(rng.choice(v, p=weights))
            targets.add(t)
        for t in sorted(targets):
            edges.append((t, v))
            deg[t] += 1
        deg[v] = m
    return make_graph(n, edges, directed=False)


def star(n: int) -> Graph:
    """Star on n nodes: node 0 is the center, nodes 1..n-1 are leaves."""
    if n < 2:
        raise InputError("star needs n >= 2")
    return make_graph(n, [(0, i) for i in range(1, n)], directed=False)


def ring_lattice(n: int, k: int) -> Graph:
    """Regular ring where each node links to its k/2 nearest neighbors per side."""
    if k % 2 != 0 or k < 2 or k >= n:
        raise InputError(f"ring lattice needs even k with 2 <= k < n, got k={k}, n={n}")
    edges = []
    for i in range(n):
        for d in range(1, k // 2 + 1):
            edges.append((i, (i + d) % n))
    return make_graph(n, edges, directed=False)


def scale_free_directed(n: int, m: int = 2, seed: int = 0) -> Graph:
    """Directed scale-free-ish network via two-sided preferential attachment.

    Each arriving node sends m links to targets chosen ~ (in-degree + 1) and
    receives m links from sources chosen ~ (out-degree + 1), yielding heavy
    tails on both degree sides.
    """
    if m < 1 or n < m + 2:
        raise InputError(f"need n >= m+2, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    k_out = np.zeros(n)
    k_in = np.zeros(n)
    edges: set[tuple[int, int]] = set()

    def add(i, j):
        if i != j and (i, j) not in edges:
            edges.add((i, j))
            k_out[i] += 1
            k_in[j] += 1

    core = m + 1
    for i in range(core):
        for j in range(core):
            if i != j:
                add(i, j)
    for v in range(core, n):
        w_in = (k_in[:v] + 1.0) / (k_in[:v] + 1.0).sum()
        w_out = (k_out[:v] + 1.0) / (k_out[:v] + 1.0).sum()
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(int(rng.choice(v, p=w_in)))
        sources: set[int] = set()
        while len(sources) < m:
            sources.add(int(rng.choice(v, p=w_out)))
        for t in sorted(targets):
            add(v, t)
        for s in sorted(sources):
            add(s, v)
    return make_graph(n, sorted(edges), directed=True)


def from_spec(spec: str, seed: int = 0, directed: bool = False) -> Graph:
    """Parse generator specs like 'er:100,0.05', 'ba:100,2', 'star:9',
    'ring:40,4', 'scalefree:50,2'.

    `directed` applies to 'er' only: 'ba', 'star' and 'ring' make undirected
    graphs and reject it, and 'scalefree' is always directed.
    """
    name, _, argstr = spec.partition(":")
    if directed and name in ("ba", "star", "ring"):
        raise InputError(f"generator {name!r} makes undirected graphs only; "
                         "drop --directed")
    try:
        args = [a for a in argstr.split(",") if a] if argstr else []
        if name == "er":
            n, p = int(args[0]), float(args[1])
            return erdos_renyi(n, p, seed=seed, directed=directed)
        if name == "ba":
            return barabasi_albert(int(args[0]), int(args[1]), seed=seed)
        if name == "star":
            return star(int(args[0]))
        if name == "ring":
            return ring_lattice(int(args[0]), int(args[1]))
        if name == "scalefree":
            m = int(args[1]) if len(args) > 1 else 2
            return scale_free_directed(int(args[0]), m, seed=seed)
    except (IndexError, ValueError) as exc:
        raise InputError(f"bad generator spec {spec!r}: {exc}") from exc
    raise InputError(f"unknown generator {name!r} (use er|ba|star|ring|scalefree)")
