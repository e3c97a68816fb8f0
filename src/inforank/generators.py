"""Seeded synthetic graph generators backing the CLI --generate flag.

Every generator is deterministic for a given seed so acceptance runs are
reproducible without external data. Both preferential-attachment models
pick each arriving node's partners through `_preferential`.
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
    if directed:
        hit = rng.random((n, n)) < p
        np.fill_diagonal(hit, False)
        tail, head = np.nonzero(hit)
    else:
        tail, head = np.triu_indices(n, 1)
        hit = rng.random(len(tail)) < p
        tail, head = tail[hit], head[hit]
    return make_graph(n, zip(tail.tolist(), head.tolist()), directed=directed)


def _preferential(rng: np.random.Generator, weights: np.ndarray, m: int) -> list[int]:
    """m distinct nodes drawn with probability proportional to weights,
    sorted: rng.choice(len(weights), p=weights / weights.sum()) per draw,
    until m are distinct, with its cdf built once."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    drawn: set[int] = set()
    while len(drawn) < m:
        drawn.add(int(cdf.searchsorted(rng.random(), side="right")))
    return sorted(drawn)


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
        for t in _preferential(rng, deg[:v], m):
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
    edges = [(i, (i + d) % n) for i in range(n) for d in range(1, k // 2 + 1)]
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
            add(i, j)  # skips i == j
    for v in range(core, n):
        for t in _preferential(rng, k_in[:v] + 1.0, m):
            add(v, t)  # it leaves k_out[:v], the sources' weights, as it was
        for s in _preferential(rng, k_out[:v] + 1.0, m):
            add(s, v)
    return make_graph(n, sorted(edges), directed=True)


def from_spec(spec: str, seed: int = 0, directed: bool = False) -> Graph:
    """Parse generator specs like 'er:100,0.05', 'ba:100,2', 'star:9',
    'ring:40,4', 'scalefree:50,2'.

    `directed` applies to 'er' only: 'ba', 'star' and 'ring' make undirected
    graphs and reject it, and 'scalefree' is always directed. Each generator
    takes exactly its arguments, m of 'scalefree' being optional (default
    2); empty arguments are skipped, so 'er:5,0.5,' is 'er:5,0.5'. Any
    other count raises InputError.
    """
    name, _, argstr = spec.partition(":")
    if directed and name in ("ba", "star", "ring"):
        raise InputError(f"generator {name!r} makes undirected graphs only; "
                         "drop --directed")
    makers = {
        "er": lambda n, p: erdos_renyi(int(n), float(p), seed=seed, directed=directed),
        "ba": lambda n, m: barabasi_albert(int(n), int(m), seed=seed),
        "star": lambda n: star(int(n)),
        "ring": lambda n, k: ring_lattice(int(n), int(k)),
        "scalefree": lambda n, m="2": scale_free_directed(int(n), int(m), seed=seed),
    }
    if name not in makers:
        raise InputError(f"unknown generator {name!r} (use er|ba|star|ring|scalefree)")
    try:
        return makers[name](*[a for a in argstr.split(",") if a])
    except TypeError:  # too few or too many arguments for the generator
        raise InputError(f"bad generator spec {spec!r}: "
                         "wrong number of arguments") from None
    except ValueError as exc:
        raise InputError(f"bad generator spec {spec!r}: {exc}") from exc
