"""Binary graph container, edge-list ingestion and degree bookkeeping; the
`sample` command is the only edge-list writer.

Graphs are immutable after construction and hold no array: `links` gives
the tails and heads of a graph's links, the one array form every consumer
reads, and the dense matrices are built from it afresh on each call.
Undirected edges are stored once as (min, max) pairs; adjacency queries are
symmetric. An optional weight column in edge-list files is kept in a side
table for the clearing module -- every entropy computation sees only the
binary topology.
"""
from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import GraphError, ParseError

_SEP = re.compile(r"[,\s]+")


@dataclass(frozen=True, eq=False)
class Graph:
    """Binary network with dense integer node indices in [0, n)."""

    n: int
    directed: bool
    edges: frozenset[tuple[int, int]]
    labels: tuple[str, ...] | None = None
    weights: dict[tuple[int, int], float] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("node count must be non-negative")
        if self.labels is not None and len(self.labels) != self.n:
            raise GraphError("labels length must equal node count")
        for i, j in self.edges:
            if i == j:
                raise GraphError(f"self-loop on node {i} is not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise GraphError(f"edge ({i},{j}) out of range for n={self.n}")
            if not self.directed and i > j:
                raise GraphError("undirected edges must be stored as (min,max)")
        if self.weights is not None and not self.weights.keys() <= self.edges:
            raise GraphError("every weight must belong to a stored link")

    @property
    def m(self) -> int:
        """Number of stored links."""
        return len(self.edges)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (symmetric when undirected)."""
        a = np.zeros((self.n, self.n))
        tail, head = links(self)
        a[tail, head] = 1.0
        return a

    def weight_matrix(self) -> np.ndarray:
        """Dense weight matrix; links without a stored weight get weight 1."""
        w = self.adjacency()
        if self.weights:
            i, j = np.array(list(self.weights), dtype=np.int64).T
            w[i, j] = list(self.weights.values())
            if not self.directed:
                w[j, i] = w[i, j]
        return w


@dataclass(frozen=True)
class DegreeSeq:
    """Degree sequence; either `k` (undirected) or `k_out`/`k_in` (directed)."""

    directed: bool
    L: int
    k: np.ndarray | None = None
    k_out: np.ndarray | None = None
    k_in: np.ndarray | None = None

    def __post_init__(self):
        if self.directed:
            if self.k_out is None or self.k_in is None:
                raise GraphError("directed degree sequence needs k_out and k_in")
            if int(self.k_out.sum()) != self.L or int(self.k_in.sum()) != self.L:
                raise GraphError("directed degree sums must both equal L")
        else:
            if self.k is None:
                raise GraphError("undirected degree sequence needs k")
            if int(self.k.sum()) != 2 * self.L:
                raise GraphError("undirected degrees must sum to 2L")

    @property
    def n(self) -> int:
        return len(self.k_out) if self.directed else len(self.k)

    def total(self) -> np.ndarray:
        """Total degree per node (k, or k_out + k_in when directed)."""
        return self.k_out + self.k_in if self.directed else self.k.copy()


def make_graph(n: int, edges, directed: bool = False, labels=None, weights=None) -> Graph:
    """Normalize raw edge pairs into a Graph; rejects self-loops, dedups.

    weights maps a pair as given to its weight. A repeated pair is one link
    and takes its weight once; an undirected (i, j) and (j, i) sum theirs,
    as load_edge_list sums the weights of its lines."""
    norm = set()
    wtab: dict[tuple[int, int], float] = {}
    for i, j in dict.fromkeys((int(e[0]), int(e[1])) for e in edges):
        if i == j:
            raise GraphError(f"self-loop on node {i} is not allowed")
        key = (i, j) if directed else (min(i, j), max(i, j))
        norm.add(key)
        if weights is not None and (i, j) in weights:
            wtab[key] = wtab.get(key, 0.0) + weights[(i, j)]
    return Graph(
        n=n,
        directed=directed,
        edges=frozenset(norm),
        labels=tuple(labels) if labels is not None else None,
        weights=wtab or None,
    )


def load_edge_list(source, directed: bool = False) -> Graph:
    """Parse a textual edge list into a Graph.

    Each non-comment line holds two labels separated by whitespace or commas,
    with an optional third weight column; a label may not begin with `#`.
    Labels map to dense indices in first-appearance order; duplicate edges
    are deduplicated (weights summed).
    """
    if isinstance(source, str):
        source = io.StringIO(source)

    index: dict[str, int] = {}
    labels: list[str] = []
    edges: set[tuple[int, int]] = set()
    weights: dict[tuple[int, int], float] = {}

    def node_id(tok: str) -> int:
        if tok not in index:
            index[tok] = len(labels)
            labels.append(tok)
        return index[tok]

    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f for f in _SEP.split(line) if f]
        if len(fields) not in (2, 3):
            raise ParseError(f"expected 2 or 3 fields, got {len(fields)}: {line!r}", lineno)
        for label in fields[:2]:
            if label.startswith("#"):
                # an edge line written with this label first reads as a comment
                raise ParseError(f"node label {label!r} begins with '#'", lineno)
        u, v = node_id(fields[0]), node_id(fields[1])
        if u == v:
            raise GraphError(f"line {lineno}: self-loop {fields[0]!r} rejected")
        key = (u, v) if directed else (min(u, v), max(u, v))
        edges.add(key)
        if len(fields) == 3:
            try:
                w = float(fields[2])
            except ValueError:
                raise ParseError(f"bad weight {fields[2]!r}", lineno) from None
            if not math.isfinite(w):
                raise ParseError(f"non-finite weight {fields[2]!r}", lineno)
            weights[key] = weights.get(key, 0.0) + w

    if not labels:
        raise GraphError("empty input: no edges found")

    return Graph(
        n=len(labels),
        directed=directed,
        edges=frozenset(edges),
        labels=tuple(labels),
        weights=weights or None,
    )


def links(g: Graph):
    """Tails and heads of g's links as int64 arrays; an undirected edge,
    stored once, gives both directions."""
    e = np.array(list(g.edges), dtype=np.int64).reshape(-1, 2)
    if not g.directed:
        e = np.concatenate([e, e[:, ::-1]])
    return e[:, 0], e[:, 1]


def degree_sequence(g: Graph) -> DegreeSeq:
    """Exact degree counts for g."""
    tail, head = links(g)
    if g.directed:
        return DegreeSeq(directed=True, L=g.m,
                         k_out=np.bincount(tail, minlength=g.n),
                         k_in=np.bincount(head, minlength=g.n))
    return DegreeSeq(directed=False, L=g.m, k=np.bincount(tail, minlength=g.n))
