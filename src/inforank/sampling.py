"""Bernoulli sampling of graphs from an ensemble's link probabilities.

Sample t of a run uses the derived seed (seed, t), so samples are mutually
independent, individually reproducible and safe to generate in parallel. A
draw streams the probability matrix in blocks of rows, so `class_sample`,
the `sample` command's draw, builds no n x n array. `adjacency_samples`,
the risk scorer's draw, fills a caller's stack of n x n matrices, one per
seed; each holds the same draw from the same seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import Graph, make_graph
from .maxent import ClassSolution, ProbMatrix

# Entries (rows x n) of one block of a draw; it bounds the block's memory.
BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class SampleSpec:
    count: int
    seed: int

    def __post_init__(self):
        if self.count < 1:
            raise InputError("sample count must be >= 1")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


def _edges(rows, n: int, directed: bool, seed) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of one draw's edges, in row-major order; an entry is
    a hit when its uniform is below p_ij.

    rows(block) returns p[block] for a slice of rows of the n x n p. Each
    block of at most BLOCK_ELEMENTS entries takes the next rows of one
    default_rng(seed).random((n, n)), so the draw does not depend on the
    block size. The diagonal is cleared, and an undirected draw keeps j > i
    only.
    """
    rng = np.random.default_rng(seed)
    step = BLOCK_ELEMENTS // n or 1
    tails, heads = [], []
    for r0 in range(0, n, step):
        p = rows(slice(r0, r0 + step))
        hit = rng.random(p.shape) < p
        if directed:
            hit.ravel()[r0::n + 1] = False  # (i, i); hit is contiguous
        else:  # j <= i lies in the columns up to r0 and the block's square
            hit[:, :r0] = False
            square = hit[:, r0:r0 + len(hit)]
            square[...] = np.triu(square, 1)
        i, j = divmod(np.flatnonzero(hit), n)
        tails.append(i + r0)
        heads.append(j)
    return np.concatenate(tails), np.concatenate(heads)


def sample_graph(pm: ProbMatrix, seed) -> Graph:
    """One graph draw: each entry is an independent Bernoulli(p_ij), one
    per unordered pair when undirected."""
    tails, heads = _edges(pm.p.__getitem__, pm.n, pm.directed, seed)
    return make_graph(pm.n, zip(tails.tolist(), heads.tolist()),
                      directed=pm.directed)


def sample_ensemble(pm: ProbMatrix, spec: SampleSpec):
    """Yield spec.count independent draws with per-sample derived seeds."""
    for t in range(spec.count):
        yield sample_graph(pm, seed=(spec.seed, t))


def class_sample(sol: ClassSolution, seed) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads, in row-major order, of the edges of
    sample_graph(sol.expand(), seed), drawn from the classes with no n x n
    array. Like expand, it rejects an ensemble of no nodes."""
    if sol.n == 0:
        raise InputError("probability matrix must have at least one node")
    return _edges(lambda block: sol._rows(block.start, block.stop),
                  sol.n, sol.directed, seed)


def adjacency_samples(pm: ProbMatrix, seeds, out: np.ndarray) -> np.ndarray:
    """Adjacency matrices of sample_graph(pm, seed) for each of `seeds`, as
    0.0/1.0 floats in the leading slices of `out`, a float (B, n, n) array
    with B >= len(seeds); returns those slices.

    Slice b is filled in place with default_rng(seeds[b]).random((n, n)),
    the stream of that seed's draw, and then compared with p in place, so a
    directed draw allocates no n x n array.
    """
    out = out[:len(seeds)]
    for a, seed in zip(out, seeds):
        np.random.default_rng(seed).random(out=a)
    np.less(out, pm.p, out=out)
    if not pm.directed:  # keep j > i, then mirror it
        upper = np.triu(out, 1)
        return np.add(upper, upper.transpose(0, 2, 1), out=out)
    diagonal = np.arange(pm.n)
    out[:, diagonal, diagonal] = 0.0
    return out
