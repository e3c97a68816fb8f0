"""Bernoulli sampling of graphs from an ensemble's link probabilities.

Sample t of a run uses the derived seed (seed, t), so samples are mutually
independent, individually reproducible and safe to generate in parallel.
`_edges` is the one graph draw, behind `sample_ensemble` and
`class_samples`, the `sample` command's draw. It streams the
probability matrix in blocks of rows and draws its seeds in passes: a pass
gathers each block once and compares it with each of its seeds' uniforms in
turn, so `class_samples` builds no n x n array and gathers each block once
per pass, not once per sample. An undirected draw compares only the columns
right of a block's first row. A pass holds its seeds' hits until each seed
is yielded, so its size falls with the expected edge count, and peak memory
does not grow as n^2. `adjacency_samples`, the risk scorer's draw, fills a
caller's stack of n x n matrices, one per seed; each holds the same
directed draw from the same seed. It has no undirected draw: the risk
experiment runs on directed networks only.

Every draw takes its uniforms from the stream of default_rng(seed). The
risk scorer draws thousands of small matrices, and seeding a fresh
default_rng costs more than filling one of them, so `seed_words` copies
SeedSequence's hashing for the one seed shape the scorer uses, (seed, node,
t) for all t of a node at once, and `adjacency_samples` turns each row of
state words into PCG64's state as it sets it on the scorer's one
generator. The tests hold every state and stream equal to default_rng's.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import make_graph
from .maxent import ClassSolution, ProbMatrix

# Entries (rows x n) of one block of a draw; it bounds the block's memory.
BLOCK_ELEMENTS = 1 << 16

# Seeds a caller hashes in one seed_words pass; it bounds the pass's memory.
SEED_CHUNK = 4096

# numpy's SeedSequence hash and mix constants, and PCG64's multiplier
INIT_A, MULT_A = 0x43b0d7e5, 0x931e8875
INIT_B, MULT_B = 0x8b51f9dd, 0x58f38ded
MIX_MULT_L, MIX_MULT_R = 0xca01f9dd, 0x4973f715
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK_128 = (1 << 128) - 1


@dataclass(frozen=True)
class SampleSpec:
    count: int
    seed: int

    def __post_init__(self):
        if self.count < 1:
            raise InputError("sample count must be >= 1")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


def _pass_shape(n: int, edges: int) -> tuple[int, int]:
    """Rows per block and seeds per pass of a draw of n nodes with `edges`
    expected edges per draw (see _edges)."""
    step = min(BLOCK_ELEMENTS // n or 1, n)
    return step, min(BLOCK_ELEMENTS // max(4 * edges, 1), step) or 1


def _edges(rows, n: int, directed: bool, seeds, edges: int):
    """Yield the tails and heads of one draw's edges per seed of the list
    `seeds`, in order, each in row-major order; an entry is a hit when its
    uniform is below p_ij.

    rows(block) returns p[block] for a slice of rows of the n x n p. Each
    block of at most BLOCK_ELEMENTS entries takes the next rows of one
    default_rng(seed).random((n, n)), so a draw does not depend on the block
    size. The diagonal is cleared, and an undirected draw compares the
    columns j >= r0 of a block only and keeps j > i.

    The seeds are drawn in passes that share each block's gather: a pass
    gathers every block once and fills it with each of its seeds' uniforms
    in turn. A pass holds each of its seeds' hits until that seed is
    yielded, so it takes at most BLOCK_ELEMENTS // (4 * edges) seeds for
    `edges` expected edges per draw, and no more seeds than a block has
    rows, which bounds the generators it holds.
    """
    step, per_pass = _pass_shape(n, edges)
    uniforms = np.empty((step, n))
    hit_buffer = np.empty(step * n, bool)
    upper = np.triu(np.ones((step, step), bool), 1)  # j > i in a block's square
    blocks = [(r0, 0 if directed else r0) for r0 in range(0, n, step)]
    for s0 in range(0, len(seeds), per_pass):
        rngs = [np.random.default_rng(seed) for seed in seeds[s0:s0 + per_pass]]
        held = [[] for _ in rngs]  # per seed, the flat hits of each block
        for r0, c0 in blocks:
            p = rows(slice(r0, r0 + step))
            b, width = len(p), n - c0
            u, hit = uniforms[:b], hit_buffer[:b * width].reshape(b, width)
            for rng, hits in zip(rngs, held):
                rng.random(out=u)
                np.less(u[:, c0:], p[:, c0:], out=hit)
                if directed:
                    hit.ravel()[r0::n + 1] = False  # (i, i); hit is contiguous
                else:  # j <= i of the compared columns lies in the square
                    hit[:, :b] &= upper[:b, :b]
                hits.append(np.flatnonzero(hit))
            del p  # before the next block's gather
        for hits in held:
            tails, heads = [], []
            for (r0, c0), flat in zip(blocks, hits):
                i, j = divmod(flat, n - c0)
                tails.append(i + r0)
                heads.append(j + c0)
            yield np.concatenate(tails), np.concatenate(heads)


def sample_ensemble(pm: ProbMatrix, spec: SampleSpec):
    """Yield spec.count independent graph draws, draw t from the derived
    seed (spec.seed, t): each entry is an independent Bernoulli(p_ij), one
    per unordered pair when undirected."""
    seeds = [(spec.seed, t) for t in range(spec.count)]
    edges = int(pm.p.sum()) // (1 if pm.directed else 2)
    for tails, heads in _edges(pm.p.__getitem__, pm.n, pm.directed, seeds, edges):
        yield make_graph(pm.n, zip(tails.tolist(), heads.tolist()),
                         directed=pm.directed)


def class_samples(sol: ClassSolution, seeds):
    """Yield, per seed of the list `seeds`, the tails and heads, in
    row-major order, of the edges of the draw from sol.expand() with that
    seed, drawn from the classes with no n x n array. The graph's edge count,
    which the ensemble's expected count matches, sizes the passes. Like
    expand, it rejects an ensemble of no nodes."""
    if sol.n == 0:
        raise InputError("probability matrix must have at least one node")
    edges = len(sol.links[0]) // (1 if sol.directed else 2)
    return _edges(lambda block: sol.rows(block.start, block.stop),
                  sol.n, sol.directed, seeds, edges)


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The uint32 hash constant before and after each of `count` hashmix
    steps; the constant advances by one multiplication per step."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, np.uint32)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of value[..., j] with the constant consts[j],
    for the len(consts) - 1 successive steps along the last axis."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * MIX_MULT_L - y * MIX_MULT_R
    return r ^ r >> 16


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy[s]).generate_state(4, np.uint64) for each row of
    a uint32 (S, L) array, as a uint64 (S, 4) array.

    SeedSequence's pool is a (S, 4) array here, one column per pool word,
    mixed step by step in numpy's order; uint32 arithmetic wraps as the C
    code's does. A pool word is never mixed with itself, so the steps that
    mix one word into the three others are one vectorized step.
    """
    size = entropy.shape[1]
    a = _hash_consts(INIT_A, MULT_A, 16 + 4 * max(size - 4, 0))
    pool = np.zeros((len(entropy), 4), np.uint32)
    pool[:, :min(size, 4)] = entropy[:, :4]
    pool = _hashmix(pool, a[:5])
    k = 4
    for src in range(4):  # every pool word into every other one
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], a[k:k + 4]))
        k += 3
    for src in range(4, size):  # each entropy word past the pool into all
        pool = _mix(pool, _hashmix(entropy[:, src, None], a[k:k + 5]))
        k += 4
    words = _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]],
                     _hash_consts(INIT_B, MULT_B, 8)).astype(np.uint64)
    return words[:, 0::2] | words[:, 1::2] << 32  # little-endian word pairs


def seed_words(seed: int, node: int, samples: int, start: int = 0) -> np.ndarray:
    """SeedSequence((seed, node, t)).generate_state(4, np.uint64), the words
    default_rng seeds its PCG64 from, for each t of start .. start + samples
    - 1, as a uint64 (samples, 4) array; seed is a non-negative int, node and
    t lie below 2^32.

    Every row hashes the same entropy length: seed's little-endian 32-bit
    words (0 as one word), then node, then t, as SeedSequence coerces them.
    A pass costs about as much for a hundred seeds as for a few, and its
    temporaries take about 100 bytes per seed, so a caller hashes a node's
    seeds in passes of up to SEED_CHUNK.
    """
    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.empty((samples, len(words) + 2), np.uint32)
    entropy[:, :-2] = words
    entropy[:, -2] = node
    entropy[:, -1] = np.arange(start, start + samples)
    return _state_words(entropy)


def _pcg64_state(s_hi: int, s_lo: int, i_hi: int, i_lo: int) -> dict:
    """The state of a PCG64 seeded from these state words, as
    pcg64_set_seed sets it: inc = 2 * (i_hi, i_lo) + 1, then state = inc +
    (s_hi, s_lo) and one step, all modulo 2^128."""
    inc = (i_hi << 65 | i_lo << 1 | 1) & MASK_128
    state = ((inc + (s_hi << 64 | s_lo)) * PCG64_MULT + inc) & MASK_128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def adjacency_samples(p: np.ndarray, words: np.ndarray,
                      rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Adjacency matrices of the directed draws from the n x n link
    probabilities p whose seeds hash to the rows of `words` (see
    seed_words), as 0.0/1.0 floats in the leading slices of `out`, a float
    (B, n, n) array with B >= len(words); returns those slices.

    Slice b is filled in place with the (n, n) uniforms of `rng`, a PCG64
    generator set to words[b], which is the stream of default_rng(seed),
    and then compared with p in place, so the draw allocates no n x n
    array. Each slice holds the directed draw that `_edges` makes from the
    same seed.
    """
    out = out[:len(words)]
    for a, row in zip(out, words.tolist()):
        rng.bit_generator.state = _pcg64_state(*row)
        rng.random(out=a)
    np.less(out, p, out=out)
    diagonal = np.arange(len(p))
    out[:, diagonal, diagonal] = 0.0
    return out
