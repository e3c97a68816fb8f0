"""Bernoulli sampling of graphs from an ensemble's link probabilities.

Sample t of a run uses the derived seed (seed, t), so samples are mutually
independent, individually reproducible and safe to generate in parallel. A
draw streams the probability matrix in blocks of rows, so `class_sample`,
the `sample` command's draw, builds no n x n array. `adjacency_samples`,
the risk scorer's draw, fills a caller's stack of n x n matrices, one per
seed; each holds the same directed draw from the same seed. It has no
undirected draw: the risk experiment runs on directed networks only.

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
from .graphs import Graph, make_graph
from .maxent import ClassSolution, ProbMatrix

# Entries (rows x n) of one block of a draw; it bounds the block's memory.
BLOCK_ELEMENTS = 1 << 16

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
    return _edges(lambda block: sol.rows(block.start, block.stop),
                  sol.n, sol.directed, seed)


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


def seed_words(seed: int, node: int, samples: int) -> np.ndarray:
    """SeedSequence((seed, node, t)).generate_state(4, np.uint64), the words
    default_rng seeds its PCG64 from, for each t < samples, as a uint64
    (samples, 4) array; seed is a non-negative int, node and t lie below
    2^32.

    Every row hashes the same entropy length: seed's little-endian 32-bit
    words (0 as one word), then node, then t, as SeedSequence coerces them.
    A node's risk samples should go through one call: the pass costs about
    as much for a hundred seeds as for a few.
    """
    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.empty((samples, len(words) + 2), np.uint32)
    entropy[:, :-2] = words
    entropy[:, -2] = node
    entropy[:, -1] = np.arange(samples)
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
    array. Each slice holds the directed sample_graph's draw from the same
    seed.
    """
    out = out[:len(words)]
    for a, row in zip(out, words.tolist()):
        rng.bit_generator.state = _pcg64_state(*row)
        rng.random(out=a)
    np.less(out, p, out=out)
    diagonal = np.arange(len(p))
    out[:, diagonal, diagonal] = 0.0
    return out
