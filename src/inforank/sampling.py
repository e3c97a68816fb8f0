"""Bernoulli sampling of graphs from an ensemble's link probabilities.

Sample t of a run uses the derived seed (seed, t), so samples are mutually
independent, individually reproducible and safe to generate in parallel. A
draw streams the probability matrix in blocks of rows, so `class_sample`,
the `sample` command's draw, builds no n x n array. `adjacency_samples`,
the risk scorer's draw, fills a caller's stack of n x n matrices, one per
seed; each holds the same draw from the same seed.

Every draw takes its uniforms from the stream of default_rng(seed). The
risk scorer draws thousands of small matrices, and seeding a fresh
default_rng costs more than filling one of them, so `seed_states` copies
numpy's seeding (SeedSequence's hashing, then PCG64's seeding) vectorized
over many seeds, and `adjacency_samples` sets each of those states on one
reused generator. The tests hold every state and stream equal to
default_rng's.
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
    return _edges(lambda block: sol._rows(block.start, block.stop),
                  sol.n, sol.directed, seed)


def _words(seed) -> list[int]:
    """seed's entropy words as SeedSequence coerces them: an int as its
    little-endian 32-bit words (0 as one word), a sequence as its items'
    words in turn. A negative component raises ValueError and any other
    non-integer TypeError, as default_rng does; unlike default_rng, None
    (fresh OS entropy) and strings are rejected as well."""
    words = []
    for v in seed if isinstance(seed, (tuple, list, np.ndarray)) else (seed,):
        if isinstance(v, (int, np.integer)):
            v = int(v)
            if v < 0:
                raise ValueError("expected non-negative integer")
            words.append(v & 0xFFFFFFFF)
            while v := v >> 32:
                words.append(v & 0xFFFFFFFF)
        elif isinstance(v, (tuple, list, np.ndarray)):
            words += _words(v)
        else:
            raise TypeError("seed must be an integer or a sequence of "
                            f"integers, not {v!r}")
    return words


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


def seed_states(seeds) -> list[dict]:
    """default_rng(seed).bit_generator.state, a fresh PCG64's state, for
    each of `seeds`, hashed in one vectorized pass per entropy length.

    Seeds of one node's risk samples should go through one call: the pass
    costs about as much for a hundred seeds as for a few. PCG64 is seeded
    from the state words (s_hi, s_lo, i_hi, i_lo) as pcg64_set_seed does:
    inc = 2 * (i_hi, i_lo) + 1, then state = inc + (s_hi, s_lo) and one
    step, all modulo 2^128.
    """
    entropy = [_words(seed) for seed in seeds]
    states = [None] * len(entropy)
    for size in set(map(len, entropy)):
        at = [i for i, words in enumerate(entropy) if len(words) == size]
        rows = np.array([entropy[i] for i in at], np.uint32).reshape(len(at), size)
        for i, (s_hi, s_lo, i_hi, i_lo) in zip(at, _state_words(rows).tolist()):
            inc = (i_hi << 65 | i_lo << 1 | 1) & MASK_128
            state = ((inc + (s_hi << 64 | s_lo)) * PCG64_MULT + inc) & MASK_128
            states[i] = {"bit_generator": "PCG64",
                         "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
    return states


def adjacency_samples(pm: ProbMatrix, states, out: np.ndarray) -> np.ndarray:
    """Adjacency matrices of sample_graph(pm, seed) for the seeds whose
    `seed_states` are `states`, as 0.0/1.0 floats in the leading slices of
    `out`, a float (B, n, n) array with B >= len(states); returns those
    slices.

    Slice b is filled in place with the (n, n) uniforms of a generator set
    to states[b], the stream of default_rng(seed), and then compared with p
    in place, so a directed draw allocates no n x n array. One generator is
    made per call and re-stated per slice.
    """
    out = out[:len(states)]
    rng = np.random.Generator(np.random.PCG64(0))  # every state is replaced
    for a, state in zip(out, states):
        rng.bit_generator.state = state
        rng.random(out=a)
    np.less(out, pm.p, out=out)
    if not pm.directed:  # keep j > i, then mirror it
        upper = np.triu(out, 1)
        return np.add(upper, upper.transpose(0, 2, 1), out=out)
    diagonal = np.arange(pm.n)
    out[:, diagonal, diagonal] = 0.0
    return out
