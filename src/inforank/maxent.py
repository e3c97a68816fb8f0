"""Degree-constrained maximum-entropy solvers.

Link probabilities take the fitness form p_ij = x_i x_j / (1 + x_i x_j)
(undirected) or x_i y_j / (1 + x_i y_j) (directed), found by fixed-point
iteration on x_i <- k_i / sum_j x_j/(1 + x_i x_j). Nodes with equal degrees
(equal (k_out, k_in) when directed) share one fitness value and one pin for
each other class, so a solve runs on the C distinct degrees instead of the
n nodes (Vallarano et al., Sci. Rep. 11:15227, 2021): an iteration costs
O(C^2). The class iteration makes the node-level iterates in exact
arithmetic; in floating point its results can differ from them in the 12th
significant digit.

Every ensemble of a graph is the ensemble conditioned on a node set, whose
links are fixed to the observed ones; the benchmark conditions on no node,
and a degree sequence (solve_ubcm, solve_dbcm) is solved as the benchmark of
a graph with no links, so every solve takes one route (_solve_graph).
`solve_each_conditioned` classifies its n one-node systems in chunks of
nodes, with a handful of array operations per chunk, and each system waits
in the block of its class count, holding only its O(C) class arrays. A full
block is iterated as one stack, each system to its own convergence and
bit-identical to its result alone, and the blocks of a pass share one
workspace. A single solve is a chunk and a block of one. Every solve builds
a ClassSolution, which the scorers read in O(C^2 + n + m); only the
ProbMatrix solves and the risk sampler expand it to n x n.

The finite solution exists only strictly inside the polytope of expected
degrees, so degenerate degrees are handled exactly before iterating: k_i = 0
gives x_i = 0, and every pair that takes one value at all points of the
polytope (a boundary face, e.g. a node whose degree equals its available
partners) is pinned to it. A cut test on the sorted degrees decides whether
a system has such pairs; only then are they read in closed form from the
minimum cuts of its flow network. The forced mask tells free probabilities
from boundary-pinned ones and from those fixed by conditioning.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InputError, SolverError
from .graphs import DegreeSeq, Graph, links

# forced-mask codes
FREE = 0          # solved by the iteration (or exactly zero via x_i = 0)
FORCED_OBS = 1    # pinned to an observed adjacency entry by conditioning
FORCED_LIM = 2    # pinned to 0 or 1 on the polytope boundary (limit of the solution)


@dataclass
class SolverOptions:
    tolerance: float = 1e-10
    max_iterations: int = 100_000

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:
            raise InputError("tolerance must be positive and finite")
        if self.max_iterations < 1:
            raise InputError("max_iterations must be >= 1")


@dataclass
class ParamVector:
    """Fitness parameters plus convergence diagnostics.

    Nodes whose links are all pinned have no finite parameter; they are
    reported as 0 here and their probabilities live in the forced mask of
    the ProbMatrix instead.
    """

    directed: bool
    x: np.ndarray
    y: np.ndarray | None
    residual: float
    iterations: int


@dataclass
class ProbMatrix:
    """Pairwise link probabilities with a provenance mask (FREE/FORCED_*)."""

    n: int
    directed: bool
    p: np.ndarray
    forced: np.ndarray  # int8, same shape as p

    def __post_init__(self):
        if self.p.size == 0:
            raise InputError("probability matrix must have at least one node")
        np.fill_diagonal(self.p, 0.0)
        if not (self.p.min() >= 0.0 and self.p.max() <= 1.0):  # NaN fails too
            raise InputError("probabilities must lie in [0, 1]")


# ---------------------------------------------------------------------------
# boundary pinning
# ---------------------------------------------------------------------------
#
# The directed polytope (see above) is the set of flows in the network
#   source -> out_i (capacity k_out_i), out_i -> in_j (1, i != j),
#   in_j -> sink (capacity k_in_j)
# that saturate the source and the sink. A pair is fixed, at 0 or 1 on the
# whole polytope, iff a minimum cut separates its arc (where a residual graph
# fixes the arc, Regin, AAAI 1994, the source and all that one end reaches
# is one). These cuts have a closed form (Brualdi, Linear Algebra Appl.
# 33:159-231, 1980, with the forbidden diagonal of Fulkerson-Chen-Anstee).
# With a set A of a rows (k_out > 0) on the source side, column j goes to
# the sink side iff k_in_j >= a - [j in A], either way on equality, and the
# cut is minimum iff
#   sum_{i in A} w_i = sum_j min(k_in_j, a),   w = k_out + [k_in >= a].
# Feasibility bounds the left side by the right, and descending (k_out, k_in)
# order sorts w: such an A holds every row whose w is above theta, the a-th
# largest, none below, and `need` of the tied rows (two iff need >= 2). Over
# the minimum cuts through a rows, A has the union U = {w >= theta} and, if a
# tied row may stay out, the intersection {w > theta}: ends, the rows of the
# classes >= c for a row class c (theta = w[c]). Minimum cuts are closed under
# union and intersection (Picard-Queyranne, Math. Prog. Study 13, 1980) and
# stay minimum as a column with k_in_j = a - [j in A] changes side. A pair
# (i, j), i != j, is fixed at 1 iff out_i is in L, the union of the cuts with
# in_j on the sink side. Of the cuts through a = |A(L)| rows, all may put in_j
# there if k_in_j >= a, and those holding j if k_in_j = a - 1; their union lies
# in L, so A(L) = U, unless j ties with need = 1 and a tied row may stay out.
# Then i is above theta, and the intersection, through k_in_j rows, may put
# in_j on the sink side. (i, j) is fixed at 0 iff out_i is not in T, the
# intersection of the cuts with in_j on the source side, through a = |A(T)|
# rows. If k_in_j < a, every cut through a rows may put in_j there, so A(T) = U
# and i is below theta. Else k_in_j = a, j is not in A(T), and moving in_j to
# the sink fixes its a pairs from A(T) at 1, so (i, j) stays free at 0. So the
# ends suffice, with 0 pinned only where i is below theta and k_in_j < a. An
# undirected k fixes the pairs of k_out = k_in = k, as symmetrising a
# fractional solution keeps every positive entry.

def _tight_cuts(k_out: np.ndarray, k_in: np.ndarray) -> np.ndarray:
    """Whether some cut of each row's flow network is tight, i.e. may fix a
    pair, for int64 (B, N) rows of node degrees in descending (k_out, k_in)
    order.

    Only rows R = {k_out > 0} and columns C = {k_in > 0} matter. A row or
    column is tight when its degree equals its available partners. A cut
    through s rows, 1 <= s < |R|, has the largest excess E(s), the sum of
    the s largest w less sum_j min(k_in_j, s) (as above, with a = s), taken
    by the first s rows (Fulkerson-Chen-Anstee); E(s) = 0 is tight.
    Any excess above zero means no feasible point and raises InputError for
    the first such row. Takes O(B N) time and memory.
    """
    b, n = k_out.shape
    rows, cols = k_out > 0, k_in > 0
    n_r = rows.sum(axis=1, keepdims=True)
    slack_out = cols.sum(axis=1, keepdims=True) - cols - k_out
    slack_in = n_r - rows - k_in
    short = (np.minimum(slack_out, slack_in) < 0).any(axis=1)
    tight = (rows & (slack_out == 0) | cols & (slack_in == 0)).any(axis=1)
    # E(s) of row b in excess[b, s - 1], s = 1 .. N - 1; the row at position
    # p counts towards [k_in >= s] for p <= s <= k_in
    s, at = np.arange(1, n + 1), np.arange(0, b * (n + 1), n + 1)[:, None]
    last = np.minimum(k_in, n - 1)
    live = last >= s
    own = (np.bincount((at + s)[live], minlength=b * (n + 1))
           - np.bincount((at + last + 1)[live], minlength=b * (n + 1)))
    own = own.reshape(b, n + 1).cumsum(axis=1)[:, 1:n]
    # sum_j min(k_in_j, s) = sum_{t <= s} #{j : k_in_j >= t}
    at_least = np.bincount((at + last).ravel(), minlength=b * (n + 1))
    at_least = at_least.reshape(b, n + 1)[:, ::-1].cumsum(axis=1)[:, ::-1]
    excess = k_out.cumsum(axis=1)[:, :-1] + own - at_least[:, 1:n].cumsum(axis=1)
    excess[s[:-1] >= n_r] = -1
    worst = excess.max(axis=1, initial=-1)
    bad = np.flatnonzero(short | (worst > 0))
    if len(bad):
        raise InputError("infeasible degree sequence: " + (
            "a node needs more partners than are available" if short[bad[0]]
            else f"the links of the top {int(np.argmax(excess[bad[0]])) + 1} "
            "nodes exceed every realisation"))
    return tight | (worst == 0)


def _partners(m: np.ndarray) -> np.ndarray:
    """partners[..., c, d]: the nodes of class d a node of class c can link
    to, for one vector of class sizes m or a stack of them."""
    return m[..., None, :] - np.eye(m.shape[-1], dtype=np.int64)


def _pin_boundary(k_out: np.ndarray, k_in: np.ndarray, m: np.ndarray):
    """Pin the pairs that the cuts above fix in a tight class system, of
    class degrees k_out, k_in and sizes m (ascending). Returns (k_out, k_in,
    free, ones) per class: the degrees left after the pairs fixed at 1, the
    pairs left to the iteration and those fixed at 1. The others are
    FORCED_LIM, but one fixed at 0 with a saturated end stays free (x = 0)."""
    rows, c = k_out > 0, np.flatnonzero(k_out)
    a = np.cumsum(m[::-1])[::-1][c, None]  # the ends: rows of classes >= c
    w = k_out + (k_in >= a)
    theta = np.take_along_axis(w, c[:, None], 1)
    up, tie = rows & (w > theta), rows & (w == theta)
    need = a - up @ m[:, None]
    cut = ((up * w) @ m)[:, None] + need * theta == np.minimum(k_in, a) @ m[:, None]
    a, tie, need, inside = (v[cut[:, 0]] for v in (a, tie, need, up | tie))
    # hits(p, q)[c, d]: how many cut sizes have p[., c] and q[., d]; the
    # second hits take back those where two tied rows find need < 2
    hits = lambda p, q: p.T.astype(float) @ q  # exact: counts below 2^53
    one = (hits(inside, (k_in >= a) | inside & (k_in == a - 1))
           > hits(tie, tie & (k_in == a - 1) & (need < 2)))
    zero = hits(~inside, k_in < a) > 0
    partners = _partners(m)
    arcs = np.outer(rows, k_in > 0) & (partners > 0)
    fixed, ones = arcs & (one | zero), arcs & one
    k_out = k_out - (ones * partners).sum(axis=1)
    k_in = k_in - (ones * partners.T).sum(axis=0)
    return k_out, k_in, ~(ones | (fixed & np.outer(k_out > 0, k_in > 0))), ones


# ---------------------------------------------------------------------------
# class core
# ---------------------------------------------------------------------------
#
# The core pins and iterates on the classes of the degrees it is given, with
# class sizes m. A node of class c has free[c, d] * partners[c, d] free
# (out-)partners in class d, and free[d, c] * partners[c, d] free
# in-partners there. One loop (_run) drives the step of either model
# (_step_undirected, _step_directed) on a stack of B systems of one class
# count C: the degree targets and iterates as (nx, B, C) stacks, x (and y),
# and the pair terms as (B, C, C) arrays; a single solve is a stack of one.
# Stacking never pads a system: a padded class changes the order of the sums
# in the matrix products and with it the last bits of p.
#
# _run calls step(k, *ws, xs, work) with the targets, weights and xs of the
# b systems still iterating and views of the pass's workspace sliced to
# those b. The step writes every term there with out=, the next xs too, and
# returns the residuals. Each operation keeps the operands and the order of
# the steps in tests/oracles.py, which allocate every array afresh: a sum in
# another order (einsum, or (w / d * x).sum(-1) for the matmul) moves the
# last bits of p. einsum's outer product sums nothing: it rounds each entry
# once, as the broadcast multiply does, in about half its time.

# Class-pair entries (B * C^2) of one stacked block of conditioned systems;
# it bounds the memory of the block's (B, C, C) arrays.
STACK_ELEMENTS = 1 << 16

# Node entries (B * n) of one chunk of one-node conditioned systems that are
# classified together; it bounds the memory of the chunk's (B, n) arrays.
CHUNK_ELEMENTS = 1 << 12


class _System(NamedTuple):
    """One class system ready to iterate: per class the sizes m and what
    _pin_boundary returns, with free and ones None where no cut is tight
    (every pair free, none fixed at 1)."""

    m: np.ndarray
    k_out: np.ndarray
    k_in: np.ndarray
    free: np.ndarray | None
    ones: np.ndarray | None


def _key(k_out: np.ndarray, k_in: np.ndarray):
    """A node key that orders nodes by (k_out, k_in), and its base."""
    base = int(k_in.max(initial=0)) + 1
    return k_out * base + k_in, base


def _classify(k_out: np.ndarray, k_in: np.ndarray) -> list[_System]:
    """The class systems of a chunk: row b of the int64 (B, N) arrays holds
    the out- and in-degrees of system b's N nodes.

    A row's classes are its distinct (k_out, k_in) in ascending order, as
    np.unique orders their keys. One row-wise sort finds every row's
    classes, one cut test (_tight_cuts) runs on every row, and only the
    rows it flags are pinned (_pin_boundary). Each system holds
    its own copies of its O(C) class arrays, no view of the chunk's.
    """
    key, base = _key(k_out, k_in)
    # stable: the sort of np.unique(return_index=True) in node_cls, so that a
    # pass loads one sort's code (about 0.3 MiB of RSS)
    key.sort(axis=1, kind="stable")
    new = np.ones(key.shape, dtype=bool)
    np.not_equal(key[:, 1:], key[:, :-1], out=new[:, 1:])
    tight = _tight_cuts(*np.divmod(key[:, ::-1], base)).tolist()
    first = np.flatnonzero(new)
    classes = np.stack([np.diff(first, append=key.size),
                        *np.divmod(key.ravel()[first], base)])
    ends = np.cumsum(new.sum(axis=1)).tolist()
    systems = []
    for pin, lo, hi in zip(tight, [0, *ends], ends):
        m, k_o, k_i = classes[:, lo:hi].copy()
        systems.append(_System(m, *(_pin_boundary(k_o, k_i, m) if pin
                                    else (k_o, k_i, None, None))))
    return systems


class _Workspace:
    """The float buffer the blocks of a pass iterate in, one after another
    (_run lays two (B, C, C) arrays and three (nx, B, C) stacks in it): it
    grows to the largest block's need and is kept, so its pages are mapped
    and faulted in once per pass, not once per block. It is not sized up
    front: 3 * STACK_ELEMENTS floats, enough for any block of 6 to 300
    classes, raised the risk command's peak RSS by 0.7 MiB."""

    buf = np.empty(0)

    def take(self, *shapes):
        """Arrays of these shapes, laid end to end in the buffer."""
        ends = list(itertools.accumulate(math.prod(s) for s in shapes))
        if ends[-1] > self.buf.size:
            self.buf = np.empty(ends[-1])
        return [self.buf[e - math.prod(s):e].reshape(s)
                for s, e in zip(shapes, ends)]


def _run(step, k: np.ndarray, ws: list, xs: np.ndarray, live: np.ndarray,
         opts: SolverOptions, work: _Workspace):
    """Iterate a stack of systems to convergence, system b from its
    targets k[:, b], start xs[:, b] and weights w[b] for each w in ws.

    step(k, *ws, xs, work) returns each system's residual at xs and writes
    the next xs into work. A system leaves the stack at its first iteration
    with residual <= tolerance and keeps the xs of that iteration; systems
    not `live` never enter and keep xs = 0 and residual 0. Returns (xs,
    residual, iterations). A system still in the stack after max_iterations
    keeps xs = 0 and its last residual, which is above the tolerance.

    The B live systems iterate in views of `work`: two (B, C, C) arrays for
    the pair terms, and (nx, B, C) stacks for the sums and the current and
    next xs, which swap at every step. The b systems still iterating are
    kept at the front, so the step gets the slices [:, :b] of each, taken
    again only when b changes.
    """
    out = np.zeros_like(xs)
    residual = np.zeros(len(live))
    iterations = np.zeros(len(live), dtype=np.int64)
    idx = np.flatnonzero(live)
    k, ws = k[:, idx], [w[idx] for w in ws]
    nx, size, c = len(xs), len(idx), xs.shape[2]
    pairs, sums, cur, nxt = work.take((2, size, c, c), *[(nx, size, c)] * 3)
    cur[:] = xs[:, idx]
    res = residual[idx]
    b = -1
    for it in range(1, opts.max_iterations + 1):
        if b != len(idx):
            b = len(idx)
            if not b:
                break
            step_work = tuple(pairs[:, :b]), sums[:, :b]
            xs, xs_next = cur[:, :b], nxt[:, :b]
        res = step(k, *ws, xs, (*step_work, xs_next))
        done = res <= opts.tolerance
        if done.any():
            stop = idx[done]
            out[:, stop] = xs[:, done]
            residual[stop] = res[done]
            iterations[stop] = it
            left = ~done
            idx, res = idx[left], res[left]
            k, ws = k[:, left], [w[left] for w in ws]
            nxt[:, :len(idx)] = nxt[:, :b][:, left]
        cur, nxt, xs, xs_next = nxt, cur, xs_next, xs
    residual[idx] = res
    iterations[idx] = opts.max_iterations
    return out, residual, iterations


def _next(k, xs, s, xs_next):
    """Write k / s, 0 where s = 0, into xs_next, for the (nx, b, C) stacks
    of targets, iterates and sums; return each system's residual, max |k -
    x s| over all nx directions, with its terms written over s."""
    np.divide(k, np.where(s > 0, s, np.inf), out=xs_next)
    np.multiply(xs, s, out=s)
    np.subtract(k, s, out=s)
    np.abs(s, out=s)
    return s.max(axis=(0, 2))


def _step_undirected(k, w, xs, work):
    """One step of x_c <- k_c / sum_d w[c, d] x_d / (1 + x_c x_d) on a stack
    of b systems: k and xs are (1, b, C), w is (b, C, C). work holds the (b,
    C, C) arrays d and t and the (1, b, C) stacks s and next xs. Returns
    each system's residual at xs and writes the next xs into work."""
    (d, t), s, xs_next = work
    np.einsum("bc,bd->bcd", xs[0], xs[0], out=d)
    np.add(1.0, d, out=d)
    np.divide(w, d, out=t)
    np.matmul(t, xs[0, :, :, None], out=s[0, :, :, None])
    return _next(k, xs, s, xs_next)


def _step_directed(k, w_out, w_in, xs, work):
    """The directed step on the (2, b, C) stacks k = (k_out, k_in) and xs =
    (x, y): w_out[b, c, d] counts the free out-partners in class d of a
    node of class c, w_in[b, c, d] the free in-partners in class c of a
    node of class d. work is laid out as for the undirected step."""
    (d, t), s, xs_next = work
    x, y = xs
    np.einsum("bc,bd->bcd", x, y, out=d)
    np.add(1.0, d, out=d)
    np.divide(w_out, d, out=t)
    np.matmul(t, y[:, :, None], out=s[0, :, :, None])
    np.divide(w_in, d, out=t)
    np.matmul(x[:, None], t, out=s[1, :, None])
    return _next(k, xs, s, xs_next)


def _solve_systems(systems: list[_System], directed: bool, opts: SolverOptions,
                   work: _Workspace):
    """Iterate class systems of one class count together, in `work`.

    Each system starts where the node-level iteration does, at k / sqrt(sum
    of all node degrees), and so makes the same iterates in exact
    arithmetic; one with no links is not iterated. Returns their class x, y
    and p as (B, C) and (B, C, C) stacks, with their residuals and
    iterations. A system converged iff its residual is <= tolerance; the p
    of one that did not is meaningless.
    """
    m, k_out, k_in = map(np.stack, list(zip(*systems))[:3])
    free = np.ones(m.shape + m.shape[1:], dtype=bool)
    ones = np.zeros_like(free)
    for b, s in enumerate(systems):
        if s.free is not None:
            free[b], ones[b] = s.free, s.ones
    partners = _partners(m)
    total = (m * k_out).sum(axis=1)
    k = np.stack((k_out, k_in)[:1 + directed]).astype(float)
    ws = [(free * w).astype(float)
          for w in (partners, partners.transpose(0, 2, 1))[:len(k)]]
    start = k / np.sqrt(np.where(total > 0, total, 1))[:, None]
    xs, residual, iterations = _run(
        _step_directed if directed else _step_undirected, k, ws, start,
        total > 0, opts, work)
    x, y = xs[0], xs[-1]  # one x when undirected

    xy = x[:, :, None] * y[:, None]
    p = np.where(free, xy / (1.0 + xy), ones)
    return x, y, p, residual, iterations


def _stacks(chunks: Iterable, directed: bool, opts: SolverOptions):
    """Solve the systems of each chunk (tags, k_out, k_in) of `chunks`: one
    tag per row of the int64 (B, N) node degrees (k_out = k_in = k
    undirected), classified and pinned together as the chunk arrives
    (_classify). A block of one class count C is iterated as soon as it
    holds max(1, STACK_ELEMENTS // C^2) systems, the partial blocks at the
    end, all in one workspace. Yields (tag, system, x, y, p, residual,
    iterations) in block order.
    """
    pending: dict[int, list] = {}
    work = _Workspace()

    def solve(block):
        tags, systems = zip(*block)
        yield from zip(tags, systems,
                       *_solve_systems(list(systems), directed, opts, work))

    for tags, k_out, k_in in chunks:
        for tag, system in zip(tags, _classify(k_out, k_in)):
            c = len(system.m)
            block = pending.setdefault(c, [])
            block.append((tag, system))
            if len(block) >= max(1, STACK_ELEMENTS // max(c * c, 1)):
                yield from solve(pending.pop(c))
    for block in pending.values():
        yield from solve(block)


# ---------------------------------------------------------------------------
# graph solves
# ---------------------------------------------------------------------------
#
# Every ensemble of a graph g is g's ensemble conditioned on a node set: the
# links of the set's nodes are fixed to the observed ones, and the other
# nodes form a plain configuration model on the degrees left among
# themselves. The empty set gives the benchmark, and a degree sequence is
# solved as the benchmark of a graph with no links.

@dataclass
class ClassSolution:
    """A graph's ensemble conditioned on a node set, on degree classes.

    The known (conditioned) nodes keep their observed links. Every other
    node i has class node_cls[i], and the pair (i, j) of two such nodes has
    probability p[node_cls[i], node_cls[j]] and provenance
    forced[node_cls[i], node_cls[j]] (FREE or FORCED_LIM). The known nodes
    have class C, one past the last. `rows` gathers node-level link
    probabilities row by row; `expand` builds the node-level ProbMatrix.
    """

    n: int
    directed: bool
    links: tuple[np.ndarray, np.ndarray]    # the graph's tails and heads
    degrees: tuple[np.ndarray, np.ndarray]  # out- and in-degree per node
    known: np.ndarray     # bool per node
    m: np.ndarray         # free nodes per class
    p: np.ndarray         # (C, C) class probabilities
    forced: np.ndarray    # (C, C) int8 FREE / FORCED_LIM

    @cached_property
    def node_cls(self) -> np.ndarray:
        """Class per node, C for the known nodes: the free nodes' degrees
        left by conditioning, in the classes' (k_out, k_in) order."""
        (k_out,), (k_in,) = _conditioned_degrees(self.links, self.degrees,
                                                 self.known[None])
        node_cls = np.full(self.n, len(self.m))
        node_cls[~self.known] = np.unique(  # sorts as _classify does
            _key(k_out, k_in)[0], return_index=True, return_inverse=True)[2]
        return node_cls

    @property
    def partners(self) -> np.ndarray:
        """partners[c, d]: the free nodes of class d a node of class c can
        link to."""
        return _partners(self.m)

    @cached_property
    def _gather_from(self):
        """The class p with class C (the known nodes) at 0, and the links
        with a known end, sorted by tail."""
        tail, head = self.links
        seen = np.flatnonzero(self.known[tail] | self.known[head])
        seen = seen[np.argsort(tail[seen], kind="stable")]
        return np.pad(self.p, (0, 1)), tail[seen], head[seen]

    def rows(self, r0: int, r1: int) -> np.ndarray:
        """expand().p[r0:r1]: the free pairs' class values, a zero diagonal
        and the known nodes' observed links, gathered row by row."""
        p, tail, head = self._gather_from
        p = p[self.node_cls[r0:r1]][:, self.node_cls]
        np.fill_diagonal(p[:, r0:], 0.0)
        lo, hi = np.searchsorted(tail, (r0, r1))
        p[tail[lo:hi] - r0, head[lo:hi]] = 1.0
        return p

    def expand(self) -> ProbMatrix:
        """The node-level ProbMatrix; the known nodes' rows and columns
        are FORCED_OBS."""
        forced = np.pad(self.forced, (0, 1), constant_values=FORCED_OBS)
        forced = forced[self.node_cls][:, self.node_cls]
        np.fill_diagonal(forced, FREE)
        return ProbMatrix(n=self.n, directed=self.directed,
                          p=self.rows(0, self.n), forced=forced)


def _conditioned_degrees(links, degrees, known: np.ndarray):
    """Out- and in-degrees, as (B, N) rows, of the N nodes left free by
    conditioning on each row of the (B, n) mask `known`: the links of the
    known nodes are fixed, so only the links among the free nodes count."""
    tail, head = links
    b, n = known.shape
    rows = []
    for k, end, other in ((degrees[0], tail, head), (degrees[1], head, tail)):
        row, link = np.nonzero(known[:, other])
        k = k - np.bincount(row * n + end[link], minlength=b * n).reshape(b, n)
        rows.append(k[~known].reshape(b, -1))
    return rows


def _solve_graph(n: int, directed: bool, edges, degrees, cond: list[int] | None,
                 opts: SolverOptions):
    """Yield (nodes, x, y, ClassSolution | None, residual, iterations) of the
    ensemble of n nodes with these links and out- and in-degrees conditioned
    on the node set `cond`, or with cond None on each node in turn (nodes is
    then that node): the class fitnesses x and y (y is x when undirected),
    and None where the solve did not converge.

    The systems go through one stacker: a set is a chunk of one, and the
    one-node sets come in chunks of max(1, CHUNK_ELEMENTS // n), each
    classified as the caller consumes the results. The nodes come in block
    order; a result does not depend on the block it was solved in.
    """
    if cond is None:
        step = max(1, CHUNK_ELEMENTS // max(n, 1))
        tags = [range(lo, min(lo + step, n)) for lo in range(0, n, step)]
        known = (np.arange(n) == np.asarray(nodes)[:, None] for nodes in tags)
    else:
        tags, known = [[cond]], [np.isin(np.arange(n), cond)[None]]
    chunks = ((nodes, *_conditioned_degrees(edges, degrees, k))
              for nodes, k in zip(tags, known))
    for nodes, s, x, y, p, res, its in _stacks(chunks, directed, opts):
        sol = None
        if res <= opts.tolerance:  # NaN fails too
            mask = np.zeros(n, dtype=bool)
            mask[nodes] = True
            forced = (np.zeros(p.shape, np.int8) if s.free is None
                      else np.where(s.free, FREE, FORCED_LIM).astype(np.int8))
            sol = ClassSolution(n, directed, edges, degrees, mask, s.m, p, forced)
        yield nodes, x, y, sol, float(res), int(its)


def _converged(sol: ClassSolution | None, residual: float, iterations: int,
               cond: list[int]) -> ClassSolution:
    """sol, or SolverError, naming the node of a one-node set `cond`, where
    the solve did not converge (sol None)."""
    if sol is None:
        raise SolverError("degree-constrained solve did not converge",
                          residual=residual, iterations=iterations,
                          node=cond[0] if len(cond) == 1 else None)
    return sol


def _graph(g: Graph):
    """g's node count, direction, links and out- and in-degrees, the first
    arguments of _solve_graph."""
    edges = links(g)
    return g.n, g.directed, edges, tuple(np.bincount(end, minlength=g.n)
                                         for end in edges)


def _conditioning_set(g: Graph, nodes: Iterable[int]) -> list[int]:
    """The sorted distinct nodes of a conditioning set, which must be a
    non-empty proper subset of g's nodes."""
    cond = sorted(set(int(v) for v in nodes))
    if not cond:
        raise InputError("conditioning set must be non-empty")
    for v in cond:
        if not 0 <= v < g.n:
            raise InputError(f"conditioned node {v} out of range")
    if len(cond) >= g.n:
        raise InputError("conditioning set must be a proper subset of the nodes")
    return cond


def solve_classes(g: Graph, nodes: Iterable[int] | None = None,
                  opts: SolverOptions | None = None) -> ClassSolution:
    """g's ensemble on degree classes: the benchmark when `nodes` is None,
    else the ensemble conditioned on the exact link patterns of `nodes`, a
    non-empty proper subset of g's nodes.

    Raises SolverError, naming the node of a one-node set, if the solve
    does not converge.
    """
    cond = [] if nodes is None else _conditioning_set(g, nodes)
    ((_, _, _, sol, residual, iterations),) = _solve_graph(
        *_graph(g), cond, opts or SolverOptions())
    return _converged(sol, residual, iterations, cond)


def solve_benchmark(g: Graph, opts: SolverOptions | None = None) -> ProbMatrix:
    """Configuration-model probabilities for g's own degree sequence: the
    ensemble conditioned on no node."""
    return solve_classes(g, None, opts).expand()


def solve_each_conditioned(g: Graph, opts: SolverOptions | None = None):
    """Yield (node, ClassSolution | None) for every node of g: the ensemble
    conditioned on that node alone, equal to solve_classes(g, [node]) bit
    for bit, or None where its solve did not converge. Nodes come in the
    block order of the stacked solve, not in index order."""
    if g.n == 1:  # raises: one node has no proper one-node set
        _conditioning_set(g, [0])
    for i, _, _, sol, _, _ in _solve_graph(*_graph(g), None,
                                           opts or SolverOptions()):
        yield i, sol


def _solve(k_out, k_in, directed: bool, opts: SolverOptions | None):
    """Check a degree sequence and solve it as a graph with no links,
    conditioned on no node; expand the solution to nodes."""
    k_out = np.asarray(k_out, dtype=np.int64)
    k_in = np.asarray(k_in, dtype=np.int64)
    n = len(k_out)
    for arr in (k_out, k_in):
        if np.any(arr < 0) or (n > 0 and np.any(arr > n - 1)):
            raise InputError("degrees must lie in [0, n-1]")
    if int(k_out.sum()) != int(k_in.sum()):
        raise InputError("sum of out-degrees must equal sum of in-degrees")
    if not directed and int(k_out.sum()) % 2 != 0:
        raise InputError("undirected degree sum must be even")

    no_links = (np.zeros(0, np.int64),) * 2
    ((_, x, y, sol, residual, iterations),) = _solve_graph(
        n, directed, no_links, (k_out, k_in), [], opts or SolverOptions())
    sol = _converged(sol, residual, iterations, [])
    params = ParamVector(directed=directed, x=x[sol.node_cls],
                         y=y[sol.node_cls] if directed else None,
                         residual=residual, iterations=iterations)
    return params, sol.expand()


def solve_ubcm(deg: DegreeSeq, opts: SolverOptions | None = None):
    """Solve the undirected configuration model for a degree sequence.

    Returns (ParamVector, ProbMatrix) with max_i |k_i - sum_j p_ij| within
    opts.tolerance.
    """
    if deg.directed:
        raise InputError("solve_ubcm needs an undirected degree sequence")
    return _solve(deg.k, deg.k, False, opts)


def solve_dbcm(deg: DegreeSeq, opts: SolverOptions | None = None):
    """Directed analogue of solve_ubcm, constraining out- and in-degrees."""
    if not deg.directed:
        raise InputError("solve_dbcm needs a directed degree sequence")
    return _solve(deg.k_out, deg.k_in, True, opts)
