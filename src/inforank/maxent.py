"""Degree-constrained maximum-entropy solvers.

Link probabilities take the fitness form p_ij = x_i x_j / (1 + x_i x_j)
(undirected) or x_i y_j / (1 + x_i y_j) (directed). Parameters are found by
fixed-point iteration on x_i <- k_i / sum_j x_j/(1 + x_i x_j).

Nodes with equal degrees (equal (k_out, k_in) when directed) share one
fitness value and one pin for each other class, so every solve runs on the
C distinct degrees instead of the n nodes ("degree reduction", Vallarano et
al., Sci. Rep. 11:15227, 2021): an iteration costs O(C^2), and n x n arrays
are built only when the class solution is expanded to a ProbMatrix. The
class iteration makes the node-level iterates in exact arithmetic; in
floating point its results can differ from them in the 12th significant
digit.

Every ensemble of a graph is solved by one route: the ensemble conditioned
on a node set, whose links are fixed to the observed ones. The benchmark is
the ensemble conditioned on no node, `solve_classes` solves either, and
`solve_each_conditioned` conditions on each node in turn. Each system is
classified once and joins the pending block of its class count, and a full
block is iterated as one stack, each system to its own convergence: the n
one-node systems of a ranking pay the per-step call overhead once per block
instead of once per node, and each result is bit-identical to the one its
system gives alone. A degree sequence without a graph (`solve_ubcm`,
`solve_dbcm`) is a block of one.

The route yields a ClassSolution, which the scorers read in O(C^2 + n + m);
only the public ProbMatrix solves and the risk sampler expand it to n x n.

The finite solution exists only strictly inside the polytope of expected
degrees. Degenerate degrees are handled exactly before iterating:
  * k_i = 0 -> x_i = 0, all incident probabilities are exactly 0;
  * every pair that takes the same value at all points of the polytope (a
    boundary face, e.g. a node whose degree equals its available partners)
    is pinned to that value. An O(n log n) cut test decides whether any
    pair can be fixed; only then are they found exactly, by one maximum
    flow on the class network and the strongly connected components of its
    residual graph. The rest of the system is solved with the degrees left
    after the pairs pinned to 1.

Pinned entries are tracked in a mask so downstream consumers can tell free
probabilities from boundary-pinned ones and from entries fixed by
conditioning on an observed link pattern.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
# The finite fixed point exists only when the degrees lie in the relative
# interior of the polytope of expected degrees. On its boundary some pairs
# take the same value, 0 or 1, at every point of the polytope, and the
# parameters run away; those pairs are pinned exactly before iterating. The
# directed polytope is the set of flows in the network
#   source -> out_i (capacity k_out_i), out_i -> in_j (1, i != j),
#   in_j -> sink (capacity k_in_j)
# that saturate the source and the sink. A pair is fixed iff its arc lies on
# no cycle of the residual graph of one such flow, i.e. its ends fall in
# different strongly connected components (Regin, AAAI 1994). An undirected
# sequence k is the symmetric case k_out = k_in = k: symmetrising a
# fractional solution keeps every positive entry, so both fix the same pairs.

def _tight_cut(k_out: np.ndarray, k_in: np.ndarray) -> bool:
    """Whether some cut of the flow network is tight, i.e. may fix a pair.

    Only rows R = {k_out > 0} and columns C = {k_in > 0} matter. A row or
    column is tight when its degree equals its available partners. A cut
    through s rows, 1 <= s < |R|, has the largest excess
        E(s) = sum of the s largest (k_out_i + [k_in_i >= s])
               - sum_j min(k_in_j, s),
    taken by the first s rows in descending (k_out, k_in) order
    (Fulkerson-Chen-Anstee); E(s) = 0 is tight. Any excess above zero
    means no feasible point and raises InputError. Takes O(n log n) time
    (a lexsort) and O(n) memory.
    """
    rows, cols = k_out > 0, k_in > 0
    n_r, n_c = int(rows.sum()), int(cols.sum())
    slack_out = n_c - cols - k_out
    slack_in = n_r - rows - k_in
    if np.any(slack_out < 0) or np.any(slack_in < 0):
        raise InputError("infeasible degree sequence: a node needs more "
                         "partners than are available")
    tight = bool(np.any(rows & (slack_out == 0)) or np.any(cols & (slack_in == 0)))
    if n_r < 2:
        return tight

    order = np.lexsort((-k_in, -k_out))[:n_r]
    top = np.cumsum(k_out[order])[:-1]
    # the row at position p counts towards [k_in >= s] for p <= s <= k_in
    pos = np.arange(1, n_r + 1)
    last = np.minimum(k_in[order], n_r - 1)
    live = last >= pos
    own = np.cumsum(np.bincount(pos[live], minlength=n_r + 1)
                    - np.bincount(last[live] + 1, minlength=n_r + 1))[1:n_r]
    # sum_j min(k_in_j, s) = sum_{t <= s} #{j : k_in_j >= t}
    at_least = np.cumsum(np.bincount(k_in, minlength=n_r + 1)[::-1])[::-1]
    excess = top + own - np.cumsum(at_least[1:n_r])
    if excess.max() > 0:
        raise InputError("infeasible degree sequence: the links of the top "
                         f"{int(np.argmax(excess)) + 1} nodes exceed every "
                         "realisation")
    return tight or bool(excess.max() == 0)


def _partners(m: np.ndarray) -> np.ndarray:
    """partners[..., c, d]: the nodes of class d a node of class c can link
    to, for one vector of class sizes m or a stack of them."""
    return m[..., None, :] - np.eye(m.shape[-1], dtype=np.int64)


def _fixed_pairs(k_out: np.ndarray, k_in: np.ndarray, m: np.ndarray):
    """Class pairs fixed over the polytope, and those among them fixed at 1.

    Pins are invariant under degree-preserving permutations, so the flow
    network aggregates to classes: source -> c (capacity m_c k_out_c),
    c -> d (the m_c partners[c, d] pairs between them), d -> sink
    (m_d k_in_d). A class flow spread evenly over its pairs is a node flow,
    so a class pair is fixed iff its arc's ends fall in different strongly
    connected components of one maximum flow's residual graph, and then its
    flow is 0 or its capacity. Only rows with k_out > 0 and columns with
    k_in > 0 take part.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, maximum_flow

    c = len(m)
    rows, cols = np.flatnonzero(k_out > 0), np.flatnonzero(k_in > 0)
    pairs = m[:, None] * _partners(m)
    arcs = np.outer(k_out > 0, k_in > 0) & (pairs > 0)
    i, j = np.nonzero(arcs)
    # nodes: source 0, out_c = 1 + c, in_d = 1 + C + d, sink 2C + 1
    sink = 2 * c + 1
    tail = np.concatenate([np.zeros(len(rows), np.int64), 1 + i, 1 + c + cols])
    head = np.concatenate([1 + rows, 1 + c + j, np.full(len(cols), sink)])
    cap = np.concatenate([m[rows] * k_out[rows], pairs[i, j], m[cols] * k_in[cols]])
    net = csr_matrix((cap.astype(np.int32), (tail, head)), shape=(sink + 1,) * 2)
    flow = maximum_flow(net, 0, sink).flow
    _, comp = connected_components((net - flow) > 0, directed=True,
                                   connection="strong")
    fixed = arcs & (comp[1:c + 1, None] != comp[None, c + 1:sink])
    return fixed, fixed & (flow[1:c + 1, c + 1:sink].toarray() > 0)


def _pin_boundary(k_out: np.ndarray, k_in: np.ndarray, m: np.ndarray):
    """Pin the class pairs the degree polytope fixes, for either solver.

    Takes the class degrees and class sizes m. Returns (k_out, k_in, free,
    ones), all per class: the degrees left after the pairs fixed at 1 are
    removed, the pairs left to the iteration and the pairs fixed at 1. The
    pairs not free are FORCED_LIM: every pair fixed at 1, and a pair fixed
    at 0 while both of its ends keep a positive degree; a pair fixed at 0
    with a saturated end stays free and comes out as an exact 0 through
    x = 0 there.
    """
    c = len(m)
    if not _tight_cut(np.repeat(k_out, m), np.repeat(k_in, m)):
        return (k_out, k_in, np.ones((c, c), dtype=bool),
                np.zeros((c, c), dtype=bool))

    fixed, ones = _fixed_pairs(k_out, k_in, m)
    partners = _partners(m)
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
# in-partners there. The fixed-point loops run a stack of B systems of one
# class count C as (B, C) and (B, C, C) arrays; a single solve is a stack of
# one. Stacking never pads a system: a padded class changes the order of the
# sums in the matrix products and with it the last bits of p.

# Class-pair entries (B * C^2) of one stacked block of conditioned systems;
# it bounds the memory of the block's (B, C, C) arrays.
STACK_ELEMENTS = 1 << 16


class _System(NamedTuple):
    """One class system ready to iterate: the class of each node, then per
    class the sizes m and what _pin_boundary returns."""

    cls: np.ndarray
    m: np.ndarray
    k_out: np.ndarray
    k_in: np.ndarray
    free: np.ndarray
    ones: np.ndarray


def _classes(k_out: np.ndarray, k_in: np.ndarray):
    """Class of each node, class sizes, and the degrees of each class."""
    key = k_out * (int(k_in.max(initial=0)) + 1) + k_in
    _, first, cls, m = np.unique(key, return_index=True, return_inverse=True,
                                 return_counts=True)
    return cls, m, k_out[first], k_in[first]


def _expand(a: np.ndarray, cls: np.ndarray) -> np.ndarray:
    """Node matrix of the class matrix a, with a zero diagonal."""
    out = a[cls][:, cls]
    np.fill_diagonal(out, 0)
    return out


def _run(step, consts, xs, live: np.ndarray, opts: SolverOptions):
    """Iterate a stack of systems, one per leading index, to convergence.

    step(*consts, *xs) returns each system's residual at xs and the next
    xs. A system leaves the stack at its first iteration with residual <=
    tolerance and keeps the xs of that iteration; systems not `live` never
    enter and keep xs = 0 and residual 0. Returns (xs, residual,
    iterations). A system still in the stack after max_iterations keeps
    xs = 0 and its last residual, which is above the tolerance.
    """
    out = [np.zeros_like(x) for x in xs]
    residual = np.zeros(len(live))
    iterations = np.zeros(len(live), dtype=np.int64)
    idx = np.flatnonzero(live)
    consts = [c[idx] for c in consts]
    xs = [x[idx] for x in xs]
    res = residual[idx]
    for it in range(1, opts.max_iterations + 1):
        if not len(idx):
            break
        res, xs_next = step(*consts, *xs)
        done = res <= opts.tolerance
        if done.any():
            stop = idx[done]
            for o, x in zip(out, xs):
                o[stop] = x[done]
            residual[stop] = res[done]
            iterations[stop] = it
            left = ~done
            idx, res = idx[left], res[left]
            consts = [c[left] for c in consts]
            xs_next = [x[left] for x in xs_next]
        xs = xs_next
    residual[idx] = res
    iterations[idx] = opts.max_iterations
    return out, residual, iterations


def _start(k: np.ndarray, total: np.ndarray) -> np.ndarray:
    """k / sqrt(sum of all node degrees), the node-level iteration's start,
    per system; systems with no links get 0."""
    return k / np.sqrt(np.where(total > 0, total, 1))[:, None]


def _iterate_undirected(k: np.ndarray, w: np.ndarray, total: np.ndarray,
                        opts: SolverOptions):
    """Fixed point x_c <- k_c / sum_d w[c, d] x_d / (1 + x_c x_d) on a stack:
    k is (B, C), w is (B, C, C) and total holds each system's degree sum.

    Each system starts where the node-level iteration does, and so makes
    the same iterates in exact arithmetic. Returns (x, residual,
    iterations) as _run does.
    """
    k = k.astype(float)

    def step(k, w, x):
        s = ((w / (1.0 + x[:, :, None] * x[:, None])) @ x[:, :, None])[:, :, 0]
        return np.abs(k - x * s).max(axis=1), (k / np.where(s > 0, s, np.inf),)

    (x,), residual, iterations = _run(step, (k, w), (_start(k, total),),
                                      total > 0, opts)
    return x, residual, iterations


def _iterate_directed(k_out: np.ndarray, k_in: np.ndarray, w_out: np.ndarray,
                      w_in: np.ndarray, total: np.ndarray, opts: SolverOptions):
    """Directed class fixed point on a stack; w_out[b, c, d] counts the free
    out-partners in class d of a node of class c, w_in[b, c, d] the free
    in-partners in class c of a node of class d."""
    ko = k_out.astype(float)
    ki = k_in.astype(float)

    def step(ko, ki, w_out, w_in, x, y):
        d = 1.0 + x[:, :, None] * y[:, None]
        sx = ((w_out / d) @ y[:, :, None])[:, :, 0]
        sy = (x[:, None] @ (w_in / d))[:, 0]
        residual = np.maximum(np.abs(ko - x * sx).max(axis=1),
                              np.abs(ki - y * sy).max(axis=1))
        return residual, (ko / np.where(sx > 0, sx, np.inf),
                          ki / np.where(sy > 0, sy, np.inf))

    (x, y), residual, iterations = _run(
        step, (ko, ki, w_out, w_in), (_start(ko, total), _start(ki, total)),
        total > 0, opts)
    return x, y, residual, iterations


def _solve_systems(systems: list[_System], directed: bool, opts: SolverOptions):
    """Iterate class systems of one class count together.

    Returns their class x, y and p as (B, C) and (B, C, C) stacks, with
    their residuals and iterations. A system converged iff its residual is
    <= tolerance; the p of one that did not is meaningless.
    """
    m = np.stack([s.m for s in systems])
    k_out = np.stack([s.k_out for s in systems])
    free = np.stack([s.free for s in systems])
    partners = _partners(m)
    total = (m * k_out).sum(axis=1)
    w_out = (free * partners).astype(float)
    if directed:
        x, y, residual, iterations = _iterate_directed(
            k_out, np.stack([s.k_in for s in systems]), w_out,
            (free * partners.transpose(0, 2, 1)).astype(float), total, opts)
    else:
        x, residual, iterations = _iterate_undirected(k_out, w_out, total, opts)
        y = x

    xy = x[:, :, None] * y[:, None]
    p = np.where(free, xy / (1.0 + xy), np.stack([s.ones for s in systems]))
    return x, y, p, residual, iterations


def _stacks(degrees: Iterable, directed: bool, opts: SolverOptions):
    """Solve the system of each (tag, k_out, k_in) of `degrees` (int64 node
    degrees, k_out = k_in = k undirected), classified and pinned once as it
    arrives. A block of one class count C is iterated as soon as it holds
    max(1, STACK_ELEMENTS // C^2) systems, the partial blocks at the end.
    Yields (tag, system, x, y, p, residual, iterations) in block order.
    """
    pending: dict[int, list] = {}

    def solve(block):
        tags, systems = zip(*block)
        yield from zip(tags, systems,
                       *_solve_systems(list(systems), directed, opts))

    for tag, k_out, k_in in degrees:
        cls, m, k_out, k_in = _classes(k_out, k_in)
        block = pending.setdefault(len(m), [])
        block.append((tag, _System(cls, m, *_pin_boundary(k_out, k_in, m))))
        if len(block) >= max(1, STACK_ELEMENTS // max(len(m) ** 2, 1)):
            yield from solve(pending.pop(len(m)))
    for block in pending.values():
        yield from solve(block)


# ---------------------------------------------------------------------------
# public solves
# ---------------------------------------------------------------------------

def _solve(k_out, k_in, directed: bool, opts: SolverOptions | None):
    """Check a degree sequence, solve it on classes, expand it to nodes."""
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

    opts = opts or SolverOptions()
    ((_, s, x, y, p, residual, iterations),) = _stacks(
        [(None, k_out, k_in)], directed, opts)
    residual, iterations = float(residual), int(iterations)
    if not residual <= opts.tolerance:  # NaN fails too
        raise SolverError("degree-constrained solve did not converge",
                          residual=residual, iterations=iterations)
    params = ParamVector(directed=directed, x=x[s.cls],
                         y=y[s.cls] if directed else None,
                         residual=residual, iterations=iterations)
    forced = np.where(s.free, FREE, FORCED_LIM).astype(np.int8)
    return params, ProbMatrix(n=n, directed=directed, p=_expand(p, s.cls),
                              forced=_expand(forced, s.cls))


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


# ---------------------------------------------------------------------------
# graph solves
# ---------------------------------------------------------------------------
#
# Every ensemble of a graph g is g's ensemble conditioned on a node set: the
# links of the set's nodes are fixed to the observed ones, and the other
# nodes form a plain configuration model on the degrees left among
# themselves. The empty set gives the benchmark.

@dataclass
class ClassSolution:
    """A graph's ensemble conditioned on a node set, on degree classes.

    The known (conditioned) nodes keep their observed links. Every other
    node i has class node_cls[i], and the pair (i, j) of two such nodes has
    probability p[node_cls[i], node_cls[j]] and provenance
    forced[node_cls[i], node_cls[j]] (FREE or FORCED_LIM). The known nodes
    have class C, one past the last. `expand` builds the node-level
    ProbMatrix.
    """

    n: int
    directed: bool
    links: tuple[np.ndarray, np.ndarray]  # the graph's tails and heads
    known: np.ndarray     # bool per node
    node_cls: np.ndarray  # class per node, C for the known nodes
    m: np.ndarray         # free nodes per class
    p: np.ndarray         # (C, C) class probabilities
    forced: np.ndarray    # (C, C) int8 FREE / FORCED_LIM

    @property
    def partners(self) -> np.ndarray:
        """partners[c, d]: the free nodes of class d a node of class c can
        link to."""
        return _partners(self.m)

    def expand(self) -> ProbMatrix:
        """The node-level ProbMatrix: the free nodes' class values, and the
        known nodes' rows and columns set to their observed links
        (FORCED_OBS)."""
        p = _expand(np.pad(self.p, (0, 1)), self.node_cls)
        forced = _expand(np.pad(self.forced, (0, 1), constant_values=FORCED_OBS),
                         self.node_cls)
        tail, head = self.links
        seen = self.known[tail] | self.known[head]
        p[tail[seen], head[seen]] = 1.0
        return ProbMatrix(n=self.n, directed=self.directed, p=p, forced=forced)


def _known(n: int, cond) -> np.ndarray:
    """Mask of the conditioned nodes."""
    known = np.zeros(n, dtype=bool)
    known[cond] = True
    return known


def _conditioned_degrees(links, known: np.ndarray):
    """Out- and in-degrees of the nodes left free by conditioning on the
    `known` nodes: their links into the known nodes are fixed, so only the
    links among themselves still count."""
    tail, head = links
    among = ~(known[tail] | known[head])
    return (np.bincount(tail[among], minlength=len(known))[~known],
            np.bincount(head[among], minlength=len(known))[~known])


def _solve_graph(g: Graph, sets: list[list[int]], opts: SolverOptions):
    """Yield (j, ClassSolution | None, residual, iterations) for every node
    set sets[j]: g's ensemble conditioned on that set, or None where its
    solve did not converge.

    The sets' systems go through one stacker, built one at a time as the
    caller consumes the results; sets come in block order, not in list
    order. A result does not depend on the block it was solved in.
    """
    tails_heads = links(g)
    known = (_known(g.n, nodes) for nodes in sets)
    degrees = (((j, k), *_conditioned_degrees(tails_heads, k))
               for j, k in enumerate(known))
    for (j, k), s, _, _, p, res, its in _stacks(degrees, g.directed, opts):
        sol = None
        if res <= opts.tolerance:
            node_cls = np.full(g.n, len(s.m))
            node_cls[~k] = s.cls
            forced = np.where(s.free, FREE, FORCED_LIM).astype(np.int8)
            sol = ClassSolution(g.n, g.directed, tails_heads, k, node_cls,
                                s.m, p, forced)
        yield j, sol, float(res), int(its)


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
    ((_, sol, residual, iterations),) = _solve_graph(g, [cond],
                                                     opts or SolverOptions())
    if sol is None:
        raise SolverError("degree-constrained solve did not converge",
                          residual=residual, iterations=iterations,
                          node=cond[0] if len(cond) == 1 else None)
    return sol


def solve_benchmark(g: Graph, opts: SolverOptions | None = None) -> ProbMatrix:
    """Configuration-model probabilities for g's own degree sequence: the
    ensemble conditioned on no node."""
    return solve_classes(g, None, opts).expand()


def solve_conditioned_set(g: Graph, nodes: Iterable[int],
                          opts: SolverOptions | None = None) -> ProbMatrix:
    """Solve the ensemble conditioned on the exact link patterns of `nodes`.

    Every entry incident to a conditioned node is pinned to the observed
    adjacency value; the remaining nodes are solved with degrees reduced by
    their (now known) links into the conditioned set.
    """
    return solve_classes(g, nodes, opts).expand()


def solve_each_conditioned(g: Graph, opts: SolverOptions | None = None):
    """Yield (node, ClassSolution | None) for every node of g: the ensemble
    conditioned on that node alone, equal to solve_classes(g, [node]) bit
    for bit, or None where its solve did not converge. Nodes come in the
    block order of the stacked solve, not in index order."""
    sets = [_conditioning_set(g, [i]) for i in range(g.n)]
    for i, sol, _, _ in _solve_graph(g, sets, opts or SolverOptions()):
        yield i, sol
