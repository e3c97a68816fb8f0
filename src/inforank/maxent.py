"""Degree-constrained maximum-entropy solvers.

Link probabilities take the fitness form p_ij = x_i x_j / (1 + x_i x_j)
(undirected) or x_i y_j / (1 + x_i y_j) (directed). Parameters are found by
damped fixed-point iteration on x_i <- k_i / sum_j x_j/(1 + x_i x_j).

The finite solution exists only strictly inside the polytope of expected
degrees. Degenerate degrees are handled exactly before iterating:
  * k_i = 0 -> x_i = 0, all incident probabilities are exactly 0;
  * every pair that takes the same value at all points of the polytope (a
    boundary face, e.g. a node whose degree equals its available partners)
    is pinned to that value. An O(n) cut test decides whether any pair can
    be fixed; only then are they found exactly, by one maximum flow and the
    strongly connected components of its residual graph. The rest of the
    system is solved with the degrees left after the pairs pinned to 1.

Pinned entries are tracked in a mask so downstream consumers can tell free
probabilities from boundary-pinned ones and from entries fixed by
conditioning on an observed link pattern.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InputError, SolverError
from .graphs import DegreeSeq, Graph, degree_sequence

# forced-mask codes
FREE = 0          # solved by the iteration (or exactly zero via x_i = 0)
FORCED_OBS = 1    # pinned to an observed adjacency entry by conditioning
FORCED_LIM = 2    # pinned to 0 or 1 on the polytope boundary (limit of the solution)


@dataclass
class SolverOptions:
    tolerance: float = 1e-10
    max_iterations: int = 100_000
    damping: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:
            raise InputError("tolerance must be positive and finite")
        if not 0.0 < self.damping <= 1.0:
            raise InputError("damping must be in (0, 1]")
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
        np.fill_diagonal(self.p, 0.0)
        if self.p.min() < 0.0 or self.p.max() > 1.0:
            raise InputError("probabilities must lie in [0, 1]")

    def free_mask(self) -> np.ndarray:
        m = self.forced == FREE
        np.fill_diagonal(m, False)
        return m

    def row_sums(self) -> np.ndarray:
        return self.p.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.p.sum(axis=0)


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
    means no feasible point and raises InputError. Uses O(n) memory.
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


def _fixed_pairs(k_out: np.ndarray, k_in: np.ndarray):
    """Pairs fixed over the polytope, and those among them fixed at 1.

    One maximum flow plus the strongly connected components of its residual
    graph; only pairs between a row in R and a column in C take part.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, maximum_flow

    n = len(k_out)
    rows, cols = np.flatnonzero(k_out > 0), np.flatnonzero(k_in > 0)
    arcs = np.outer(k_out > 0, k_in > 0)
    np.fill_diagonal(arcs, False)
    i, j = np.nonzero(arcs)
    # nodes: source 0, out_i = 1 + i, in_j = 1 + n + j, sink 2n + 1
    sink = 2 * n + 1
    tail = np.concatenate([np.zeros(len(rows), np.int64), 1 + i, 1 + n + cols])
    head = np.concatenate([1 + rows, 1 + n + j, np.full(len(cols), sink)])
    cap = np.concatenate([k_out[rows], np.ones(len(i), np.int64), k_in[cols]])
    net = csr_matrix((cap.astype(np.int32), (tail, head)), shape=(sink + 1,) * 2)
    flow = maximum_flow(net, 0, sink).flow
    _, comp = connected_components((net - flow) > 0, directed=True,
                                   connection="strong")
    fixed = arcs & (comp[1:n + 1, None] != comp[None, n + 1:sink])
    return fixed, fixed & (flow[1:n + 1, n + 1:sink].toarray() > 0)


def _pin_boundary(k_out: np.ndarray, k_in: np.ndarray):
    """Pin the pairs the degree polytope fixes, for either solver.

    Returns (k_out, k_in, free, ones, forced): the degrees left after the
    pairs fixed at 1 are removed, the mask of pairs left to the iteration,
    the pairs fixed at 1 and the FORCED_LIM mask. A pair fixed at 1 is
    FORCED_LIM. A pair fixed at 0 is FORCED_LIM only while both of its ends
    keep a positive degree; otherwise it stays FREE and comes out as an
    exact 0 through x = 0 at its saturated end.
    """
    n = len(k_out)
    free = ~np.eye(n, dtype=bool)
    forced = np.zeros((n, n), dtype=np.int8)
    if not _tight_cut(k_out, k_in):
        return k_out, k_in, free, np.zeros((n, n), dtype=bool), forced

    fixed, ones = _fixed_pairs(k_out, k_in)
    k_out = k_out - ones.sum(axis=1)
    k_in = k_in - ones.sum(axis=0)
    lim = ones | (fixed & np.outer(k_out > 0, k_in > 0))
    free &= ~lim
    forced[lim] = FORCED_LIM
    return k_out, k_in, free, ones, forced


# ---------------------------------------------------------------------------
# cores
# ---------------------------------------------------------------------------

def _iterate_masked(k: np.ndarray, free: np.ndarray, opts: SolverOptions):
    """Damped fixed-point iteration restricted to the free pairs."""
    n = len(k)
    active = np.flatnonzero(k > 0)
    x_full = np.zeros(n)
    if len(active) == 0:
        return x_full, 0.0, 0

    ka = k[active].astype(float)
    mask = free[np.ix_(active, active)].astype(float)
    x = ka / np.sqrt(ka.sum())
    residual = np.inf
    for it in range(1, opts.max_iterations + 1):
        t = mask / (1.0 + np.outer(x, x))
        s = t @ x
        residual = float(np.max(np.abs(ka - x * s)))
        if residual <= opts.tolerance:
            x_full[active] = x
            return x_full, residual, it
        x_new = np.where(s > 0, ka / np.where(s > 0, s, 1.0), 0.0)
        x = opts.damping * x_new + (1.0 - opts.damping) * x
    raise SolverError("degree-constrained solve did not converge",
                      residual=residual, iterations=opts.max_iterations)


def _ubcm_core(k: np.ndarray, opts: SolverOptions):
    k = np.asarray(k, dtype=np.int64)
    k, _, free, ones, forced = _pin_boundary(k, k)
    x, residual, iterations = _iterate_masked(k, free, opts)

    xx = np.outer(x, x)
    p = np.where(free, xx / (1.0 + xx), ones)
    return x, p, forced, residual, iterations


def _iterate_directed(k_out: np.ndarray, k_in: np.ndarray, free: np.ndarray,
                      opts: SolverOptions):
    n = len(k_out)
    x = np.zeros(n)
    y = np.zeros(n)
    ko = k_out.astype(float)
    ki = k_in.astype(float)
    l_tot = ko.sum()
    if l_tot == 0:
        return x, y, 0.0, 0

    out_idx = np.flatnonzero(ko > 0)
    in_idx = np.flatnonzero(ki > 0)
    x[out_idx] = ko[out_idx] / np.sqrt(l_tot)
    y[in_idx] = ki[in_idx] / np.sqrt(l_tot)
    # the diagonal stays in t and is subtracted after the products, which
    # keeps solves without pins bit-identical to the unmasked iteration
    mask = free.astype(float)
    np.fill_diagonal(mask, 1.0)
    residual = np.inf
    for it in range(1, opts.max_iterations + 1):
        t = mask / (1.0 + np.outer(x, y))
        diag = np.diagonal(t)
        sx = t @ y - y * diag
        sy = t.T @ x - x * diag
        res_out = np.max(np.abs(ko - x * sx)) if len(out_idx) else 0.0
        res_in = np.max(np.abs(ki - y * sy)) if len(in_idx) else 0.0
        residual = float(max(res_out, res_in))
        if residual <= opts.tolerance:
            return x, y, residual, it
        x_new = np.where(sx > 0, ko / np.where(sx > 0, sx, 1.0), 0.0)
        y_new = np.where(sy > 0, ki / np.where(sy > 0, sy, 1.0), 0.0)
        x = opts.damping * x_new + (1.0 - opts.damping) * x
        y = opts.damping * y_new + (1.0 - opts.damping) * y
    raise SolverError("degree-constrained solve did not converge",
                      residual=residual, iterations=opts.max_iterations)


def _dbcm_core(k_out: np.ndarray, k_in: np.ndarray, opts: SolverOptions):
    k_out, k_in, free, ones, forced = _pin_boundary(
        np.asarray(k_out, dtype=np.int64), np.asarray(k_in, dtype=np.int64))
    x, y, residual, iterations = _iterate_directed(k_out, k_in, free, opts)

    xy = np.outer(x, y)
    p = np.where(free, xy / (1.0 + xy), ones)
    return x, y, p, forced, residual, iterations


# ---------------------------------------------------------------------------
# public solves
# ---------------------------------------------------------------------------

def solve_ubcm(deg: DegreeSeq, opts: SolverOptions | None = None):
    """Solve the undirected configuration model for a degree sequence.

    Returns (ParamVector, ProbMatrix) with max_i |k_i - sum_j p_ij| within
    opts.tolerance.
    """
    opts = opts or SolverOptions()
    if deg.directed:
        raise InputError("solve_ubcm needs an undirected degree sequence")
    k = np.asarray(deg.k, dtype=np.int64)
    n = len(k)
    if np.any(k < 0) or (n > 0 and np.any(k > n - 1)):
        raise InputError("degrees must lie in [0, n-1]")
    if int(k.sum()) % 2 != 0:
        raise InputError("undirected degree sum must be even")

    x, p, forced, residual, iterations = _ubcm_core(k, opts)
    params = ParamVector(directed=False, x=x, y=None,
                         residual=residual, iterations=iterations)
    return params, ProbMatrix(n=n, directed=False, p=p, forced=forced)


def solve_dbcm(deg: DegreeSeq, opts: SolverOptions | None = None):
    """Directed analogue of solve_ubcm, constraining out- and in-degrees."""
    opts = opts or SolverOptions()
    if not deg.directed:
        raise InputError("solve_dbcm needs a directed degree sequence")
    k_out = np.asarray(deg.k_out, dtype=np.int64)
    k_in = np.asarray(deg.k_in, dtype=np.int64)
    n = len(k_out)
    for name, arr in (("out", k_out), ("in", k_in)):
        if np.any(arr < 0) or (n > 0 and np.any(arr > n - 1)):
            raise InputError(f"{name}-degrees must lie in [0, n-1]")
    if int(k_out.sum()) != int(k_in.sum()):
        raise InputError("sum of out-degrees must equal sum of in-degrees")

    x, y, p, forced, residual, iterations = _dbcm_core(k_out, k_in, opts)
    params = ParamVector(directed=True, x=x, y=y,
                         residual=residual, iterations=iterations)
    return params, ProbMatrix(n=n, directed=True, p=p, forced=forced)


def solve_benchmark(g: Graph, opts: SolverOptions | None = None) -> ProbMatrix:
    """Configuration-model probabilities for g's own degree sequence."""
    deg = degree_sequence(g)
    if g.directed:
        return solve_dbcm(deg, opts)[1]
    return solve_ubcm(deg, opts)[1]


def solve_conditioned_set(g: Graph, nodes: Iterable[int],
                          opts: SolverOptions | None = None) -> ProbMatrix:
    """Solve the ensemble conditioned on the exact link patterns of `nodes`.

    Every entry incident to a conditioned node is pinned to the observed
    adjacency value; the remaining nodes are solved with degrees reduced by
    their (now known) links into the conditioned set.
    """
    opts = opts or SolverOptions()
    cond = sorted(set(int(v) for v in nodes))
    if not cond:
        raise InputError("conditioning set must be non-empty")
    for v in cond:
        if not 0 <= v < g.n:
            raise InputError(f"conditioned node {v} out of range")
    if len(cond) >= g.n:
        raise InputError("conditioning set must be a proper subset of the nodes")

    a = g.adjacency()
    keep = np.array([v for v in range(g.n) if v not in cond], dtype=np.int64)
    node_tag = cond[0] if len(cond) == 1 else None

    sub = a[np.ix_(keep, keep)].astype(np.int64)
    try:
        if g.directed:
            _, _, p_sub, forced_sub, _, _ = _dbcm_core(
                sub.sum(axis=1), sub.sum(axis=0), opts)
        else:
            _, p_sub, forced_sub, _, _ = _ubcm_core(sub.sum(axis=1), opts)
    except SolverError as exc:
        raise SolverError("conditioned solve did not converge",
                          residual=exc.residual, iterations=exc.iterations,
                          node=node_tag) from exc

    p = a.copy()
    forced = np.full((g.n, g.n), FORCED_OBS, dtype=np.int8)
    p[np.ix_(keep, keep)] = p_sub
    forced[np.ix_(keep, keep)] = forced_sub
    np.fill_diagonal(p, 0.0)
    return ProbMatrix(n=g.n, directed=g.directed, p=p, forced=forced)

