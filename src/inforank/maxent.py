"""Degree-constrained maximum-entropy solvers.

Link probabilities take the fitness form p_ij = x_i x_j / (1 + x_i x_j)
(undirected) or x_i y_j / (1 + x_i y_j) (directed). Parameters are found by
damped fixed-point iteration on x_i <- k_i / sum_j x_j/(1 + x_i x_j).

Degenerate degrees are handled exactly before iterating:
  * k_i = 0          -> x_i = 0, all incident probabilities are exactly 0;
  * k_i = (partners) -> the exact solution runs away to x_i = +inf, so the
    node is peeled: its links are pinned to 1 and the remaining system is
    re-reduced. Peeling repeats until no saturated node remains.

Pinned entries are tracked in a mask so downstream consumers can tell free
probabilities from saturated (peeled) ones and from entries fixed by
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
FORCED_LIM = 2    # pinned to 1 by peeling (boundary limit of the solution)


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

    Peeled nodes have no finite parameter; they are reported as 0 here and
    their probabilities live in the forced mask of the ProbMatrix instead.
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
# undirected core
# ---------------------------------------------------------------------------
#
# The finite fixed point exists only when the degree sequence lies strictly
# inside the polytope of expected degrees (the Erdos-Gallai polytope). On its
# boundary some probabilities saturate to exactly 0 or 1 and the parameters
# run away, so the saturated structure is pinned exactly before iterating:
#   * node facets: k_i = 0 and k_i = (available partners) -> peel the node;
#   * prefix facets: an Erdos-Gallai inequality holding with equality pins
#     the clique on the top-s nodes, the links from higher-degree outsiders
#     into it, and the links among low-degree outsiders (to 1/1/0).

def _node_peel(k: np.ndarray, allowed: np.ndarray, pins1: list):
    """Peel nodes whose remaining degree saturates their available partners."""
    while True:
        active = k > 0
        event = False
        for i in np.flatnonzero(active):
            partners = np.flatnonzero(allowed[i] & active)
            if k[i] > len(partners):
                raise InputError(
                    f"infeasible degree sequence: node {i} needs {k[i]} partners, "
                    f"only {len(partners)} available")
            if k[i] == len(partners) and k[i] >= 1:
                for j in partners:
                    pins1.append((int(i), int(j)))
                    allowed[i, j] = allowed[j, i] = False
                    k[j] -= 1
                k[i] = 0
                event = True
                break
        if not event:
            return


def _complete_among_active(k: np.ndarray, allowed: np.ndarray) -> bool:
    active = np.flatnonzero(k > 0)
    if len(active) < 2:
        return False
    sub = allowed[np.ix_(active, active)]
    return bool(np.all(sub | np.eye(len(active), dtype=bool)))


def _eg_tight_reduction(k: np.ndarray, allowed: np.ndarray,
                        pins1: list, pins0: list) -> bool:
    """Pin the structure of one Erdos-Gallai equality, if any.

    Only applies when the top-s block is separated by a strict degree gap
    (ties across the cut leave the tight set ambiguous). Returns True if a
    reduction was applied; the caller should then re-run the node peel.
    """
    active = np.flatnonzero(k > 0)
    if len(active) < 2:
        return False
    order = active[np.argsort(-k[active], kind="stable")]
    kk = k[order]
    m = len(order)
    for s in range(1, m):
        lhs = int(kk[:s].sum())
        rhs = s * (s - 1) + int(np.minimum(kk[s:], s).sum())
        if lhs > rhs:
            raise InputError(
                "infeasible degree sequence: violates the Erdos-Gallai bound "
                f"at prefix size {s}")
        if lhs == rhs and kk[s - 1] > kk[s]:
            top = order[:s]
            rest = order[s:]
            big = rest[k[rest] > s]
            small = rest[k[rest] <= s]
            for a_idx, i in enumerate(top):
                for j in top[a_idx + 1:]:
                    if allowed[i, j]:
                        pins1.append((int(i), int(j)))
                        allowed[i, j] = allowed[j, i] = False
                        k[i] -= 1
                        k[j] -= 1
            for i in big:
                for j in top:
                    if allowed[i, j]:
                        pins1.append((int(i), int(j)))
                        allowed[i, j] = allowed[j, i] = False
                        k[i] -= 1
                        k[j] -= 1
            for i in small:
                others = np.concatenate([big, small])
                for j in others:
                    if j != i and allowed[i, j]:
                        pins0.append((int(i), int(j)))
                        allowed[i, j] = allowed[j, i] = False
            if np.any(k < 0):
                raise InputError("infeasible degree sequence: boundary reduction "
                                 "drove a degree negative")
            return True
    return False


def _iterate_masked(k: np.ndarray, allowed: np.ndarray, opts: SolverOptions):
    """Damped fixed-point iteration restricted to the allowed (free) pairs."""
    n = len(k)
    active = np.flatnonzero(k > 0)
    x_full = np.zeros(n)
    if len(active) == 0:
        return x_full, 0.0, 0

    ka = k[active].astype(float)
    mask = allowed[np.ix_(active, active)].astype(float)
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
    k = np.asarray(k, dtype=np.int64).copy()
    n = len(k)
    allowed = ~np.eye(n, dtype=bool)
    pins1: list[tuple[int, int]] = []
    pins0: list[tuple[int, int]] = []

    _node_peel(k, allowed, pins1)
    # The Erdos-Gallai bound only certifies saturation while the free system
    # is still complete among active nodes; once pairs have been pinned the
    # plain bound no longer applies.
    while _complete_among_active(k, allowed) and \
            _eg_tight_reduction(k, allowed, pins1, pins0):
        _node_peel(k, allowed, pins1)
    x, residual, iterations = _iterate_masked(k, allowed, opts)

    xx = np.outer(x, x)
    p = np.where(allowed, xx / (1.0 + xx), 0.0)
    forced = np.zeros_like(p, dtype=np.int8)
    for i, j in pins1:
        p[i, j] = p[j, i] = 1.0
        forced[i, j] = forced[j, i] = FORCED_LIM
    for i, j in pins0:
        p[i, j] = p[j, i] = 0.0
        forced[i, j] = forced[j, i] = FORCED_LIM
    np.fill_diagonal(p, 0.0)
    return x, p, forced, residual, iterations


# ---------------------------------------------------------------------------
# directed core
# ---------------------------------------------------------------------------

def _peel_directed(k_out: np.ndarray, k_in: np.ndarray):
    k_out = k_out.astype(np.int64).copy()
    k_in = k_in.astype(np.int64).copy()
    n = len(k_out)
    pinned: list[tuple[int, int]] = []
    while True:
        event = False
        for i in range(n):
            if k_out[i] == 0:
                continue
            partners = [j for j in range(n) if j != i and k_in[j] > 0]
            if k_out[i] > len(partners):
                raise InputError(
                    f"infeasible degree sequence: node {i} needs {k_out[i]} "
                    f"out-partners, only {len(partners)} available")
            if k_out[i] == len(partners):
                for j in partners:
                    pinned.append((i, j))
                    k_in[j] -= 1
                k_out[i] = 0
                event = True
                break
        if event:
            continue
        for j in range(n):
            if k_in[j] == 0:
                continue
            sources = [i for i in range(n) if i != j and k_out[i] > 0]
            if k_in[j] > len(sources):
                raise InputError(
                    f"infeasible degree sequence: node {j} needs {k_in[j]} "
                    f"in-partners, only {len(sources)} available")
            if k_in[j] == len(sources):
                for i in sources:
                    pinned.append((i, j))
                    k_out[i] -= 1
                k_in[j] = 0
                event = True
                break
        if not event:
            return k_out, k_in, pinned


def _iterate_directed(k_out: np.ndarray, k_in: np.ndarray, opts: SolverOptions):
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
    residual = np.inf
    for it in range(1, opts.max_iterations + 1):
        t = 1.0 / (1.0 + np.outer(x, y))
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
    ko_red, ki_red, pinned = _peel_directed(np.asarray(k_out), np.asarray(k_in))
    x, y, residual, iterations = _iterate_directed(ko_red, ki_red, opts)

    xy = np.outer(x, y)
    p = xy / (1.0 + xy)
    forced = np.zeros_like(p, dtype=np.int8)
    for i, j in pinned:
        p[i, j] = 1.0
        forced[i, j] = FORCED_LIM
    np.fill_diagonal(p, 0.0)
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

    try:
        if g.directed:
            deg = degree_sequence(g)
            ko_red = deg.k_out[keep] - a[np.ix_(keep, cond)].sum(axis=1).astype(np.int64)
            ki_red = deg.k_in[keep] - a[np.ix_(cond, keep)].sum(axis=0).astype(np.int64)
            _, _, p_sub, forced_sub, _, _ = _dbcm_core(ko_red, ki_red, opts)
        else:
            deg = degree_sequence(g)
            k_red = deg.k[keep] - a[np.ix_(keep, cond)].sum(axis=1).astype(np.int64)
            _, p_sub, forced_sub, _, _ = _ubcm_core(k_red, opts)
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

