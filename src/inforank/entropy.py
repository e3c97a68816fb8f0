"""Ensemble Shannon entropies and the uncertainty-reduction ranking index.

All entropies are in nats. The index of node i is

    I_i = 1 - S_(i) / S_0

where S_0 is the entropy of the degree-constrained benchmark ensemble and
S_(i) the entropy after additionally pinning node i's exact link pattern and
re-solving the reduced degree constraints. The n conditioned ensembles come
from one conditioned pass (`conditioned_pass`), which takes them from
maxent.solve_each_conditioned and hands each to every per-node scorer.

S is a sum of independent pair entropies, so `class_entropy` scores an
ensemble on its degree classes (maxent.ClassSolution) as a weighted sum over
class pairs, with no n x n array; `class_contributions` splits the
benchmark's S into per-node terms. `benchmark_entropy` scores a ProbMatrix
with the same conventions and stays as their oracle.

Boundary handling: entries pinned by *conditioning* are genuine knowledge and
carry zero entropy. Entries pinned by the *polytope boundary* (FORCED_LIM,
see maxent) sit at the boundary limit of the solution; for ranking purposes
each such entry is scored at a small regularization DEFAULT_LIMIT_EPS away
from the boundary. This keeps the ratio well defined on graphs whose
benchmark is exactly deterministic apart from saturated hubs (a star graph
being the canonical case: the center scores 1, a leaf scores 1/(n-1)).
Fully pinned or zero-entropy benchmarks have no free structure left to
explain and raise UndefinedIndexError. The standalone entropy functions
default to the strict convention (limit_eps = 0) in which boundary entries
contribute nothing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedIndexError
from .graphs import DegreeSeq, Graph
from .maxent import (FORCED_LIM, FORCED_OBS, FREE, ClassSolution, ProbMatrix,
                     SolverOptions, solve_classes, solve_each_conditioned)

LOG_CLIP = 1e-15           # clamp inside logarithms only, never in residuals
DEFAULT_LIMIT_EPS = 1e-10  # regularization distance for boundary-pinned entries


def _h(p: np.ndarray) -> np.ndarray:
    """Elementwise -[p ln p + (1-p) ln(1-p)] with 0 ln 0 := 0."""
    p = np.asarray(p, dtype=float)
    return -(p * np.log(np.maximum(p, LOG_CLIP))
             + (1.0 - p) * np.log(np.maximum(1.0 - p, LOG_CLIP)))


def _entry_entropies(p: np.ndarray, forced: np.ndarray,
                     limit_eps: float) -> np.ndarray:
    """Per-entry entropies of p honoring the forced-mask conventions."""
    h = _h(p)
    h[forced == FORCED_OBS] = 0.0
    h[forced == FORCED_LIM] = _h(1.0 - limit_eps) if limit_eps > 0.0 else 0.0
    return h


def benchmark_entropy(pm: ProbMatrix, limit_eps: float = 0.0):
    """Benchmark entropy S_0 and per-node contributions.

    Undirected matrices sum each unordered pair once; directed matrices sum
    all ordered pairs. In both cases S_0 = (1/2) sum_i contrib_i exactly,
    with a directed node's contribution covering its row and column terms.
    """
    h = _entry_entropies(pm.p, pm.forced, limit_eps)
    np.fill_diagonal(h, 0.0)
    if pm.directed:
        contrib = h.sum(axis=1) + h.sum(axis=0)
        s0 = float(h.sum())
    else:
        contrib = h.sum(axis=1)
        s0 = 0.5 * float(h.sum())
    return s0, contrib


def class_entropy(sol: ClassSolution, limit_eps: float = 0.0) -> float:
    """benchmark_entropy(sol.expand())[0], summed over class pairs.

    A free node of class c has partners[c, d] pairs with class d, each of
    entropy h_cd; pairs that touch a known node are pinned by conditioning
    and score 0.
    """
    h = _entry_entropies(sol.p, sol.forced, limit_eps)
    s = float(sol.m @ (sol.partners * h).sum(axis=1))
    return s if sol.directed else s * 0.5


def class_contributions(sol: ClassSolution, limit_eps: float = 0.0) -> np.ndarray:
    """benchmark_entropy(sol.expand())[1], from the class pairs: the row
    entropy of a free node of class c, plus its column's (h_dc) when
    directed; a known node contributes 0."""
    h = _entry_entropies(sol.p, sol.forced, limit_eps)
    partners = sol.partners
    row = (partners * h).sum(axis=1)
    if sol.directed:
        row = row + (partners * h.T).sum(axis=1)
    return np.append(row, 0.0)[sol.node_cls]


@dataclass
class EntropyReport:
    """Full per-node ranking report."""

    n: int
    directed: bool
    S0: float
    S0_contrib: np.ndarray
    S_cond: np.ndarray
    I: np.ndarray
    failed: np.ndarray            # bool; True where the conditioned solve failed


def conditioned_pass(g: Graph, scorers, opts: SolverOptions | None = None) -> np.ndarray:
    """Score every node's conditioned ensemble with each of `scorers`.

    Node i's ensemble is solved once, by maxent.solve_each_conditioned, and
    handed to every scorer(i, sol) as a maxent.ClassSolution; row k of the
    result holds scorers[k] per node, NaN where the conditioned solve
    failed. The nodes arrive in the order of the solver's stacks, not by
    index.
    """
    values = np.full((len(scorers), g.n), np.nan)
    for i, sol in solve_each_conditioned(g, opts):
        if sol is not None:
            values[:, i] = [score(i, sol) for score in scorers]
    return values


def _benchmark(g: Graph, opts: SolverOptions | None):
    """The benchmark ClassSolution, S0 and its per-node contributions;
    raises UndefinedIndexError when the benchmark leaves the index
    undefined."""
    sol = solve_classes(g, None, opts)
    s0 = class_entropy(sol, DEFAULT_LIMIT_EPS)
    if not ((sol.forced == FREE) & (sol.partners > 0)).any():
        raise UndefinedIndexError(
            "benchmark ensemble is fully deterministic (no free entries); "
            "the ranking index is undefined")
    if s0 <= 0.0:
        raise UndefinedIndexError(
            "benchmark entropy is zero; the ranking index is undefined")
    return sol, s0, class_contributions(sol, DEFAULT_LIMIT_EPS)


def ranking_pass(g: Graph, scorers=(), opts: SolverOptions | None = None):
    """Rank every node, scoring its conditioned ensemble with `scorers` too.

    One benchmark solve, then one conditioned pass shared by the entropy and
    every scorer. Returns the EntropyReport, the benchmark ClassSolution and
    one row of per-node values per scorer (NaN where the solve failed).
    """
    bench, s0, contrib = _benchmark(g, opts)
    s_cond, *extra = conditioned_pass(
        g, (lambda i, sol: class_entropy(sol, DEFAULT_LIMIT_EPS), *scorers),
        opts)
    report = EntropyReport(
        n=g.n, directed=g.directed, S0=s0, S0_contrib=contrib,
        S_cond=s_cond, I=1.0 - s_cond / s0, failed=np.isnan(s_cond))
    return report, bench, extra


def inforank(g: Graph, opts: SolverOptions | None = None) -> EntropyReport:
    """Rank every node by the fractional entropy reduction of its ego-network.

    Per-node solver failures are flagged in the report instead of aborting
    the whole ranking.
    """
    return ranking_pass(g, (), opts)[0]


def inforank_subset(g: Graph, nodes, opts: SolverOptions | None = None) -> float:
    """Joint index of a node subset: pin every link incident to the subset.

    The subset is solved first, so an invalid one raises InputError before
    the benchmark is solved.
    """
    cond = solve_classes(g, nodes, opts)
    s0 = _benchmark(g, opts)[1]
    return float(1.0 - class_entropy(cond, DEFAULT_LIMIT_EPS) / s0)


# ---------------------------------------------------------------------------
# closed-form approximations to the per-node benchmark contribution
# ---------------------------------------------------------------------------

def approx_sparse(deg: DegreeSeq) -> np.ndarray:
    """Sparse-limit estimate of S_0^(i): -k ln(k/sqrt(2L)) + k per side.

    Valid when all p_ij << 1; zero-degree sides contribute 0.
    """
    out = np.zeros(deg.n)
    if deg.L > 0:
        root_l = np.sqrt(float(deg.L) if deg.directed else 2.0 * deg.L)
        for k in (deg.k_out, deg.k_in) if deg.directed else (deg.k,):
            k = k.astype(float)
            nz = k > 0
            out[nz] += -k[nz] * np.log(k[nz] / root_l) + k[nz]
    return out


def approx_meanfield(deg: DegreeSeq) -> np.ndarray:
    """Mean-field estimate of S_0^(i): (n-1) h(k_i/(n-1)) per side."""
    n = deg.n
    if n < 2:
        return np.zeros(n)
    total = np.full(n, -0.0)  # x + -0.0 is x bit for bit, a -0.0 included
    for k in (deg.k_out, deg.k_in) if deg.directed else (deg.k,):
        total += _h(k / (n - 1.0))
    return (n - 1) * total
