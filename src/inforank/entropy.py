"""Ensemble Shannon entropies and the uncertainty-reduction ranking index.

All entropies are in nats. The index of node i is

    I_i = 1 - S_(i) / S_0

where S_0 is the entropy of the degree-constrained benchmark ensemble and
S_(i) the entropy after additionally pinning node i's exact link pattern and
re-solving the reduced degree constraints. The n conditioned ensembles come
from one conditioned pass (`conditioned_pass`), which takes them from
maxent.solve_each_conditioned and hands each to every per-node scorer.

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
from .graphs import DegreeSeq, Graph, degree_sequence
from .maxent import (FORCED_LIM, FORCED_OBS, ProbMatrix, SolverOptions,
                     solve_benchmark, solve_conditioned_set,
                     solve_each_conditioned)

LOG_CLIP = 1e-15           # clamp inside logarithms only, never in residuals
DEFAULT_LIMIT_EPS = 1e-10  # regularization distance for boundary-pinned entries


def _h(p: np.ndarray) -> np.ndarray:
    """Elementwise -[p ln p + (1-p) ln(1-p)] with 0 ln 0 := 0."""
    p = np.asarray(p, dtype=float)
    return -(p * np.log(np.clip(p, LOG_CLIP, None))
             + (1.0 - p) * np.log(np.clip(1.0 - p, LOG_CLIP, None)))


def _entry_entropies(pm: ProbMatrix, limit_eps: float) -> np.ndarray:
    """Per-entry entropy matrix honoring the forced-mask conventions."""
    h = _h(pm.p)
    h[pm.forced == FORCED_OBS] = 0.0
    h[pm.forced == FORCED_LIM] = _h(1.0 - limit_eps) if limit_eps > 0.0 else 0.0
    np.fill_diagonal(h, 0.0)
    return h


def benchmark_entropy(pm: ProbMatrix, limit_eps: float = 0.0):
    """Benchmark entropy S_0 and per-node contributions.

    Undirected matrices sum each unordered pair once; directed matrices sum
    all ordered pairs. In both cases S_0 = (1/2) sum_i contrib_i exactly,
    with a directed node's contribution covering its row and column terms.
    """
    h = _entry_entropies(pm, limit_eps)
    if pm.directed:
        contrib = h.sum(axis=1) + h.sum(axis=0)
        s0 = float(h.sum())
    else:
        contrib = h.sum(axis=1)
        s0 = 0.5 * float(h.sum())
    return s0, contrib


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
    labels: tuple[str, ...]
    k: np.ndarray | None = None
    k_out: np.ndarray | None = None
    k_in: np.ndarray | None = None

    def to_rows(self):
        """Rows for tabular output: node, label, degrees, entropies, index."""
        rows = []
        for i in range(self.n):
            row = {"node": i, "label": self.labels[i]}
            if self.directed:
                row["k_out"] = int(self.k_out[i])
                row["k_in"] = int(self.k_in[i])
            else:
                row["k"] = int(self.k[i])
            row["S0_contrib"] = float(self.S0_contrib[i])
            row["S_cond"] = None if self.failed[i] else float(self.S_cond[i])
            row["inforank"] = None if self.failed[i] else float(self.I[i])
            rows.append(row)
        return rows


def conditioned_pass(g: Graph, scorers, opts: SolverOptions | None = None) -> np.ndarray:
    """Score every node's conditioned ensemble with each of `scorers`.

    Node i's ensemble is solved once, by maxent.solve_each_conditioned, and
    handed to every scorer(i, pm); row k of the result holds scorers[k] per
    node, NaN where the conditioned solve failed. The nodes arrive in the
    order of the solver's stacks, not by index, and each matrix is dropped
    once scored.
    """
    values = np.full((len(scorers), g.n), np.nan)
    for i, pm in solve_each_conditioned(g, opts):
        if pm is not None:
            values[:, i] = [score(i, pm) for score in scorers]
        del pm  # before the next matrix is built
    return values


def _benchmark(g: Graph, opts: SolverOptions | None):
    """The benchmark ProbMatrix, S0 and its per-node contributions; raises
    UndefinedIndexError when the benchmark leaves the index undefined."""
    pm = solve_benchmark(g, opts)
    s0, contrib = benchmark_entropy(pm, DEFAULT_LIMIT_EPS)
    if not pm.free_mask().any():
        raise UndefinedIndexError(
            "benchmark ensemble is fully deterministic (no free entries); "
            "the ranking index is undefined")
    if s0 <= 0.0:
        raise UndefinedIndexError(
            "benchmark entropy is zero; the ranking index is undefined")
    return pm, s0, contrib


def ranking_pass(g: Graph, scorers=(), opts: SolverOptions | None = None):
    """Rank every node, scoring its conditioned ensemble with `scorers` too.

    One benchmark solve, then one conditioned pass shared by the entropy and
    every scorer. Returns the EntropyReport, the benchmark ProbMatrix and one
    row of per-node values per scorer (NaN where the solve failed).
    """
    deg = degree_sequence(g)
    pm, s0, contrib = _benchmark(g, opts)
    s_cond, *extra = conditioned_pass(
        g, (lambda i, cond: benchmark_entropy(cond, DEFAULT_LIMIT_EPS)[0],
            *scorers), opts)
    report = EntropyReport(
        n=g.n, directed=g.directed, S0=s0, S0_contrib=contrib,
        S_cond=s_cond, I=1.0 - s_cond / s0, failed=np.isnan(s_cond),
        labels=tuple(g.label(i) for i in range(g.n)),
        k=None if g.directed else deg.k,
        k_out=deg.k_out if g.directed else None,
        k_in=deg.k_in if g.directed else None,
    )
    return report, pm, extra


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
    cond = solve_conditioned_set(g, nodes, opts)
    s0 = _benchmark(g, opts)[1]
    return float(1.0 - benchmark_entropy(cond, DEFAULT_LIMIT_EPS)[0] / s0)


# ---------------------------------------------------------------------------
# closed-form approximations to the per-node benchmark contribution
# ---------------------------------------------------------------------------

def approx_sparse(deg: DegreeSeq) -> np.ndarray:
    """Sparse-limit estimate of S_0^(i): -k ln(k/sqrt(2L)) + k per side.

    Valid when all p_ij << 1; zero-degree sides contribute 0.
    """
    if deg.directed:
        out = np.zeros(deg.n)
        root_l = np.sqrt(float(deg.L)) if deg.L > 0 else 1.0
        for arr in (deg.k_out, deg.k_in):
            k = arr.astype(float)
            nz = k > 0
            out[nz] += -k[nz] * np.log(k[nz] / root_l) + k[nz]
        return out
    k = deg.k.astype(float)
    out = np.zeros(deg.n)
    nz = k > 0
    if deg.L > 0:
        out[nz] = -k[nz] * np.log(k[nz] / np.sqrt(2.0 * deg.L)) + k[nz]
    return out


def approx_meanfield(deg: DegreeSeq) -> np.ndarray:
    """Mean-field estimate of S_0^(i): (n-1) h(k_i/(n-1)) per side."""
    n = deg.n
    if n < 2:
        return np.zeros(deg.n)
    if deg.directed:
        return (n - 1) * (_h(deg.k_out / (n - 1.0)) + _h(deg.k_in / (n - 1.0)))
    return (n - 1) * _h(deg.k / (n - 1.0))
