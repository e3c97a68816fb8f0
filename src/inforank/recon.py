"""Expected reconstruction accuracy and rank-accuracy correlation analysis.

Accuracy is the probability-weighted fraction of correctly reconstructed
link/non-link entries over all ordered pairs, <A> = (<TP> + <TN>) / (N(N-1)).
Undirected graphs evaluate ordered pairs symmetrically, which leaves the
value unchanged. The per-node accuracies are scored on the conditioned
ensembles of entropy.conditioned_pass, so a caller that also ranks (the
`accuracy` command, via entropy.ranking_pass) solves each ensemble once.

`class_accuracy` scores an ensemble on its degree classes
(maxent.ClassSolution) with no n x n array: the pair sum of 1 - p over the
free class pairs, plus 2p - 1 gathered on the observed links among the free
nodes, plus 1 for each pair that touches a conditioned node.

`solved_pearson` is the one rule for a correlation over the solved nodes:
a node that is NaN in either vector takes no part, and an undefined
correlation is None. `AccuracyReport` and the `compare` command both use it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centrality import RankVector
from .entropy import conditioned_pass
from .errors import InputError
from .graphs import Graph
from .maxent import ClassSolution, SolverOptions, solve_classes


def class_accuracy(sol: ClassSolution) -> float:
    """<A> of sol.expand() against the graph sol was solved for, summed
    over class pairs."""
    n, f = sol.n, int(sol.m.sum())
    if n < 2:
        raise InputError("accuracy needs at least two nodes")
    tail, head = sol.links
    among = ~(sol.known[tail] | sol.known[head])
    on_links = sol.p[sol.node_cls[tail[among]], sol.node_cls[head[among]]]
    total = (sol.m @ (sol.partners * (1.0 - sol.p))).sum()
    total += (2.0 * on_links - 1.0).sum() + (n * (n - 1) - f * (f - 1))
    return float(total / (n * (n - 1)))


def solved_pearson(x, y) -> float | None:
    """Product-moment correlation of two equal-length vectors over the
    entries where neither is NaN, so a node whose solve failed takes no
    part; None where that is undefined: fewer than two entries left, or one
    side constant on them."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ok = ~np.isnan(x + y)
    x, y = x[ok], y[ok]
    if len(x) < 2:
        return None
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        return None
    return float((dx * dy).sum() / (sx * sy))


@dataclass
class AccuracyReport:
    A_benchmark: float
    A: np.ndarray                      # per-node accuracy under conditioning
    correlations: dict[str, float | None]  # None where undefined
    failed: np.ndarray                 # bool; conditioned solve failed

    @classmethod
    def build(cls, a_benchmark: float, acc: np.ndarray,
              ranks: list[RankVector]) -> "AccuracyReport":
        """Assemble the report from per-node accuracies (NaN where failed).

        Each correlation is solved_pearson's: a node that is NaN in either
        vector takes no part, and it is None where it is undefined, so a
        rank vector with zero variance does not abort the report.
        """
        for rank in ranks:
            if len(rank.rescaled) != len(acc):
                raise InputError(f"rank vector {rank.index_name!r} has wrong length")
        correlations = {rank.index_name: solved_pearson(acc, rank.rescaled)
                        for rank in ranks}
        return cls(A_benchmark=a_benchmark, A=acc,
                   correlations=correlations, failed=np.isnan(acc))


def accuracy_report(g: Graph, ranks: list[RankVector],
                    opts: SolverOptions | None = None) -> AccuracyReport:
    """Per-node accuracies plus Pearson r against each rescaled rank vector."""
    a_bench = class_accuracy(solve_classes(g, None, opts))
    (acc,) = conditioned_pass(g, (lambda i, sol: class_accuracy(sol),), opts)
    return AccuracyReport.build(a_bench, acc, ranks)
