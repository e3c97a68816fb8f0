"""Entropy-based node ranking for binary networks.

Public surface: graph ingestion, degree-constrained maximum-entropy solvers,
the uncertainty-reduction ranking index and its approximations, baseline
centralities, reconstruction accuracy, ensemble sampling, and interbank
clearing experiments.
"""

from .centrality import (RankVector, closeness_centrality, degree_centrality,
                         pagerank, rescale)
from .clearing import (ClearingProblem, ExternalsConfig, PaymentVector,
                       build_liabilities, clear, fit_trend,
                       risk_error_experiment)
from .entropy import (EntropyReport, approx_meanfield, approx_sparse,
                      benchmark_entropy, inforank, inforank_subset)
from .errors import (GraphError, InfoRankError, InputError, ParseError,
                     SolverError, UndefinedCorrelationError,
                     UndefinedIndexError)
from .graphs import (DegreeSeq, Graph, degree_sequence, load_edge_list,
                     make_graph)
from .maxent import (FORCED_LIM, FORCED_OBS, FREE, ParamVector, ProbMatrix,
                     SolverOptions, solve_benchmark, solve_conditioned_set,
                     solve_dbcm, solve_ubcm)
from .recon import AccuracyReport, accuracy_report, expected_accuracy, pearson
from .sampling import (SampleSpec, adjacency_samples, sample_ensemble,
                       sample_graph, seed_states)

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport", "ClearingProblem", "DegreeSeq", "EntropyReport",
    "ExternalsConfig", "FORCED_LIM", "FORCED_OBS", "FREE", "Graph",
    "GraphError", "InfoRankError", "InputError", "ParamVector", "ParseError",
    "PaymentVector", "ProbMatrix", "RankVector", "SampleSpec",
    "SolverError", "SolverOptions", "UndefinedCorrelationError",
    "UndefinedIndexError", "accuracy_report", "adjacency_samples",
    "approx_meanfield", "approx_sparse", "benchmark_entropy",
    "build_liabilities", "clear", "closeness_centrality",
    "degree_centrality", "degree_sequence", "expected_accuracy", "fit_trend",
    "inforank", "inforank_subset", "load_edge_list", "make_graph",
    "pagerank", "pearson", "rescale", "risk_error_experiment",
    "sample_ensemble", "sample_graph", "seed_states",
    "solve_benchmark", "solve_conditioned_set", "solve_dbcm", "solve_ubcm",
]
